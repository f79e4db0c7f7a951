"""Independent recomputations the tests freeze expected values against.

Everything here except the loop references deliberately avoids the
library's code paths: kernels are rebuilt from the formula, solves use
explicit inverses (or, for the extended-precision posterior, a hand-written
Cholesky), and the DTW cost is found by enumerating every admissible path.
The loop references (`loop_dtw`, `loop_fuse`, `random_hetero`) are the plain
implementations that faster library code replaced, kept to pin it bit for
bit or to bound it from below.
"""

import math

import numpy as np

from gplfd.errors import InconsistentConstraintError, InsufficientDataError
from gplfd.gp import (HETERO_MIN_POINTS, HeteroConfig, HeteroGPModel,
                      KernelParams, OptConfig, PosteriorPrediction,
                      TrainingSet, _group, _moving_average, _noise_variance,
                      fit_gp, gaussian_product, optimize_hyperparameters)
from gplfd.policy import _HARD_STRENGTH, _SAME_TIME_TOL


def _rbf(ta, tb, length_scale, signal_std):
    lag = np.subtract.outer(np.asarray(ta, float), np.asarray(tb, float))
    return signal_std ** 2 * np.exp(-lag ** 2 / (2.0 * length_scale ** 2))


def dense_posterior(t, y, length_scale, signal_std, r_vec, jitter, ts):
    """Latent posterior mean/variance through an explicit matrix inverse."""
    t, y, ts = np.asarray(t, float), np.asarray(y, float), np.asarray(ts, float)
    Ky = (_rbf(t, t, length_scale, signal_std) + np.diag(r_vec)
          + jitter * np.eye(t.size))
    Kinv = np.linalg.inv(Ky)
    offset = float(np.mean(y))
    Ks = _rbf(ts, t, length_scale, signal_std)
    mean = offset + Ks @ Kinv @ (y - offset)
    cov = _rbf(ts, ts, length_scale, signal_std) - Ks @ Kinv @ Ks.T
    return mean, np.diag(cov).copy()


def dense_lml(t, y, length_scale, signal_std, r_vec, jitter):
    t, y = np.asarray(t, float), np.asarray(y, float)
    Ky = (_rbf(t, t, length_scale, signal_std) + np.diag(r_vec)
          + jitter * np.eye(t.size))
    resid = y - np.mean(y)
    _, logdet = np.linalg.slogdet(Ky)
    quad = float(resid @ np.linalg.inv(Ky) @ resid)
    return -0.5 * quad - 0.5 * logdet - 0.5 * t.size * math.log(2.0 * math.pi)


def brute_force_dtw_cost(C):
    """Minimum path cost by exhaustive enumeration.

    Costs are accumulated from (0, 0) outward, in the same order the dynamic
    program adds them, so the optimum agrees bit for bit.
    """
    na, nb = C.shape
    best = [math.inf]

    def walk(i, j, acc):
        if i == na - 1 and j == nb - 1:
            best[0] = min(best[0], acc)
            return
        if i + 1 < na and j + 1 < nb:
            walk(i + 1, j + 1, acc + C[i + 1, j + 1])
        if i + 1 < na:
            walk(i + 1, j, acc + C[i + 1, j])
        if j + 1 < nb:
            walk(i, j + 1, acc + C[i, j + 1])

    walk(0, 0, C[0, 0])
    return best[0]


def loop_dtw(C):
    """Cumulative cost and warp pairs by the plain double loop.

    The row-by-row dynamic program and backtrack that the wavefront DTW in
    `gplfd.alignment` replaced, kept as its bit-for-bit reference.
    """
    na, nb = C.shape
    D = np.full((na, nb), np.inf)
    D[0, 0] = C[0, 0]
    for j in range(1, nb):
        D[0, j] = D[0, j - 1] + C[0, j]
    for i in range(1, na):
        row = D[i - 1]
        D[i, 0] = row[0] + C[i, 0]
        for j in range(1, nb):
            D[i, j] = C[i, j] + min(row[j - 1], row[j], D[i, j - 1])

    pairs = [(na - 1, nb - 1)]
    i, j = na - 1, nb - 1
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            best = min(D[i - 1, j - 1], D[i - 1, j], D[i, j - 1])
            if D[i - 1, j - 1] == best:
                i, j = i - 1, j - 1
            elif D[i - 1, j] == best:
                i -= 1
            else:
                j -= 1
        pairs.append((i, j))
    pairs.reverse()
    return D, np.array(pairs)


def critically_damped_free(e0, v0, omega, t):
    """Unforced critically damped response with natural frequency omega."""
    t = np.asarray(t, float)
    return (e0 + (v0 + omega * e0) * t) * np.exp(-omega * t)


def _cholesky_longdouble(A):
    """Lower Cholesky factor by the column algorithm, in A's precision."""
    n = A.shape[0]
    L = np.zeros_like(A)
    for j in range(n):
        pivot = A[j, j] - L[j, :j] @ L[j, :j]
        if not pivot > 0:
            raise ArithmeticError("matrix is not positive definite")
        L[j, j] = np.sqrt(pivot)
        L[j + 1:, j] = (A[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def _forward_longdouble(L, B):
    """Solve L X = B for lower-triangular L by forward substitution."""
    X = np.zeros_like(B)
    for i in range(L.shape[0]):
        X[i] = (B[i] - L[i, :i] @ X[:i]) / L[i, i]
    return X


def longdouble_posterior(t, y, length_scale, signal_std, r_vec, jitter, ts):
    """Dense latent posterior mean/variance in np.longdouble.

    The kernel, the Cholesky factorization and both triangular solves are
    written out here, so no LAPACK or BLAS routine touches the numbers.
    Where longdouble is the 80-bit x87 format it carries 64 mantissa bits
    against float64's 53.
    """
    ld = np.longdouble
    t, y, ts = (np.asarray(a, dtype=float).astype(ld) for a in (t, y, ts))
    l, sf2 = ld(length_scale), ld(signal_std) ** 2

    def kernel(a, b):
        lag = a[:, None] - b[None, :]
        return sf2 * np.exp(-lag * lag / (2 * l * l))

    A = kernel(t, t) + np.diag(np.asarray(r_vec, dtype=float).astype(ld)
                               + ld(jitter))
    L = _cholesky_longdouble(A)
    offset = np.sum(y) / ld(y.size)
    z = _forward_longdouble(L, (y - offset)[:, None])
    V = _forward_longdouble(L, kernel(t, ts))
    mean = offset + (V.T @ z)[:, 0]
    var = sf2 - np.sum(V * V, axis=0)
    return mean, var


def loop_fuse(policy, via_t, via_y, via_s, ts):
    """(q, 6) fused posterior by six separate fit_gp + predict calls.

    The per-dimension clash loop and via-point GPs that `gplfd.policy._fuse`
    replaced with one pass over shared via inputs, kept as its bit-for-bit
    reference.
    """
    order = np.argsort(via_t, kind="stable")
    t, y, s = via_t[order], via_y[order], via_s[order]
    for d in range(6):
        # Near-exact via-points of a dimension this close in time must
        # agree there; poses whose gap overflows differ.
        hard = s[:, d] < _HARD_STRENGTH
        t_hard = t[hard]
        with np.errstate(over="ignore"):
            differ = np.abs(np.diff(y[hard, d])) > 1e-9
        clash = (np.diff(t_hard) <= _SAME_TIME_TOL) & differ
        if np.any(clash):
            raise InconsistentConstraintError(
                f"two near-exact via-points at t={t_hard[np.argmax(clash)]} "
                "demand different poses")

    demo_side = policy.demonstration_posterior(ts)
    via_side = PosteriorPrediction(mean=np.empty_like(demo_side.mean),
                                   var=np.empty_like(demo_side.var))
    for d in range(6):
        model = fit_gp(TrainingSet(via_t, via_y[:, d]),
                       policy.dims[d].params, noise=via_s[:, d])
        pred = model.predict(ts)
        via_side.mean[:, d] = pred.mean
        # Treat the constraint noise as a log-interpolated profile so the
        # via side stays an observation-level posterior away from the knots.
        strength = np.exp(np.interp(ts, t, np.log(s[:, d])))
        via_side.var[:, d] = pred.var + strength
    return gaussian_product(demo_side, via_side)


def random_hetero(train: TrainingSet,
                  config: HeteroConfig = HeteroConfig()) -> HeteroGPModel:
    """Heteroscedastic fit whose every search starts only at random points.

    The loop of `gplfd.gp.fit_heteroscedastic` before its noise rounds were
    warm-started from the previous optimum, kept as the reference those
    rounds must not fall below.
    """
    if len(train) < HETERO_MIN_POINTS:
        raise InsufficientDataError(
            f"heteroscedastic fit needs at least {HETERO_MIN_POINTS} points, "
            f"got {len(train)}")

    # Residuals and noise are evaluated once per distinct input and
    # expanded by group index, so replicates share their noise exactly.
    u, index, counts = _group(train.t)
    noise_opt = OptConfig(n_starts=config.opt.n_starts,
                          seed=config.opt.seed + 1,
                          max_iter=config.opt.max_iter)
    # The search refuses targets that overflow before their variance does.
    signal = optimize_hyperparameters(train, noise=None, config=config.opt)
    floor = max(1e-10 * float(np.var(train.y)), 1e-12)

    for round_idx in range(config.iterations):
        resid = train.y - signal.predict(u).mean[index]
        mean_sq = np.bincount(index, resid * resid) / counts
        smoothed = _moving_average(mean_sq, config.smoothing_window)
        degenerate = bool(np.max(smoothed) <= floor)
        z = np.log(np.maximum(smoothed, floor))

        if u.size >= 2 and not degenerate:
            noise_model = optimize_hyperparameters(
                TrainingSet(u, z), noise=None, config=noise_opt)
        else:
            # Variance profile flat at the floor: pin the noise GP to it.
            flat = KernelParams(length_scale=max(float(np.ptp(u)), 1e-3),
                                signal_std=1e-6)
            noise_model = fit_gp(TrainingSet(u, z), flat, noise=1e-12)

        r_train = _noise_variance(noise_model, u)[index]
        if round_idx == 0 and not degenerate:
            signal = optimize_hyperparameters(train, noise=r_train,
                                              config=config.opt)
        else:
            signal = fit_gp(train, signal.params, noise=r_train)

    return HeteroGPModel(signal_gp=signal, noise_gp=noise_model,
                         degenerate=degenerate)
