"""Single-output Gaussian-process regression with an RBF kernel.

Provides exact posterior inference with fixed or per-point observation noise,
marginal-likelihood hyperparameter search, a two-stage heteroscedastic noise
model (a second GP regresses the log of an empirical variance estimate and
feeds it back as per-point noise), and elementwise Gaussian fusion.

Conventions
-----------
Noise arguments are variances, not standard deviations. Targets are centered
by their mean at fit time and the offset is restored at prediction, so the
prior mean is the constant data mean.

A jitter proportional to the mean kernel diagonal is added to every
observation's own noise variance, s_k = r_k + jitter, before the
observations are grouped; it is escalated tenfold while the Cholesky
factorization fails, up to a hard ceiling. The observations at each
distinct input are then replaced by one: their precision-weighted mean,
with noise variance 1 / sum(1 / s_k). A correction term carries the
within-group scatter, so the reduced system has exactly the posterior and
the log marginal likelihood of the full one, for equal or unequal noise
(Rasmussen & Williams 2006, Alg. 2.1 and §5.4.1). Fitted models, the
hyperparameter search and the gradient all factorize only the distinct
inputs, and the search maximizes exactly the likelihood fit_gp reports.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import cho_factor, solve_triangular
from scipy.linalg.lapack import dpotri, dpotrs
from scipy.optimize import minimize

from .errors import (InconsistentConstraintError, InvalidInputError,
                     InsufficientDataError, NumericalConditioningError,
                     OptimizationFailureError)

# Jitter added to every observation's noise, as fractions of mean(diag K).
JITTER_START_FRAC = 1e-10
JITTER_MAX_FRAC = 1e-4

# Most distinct inputs of one GP: a fit holds a few m x m float matrices,
# about 100 MB at this size.
MAX_GP_INPUTS = 2000
# Most query-by-input cells of one predict, which holds a few q x m float
# matrices: about 1 GB at this size.
MAX_PREDICT_CELLS = 40_000_000
# Fewest training points a heteroscedastic fit accepts.
HETERO_MIN_POINTS = 10
# Most L-BFGS-B starts of one search: each start is a full local search.
MAX_OPT_STARTS = 1000
# Most L-BFGS-B iterations of one start.
MAX_OPT_ITER = 10_000
# Most noise-refit rounds of one heteroscedastic fit.
MAX_HETERO_ITERATIONS = 100

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class KernelParams:
    """RBF kernel k(t, t') = signal_std^2 * exp(-(t - t')^2 / (2 l^2))."""

    length_scale: float
    signal_std: float

    def __post_init__(self):
        # The kernel squares both: a square must neither overflow nor vanish.
        for name in ("length_scale", "signal_std"):
            value = getattr(self, name)
            if not (value > 0.0 and 0.0 < value * value < math.inf):
                raise InvalidInputError(
                    f"{name} must be positive with a finite, nonzero square")


@dataclass(frozen=True)
class TrainingSet:
    """Paired inputs and targets. Duplicate inputs are allowed."""

    t: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.t, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if t.ndim != 1 or y.ndim != 1:
            raise InvalidInputError("training inputs and targets must be 1-d")
        if t.shape != y.shape:
            raise InvalidInputError("training inputs and targets differ in length")
        if t.size < 1:
            raise InvalidInputError("training set must contain at least one point")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise InvalidInputError("training data must be finite")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)
        t.setflags(write=False)
        y.setflags(write=False)

    def __len__(self):
        return self.t.size


@dataclass
class PosteriorPrediction:
    """Pointwise posterior mean and variance."""

    mean: np.ndarray
    var: np.ndarray


def rbf_kernel(ta, tb, params: KernelParams) -> np.ndarray:
    """Gram matrix of the RBF kernel between two input vectors."""
    ta = np.atleast_1d(np.asarray(ta, dtype=float))
    tb = np.atleast_1d(np.asarray(tb, dtype=float))
    d = (ta[:, None] - tb[None, :]) / params.length_scale
    return params.signal_std ** 2 * np.exp(-0.5 * d * d)


def _as_noise(noise, n):
    """Validate a noise variance: a float, or a vector of length n."""
    if np.isscalar(noise) or getattr(noise, "ndim", None) == 0:
        val = float(noise)
        if not (val >= 0.0 and math.isfinite(val)):
            raise InvalidInputError("noise variance must be finite and >= 0")
        return val
    vec = np.asarray(noise, dtype=float)
    if vec.shape != (n,):
        raise InvalidInputError("noise vector length must match the training set")
    if not np.all(np.isfinite(vec)) or np.any(vec < 0.0):
        raise InvalidInputError("noise variances must be finite and >= 0")
    return vec


def _group(t):
    """Sorted distinct inputs, each point's group index and the group sizes."""
    order = np.argsort(t, kind="stable")
    ts = t[order]
    first = np.empty(t.size, dtype=bool)
    first[0] = True
    np.not_equal(ts[1:], ts[:-1], out=first[1:])
    index = np.empty(t.size, dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    return ts[first], index, np.bincount(index)


class _Reduced:
    """A training set grouped by distinct input, ready to collapse.

    ``noise`` is the fixed noise variance (a float or a per-point vector),
    or None for none; ``collapse`` adds a common variance on top of it (the
    jitter, plus the noise variance when one is searched). Everything that
    does not depend on the kernel hyperparameters is computed here, once per
    fit or search. Each collapse precision-weights the points anew, as the
    added variance changes the weights.
    """

    def __init__(self, train: TrainingSet, noise=None):
        self.u, self.index, _ = _group(train.t)
        n, m = len(train), self.u.size
        if m > MAX_GP_INPUTS:
            raise InvalidInputError(f"a GP takes at most {MAX_GP_INPUTS} "
                                    f"distinct inputs, got {m}")
        # Targets whose mean or spread overflows would give NaN weights.
        with np.errstate(over="ignore", invalid="ignore"):
            self.offset = float(train.y.mean())
            self.resid = train.y - self.offset
            spread = float(self.resid @ self.resid)
        if not math.isfinite(spread):
            raise InvalidInputError("training targets overflow in float64")
        if noise is not None and m < n:
            # Exact duplicates with zero noise make the Gram matrix singular
            # in exact arithmetic; refuse them instead of letting jitter
            # paper over it.
            zero = np.broadcast_to(np.asarray(noise) == 0.0, (n,))
            if np.any(np.bincount(self.index, zero, m) > 1):
                raise NumericalConditioningError(
                    "duplicate timestamps with zero noise produce a singular "
                    "Gram matrix")
        self.point_noise = np.zeros(n) + (0.0 if noise is None else noise)
        self.sq_dist = np.subtract.outer(self.u, self.u) ** 2

    @cached_property
    def upper_weights(self):
        """Weights that sum a symmetric product from its upper triangle."""
        return np.triu(np.full(self.sq_dist.shape, 2.0), 1) + np.eye(self.u.size)

    @cached_property
    def upper_sq_dist(self):
        return self.upper_weights * self.sq_dist

    def collapse(self, add):
        """Group means, group noise and the log-likelihood correction.

        ``add`` is added to every observation's noise variance. The
        correction is the full system's log marginal likelihood minus the
        reduced system's.
        """
        m = self.u.size
        w = 1.0 / (self.point_noise + add)
        total = np.bincount(self.index, w, m)
        ybar = np.bincount(self.index, w * self.resid, m) / total
        d = self.resid - ybar[self.index]
        corr = -0.5 * ((w.size - m) * LOG_2PI - float(np.log(w).sum())
                       + float(np.log(total).sum()) + float(w @ (d * d)))
        return ybar, 1.0 / total, corr

    def shift_terms(self, add, ybar, rbar):
        """Pieces of dLML/d(add), for a shift common to every noise variance.

        Returns (q, p, c) with dLML/d(add) = 0.5 * (c + sum(q * (alpha^2 -
        diag(K^-1))) + 2 * sum(p * alpha)), where q = d rbar / d(add) and
        ``ybar``, ``rbar`` and alpha, K^-1 are the reduced system's. This is
        0.5 * tr(alpha_full alpha_full^T - K_full^-1) of the full system,
        rewritten with Woodbury over the input groups.
        """
        m = self.u.size
        w = 1.0 / (self.point_noise + add)
        d = self.resid - ybar[self.index]
        w2 = w * w
        w2d = w2 * d
        b = np.bincount(self.index, w2, m)
        total = np.bincount(self.index, w, m)
        p = np.bincount(self.index, w2d, m) * rbar
        # sum(b * rbar) - sum(w), grouped so that singletons cancel exactly.
        c = float(w2d @ d) + float(((b - total * total) / total).sum())
        return b * (rbar * rbar), p, c


@dataclass
class _System:
    """A factorized reduced system: K_f, chol of K_f + diag(rbar), alpha."""

    K: np.ndarray
    chol: np.ndarray
    alpha: np.ndarray
    ybar: np.ndarray
    rbar: np.ndarray
    jitter: float
    lml: float


def _solve(red: _Reduced, params: KernelParams, add=0.0) -> _System:
    """Factorize the reduced system; its LML is the full system's.

    ``add`` is the searched noise variance, if any. The jitter is folded
    into every observation's noise before collapsing, and escalated tenfold
    while the factorization fails.
    """
    sf2 = params.signal_std ** 2
    K = sf2 * np.exp(red.sq_dist * (-0.5 / params.length_scale ** 2))
    base = sf2 if sf2 > 0.0 else 1.0
    jitter = JITTER_START_FRAC * base
    ceiling = JITTER_MAX_FRAC * base
    m = red.u.size
    while True:
        ybar, rbar, corr = red.collapse(add + jitter)
        Ky = K.copy()
        Ky.flat[::m + 1] += rbar
        try:
            # Ky is symmetric, so its transpose is the Fortran-ordered array
            # LAPACK factorizes in place.
            chol, _ = cho_factor(Ky.T, lower=True, overwrite_a=True,
                                 check_finite=False)
            break
        except LinAlgError:
            jitter *= 10.0
            if jitter > ceiling * (1.0 + 1e-12):
                raise NumericalConditioningError(
                    "Gram matrix stayed non-positive-definite at the jitter ceiling")
    alpha = dpotrs(chol, ybar, lower=1)[0]
    log_det = 2.0 * float(np.log(np.diagonal(chol)).sum())
    lml = -0.5 * float(ybar @ alpha) - 0.5 * log_det - 0.5 * m * LOG_2PI + corr
    return _System(K=K, chol=chol, alpha=alpha, ybar=ybar, rbar=rbar,
                   jitter=jitter, lml=lml)


def _lml_and_grad(red: _Reduced, params: KernelParams, noise_var=None):
    """Log marginal likelihood and its gradient, from the reduced system.

    Components are with respect to (log length_scale, log signal_std) and,
    when ``noise_var`` gives a searched noise variance (added to every
    observation's own), log noise_std. Uses
    dLML/dtheta = 0.5 tr((alpha alpha^T - K^-1) dK/dtheta). The jitter scales
    with signal_std^2 and sits in every observation's noise, so the
    signal_std component carries its share of the noise term.
    """
    add = 0.0 if noise_var is None else noise_var
    sol = _solve(red, params, add)
    a = sol.alpha
    # dpotri leaves K^-1 in the lower triangle of a Fortran-ordered array:
    # the upper triangle of its C-ordered transpose, which the upper weights
    # pick out.
    Kinv_t = dpotri(sol.chol, lower=1, overwrite_c=1)[0].T
    Ku = sol.K * red.upper_weights
    Kl = sol.K * red.upper_sq_dist
    q, p, c = red.shift_terms(add + sol.jitter, sol.ybar, sol.rbar)
    d_shift = 0.5 * (c + float(np.dot(q, a * a - np.diagonal(Kinv_t)))
                     + 2.0 * float(np.sum(p * a)))
    grad = [0.5 / params.length_scale ** 2
            * (float(a @ (Kl @ a)) - float(np.vdot(Kinv_t, Kl))),
            float(a @ (Ku @ a)) - float(np.vdot(Kinv_t, Ku))
            + 2.0 * sol.jitter * d_shift]
    if noise_var is not None:
        grad.append(2.0 * noise_var * d_shift)
    return sol.lml, np.array(grad)


@dataclass(frozen=True)
class GPModel:
    """Fitted homoscedastic (or fixed per-point noise) GP; fit_gp builds it.

    Carries the factorization of the reduced system over the distinct
    inputs, which every predict call reuses.
    """

    train: TrainingSet
    params: KernelParams
    noise: float | np.ndarray
    mean_offset: float
    jitter: float
    _u: np.ndarray = field(repr=False)
    _chol: np.ndarray = field(repr=False)
    _alpha: np.ndarray = field(repr=False)
    _lml: float = field(repr=False)

    def predict(self, ts) -> PosteriorPrediction:
        """Posterior mean and variance of the latent function at ``ts``.

        The variance does not include observation noise at the query points.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if not np.all(np.isfinite(ts)):
            raise InvalidInputError("query inputs must be finite")
        if ts.size * self._u.size > MAX_PREDICT_CELLS:
            raise InvalidInputError(
                f"{ts.size} query inputs against {self._u.size} training "
                f"inputs exceed {MAX_PREDICT_CELLS} cells")
        Ks = rbf_kernel(ts, self._u, self.params)
        mean = self.mean_offset + Ks @ self._alpha
        v = solve_triangular(self._chol, Ks.T, lower=True, check_finite=False)
        var = self.params.signal_std ** 2 - np.einsum("ij,ij->j", v, v)
        if np.any(var < -1e-8 * self.params.signal_std ** 2):
            warnings.warn("posterior variance dipped below the conditioning "
                          "tolerance and was clamped to zero", RuntimeWarning)
        var = np.maximum(var, 0.0)
        return PosteriorPrediction(mean=mean, var=var)

    def log_marginal_likelihood(self) -> float:
        return self._lml


def fit_gp(train: TrainingSet, params: KernelParams, noise=0.0) -> GPModel:
    """Fit a GP with fixed hyperparameters and a known noise variance.

    ``noise`` is a scalar variance or a per-point vector. Targets are
    centered by their mean; the offset is restored at prediction time.
    """
    red = _Reduced(train, _as_noise(noise, len(train)))
    sol = _solve(red, params)
    return GPModel(train=train, params=params, noise=noise,
                   mean_offset=red.offset, jitter=sol.jitter, _u=red.u,
                   _chol=sol.chol, _alpha=sol.alpha, _lml=sol.lml)


def lml_gradient(model: GPModel) -> np.ndarray:
    """Gradient of the log marginal likelihood.

    Components are with respect to (log length_scale, log signal_std,
    log noise_std), so the model must carry a scalar positive noise variance.
    """
    noise = np.asarray(model.noise, dtype=float)
    if np.ptp(noise) != 0.0:
        raise InvalidInputError("gradient requires a scalar noise variance")
    sigma_n2 = float(noise.flat[0])
    if sigma_n2 <= 0.0:
        raise InvalidInputError("gradient requires a positive noise variance")
    return _lml_and_grad(_Reduced(model.train), model.params, sigma_n2)[1]


# ---------------------------------------------------------------------------
# Hyperparameter search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptConfig:
    """Multi-start L-BFGS-B search over log hyperparameters.

    Bounds left as None are derived from the data: length scale within
    [1e-3, 10 * range(t)], signal std within [1e-3, 10] * std(y), noise std
    within [1e-6, 3] * std(y). Bounds are (low, high) in the natural scale,
    finite with 0 < low < high; derived bounds always satisfy this.
    """

    n_starts: int = 8
    seed: int = 0
    max_iter: int = 60
    length_scale_bounds: tuple[float, float] | None = None
    signal_std_bounds: tuple[float, float] | None = None
    noise_std_bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if not (1 <= self.n_starts <= MAX_OPT_STARTS
                and 1 <= self.max_iter <= MAX_OPT_ITER):
            raise InvalidInputError(
                f"optimizer starts must lie in [1, {MAX_OPT_STARTS}] and "
                f"iterations in [1, {MAX_OPT_ITER}]")
        for bounds in (self.length_scale_bounds, self.signal_std_bounds,
                       self.noise_std_bounds):
            if bounds is not None and not (
                    len(bounds) == 2 and 0.0 < bounds[0] < bounds[1] < math.inf):
                raise InvalidInputError(f"search bounds {bounds} are not "
                                        "(low, high) with 0 < low < high < inf")


@dataclass(frozen=True)
class OptResult:
    params: KernelParams
    noise: float | np.ndarray
    lml: float


def optimize_hyperparameters(train: TrainingSet, noise=None,
                             config: OptConfig = OptConfig()) -> OptResult:
    """Maximize the log marginal likelihood over kernel hyperparameters.

    ``noise`` fixes the observation noise (scalar or per-point variance
    vector) during the search; pass None to co-optimize a scalar noise
    variance alongside the kernel parameters. Starts are drawn log-uniformly
    inside the box bounds and refined with L-BFGS-B on the analytic gradient;
    the best final candidate is returned, so the result is never worse than
    any start point.
    """
    if len(train) < 2:
        raise InsufficientDataError("hyperparameter search needs at least 2 points")

    optimize_noise = noise is None
    red = _Reduced(train, None if optimize_noise else _as_noise(noise, len(train)))

    t_range = float(np.ptp(train.t))
    scale_t = max(t_range, 1e-3)
    sd = max(float(np.std(red.resid)), 1e-8)

    lb = config.length_scale_bounds or (1e-3, 10.0 * scale_t)
    sb = config.signal_std_bounds or (1e-3 * sd, 10.0 * sd)
    nb = config.noise_std_bounds or (1e-6 * sd, 3.0 * sd)
    log_bounds = [(math.log(lb[0]), math.log(lb[1])),
                  (math.log(sb[0]), math.log(sb[1]))]
    if optimize_noise:
        log_bounds.append((math.log(nb[0]), math.log(nb[1])))

    def objective(theta):
        params = KernelParams(math.exp(theta[0]), math.exp(theta[1]))
        noise_var = math.exp(2.0 * theta[2]) if optimize_noise else None
        try:
            lml, grad = _lml_and_grad(red, params, noise_var)
        except NumericalConditioningError:
            return np.inf, np.zeros(len(theta))
        return -lml, -grad

    rng = np.random.default_rng(config.seed)
    best_theta, best_lml = None, -np.inf
    for _ in range(config.n_starts):
        theta0 = np.array([rng.uniform(lo, hi) for lo, hi in log_bounds])
        try:
            res = minimize(objective, theta0, jac=True, method="L-BFGS-B",
                           bounds=log_bounds,
                           options={"maxiter": config.max_iter})
        except (LinAlgError, ValueError):
            continue
        if not np.isfinite(res.fun):
            continue
        if -res.fun > best_lml:
            best_lml = -res.fun
            best_theta = res.x
    if best_theta is None:
        raise OptimizationFailureError(
            "no start point of the hyperparameter search converged")

    params = KernelParams(math.exp(best_theta[0]), math.exp(best_theta[1]))
    out_noise = (math.exp(2.0 * best_theta[2]) if optimize_noise else noise)
    return OptResult(params=params, noise=out_noise, lml=float(best_lml))


# ---------------------------------------------------------------------------
# Heteroscedastic model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeteroConfig:
    """Two-stage heteroscedastic fit settings.

    Each round regresses the log of a smoothed empirical variance estimate
    (squared residuals pooled per distinct input, then a centered moving
    window over neighbors in time) and refits the signal GP with the
    predicted per-point noise. Signal hyperparameters are re-optimized once,
    after the first noise injection, unless the variance profile is flat.
    ``opt`` configures the signal searches; the noise GP's search takes its
    starts and iterations, seed + 1 and bounds derived from its own data.
    """

    iterations: int = 3
    smoothing_window: int = 5
    opt: OptConfig = OptConfig()

    def __post_init__(self):
        if (not 1 <= self.iterations <= MAX_HETERO_ITERATIONS
                or self.smoothing_window < 1):
            raise InvalidInputError(
                f"iterations must lie in [1, {MAX_HETERO_ITERATIONS}] and the "
                "smoothing window be >= 1")


@dataclass(frozen=True)
class HeteroGPModel:
    """Signal GP plus a log-noise GP evaluated wherever noise is needed."""

    signal_gp: GPModel
    noise_gp: GPModel
    degenerate: bool = False

    @property
    def params(self) -> KernelParams:
        return self.signal_gp.params

    def noise_variance(self, ts) -> np.ndarray:
        """exp of the noise GP posterior mean: positive, and finite or refused."""
        with np.errstate(over="ignore"):
            var = np.exp(self.noise_gp.predict(ts).mean)
        if not np.all(np.isfinite(var)):
            raise InvalidInputError("noise GP log variance overflows exp")
        return var

    def predict(self, ts) -> PosteriorPrediction:
        """Posterior of a new observation: latent variance plus local noise."""
        out = self.signal_gp.predict(ts)
        out.var = out.var + self.noise_variance(ts)
        return out


def _moving_average(v, window):
    half = window // 2
    out = np.empty_like(v)
    for i in range(v.size):
        a, b = max(0, i - half), min(v.size, i + half + 1)
        out[i] = np.mean(v[a:b])
    return out


def fit_heteroscedastic(train: TrainingSet,
                        config: HeteroConfig = HeteroConfig()) -> HeteroGPModel:
    """Fit a GP whose observation noise varies over the input domain."""
    if len(train) < HETERO_MIN_POINTS:
        raise InsufficientDataError(
            f"heteroscedastic fit needs at least {HETERO_MIN_POINTS} points, "
            f"got {len(train)}")

    floor = max(1e-10 * float(np.var(train.y)), 1e-12)

    # Residuals and noise are evaluated once per distinct input and
    # expanded by group index, so replicates share their noise exactly.
    u, index, counts = _group(train.t)
    noise_opt = OptConfig(n_starts=config.opt.n_starts,
                          seed=config.opt.seed + 1,
                          max_iter=config.opt.max_iter)
    stage1 = optimize_hyperparameters(train, noise=None, config=config.opt)
    signal = fit_gp(train, stage1.params, noise=stage1.noise)

    for round_idx in range(config.iterations):
        resid = train.y - signal.predict(u).mean[index]
        mean_sq = np.bincount(index, resid * resid) / counts
        smoothed = _moving_average(mean_sq, config.smoothing_window)
        degenerate = bool(np.max(smoothed) <= floor)
        z = np.log(np.maximum(smoothed, floor))

        if u.size >= 2 and not degenerate:
            noise_fit = optimize_hyperparameters(TrainingSet(u, z), noise=None,
                                                 config=noise_opt)
            noise_model = fit_gp(TrainingSet(u, z), noise_fit.params,
                                 noise=noise_fit.noise)
        else:
            # Variance profile flat at the floor: pin the noise GP to it.
            flat = KernelParams(length_scale=max(float(np.ptp(u)), 1e-3),
                                signal_std=1e-6)
            noise_model = fit_gp(TrainingSet(u, z), flat, noise=1e-12)

        r_train = np.exp(noise_model.predict(u).mean)[index]
        if round_idx == 0 and not degenerate:
            refit = optimize_hyperparameters(train, noise=r_train,
                                             config=config.opt)
            signal = fit_gp(train, refit.params, noise=r_train)
        else:
            signal = fit_gp(train, signal.params, noise=r_train)

    return HeteroGPModel(signal_gp=signal, noise_gp=noise_model,
                         degenerate=degenerate)


# ---------------------------------------------------------------------------
# Gaussian fusion
# ---------------------------------------------------------------------------

def gaussian_product(a: PosteriorPrediction,
                     b: PosteriorPrediction) -> PosteriorPrediction:
    """Elementwise product of two independent Gaussian predictions.

    Implements mean = (vb*ma + va*mb) / (va+vb), var = va*vb / (va+vb),
    handled so an infinite variance on one side leaves the other unchanged.
    Two exact (zero-variance) constraints must agree.
    """
    ma, va = np.asarray(a.mean, dtype=float), np.asarray(a.var, dtype=float)
    mb, vb = np.asarray(b.mean, dtype=float), np.asarray(b.var, dtype=float)
    if ma.shape != mb.shape or va.shape != vb.shape or ma.shape != va.shape:
        raise InvalidInputError("fused predictions must share their shape")
    if np.any(va < 0.0) or np.any(vb < 0.0):
        raise InvalidInputError("variances must be nonnegative")

    both_zero = (va == 0.0) & (vb == 0.0)
    if np.any(both_zero & ~np.isclose(ma, mb, rtol=0.0, atol=1e-12)):
        raise InconsistentConstraintError(
            "two zero-variance constraints disagree at the same input")

    mean = np.empty_like(ma)
    var = np.empty_like(va)

    a_inf, b_inf = np.isinf(va), np.isinf(vb)
    regular = ~(a_inf | b_inf | both_zero)
    with np.errstate(invalid="ignore", divide="ignore"):
        tot = va + vb
        mean[regular] = (vb[regular] * ma[regular]
                         + va[regular] * mb[regular]) / tot[regular]
        var[regular] = va[regular] * vb[regular] / tot[regular]
    # An infinite-variance side carries no information.
    take_a = b_inf & ~a_inf
    take_b = a_inf & ~b_inf
    mean[take_a], var[take_a] = ma[take_a], va[take_a]
    mean[take_b], var[take_b] = mb[take_b], vb[take_b]
    both_inf = a_inf & b_inf
    mean[both_inf] = 0.5 * (ma[both_inf] + mb[both_inf])
    var[both_inf] = np.inf
    mean[both_zero], var[both_zero] = ma[both_zero], 0.0
    return PosteriorPrediction(mean=mean, var=var)
