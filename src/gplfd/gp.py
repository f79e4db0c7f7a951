"""Single-output Gaussian-process regression with an RBF kernel.

Provides exact posterior inference with fixed or per-point observation noise,
marginal-likelihood hyperparameter search, a heteroscedastic model and
elementwise Gaussian fusion.

Conventions
-----------
Noise arguments are variances, not standard deviations. Targets are centered
by their mean at fit time and the offset is restored at prediction, so the
prior mean is the constant data mean.

A jitter of JITTER_FRAC times the signal variance is added to every
observation's own noise variance, s_k = r_k + jitter; a Gram matrix that
still fails to factorize is refused with NumericalConditioningError, which a
search scores as a failed point. The observations at each distinct input
are then replaced by their precision-weighted mean, with noise variance
1 / sum(1 / s_k), plus a correction term for the within-group scatter, so
the reduced system has exactly the posterior and the log marginal
likelihood of the full one (Rasmussen & Williams 2006, Alg. 2.1 and
§5.4.1). That factorized system, ``_System``, is the one fitted
representation: the search scores it, a ``GPModel`` wraps it and predict
reads it. Every noise derivative (of a searched scalar noise, of the jitter,
of the heteroscedastic knots) is built from one per-group term: dLML by a
variance added to the noise of every observation at one input.

The heteroscedastic model (the parametric form of Goldberg, Williams &
Bishop, NIPS 1998) has r(t) = exp(c(t)), c piecewise linear between at most
NOISE_KNOTS knots. One L-BFGS-B run from the homoscedastic optimum searches
(log length_scale, log signal_std, c) under the exact LML and a random-walk
prior on c.

The homoscedastic search stops early when asked (``stop_when_confirmed``):
once three random starts have ended at the best candidate so far. Most
starts on a signal GP end at one optimum, the rest in a lower "noise"
reading of the data (Rasmussen & Williams 2006, Fig. 5.5).
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import lapack
from scipy.optimize import minimize

from .errors import (InsufficientDataError, InvalidInputError,
                     NumericalConditioningError, OptimizationFailureError)

# Jitter added to every observation's noise, as a fraction of mean(diag K).
JITTER_FRAC = 1e-10

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
# Most knots of a heteroscedastic fit's log-noise profile, its knot run's
# iterations per parameter, and the precision of its random-walk prior.
NOISE_KNOTS = 32
NOISE_ITER_PER_PARAM = 10
NOISE_SMOOTHING = 0.1
# The stop_when_confirmed rule of optimize_hyperparameters: the random starts
# that must confirm the best candidate, and how close to it each must end, in
# every log hyperparameter and in relative LML.
CONFIRMATIONS = 3
CONFIRM_THETA_TOL = 1e-3
CONFIRM_LML_RTOL = 1e-6

LOG_2PI = math.log(2.0 * math.pi)

logger = logging.getLogger(__name__)


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
    jitter, plus the noise variance when one is searched), so each collapse
    precision-weights the points anew. What does not depend on the kernel
    hyperparameters is computed here, once per fit or search;
    ``set_targets`` swaps in other targets on the same inputs.
    """

    def __init__(self, train: TrainingSet, noise=None):
        self.u, self.index, _ = _group(train.t)
        if self.u.size > MAX_GP_INPUTS:
            raise InvalidInputError(f"a GP takes at most {MAX_GP_INPUTS} "
                                    f"distinct inputs, got {self.u.size}")
        self.set_targets(train.y, noise)
        self.sq_dist = np.subtract.outer(self.u, self.u) ** 2

    def set_targets(self, y, noise=None):
        """Center the targets ``y``, one per point; ``noise`` as above."""
        n, m = y.size, self.u.size
        noise = None if noise is None else _as_noise(noise, n)
        # Targets whose mean or spread overflows would give NaN weights.
        with np.errstate(over="ignore", invalid="ignore"):
            self.offset = float(y.mean())
            self.resid = y - self.offset
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

    def gram(self, params: KernelParams) -> np.ndarray:
        """The RBF Gram matrix K(u, u)."""
        return params.signal_std ** 2 * np.exp(
            self.sq_dist * (-0.5 / params.length_scale ** 2))

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
        """Pieces of dLML/d(shift_g), for a variance shift_g added to the
        noise of every observation in group g.

        ``add`` is the variance on top of the fixed noise, as in
        ``collapse``. Returns per-group (q, p, c) with dLML/d(shift_g) =
        0.5 * (c + q * (alpha^2 - diag(K^-1)) + 2 * p * alpha), where
        q = d rbar / d(shift_g) and ``ybar``, ``rbar`` and alpha, K^-1 are
        the reduced system's. This is 0.5 * tr(alpha_full alpha_full^T -
        K_full^-1) of the full system over the group's rows, rewritten with
        Woodbury. With equal noise s_g inside a group it reduces to
        q = 1 / n_g, p = 0 and c = S_g / s_g^2 - (n_g - 1) / s_g, S_g being
        the group's scatter about its mean.
        """
        m = self.u.size
        w = 1.0 / (self.point_noise + add)
        d = self.resid - ybar[self.index]
        w2 = w * w
        w2d = w2 * d
        b = np.bincount(self.index, w2, m)
        total = np.bincount(self.index, w, m)
        p = np.bincount(self.index, w2d, m) * rbar
        # b * rbar - total per group, written so that singletons cancel exactly.
        c = np.bincount(self.index, w2d * d, m) + (b - total * total) / total
        return b * (rbar * rbar), p, c


def cho_factor(a):
    """Lower Cholesky factor by LAPACK dpotrf, in place for Fortran order."""
    chol, info = lapack.dpotrf(a, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor is not positive definite")
    return chol


@dataclass
class _System:
    """A fitted GP: its reduced system over the distinct inputs ``u``.

    ``chol`` is the lower factor of K(u, u) + diag(rbar), the only m x m
    array kept, and ``alpha`` solves it against the centered ``ybar``.
    """

    u: np.ndarray
    offset: float
    params: KernelParams
    chol: np.ndarray
    alpha: np.ndarray
    ybar: np.ndarray
    rbar: np.ndarray
    jitter: float
    lml: float

    def predict(self, ts) -> PosteriorPrediction:
        """Latent posterior mean and variance at ``ts``."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if not np.all(np.isfinite(ts)):
            raise InvalidInputError("query inputs must be finite")
        if ts.size * self.u.size > MAX_PREDICT_CELLS:
            raise InvalidInputError(
                f"{ts.size} query inputs against {self.u.size} training "
                f"inputs exceed {MAX_PREDICT_CELLS} cells")
        sf2 = self.params.signal_std ** 2
        Ks = rbf_kernel(ts, self.u, self.params)
        mean = self.offset + Ks @ self.alpha
        v = lapack.dtrtrs(self.chol, Ks.T, lower=1)[0]
        var = sf2 - np.einsum("ij,ij->j", v, v)
        if np.any(var < -1e-8 * sf2):
            warnings.warn("posterior variance dipped below the conditioning "
                          "tolerance and was clamped to zero", RuntimeWarning)
        return PosteriorPrediction(mean, np.maximum(var, 0.0))


def _solve(red: _Reduced, params: KernelParams, K, add=0.0) -> _System:
    """Factorize the reduced system over the Gram matrix ``K``.

    Its LML is the full system's. ``add`` is the searched noise variance,
    if any: a float, or one value per observation. The jitter is folded into
    every observation's noise before collapsing; a system that does not
    factorize then is refused.
    """
    jitter = JITTER_FRAC * params.signal_std ** 2
    m = red.u.size
    ybar, rbar, corr = red.collapse(add + jitter)
    Ky = K.copy()
    Ky.flat[::m + 1] += rbar
    try:
        # Ky is symmetric, so its transpose is the Fortran-ordered array
        # LAPACK factorizes in place.
        chol = cho_factor(Ky.T)
    except LinAlgError:
        raise NumericalConditioningError(
            "Gram matrix is not positive definite with the jitter added"
        ) from None
    alpha = lapack.dpotrs(chol, ybar, lower=1)[0]
    log_det = 2.0 * float(np.log(np.diagonal(chol)).sum())
    lml = -0.5 * float(ybar @ alpha) - 0.5 * log_det - 0.5 * m * LOG_2PI + corr
    return _System(u=red.u, offset=red.offset, params=params, chol=chol,
                   alpha=alpha, ybar=ybar, rbar=rbar, jitter=jitter, lml=lml)


def _lml_parts(red: _Reduced, params: KernelParams, add=0.0):
    """LML, its gradient in (log length_scale, log signal_std), and
    dLML/d(shift_g) for a variance added to every observation of group g.

    ``add`` is the searched noise variance, as in ``_solve``. Uses
    dLML/dtheta = 0.5 tr((alpha alpha^T - K^-1) dK/dtheta). The jitter
    scales with signal_std^2 and sits in every observation's noise, so the
    signal_std component carries its share of the per-group terms.
    """
    K = red.gram(params)
    sol = _solve(red, params, K, add)
    a = sol.alpha
    # dpotri leaves K^-1 in the lower triangle of a Fortran-ordered array:
    # the upper triangle of its C-ordered transpose, which the upper weights
    # pick out.
    Kinv_t = lapack.dpotri(sol.chol, lower=1, overwrite_c=1)[0].T
    Ku = K * red.upper_weights
    Kl = K * red.upper_sq_dist
    q, p, c = red.shift_terms(add + sol.jitter, sol.ybar, sol.rbar)
    d_shift = 0.5 * (c + q * (a * a - np.diagonal(Kinv_t)) + 2.0 * p * a)
    grad = np.array([
        0.5 / params.length_scale ** 2
        * (float(a @ (Kl @ a)) - float(np.vdot(Kinv_t, Kl))),
        float(a @ (Ku @ a)) - float(np.vdot(Kinv_t, Ku))
        + 2.0 * sol.jitter * float(d_shift.sum())])
    return sol.lml, grad, d_shift


def _lml_and_grad(red: _Reduced, params: KernelParams, noise_var=None):
    """Log marginal likelihood and its gradient, from the reduced system.

    Components are with respect to (log length_scale, log signal_std) and,
    when ``noise_var`` gives a searched noise variance (added to every
    observation's own), log noise_std.
    """
    if noise_var is None:
        return _lml_parts(red, params)[:2]
    lml, grad, d_shift = _lml_parts(red, params, noise_var)
    return lml, np.append(grad, 2.0 * noise_var * float(d_shift.sum()))


@dataclass(frozen=True)
class GPModel:
    """Fitted homoscedastic (or fixed per-point noise) GP.

    fit_gp builds it and the search returns one. It wraps the factorized
    reduced system, which every predict call reuses.
    """

    train: TrainingSet
    noise: float | np.ndarray
    system: _System = field(repr=False)

    params = property(lambda self: self.system.params)
    mean_offset = property(lambda self: self.system.offset)
    jitter = property(lambda self: self.system.jitter)

    def predict(self, ts) -> PosteriorPrediction:
        """Posterior mean and variance of the latent function at ``ts``.

        The variance does not include observation noise at the query points.
        """
        return self.system.predict(ts)

    def log_marginal_likelihood(self) -> float:
        return self.system.lml


def fit_gp(train: TrainingSet, params: KernelParams, noise=0.0) -> GPModel:
    """Fit a GP with fixed hyperparameters and a known noise variance.

    ``noise`` is a scalar variance or a per-point vector. Targets are
    centered by their mean; the offset is restored at prediction time.
    """
    red = _Reduced(train, noise)
    return GPModel(train, noise, _solve(red, params, red.gram(params)))


def predict_columns(t, y, noise, params, ts) -> PosteriorPrediction:
    """(q, c) latent posteriors at ``ts`` of c GPs on the shared inputs ``t``.

    Column j is fit_gp(TrainingSet(t, y[:, j]), params[j], noise[:, j])
    .predict(ts) bit for bit; one column's system is held at a time.
    """
    red = _Reduced(TrainingSet(t, y[:, 0]))
    out = PosteriorPrediction(*np.empty((2, np.size(ts), len(params))))
    for j, p in enumerate(params):
        red.set_targets(y[:, j], noise[:, j])
        pred = _solve(red, p, red.gram(p)).predict(ts)
        out.mean[:, j], out.var[:, j] = pred.mean, pred.var
    return out


def lml_gradient(model: GPModel) -> np.ndarray:
    """Gradient of the log marginal likelihood.

    Components are with respect to (log length_scale, log signal_std,
    log noise_std), so the model must carry a scalar positive noise variance.
    """
    noise = np.asarray(model.noise, dtype=float)
    if np.ptp(noise) != 0.0:
        raise InvalidInputError("a scalar noise variance is required")
    if noise.flat[0] <= 0.0:
        raise InvalidInputError("a positive noise variance is required")
    return _lml_and_grad(_Reduced(model.train), model.params,
                         float(noise.flat[0]))[1]


# ---------------------------------------------------------------------------
# Hyperparameter search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptConfig:
    """Multi-start L-BFGS-B search over log hyperparameters.

    Bounds left as None are derived from the data: length scale within
    [gap, 10 * range(t)], where gap is the smallest distance between two
    distinct inputs but at least 1e-3, signal std within [1e-3, 10] *
    std(y), noise std within [1e-6, 3] * std(y). Bounds are (low, high) in
    the natural scale, finite with 0 < low < high; derived bounds always
    satisfy this.

    ``n_starts`` is the most random starts a search draws; one called with
    ``stop_when_confirmed`` may stop after fewer, as
    ``optimize_hyperparameters`` describes. ``max_iter`` caps the
    iterations of each L-BFGS-B run.
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


def _kernel_log_bounds(red: _Reduced, config: OptConfig):
    """Log (length_scale, signal_std) bounds, the config's or derived; a
    length scale below the smallest input gap only interpolates the means."""
    gap = float(np.min(np.diff(red.u))) if red.u.size > 1 else 0.0
    scale_t = max(float(np.ptp(red.u)), 1e-3)
    sd = _target_sd(red)
    lb = config.length_scale_bounds or (max(gap, 1e-3), 10.0 * scale_t)
    sb = config.signal_std_bounds or (1e-3 * sd, 10.0 * sd)
    return [tuple(map(math.log, lb)), tuple(map(math.log, sb))]


def _target_sd(red: _Reduced) -> float:
    return max(float(np.std(red.resid)), 1e-8)


def optimize_hyperparameters(train: TrainingSet, noise=None,
                             config: OptConfig = OptConfig(), *,
                             stop_when_confirmed: bool = False) -> GPModel:
    """The GP fitted at the kernel hyperparameters of largest LML found.

    ``noise`` fixes the observation noise (scalar or per-point variance
    vector) during the search; pass None to co-optimize a scalar noise
    variance alongside the kernel parameters. Starts are drawn log-uniformly
    inside the box bounds and refined with L-BFGS-B on the analytic gradient.
    The result is fit_gp at the best final candidate, so its log marginal
    likelihood is that start's objective and never worse than any start
    point's; the first of equal candidates wins.

    ``stop_when_confirmed`` draws no more random starts once CONFIRMATIONS
    (three) starts have ended at the best candidate found so far: within
    CONFIRM_THETA_TOL in every log hyperparameter and within
    CONFIRM_LML_RTOL relative in LML. The starts that run are the first of
    those drawn without it. A failed run neither counts nor resets the
    count. A best candidate with its length scale on the lower bound (the
    data read as white noise, where starts pile up whatever the likelihood's
    maximum) is never confirmed. Off by default: every start runs. Each
    search logs one DEBUG record on this module's logger: the random starts
    run out of ``n_starts``, the failed runs, whether it stopped on a
    confirmation, and the best LML.
    """
    if len(train) < 2:
        raise InsufficientDataError("hyperparameter search needs at least 2 points")

    optimize_noise = noise is None
    red = _Reduced(train, noise)
    log_bounds = _kernel_log_bounds(red, config)
    if optimize_noise:
        sd = _target_sd(red)
        nb = config.noise_std_bounds or (1e-6 * sd, 3.0 * sd)
        log_bounds.append((math.log(nb[0]), math.log(nb[1])))

    def objective(theta):
        params = KernelParams(math.exp(theta[0]), math.exp(theta[1]))
        noise_var = math.exp(2.0 * theta[2]) if optimize_noise else None
        try:
            lml, grad = _lml_and_grad(red, params, noise_var)
        except NumericalConditioningError:
            return np.inf, np.zeros(len(theta))
        return -lml, -grad

    found = []  # (LML, theta) per run in run order, None where it failed
    confirmed = False
    rng = np.random.default_rng(config.seed)
    for _ in range(config.n_starts):
        theta0 = np.array([rng.uniform(lo, hi) for lo, hi in log_bounds])
        res = _lbfgs(objective, theta0, log_bounds, config.max_iter)
        found.append(None if res is None else (-res.fun, res.x))
        if stop_when_confirmed and res is not None:
            confirmed = (_confirmations(found, log_bounds[0][0])
                         >= CONFIRMATIONS)
            if confirmed:
                break
    converged = [f for f in found if f is not None]
    best = _best(converged)
    logger.debug("search over %d points: %d of %d random starts run, "
                 "%d failed, stopped on confirmation: %s, best LML %r",
                 len(train), len(found), config.n_starts,
                 len(found) - len(converged), confirmed,
                 None if best is None else best[0])
    if best is None:
        raise OptimizationFailureError(
            "no start point of the hyperparameter search converged")
    best_theta = best[1]

    params = KernelParams(math.exp(best_theta[0]), math.exp(best_theta[1]))
    out_noise = (math.exp(2.0 * best_theta[2]) if optimize_noise else noise)
    return fit_gp(train, params, noise=out_noise)


def _lbfgs(objective, theta0, log_bounds, max_iter):
    """One L-BFGS-B run from theta0; None if it raised or ended non-finite."""
    try:
        res = minimize(objective, theta0, jac=True, method="L-BFGS-B",
                       bounds=log_bounds, options={"maxiter": max_iter})
    except (LinAlgError, ValueError):
        return None
    return res if np.isfinite(res.fun) else None


def _best(candidates):
    """The (LML, theta) of largest LML, the first of equal ones; None if none."""
    return max(candidates, key=lambda f: f[0], default=None)


def _confirmations(found, log_length_floor):
    """How many runs in ``found`` ended at the best candidate.

    None count when the best candidate's log length scale is within
    CONFIRM_THETA_TOL of ``log_length_floor``.
    """
    lml, theta = _best([f for f in found if f is not None])
    if theta[0] - log_length_floor <= CONFIRM_THETA_TOL:
        return 0
    return sum(f is not None and abs(f[0] - lml) <= CONFIRM_LML_RTOL * abs(lml)
               and bool(np.all(np.abs(f[1] - theta) <= CONFIRM_THETA_TOL))
               for f in found)


# ---------------------------------------------------------------------------
# Heteroscedastic model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeteroGPModel:
    """Signal GP plus a log-noise profile, piecewise linear between knots.

    ``fit`` builds one, fitting the signal GP with exactly
    ``noise_variance(train.t)``: data, kernel and knots fix it bit for bit.
    """

    signal_gp: GPModel
    knots: np.ndarray
    log_variance: np.ndarray

    params = property(lambda self: self.signal_gp.params)

    @classmethod
    def fit(cls, train: TrainingSet, params: KernelParams, knots,
            log_variance) -> HeteroGPModel:
        """The model of that noise profile and kernel on ``train``."""
        knots = np.array(knots, dtype=float)
        log_variance = np.array(log_variance, dtype=float)
        # exp of a log variance must neither overflow nor vanish.
        if (knots.ndim != 1 or knots.size < 1
                or log_variance.shape != knots.shape
                or not np.all(np.isfinite(knots)) or np.any(np.diff(knots) <= 0)
                or not np.all(np.abs(log_variance) < 700.0)):
            raise InvalidInputError(
                "noise knots must be finite and strictly increasing, each "
                "with a log variance in (-700, 700)")
        knots.setflags(write=False)
        log_variance.setflags(write=False)
        noise = np.exp(np.interp(train.t, knots, log_variance))
        return cls(fit_gp(train, params, noise=noise), knots, log_variance)

    def noise_variance(self, ts) -> np.ndarray:
        """exp of the piecewise-linear log variance at ``ts``, constant
        beyond the end knots."""
        return np.exp(np.interp(ts, self.knots, self.log_variance))

    def predict(self, ts) -> PosteriorPrediction:
        """Posterior of a new observation: latent variance plus local noise."""
        out = self.signal_gp.predict(ts)
        out.var = out.var + self.noise_variance(ts)
        return out


def _hats(u, knots) -> np.ndarray:
    """(m, K) values at ``u`` of each knot's hat function: the weights of
    np.interp(u, knots, c) in c."""
    return np.stack([np.interp(u, knots, e) for e in np.eye(knots.size)],
                    axis=1)


def _profile_lml_and_grad(red: _Reduced, knots, hats, theta):
    """LML and its gradient in theta = (log length_scale, log signal_std,
    c_1..c_K), with exp(interp(t, knots, c)) as every observation's noise.

    dLML/dc_j = sum_g dLML/d(shift_g) r_g phi_j(u_g), phi_j being the hat
    function of knot j (``hats`` is ``_hats(red.u, knots)``): the per-group
    terms through the chain rule.
    """
    params = KernelParams(math.exp(theta[0]), math.exp(theta[1]))
    r = np.exp(np.interp(red.u, knots, theta[2:]))
    lml, grad, d_shift = _lml_parts(red, params, r[red.index])
    return lml, np.concatenate([grad, (d_shift * r) @ hats])


def fit_heteroscedastic(train: TrainingSet,
                        config: OptConfig = OptConfig()) -> HeteroGPModel:
    """Fit a GP whose observation noise varies over the input domain.

    Stage 1 is the homoscedastic search (``config``, stopping once
    confirmed). From its optimum, with every knot at its noise variance,
    one L-BFGS-B run of at most NOISE_ITER_PER_PARAM iterations per
    parameter searches (log length_scale, log signal_std, c_1..c_K) in
    stage 1's kernel bounds. It maximizes the exact LML, with r(t) =
    exp(interp(t, knots, c)) as every observation's noise variance, less
    NOISE_SMOOTHING / 2 * sum((c_{j+1} - c_j)^2), a random-walk prior that
    damps knot-to-knot swings at the edges of a noisy stretch. The K =
    min(NOISE_KNOTS, m) knots are uniform over the m distinct inputs; each
    c_j lies within [log floor, max(log (3 sd)^2, log 10 floor)], floor =
    max(1e-10 var(y), 1e-12). The run logs one DEBUG record on this
    module's logger: its evaluations, iterations and message, the knots on
    each bound and whether the length scale ends on its floor.
    """
    if len(train) < HETERO_MIN_POINTS:
        raise InsufficientDataError(
            f"heteroscedastic fit needs at least {HETERO_MIN_POINTS} points, "
            f"got {len(train)}")
    # The search refuses targets that overflow before their variance does.
    stage1 = optimize_hyperparameters(train, None, config,
                                      stop_when_confirmed=True)
    red = _Reduced(train)
    knots = np.linspace(red.u[0], red.u[-1], min(NOISE_KNOTS, red.u.size))
    floor = max(1e-10 * float(np.var(train.y)), 1e-12)
    noise_bounds = (math.log(floor), max(2.0 * math.log(3.0 * _target_sd(red)),
                                         math.log(10.0 * floor)))
    log_bounds = _kernel_log_bounds(red, config) + [noise_bounds] * knots.size
    hats = _hats(red.u, knots)

    def objective(theta):
        try:
            lml, grad = _profile_lml_and_grad(red, knots, hats, theta)
        except NumericalConditioningError:
            return np.inf, np.zeros(theta.size)
        step = np.diff(theta[2:])
        grad[2:] += NOISE_SMOOTHING * (np.r_[step, 0.0] - np.r_[0.0, step])
        return 0.5 * NOISE_SMOOTHING * (step @ step) - lml, -grad

    theta0 = np.concatenate([
        np.log([stage1.params.length_scale, stage1.params.signal_std]),
        np.full(knots.size, math.log(stage1.noise))])
    lo, hi = np.transpose(log_bounds)
    res = _lbfgs(objective, np.clip(theta0, lo, hi), log_bounds,
                 NOISE_ITER_PER_PARAM * theta0.size)
    if res is None:
        raise OptimizationFailureError(
            "the heteroscedastic noise search did not converge")
    c = res.x[2:]
    logger.debug("noise search over %d points with %d knots: %d evaluations, "
                 "%d iterations, %s; knots on the lower / upper bound: %d / "
                 "%d, length scale on its floor: %s", len(train), knots.size,
                 res.nfev, res.nit, res.message, int(np.sum(c <= lo[2])),
                 int(np.sum(c >= hi[2])), bool(res.x[0] <= lo[0]))
    params = KernelParams(math.exp(res.x[0]), math.exp(res.x[1]))
    return HeteroGPModel.fit(train, params, knots, c)


# ---------------------------------------------------------------------------
# Gaussian fusion
# ---------------------------------------------------------------------------

def gaussian_product(a: PosteriorPrediction,
                     b: PosteriorPrediction) -> PosteriorPrediction:
    """Elementwise product of two independent Gaussian predictions.

    Implements mean = (vb*ma + va*mb) / (va+vb), var = va*vb / (va+vb).
    Variances must be nonnegative, and a result that is not finite (an
    infinite side, two zero variances, an overflow) is refused.
    """
    ma, va = np.asarray(a.mean, dtype=float), np.asarray(a.var, dtype=float)
    mb, vb = np.asarray(b.mean, dtype=float), np.asarray(b.var, dtype=float)
    if ma.shape != mb.shape or va.shape != vb.shape or ma.shape != va.shape:
        raise InvalidInputError("fused predictions must share their shape")
    if np.any(va < 0.0) or np.any(vb < 0.0):
        raise InvalidInputError("variances must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tot = va + vb
        mean = (vb * ma + va * mb) / tot
        var = va * vb / tot
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(var))):
        raise InvalidInputError("Gaussian product is not finite")
    return PosteriorPrediction(mean=mean, var=var)
