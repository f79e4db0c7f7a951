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
(Rasmussen & Williams 2006, Alg. 2.1 and §5.4.1). That factorized system,
``_System``, is the one fitted representation: the search scores it, a
``GPModel`` wraps it, predict reads it, and the search returns the
``GPModel`` fitted at its best start, with the LML it maximized.

The heteroscedastic loop (Kersting et al., ICML 2007) warm-starts its
searches: the round-0 signal refit tries the stage-1 optimum before its
random starts, and from round 1 on each noise-GP search is one L-BFGS-B run
from the previous searched noise GP, clipped into the round's bounds.

Its two signal searches, stage 1 and the round-0 refit, stop early: they
draw no more random starts once two random starts have ended at the best
candidate so far (``stop_when_confirmed``). Most starts on a signal GP end
at one optimum, and the rest in a lower "noise" reading of the data
(Rasmussen & Williams 2006, Fig. 5.5), so the rule skips starts that would
only find that optimum again. The round-0 noise-GP search keeps all its
starts: its targets, log smoothed squared residuals, have several optima
of different heights, and starts that agree there can still miss the best.
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
# The stop_when_confirmed rule of optimize_hyperparameters: the random starts
# that must confirm the best candidate, and how close to it each must end, in
# every log hyperparameter and in relative LML.
CONFIRMATIONS = 2
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
    if any. The jitter is folded into every observation's noise before
    collapsing, and escalated tenfold while the factorization fails.
    """
    sf2 = params.signal_std ** 2
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
            chol = cho_factor(Ky.T)
            break
        except LinAlgError:
            jitter *= 10.0
            if jitter > ceiling * (1.0 + 1e-12):
                raise NumericalConditioningError(
                    "Gram matrix stayed non-positive-definite at the jitter ceiling")
    alpha = lapack.dpotrs(chol, ybar, lower=1)[0]
    log_det = 2.0 * float(np.log(np.diagonal(chol)).sum())
    lml = -0.5 * float(ybar @ alpha) - 0.5 * log_det - 0.5 * m * LOG_2PI + corr
    return _System(u=red.u, offset=red.offset, params=params, chol=chol,
                   alpha=alpha, ybar=ybar, rbar=rbar, jitter=jitter, lml=lml)


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
    return _lml_and_grad(_Reduced(model.train), model.params,
                         _scalar_noise(model))[1]


def _scalar_noise(model: GPModel) -> float:
    """The model's noise variance, which must be one positive value."""
    noise = np.asarray(model.noise, dtype=float)
    if np.ptp(noise) != 0.0:
        raise InvalidInputError("a scalar noise variance is required")
    sigma_n2 = float(noise.flat[0])
    if sigma_n2 <= 0.0:
        raise InvalidInputError("a positive noise variance is required")
    return sigma_n2


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

    ``n_starts`` is the most random starts a search draws; one called with
    ``stop_when_confirmed`` may stop after fewer, as
    ``optimize_hyperparameters`` describes.
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


def optimize_hyperparameters(train: TrainingSet, noise=None,
                             config: OptConfig = OptConfig(),
                             start: GPModel | None = None, *,
                             stop_when_confirmed: bool = False) -> GPModel:
    """The GP fitted at the kernel hyperparameters of largest LML found.

    ``noise`` fixes the observation noise (scalar or per-point variance
    vector) during the search; pass None to co-optimize a scalar noise
    variance alongside the kernel parameters. Starts are drawn log-uniformly
    inside the box bounds and refined with L-BFGS-B on the analytic gradient.
    The result is fit_gp at the best final candidate, so its log marginal
    likelihood is that start's objective and never worse than any start
    point's; the first of equal candidates wins.

    ``start``, a fitted GPModel, warm-starts the search: its log
    hyperparameters, clipped into the bounds, are refined first. With the
    noise co-optimized, ``start`` must carry a positive scalar noise and
    thus gives every searched component: its one run is the whole search,
    and the random starts run only if it fails. With a fixed noise the
    random starts follow it. They draw the same points with or without a
    start.

    ``stop_when_confirmed`` draws no more random starts once CONFIRMATIONS
    (two) random starts have ended at the best candidate found so far:
    within CONFIRM_THETA_TOL in every log hyperparameter and within
    CONFIRM_LML_RTOL relative in LML. The starts that run are the first of
    those drawn without it. The warm start can be that best candidate but
    never counts as a confirmation; a failed run neither counts nor resets
    the count. A best candidate with its length scale on the lower bound
    (the data read as white noise, where starts pile up whatever the
    likelihood's maximum) is never confirmed. Off by default: every start
    runs. Each search logs one DEBUG record on this module's logger: the
    random starts run out of ``n_starts``, the failed runs, whether it
    stopped on a confirmation, and the best LML.
    """
    if len(train) < 2:
        raise InsufficientDataError("hyperparameter search needs at least 2 points")

    optimize_noise = noise is None
    red = _Reduced(train, noise)

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

    def refine(theta0):
        """(LML, theta) of one L-BFGS-B run from theta0; None if it failed."""
        try:
            res = minimize(objective, theta0, jac=True, method="L-BFGS-B",
                           bounds=log_bounds,
                           options={"maxiter": config.max_iter})
        except (LinAlgError, ValueError):
            return None
        return (-res.fun, res.x) if np.isfinite(res.fun) else None

    found = []  # (LML, theta) per run in run order, None where it failed
    if start is not None:
        theta = [math.log(start.params.length_scale),
                 math.log(start.params.signal_std)]
        if optimize_noise:
            theta.append(0.5 * math.log(_scalar_noise(start)))
        found.append(refine(np.clip(theta, *np.transpose(log_bounds))))
    n_warm = len(found)
    confirmed = False
    if not (optimize_noise and found and found[0] is not None):
        rng = np.random.default_rng(config.seed)
        for _ in range(config.n_starts):
            found.append(refine(np.array([rng.uniform(lo, hi)
                                          for lo, hi in log_bounds])))
            if stop_when_confirmed and found[-1] is not None:
                confirmed = (_confirmations(found, n_warm, log_bounds[0][0])
                             >= CONFIRMATIONS)
                if confirmed:
                    break
    converged = [f for f in found if f is not None]
    best = _best(converged)
    logger.debug("search over %d points: %d of %d random starts run, "
                 "%d failed, stopped on confirmation: %s, best LML %r",
                 len(train), len(found) - n_warm, config.n_starts,
                 len(found) - len(converged), confirmed,
                 None if best is None else best[0])
    if best is None:
        raise OptimizationFailureError(
            "no start point of the hyperparameter search converged")
    best_theta = best[1]

    params = KernelParams(math.exp(best_theta[0]), math.exp(best_theta[1]))
    out_noise = (math.exp(2.0 * best_theta[2]) if optimize_noise else noise)
    return fit_gp(train, params, noise=out_noise)


def _best(candidates):
    """The (LML, theta) of largest LML, the first of equal ones; None if none."""
    return max(candidates, key=lambda f: f[0], default=None)


def _confirmations(found, n_warm, log_length_floor):
    """How many random runs, ``found[n_warm:]``, ended at the best candidate.

    The best candidate may be the warm start, ``found[:n_warm]``, which
    itself never counts. None count when the best candidate's log length
    scale is within CONFIRM_THETA_TOL of ``log_length_floor``.
    """
    lml, theta = _best([f for f in found if f is not None])
    if theta[0] - log_length_floor <= CONFIRM_THETA_TOL:
        return 0
    return sum(f is not None and abs(f[0] - lml) <= CONFIRM_LML_RTOL * abs(lml)
               and bool(np.all(np.abs(f[1] - theta) <= CONFIRM_THETA_TOL))
               for f in found[n_warm:])


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
    after the first noise injection, unless the variance profile is flat;
    that search also tries the stage-1 optimum, first. ``opt`` configures
    the signal searches; the noise GP's search takes its starts and
    iterations, seed + 1 and bounds derived from its own data. Round 0
    searches the noise GP from the random starts; each later round refines
    the last searched noise GP alone, with one L-BFGS-B run from its
    hyperparameters clipped into the round's bounds. The two signal
    searches stop once two random starts confirm their best optimum (the
    ``stop_when_confirmed`` rule of ``optimize_hyperparameters``); the round-0
    noise-GP search runs every start, because its optima are several and
    agreeing starts there can miss the best. ``smoothing_window`` must be
    odd: the window is centered, ``window // 2`` neighbors on each side.
    """

    iterations: int = 3
    smoothing_window: int = 5
    opt: OptConfig = OptConfig()

    def __post_init__(self):
        if (not 1 <= self.iterations <= MAX_HETERO_ITERATIONS
                or self.smoothing_window < 1 or self.smoothing_window % 2 == 0):
            raise InvalidInputError(
                f"iterations must lie in [1, {MAX_HETERO_ITERATIONS}] and the "
                "smoothing window be odd and >= 1")


def _noise_variance(noise_gp: GPModel, ts) -> np.ndarray:
    """exp of the noise GP posterior mean: positive, and finite or refused."""
    with np.errstate(over="ignore"):
        var = np.exp(noise_gp.predict(ts).mean)
    if not np.all(np.isfinite(var)):
        raise InvalidInputError("noise GP log variance overflows exp")
    return var


@dataclass(frozen=True)
class HeteroGPModel:
    """Signal GP plus a log-noise GP evaluated wherever noise is needed."""

    signal_gp: GPModel
    noise_gp: GPModel
    degenerate: bool = False

    params = property(lambda self: self.signal_gp.params)

    def noise_variance(self, ts) -> np.ndarray:
        """exp of the noise GP posterior mean at ``ts``."""
        return _noise_variance(self.noise_gp, ts)

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

    # Residuals and noise are evaluated once per distinct input and
    # expanded by group index, so replicates share their noise exactly.
    u, index, counts = _group(train.t)
    noise_opt = OptConfig(n_starts=config.opt.n_starts,
                          seed=config.opt.seed + 1,
                          max_iter=config.opt.max_iter)
    # The search refuses targets that overflow before their variance does.
    signal = optimize_hyperparameters(train, noise=None, config=config.opt,
                                      stop_when_confirmed=True)
    floor = max(1e-10 * float(np.var(train.y)), 1e-12)
    searched = None  # the last searched noise GP: the next search's start

    for round_idx in range(config.iterations):
        resid = train.y - signal.predict(u).mean[index]
        mean_sq = np.bincount(index, resid * resid) / counts
        smoothed = _moving_average(mean_sq, config.smoothing_window)
        degenerate = bool(np.max(smoothed) <= floor)
        z = np.log(np.maximum(smoothed, floor))

        if u.size >= 2 and not degenerate:
            noise_model = searched = optimize_hyperparameters(
                TrainingSet(u, z), noise=None, config=noise_opt,
                start=searched)
        else:
            # Variance profile flat at the floor: pin the noise GP to it.
            flat = KernelParams(length_scale=max(float(np.ptp(u)), 1e-3),
                                signal_std=1e-6)
            noise_model = fit_gp(TrainingSet(u, z), flat, noise=1e-12)

        r_train = _noise_variance(noise_model, u)[index]
        if round_idx == 0 and not degenerate:
            signal = optimize_hyperparameters(train, noise=r_train,
                                              config=config.opt, start=signal,
                                              stop_when_confirmed=True)
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
