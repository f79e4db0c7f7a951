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

Kernel values below exp(-KERNEL_CUT) times the signal variance are exact
zeros. Below that an RBF Gram matrix on a short length scale underflows into
subnormal numbers, which slow every LAPACK call on it several times over.
With KERNEL_CUT = 230 a product of two kept entries is still a normal double
for any signal_std above about 1e-27, and a cut entry lies about 84 orders
of magnitude below the resolution of the diagonal, so no solve changes at
double precision. A query farther than sqrt(2 KERNEL_CUT) length scales from
every input gets exactly the prior: the data mean and signal_std^2.

The homoscedastic search is deterministic: it polishes the local maxima of
a fixed log grid over its box with L-BFGS-B. With a searched noise the
signal variance is profiled out (the "concentrated likelihood" of Jones,
Schonlau & Welch, J. Global Optim. 1998), so one eigendecomposition per
length scale scores a whole axis of noise ratios in closed form. Targets on
shared inputs share those eigendecompositions: a policy fit scans its
dimensions together (``scan_columns``), as ``predict_columns`` predicts them.

No process imports the ``scipy.optimize`` or ``scipy.linalg`` package:
``_compiled`` loads the compiled LAPACK wrappers and L-BFGS-B routine that
gp calls from their files, and ``minimize`` drives that routine as scipy's
own L-BFGS-B driver does.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property
from importlib import import_module, machinery, util
from types import SimpleNamespace

import numpy as np
import scipy
from numpy.linalg import LinAlgError

from .errors import (InsufficientDataError, InvalidInputError,
                     NumericalConditioningError, OptimizationFailureError)


def _compiled(name):
    """scipy's compiled module ``scipy.<name>``, loaded from its file without
    importing its package; None if there is no such file. It is left out of
    ``sys.modules``: the package's own import, if any, loads it again from
    CPython's extension cache, as its attribute, with the same routines."""
    full = "scipy." + name
    if full in sys.modules:
        return sys.modules[full]
    spec = machinery.FileFinder(
        os.path.join(scipy.__path__[0], name.split(".")[0]),
        (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES),
    ).find_spec(full)
    if spec is None:
        return None
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(full, None)
    return module


def _setulb(module):
    """``module.setulb`` if it has the signature of scipy 1.15's and later
    releases', which ``minimize`` drives; None otherwise."""
    setulb = getattr(module, "setulb", None)
    return setulb if str(getattr(setulb, "__doc__", "")).startswith(
        "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,"
        "maxls,ln_task)") else None


@cache
def compiled_setulb():
    """The ``setulb`` that ``minimize`` drives, loaded on a fit's first run."""
    return _setulb(_compiled("optimize._lbfgsb"))


lapack = _compiled("linalg._flapack") or import_module("scipy.linalg.lapack")

# Jitter added to every observation's noise, as a fraction of mean(diag K).
JITTER_FRAC = 1e-10
# Kernel values below exp(-KERNEL_CUT) * signal_std^2 are cut to zero.
KERNEL_CUT = 230.0

# Most distinct inputs of one GP: a fit holds a few m x m float matrices,
# about 100 MB at this size.
MAX_GP_INPUTS = 2000
# Most query-by-input cells of one predict, which holds a few q x m float
# matrices: about 1 GB at this size.
MAX_PREDICT_CELLS = 40_000_000
# Most query-by-input cells of one stacked ``predict_hetero`` chunk: past
# it the (chunk, q, m) kernel stack and its temporaries leave the cache and
# chunks of one model each run faster.
STACK_CELLS = 2 ** 15
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
# Largest target standard deviation a search takes: its gradient squares
# noise variances up to (3 sd)^2, which overflows past sd = 3.8e76.
MAX_TARGET_SD = 1e76
# A set signal or noise std bound lies within [1 / MAX_STD_BOUND,
# MAX_STD_BOUND]: the search's gradient takes noise variances, and with them
# the jitter, JITTER_FRAC signal_std^2, to their squares and the squares'
# inverses, which stay finite for bounds within 1e-77 to 1e77.
MAX_STD_BOUND = 1e77
# The search's scan: log-spaced length scales, each with log-spaced noise
# ratios (a searched noise) or as many signal stds (a fixed noise). One m x m
# eigendecomposition per length scale dominates a scan's cost.
SCAN_LENGTHS = 16
SCAN_RATIOS = 128

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
    """Read-only copies of paired inputs and targets; inputs may repeat."""

    t: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        t = np.atleast_1d(np.array(self.t, dtype=float))
        y = np.atleast_1d(np.array(self.y, dtype=float))
        if t.ndim != 1 or y.ndim != 1:
            raise InvalidInputError("training inputs and targets must be 1-d")
        if t.shape != y.shape:
            raise InvalidInputError("training inputs and targets differ in length")
        if t.size < 1:
            raise InvalidInputError("training set must contain at least one point")
        if not (np.isfinite(t).all() and np.isfinite(y).all()):
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
    with _quiet(True):
        lags = ta[:, None] - tb
    return _lag_kernel(lags, float(np.abs(lags).max(initial=0.0)),
                       params.length_scale, params.signal_std ** 2)


def _quiet(overflows):
    """np.errstate(over="ignore") if ``overflows``, else a cheaper no-op."""
    return np.errstate(over="ignore") if overflows else contextlib.nullcontext()


def _lags(ta, u):
    """The lags ``ta - u`` on the sorted inputs ``u`` and their largest
    magnitude: inf past the largest float, which the kernel cut zeroes."""
    max_lag = (max(float(ta.max()) - float(u[0]), float(u[-1]) - float(ta.min()))
               if ta.size and u.size else 0.0)
    with _quiet(max_lag == math.inf):
        return ta[:, None] - u, max_lag


def _sq_dist(u):
    """(m, m) squared lags of the sorted ``u``: inf past the largest float."""
    with _quiet(float(u[-1]) - float(u[0]) > 1e154):
        return (u[:, None] - u) ** 2


def _lag_kernel(lag, max_lag, length, sf2) -> np.ndarray:
    """The RBF kernel of length scale ``length`` and signal variance
    ``sf2`` at the lags ``lag``, whose largest magnitude is ``max_lag``.
    Both are floats, or (c, 1, ...) arrays of them for a (c, ...) stack of
    kernels. Lags too far to square overflow to -inf exponents, which the
    cut maps to exact zeros; numpy's warning is silenced only then."""
    # The farthest lag over the shortest length: a Python float, inf unwarned.
    d_max = max_lag / (float(length.min()) if isinstance(length, np.ndarray)
                       else length)
    with _quiet(d_max > 1e150):
        arg = lag / length
        arg *= arg
        arg *= -0.5
        return _cut_exp(arg, -0.5 * d_max * d_max, sf2)


def _stacked(params) -> tuple:
    """The length scales and signal variances of ``params`` as (c, 1, 1)
    arrays that stack kernels on 2-d lags."""
    return (np.array([p.length_scale for p in params]).reshape(-1, 1, 1),
            np.array([p.signal_std ** 2 for p in params]).reshape(-1, 1, 1))


def _cut_exp(arg, lowest, sf2) -> np.ndarray:
    """sf2 * exp(arg), with exact zeros where arg < -KERNEL_CUT.

    ``arg`` is a fresh exponent array, overwritten; ``lowest`` is its
    smallest entry, so the cut is masked only where it bites. ``sf2`` is
    the signal variance, or an array of them that broadcasts to ``arg``.
    """
    if lowest < -KERNEL_CUT:
        cut = arg < -KERNEL_CUT
        # exp is several times slower at arguments far below the cut.
        np.maximum(arg, -KERNEL_CUT, out=arg)
        k = np.exp(arg, out=arg)
        np.copyto(k, 0.0, where=cut)
    else:
        k = np.exp(arg, out=arg)
    k *= sf2
    return k


def _as_noise(noise, shape):
    """Validate a noise variance: a float, or an array of ``shape``."""
    if np.isscalar(noise) or getattr(noise, "ndim", None) == 0:
        val = float(noise)
        if not (val >= 0.0 and math.isfinite(val)):
            raise InvalidInputError("noise variance must be finite and >= 0")
        return val
    vec = np.asarray(noise, dtype=float)
    if vec.shape != shape:
        raise InvalidInputError("noise vector length must match the training set")
    if not np.isfinite(vec).all() or (vec < 0.0).any():
        raise InvalidInputError("noise variances must be finite and >= 0")
    return vec


def _distinct(ts):
    """The mask of each run's first in sorted ``ts``, and the distinct ones."""
    first = np.empty(ts.size, dtype=bool)
    first[0] = True
    np.not_equal(ts[1:], ts[:-1], out=first[1:])
    u = ts[first]
    if u.size > MAX_GP_INPUTS:
        raise InvalidInputError(f"a GP takes at most {MAX_GP_INPUTS} "
                                f"distinct inputs, got {u.size}")
    return first, u


def _group(t):
    """Sorted distinct inputs, each point's group index and the group sizes."""
    order = np.argsort(t, kind="stable")
    first, u = _distinct(t[order])
    index = np.empty(t.size, dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    return u, index, np.bincount(index)


def _center(y, rows=None):
    """The column means of (n, c) targets ``y``, and ``rows`` (y itself, or
    y's rows in another order) less them. Targets whose mean or spread
    overflows, which would give NaN weights, are refused."""
    with np.errstate(over="ignore", invalid="ignore"):
        # The rows of a C-ordered copy of y.T take the pairwise sum each
        # column's own mean() takes, so each offset is that mean.
        offset = np.add.reduce(y.T.copy(), axis=1) / y.shape[0]
        resid = (y if rows is None else rows) - offset
        spread = np.einsum("ij,ij->j", resid, resid)
    if not np.isfinite(spread).all():
        raise InvalidInputError("training targets overflow in float64")
    return offset, resid


def _refuse_zero_noise_duplicates(index, m, noise):
    """Refuse two points of zero (n, c) ``noise`` in one of m groups and
    one column: a singular Gram matrix, which jitter would only paper over."""
    zero = np.zeros((m, noise.shape[1]), dtype=np.intp)
    np.add.at(zero, index, noise == 0.0)
    if (zero > 1).any():
        raise NumericalConditioningError(
            "duplicate timestamps with zero noise produce a singular "
            "Gram matrix")


class _Reduced:
    """A training set grouped by distinct input, ready to collapse.

    ``noise`` is the fixed noise variance (a float or a per-point vector),
    or None for none; ``collapse`` adds a common variance on top of it (the
    jitter, plus the noise variance when one is searched), so each collapse
    precision-weights the points anew. What does not depend on the kernel
    hyperparameters is computed here, once per fit or search; ``use``
    swaps in other targets on the same inputs.
    """

    def __init__(self, train: TrainingSet, noise=None):
        self.u, self.index, _ = _group(train.t)
        self.sq_dist = _sq_dist(self.u)
        self.point_noise = np.zeros(train.y.shape) + (
            0.0 if noise is None else _as_noise(noise, train.y.shape))
        self.use(train.y)
        if noise is not None and self.u.size < train.y.size:
            _refuse_zero_noise_duplicates(self.index, self.u.size,
                                          self.point_noise[:, None])

    def use(self, y):
        """Take the checked targets ``y`` on these inputs, centered."""
        offset, resid = _center(y[:, None])
        self.offset, self.resid = float(offset[0]), resid[:, 0]

    def gram(self, params: KernelParams) -> np.ndarray:
        """The RBF Gram matrix K(u, u); u is sorted, so the corner holds
        the largest squared distance."""
        scale = -0.5 / params.length_scale ** 2
        return _cut_exp(self.sq_dist * scale, self.sq_dist[0, -1] * scale,
                        params.signal_std ** 2)

    @cached_property
    def upper_weights(self):
        """Weights that sum a symmetric product from its upper triangle."""
        return np.triu(np.full(self.sq_dist.shape, 2.0), 1) + np.eye(self.u.size)

    @cached_property
    def upper_sq_dist(self):
        return self.upper_weights * self.sq_dist

    def collapse(self, add, lml=True):
        """Group means, group noise and the log-likelihood correction.

        ``add`` is added to every observation's noise variance. The
        correction is the full system's log marginal likelihood minus the
        reduced system's; None unless ``lml``.
        """
        m = self.u.size
        w = 1.0 / (self.point_noise + add)
        total = np.bincount(self.index, w, m)
        ybar = np.bincount(self.index, w * self.resid, m) / total
        if not lml:
            return ybar, 1.0 / total, None
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
    array kept (a grown system's is a view of its ``_Columns`` factors),
    and ``alpha`` solves it against the centered ``ybar`` when first read.
    """

    u: np.ndarray
    offset: float
    params: KernelParams
    chol: np.ndarray
    ybar: np.ndarray
    rbar: np.ndarray
    jitter: float
    lml: float | None = None
    _alpha: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def alpha(self) -> np.ndarray:
        if self._alpha is None:
            self._alpha = lapack.dpotrs(self.chol, self.ybar, lower=1)[0]
        return self._alpha


def _queries(ts):
    """The query inputs ``ts`` as a checked 1-d float array."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not np.isfinite(ts).all():
        raise InvalidInputError("query inputs must be finite")
    return ts


def _query_lags(ts, u):
    """``_lags`` of the checked query inputs ``ts`` on the sorted inputs
    ``u``, refused past MAX_PREDICT_CELLS kernel cells."""
    if ts.size * u.size > MAX_PREDICT_CELLS:
        raise InvalidInputError(f"{ts.size} query inputs against {u.size} "
                                f"training inputs exceed {MAX_PREDICT_CELLS} cells")
    return _lags(ts, u)


def _predict(systems, lags, max_lag, stack=None) -> PosteriorPrediction:
    """(q, c) latent posteriors of the c ``systems`` on shared inputs at
    the checked lags of ``_query_lags``; ``stack`` is their ``_stacked``
    kernels on 2-d lags, if made. The query kernels Ks, the means offset +
    Ks alpha and the explained variances sum(v^2) are (c, ...) stacks,
    each system solving L v = Ks^T in place on its own: a stack runs each
    system's own BLAS and einsum loops, so column j is bit for bit its own."""
    length, sf2 = stack or _stacked([s.params for s in systems])
    Ks = _lag_kernel(lags, max_lag, length, sf2)
    mean = np.empty((lags.shape[0], len(systems)))
    np.add([s.offset for s in systems],
           (Ks @ np.array([s.alpha for s in systems])[:, :, None])[:, :, 0].T,
           out=mean)
    for K, sol in zip(Ks, systems):
        K.T[...] = lapack.dtrtrs(sol.chol, K.T, lower=1, overwrite_b=1)[0]
    sf2 = sf2.ravel()
    return _clamped(mean, sf2 - np.einsum("jqi,jqi->qj", Ks, Ks), sf2)


def _clamped(mean, var, sf2) -> PosteriorPrediction:
    """The posterior with variances below zero clamped, and a warning when
    one dips below the conditioning tolerance of its signal variance."""
    if (var < -1e-8 * sf2).any():
        warnings.warn("posterior variance dipped below the conditioning "
                      "tolerance and was clamped to zero", RuntimeWarning)
    return PosteriorPrediction(mean, np.maximum(var, 0.0))


def _factor(K) -> np.ndarray:
    """The lower factor of the symmetric C-ordered ``K``, in place; a
    matrix that does not factorize is refused."""
    try:
        # K is symmetric, so its transpose is the Fortran-ordered array
        # LAPACK factorizes in place.
        return cho_factor(K.T)
    except LinAlgError:
        raise NumericalConditioningError(
            "Gram matrix is not positive definite with the jitter added"
        ) from None


def _solve(red: _Reduced, params: KernelParams, K, add=0.0,
           lml=True) -> _System:
    """Factorize the reduced system over the Gram matrix ``K``, in place.

    Its LML is the full system's, or None unless ``lml``. ``add`` is the
    searched noise variance, if any: a float, or one value per observation.
    The jitter is folded into every observation's noise before collapsing;
    a system that does not factorize then is refused.
    """
    jitter = JITTER_FRAC * params.signal_std ** 2
    m = red.u.size
    ybar, rbar, corr = red.collapse(add + jitter, lml)
    K.flat[::m + 1] += rbar
    sol = _System(u=red.u, offset=red.offset, params=params, chol=_factor(K),
                  ybar=ybar, rbar=rbar, jitter=jitter)
    if lml:
        log_det = 2.0 * float(np.log(np.diagonal(sol.chol)).sum())
        sol.lml = (-0.5 * float(ybar @ sol.alpha) - 0.5 * log_det
                   - 0.5 * m * LOG_2PI + corr)
    return sol


def _lml_parts(red: _Reduced, params: KernelParams, add=0.0):
    """LML, its gradient in (log length_scale, log signal_std), and
    dLML/d(shift_g) for a variance added to every observation of group g.

    ``add`` is the searched noise variance, as in ``_solve``. Uses
    dLML/dtheta = 0.5 tr((alpha alpha^T - K^-1) dK/dtheta). The jitter
    scales with signal_std^2 and sits in every observation's noise, so the
    signal_std component carries its share of the per-group terms.
    """
    K = red.gram(params)
    sol = _solve(red, params, K.copy(), add)
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
        out = _predict([self.system], *_query_lags(_queries(ts), self.system.u))
        return PosteriorPrediction(out.mean[:, 0], out.var[:, 0])

    def log_marginal_likelihood(self) -> float:
        return self.system.lml


def fit_gp(train: TrainingSet, params: KernelParams, noise=0.0) -> GPModel:
    """Fit a GP with fixed hyperparameters and a known noise variance.

    ``noise`` is a scalar variance or a per-point vector. Targets are
    centered by their mean; the offset is restored at prediction time.
    """
    red = _Reduced(train, noise)
    return GPModel(train, noise, _solve(red, params, red.gram(params)))


def predict_columns(t, y, noise, params, ts, kept=None, order=None):
    """(q, c) latent posteriors at ``ts`` of c GPs on the shared inputs
    ``t``, one kernel in ``params`` each, and their systems as ``_Columns``
    to keep, or None past the memory of one MAX_GP_INPUTS system.

    Column j is fit_gp(TrainingSet(t, y[:, j]), params[j], noise[:, j])
    .predict(ts) bit for bit. Each input is checked once: the kernel count,
    noise, inputs, targets and queries here. On the via side a ViaPoint or
    policy.streaming_evaluation, policy._as_times and _via_side's clash
    scan check them and call _fit_columns, which takes the points sorted by
    ``order`` (t's stable argsort, if made) and refuses the caps,
    overflowing targets, zero-noise duplicates and systems that do not
    factorize.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] != len(params):
        raise InvalidInputError("predict_columns takes (n, c) targets and "
                                "one kernel per column")
    noise = np.broadcast_to(_as_noise(noise, y.shape), y.shape)
    t = TrainingSet(t, y[:, 0]).t
    if not np.isfinite(y).all():
        raise InvalidInputError("training data must be finite")
    order = np.argsort(t, kind="stable") if order is None else order
    return _fit_columns((t[order], y[order], noise[order]), y, params,
                        _queries(ts), kept)


def _fit_columns(inputs, y, params, ts, kept=None):
    """``predict_columns``' pass on inputs it checks no further: ``inputs``
    holds finite times, (n, c) targets and nonnegative noise in time order,
    ``y`` the targets in the call's order (fit_gp centers over it) and
    ``ts`` finite query times. ``kept``, an earlier call's ``_Columns``,
    grows when its ``extend`` takes the call; others build in stacked
    chunks, factorized and solved per column, none above one column's caps."""
    t, rows, noise = inputs
    first, u = _distinct(t)
    c, m, q = len(params), u.size, ts.size
    offset, resid = _center(y, rows)
    if kept and (grown := kept.extend(inputs, offset, resid, u, params, ts)):
        return grown
    stack = _stacked(params)
    jitter = JITTER_FRAC * stack[1].ravel()
    # Each group sums its points in order from zero, as np.bincount does;
    # a lone point's weight needs no zero added, as it is positive.
    w = 1.0 / (noise + jitter)
    if m == t.size:
        total, ybar = w, w * resid + 0.0
    else:
        index = np.cumsum(first) - 1
        _refuse_zero_noise_duplicates(index, m, noise)
        total, ybar = np.zeros((2, m, c))
        np.add.at(total, index, w)
        np.add.at(ybar, index, w * resid)
    ybar, rbar = (ybar / total).T.copy(), (1.0 / total).T.copy()
    sq, (lags, max_lag) = _sq_dist(u), _query_lags(ts, u)
    scale = -0.5 / stack[0] ** 2
    keep = c * m * m <= MAX_GP_INPUTS ** 2
    step = max(1, min(c, MAX_GP_INPUTS ** 2 // m ** 2,
                      MAX_PREDICT_CELLS // (max(q, 1) * m)))
    preds, systems = [], []
    for lo in range(0, c, step):
        part = slice(lo, lo + step)
        K = _cut_exp(sq * scale[part], float((sq[0, -1] * scale[part]).min()),
                     stack[1][part])
        K.reshape(len(K), -1)[:, ::m + 1] += rbar[part]
        chunk = [_System(u=u, offset=float(offset[j]), params=params[j],
                         chol=_factor(Kj), ybar=ybar[j], rbar=rbar[j],
                         jitter=float(jitter[j])) for j, Kj in enumerate(K, lo)]
        preds.append(_predict(chunk, lags, max_lag,
                              (stack[0][part], stack[1][part])))
        systems += chunk if keep else []
    return _side_by_side(preds), (_Columns(systems, inputs) if keep else None)


def _side_by_side(parts) -> PosteriorPrediction:
    """The (q, c) posterior of ``parts``: (q,) columns or (q, k) blocks."""
    if len(parts) == 1 and parts[0].mean.ndim == 2:
        return parts[0]
    return PosteriorPrediction(np.column_stack([p.mean for p in parts]),
                               np.column_stack([p.var for p in parts]))


@dataclass
class _Columns:
    """c fitted GPs on shared inputs, one ``_System`` each, that grow.

    ``inputs`` holds the time-sorted inputs, (n, c) targets and noise the
    systems were built from. ``extend`` appends points past the last input
    to every system by a block Cholesky step (Seeger 2004, "Low rank
    updates for the Cholesky decomposition"). Once grown, system j's factor
    is the leading block of the square ``factors[j]``, which has room for
    more rows, and ``z[j]`` and ``z1[j]`` hold L^-1 ybar and L^-1 1: a new
    offset o' moves L^-1 ybar to z - (o' - o) z1, so a step takes no solve
    against the whole factor beyond the one its new rows and queries need.
    An extension writes its rows into ``factors`` in place, so only the
    newest value of a chain may be extended.
    """

    systems: list
    inputs: tuple
    factors: list | None = None
    z: np.ndarray | None = None
    z1: np.ndarray | None = None

    def extend(self, inputs, offset, resid, u, params, ts):
        """``_fit_columns``' result for its ``inputs``, their distinct ``u``,
        centered ``resid`` and column means ``offset``; or None to build
        from scratch. It grows when ``inputs`` start with the kept ones'
        bytes, on the same ``params``, and add k >= 1 points past the last,
        each a distinct input; the grown factors fit in the memory of one
        MAX_GP_INPUTS system, the query kernels in MAX_PREDICT_CELLS; and
        each Schur complement factorizes."""
        kept, n = self.systems, self.inputs[0].size
        c, m, q = len(kept), kept[0].u.size, ts.size
        k = u.size - m
        if not (k > 0 and inputs[0].size == n + k
                and c * (m + k) ** 2 <= MAX_GP_INPUTS ** 2
                and c * (k + q) * (m + k) <= MAX_PREDICT_CELLS
                and all(a[:n].tobytes() == b.tobytes()
                        for a, b in zip(inputs, self.inputs))
                and [s.params for s in kept] == list(params)):
            return None
        factors, z, z1 = self._room(m + k)
        length, sf2 = _stacked(params)
        rbar_new = 1.0 / (1.0 / (inputs[2][n:] + [s.jitter for s in kept]))
        resid_new = resid[n:].T
        shift = offset - [s.offset for s in kept]
        z = z - shift[:, None] * z1
        # Rows: the new points, then the queries; columns: the inputs.
        K = _lag_kernel(*_lags(np.concatenate([inputs[0][n:], ts]), u),
                        length, sf2)
        K.reshape(c, -1)[:, m:k * (m + k):m + k + 1] += rbar_new.T
        # L^-1 of the kernels of the new points and queries on the old
        # inputs, per system: the new rows of L, and the queries' v there.
        x = np.empty((c, m, k + q))
        for j in range(c):
            x[j] = lapack.dtrtrs(factors[j][:m].T, K[j, :, :m].T,
                                 lower=0, trans=1)[0]
        below, v = x[:, :, :k].transpose(0, 2, 1), x[:, :, k:]
        try:
            corner = np.linalg.cholesky(K[:, :k, m:] - below @ x[:, :, :k])
        except LinAlgError:
            return None
        # The new rows of [L^-1 ybar, L^-1 1, v]: [ybar_new, 1, the queries'
        # kernels on the new inputs] less their part on the old rows.
        rhs = np.concatenate([resid_new[:, :, None], np.ones((c, k, 1)),
                              K[:, k:, m:].transpose(0, 2, 1)], axis=2)
        w = np.linalg.solve(corner, rhs - below @ np.concatenate(
            [z[:, :, None], z1[:, :, None], v], axis=2))
        mean = (offset + np.einsum("jiq,ji->qj", v, z)
                + np.einsum("jiq,ji->qj", w[:, :, 2:], w[:, :, 0]))
        explained = (np.einsum("jiq,jiq->qj", v, v)
                     + np.einsum("jiq,jiq->qj", w[:, :, 2:], w[:, :, 2:]))
        for factor, new_rows, new_corner in zip(factors, below, corner):
            factor[m:m + k, :m] = new_rows
            factor[m:m + k, m:m + k] = new_corner
        ybar = np.concatenate([[s.ybar for s in kept] - shift[:, None],
                               resid_new], axis=1)
        rbar = np.concatenate([[s.rbar for s in kept], rbar_new.T], axis=1)
        systems = [_System(u=u, offset=float(offset[j]), params=s.params,
                           chol=factors[j][:m + k, :m + k], ybar=ybar[j],
                           rbar=rbar[j], jitter=s.jitter)
                   for j, s in enumerate(kept)]
        grown = _Columns(systems, inputs, factors,
                         np.concatenate([z, w[:, :, 0]], axis=1),
                         np.concatenate([z1, w[:, :, 1]], axis=1))
        sf2 = sf2.ravel()
        return _clamped(mean, sf2 - explained, sf2), grown

    def _room(self, rows):
        """The factors with room for ``rows`` rows, and z and z1; both are
        made on the first extension and the factors regrown when full."""
        c, m = len(self.systems), self.systems[0].u.size
        if self.factors is not None and len(self.factors[0]) >= rows:
            return self.factors, self.z, self.z1
        # Room for 16 more rows: a stream copies its factors once every 16
        # steps. One buffer per system, within 16 rows of its factor, sized
        # as a from-scratch fit's Gram matrices are: one stack of all
        # systems, or doubling, raised a repeated 240-point stream's peak
        # resident set by ~4% (glibc malloc, 2 vCPU Xeon).
        cap = min(rows + 16, math.isqrt(MAX_GP_INPUTS ** 2 // c))
        factors = [np.zeros((cap, cap)) for _ in self.systems]
        for factor, s in zip(factors, self.systems):
            factor[:m, :m] = s.chol
        if self.z is not None:
            return factors, self.z, self.z1
        z = np.array([lapack.dtrtrs(s.chol, np.column_stack(
            [s.ybar, np.ones(m)]), lower=1)[0].T for s in self.systems])
        return factors, z[:, 0], z[:, 1]


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
    """Scan-and-polish L-BFGS-B search over log hyperparameters.

    Bounds left as None are derived from the data: length scale within
    [gap, 10 * range(t)], where gap is the smallest distance between two
    distinct inputs but at least 1e-3, signal std within [1e-3, 10] *
    std(y), noise std within [1e-6, 3] * std(y); ``fit_heteroscedastic``
    derives its knots' own box unless ``noise_std_bounds`` is set. Bounds
    are (low, high), 0 < low < high, with squares that neither overflow nor
    vanish; set signal and noise std bounds also lie within [1e-77, 1e77]
    (MAX_STD_BOUND), as the search takes their fourth powers.

    ``n_starts`` caps the local maxima of the scan a search polishes and
    ``max_iter`` the iterations of each polishing run; in
    ``fit_heteroscedastic`` both act on stage 1 only, and
    NOISE_ITER_PER_PARAM caps the knot run.
    """

    n_starts: int = 8
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
            # The search squares both ends, as KernelParams does.
            if bounds is not None and not (
                    len(bounds) == 2 and 0.0 < bounds[0] < bounds[1]
                    and 0.0 < bounds[0] * bounds[0] < bounds[1] * bounds[1]
                    < math.inf):
                raise InvalidInputError(
                    f"search bounds {bounds} are not (low, high) with 0 < "
                    "low < high and squares that neither vanish nor overflow")
        for bounds in (self.signal_std_bounds, self.noise_std_bounds):
            if bounds is not None and not (
                    1.0 / MAX_STD_BOUND <= bounds[0]
                    and bounds[1] <= MAX_STD_BOUND):
                raise InvalidInputError(
                    f"search bounds {bounds} leave [{1.0 / MAX_STD_BOUND:g}, "
                    f"{MAX_STD_BOUND:g}], past which the search overflows")


def _kernel_log_bounds(red: _Reduced, config: OptConfig, noise=False):
    """Log (length_scale, signal_std) bounds, and the noise std's if
    ``noise``, the config's or derived; a length scale below the smallest
    input gap only interpolates the means. Targets whose standard deviation
    exceeds MAX_TARGET_SD are refused."""
    gap = float(np.min(np.diff(red.u))) if red.u.size > 1 else 0.0
    scale_t = max(float(np.ptp(red.u)), 1e-3)
    sd = _target_sd(red)
    if sd > MAX_TARGET_SD:
        raise InvalidInputError(f"training targets of standard deviation {sd:.3g} "
                                f"exceed the search's limit of {MAX_TARGET_SD:g}")
    lb = config.length_scale_bounds or (max(gap, 1e-3), 10.0 * scale_t)
    sb = config.signal_std_bounds or (1e-3 * sd, 10.0 * sd)
    nb = config.noise_std_bounds or (1e-6 * sd, 3.0 * sd)
    return [tuple(map(math.log, b)) for b in (lb, sb, nb)[:2 + noise]]


def _target_sd(red: _Reduced) -> float:
    return max(float(np.std(red.resid)), 1e-8)


def optimize_hyperparameters(train: TrainingSet, noise=None,
                             config: OptConfig = OptConfig(), scan=None) -> GPModel:
    """The GP fitted at the kernel hyperparameters of largest LML found.

    ``noise`` fixes the observation noise (scalar or per-point variance
    vector) during the search; pass None to co-optimize a scalar noise
    variance alongside the kernel parameters. A fixed log grid of the box
    is scored: by ``_scan_ratios``, or for a fixed noise an SCAN_LENGTHS^2
    grid of (length scale, signal std) by the objective; ``scan`` is the
    former if already made, by ``scan_columns`` with other targets on these
    inputs (as ``learn_policy`` scans its dimensions). Its local maxima,
    best first, are each polished by one L-BFGS-B run on the analytic
    gradient: ``config.n_starts`` of them, and more while every run has
    failed. The result is fit_gp at the best run's end (the first of equal
    ones), so its LML is that run's objective; if every maximum's run
    failed, it is fit_gp at the best scanned cell whose system factorizes.
    Each search logs one DEBUG record on this module's logger: the cells
    scanned, the maxima found and polished, the failed runs, the best LML
    and the hyperparameters that end on a bound.
    """
    if len(train) < 2:
        raise InsufficientDataError("hyperparameter search needs at least 2 points")

    optimize_noise = noise is None
    red = _Reduced(train, noise)
    log_bounds = _kernel_log_bounds(red, config, optimize_noise)

    def objective(theta):
        params = KernelParams(math.exp(theta[0]), math.exp(theta[1]))
        noise_var = math.exp(2.0 * theta[2]) if optimize_noise else None
        try:
            lml, grad = _lml_and_grad(red, params, noise_var)
        except NumericalConditioningError:
            return np.inf, np.zeros(len(theta))
        return -lml, -grad

    if optimize_noise:
        cells, lml = scan or _scan_ratios(red, [(red.resid, log_bounds)])[0]
    else:
        cells = np.stack(np.meshgrid(*(np.linspace(lo, hi, SCAN_LENGTHS)
                                       for lo, hi in log_bounds),
                                     indexing="ij"), axis=-1)
        lml = -np.apply_along_axis(lambda theta: objective(theta)[0], -1, cells)
    peaks = _peaks(cells, lml)
    runs, found = 0, []  # (objective, theta) per finished run
    for theta0 in peaks:  # n_starts of them, and more while none finished
        if runs >= config.n_starts and found:
            break
        runs += 1
        res = _lbfgs(objective, theta0, log_bounds, config.max_iter)
        found += [] if res is None else [(res.fun, res.x)]
    failed = runs - len(found)
    if not found:  # the best scanned cell whose system factorizes
        order = np.argsort(np.where(np.isnan(lml), np.inf, -lml), axis=None,
                           kind="stable")
        for theta in cells.reshape(lml.size, -1)[order]:
            if np.isfinite(value := objective(theta)[0]):
                found.append((value, theta))
                break
    best = min(found, key=lambda run: run[0], default=None)
    on_bound = [name for name, x, (lo, hi) in zip(
        ("length_scale", "signal_std", "noise_std"),
        [] if best is None else best[1], log_bounds) if x <= lo or x >= hi]
    logger.debug("search over %d points: %d cells scanned, %d maxima found, "
                 "%d polished, %d failed, best LML %r, on a bound: %s",
                 len(train), lml.size, len(peaks), runs, failed,
                 None if best is None else -best[0],
                 ", ".join(on_bound) or "none")
    if best is None:
        raise OptimizationFailureError(
            "no start point of the hyperparameter search converged")
    theta = best[1]
    params = KernelParams(math.exp(theta[0]), math.exp(theta[1]))
    out_noise = math.exp(2.0 * theta[2]) if optimize_noise else noise
    return fit_gp(train, params, noise=out_noise)


def scan_columns(t, y, config: OptConfig = OptConfig()) -> list:
    """Stage-1 scans of c GPs with a searched noise on the shared inputs
    ``t``: entry j is optimize_hyperparameters(TrainingSet(t, y[:, j]), None,
    config)'s own ``scan``, bit for bit, with one eigendecomposition per
    length scale for all columns."""
    red, targets = _Reduced(TrainingSet(t, y[:, 0])), []
    for j in range(y.shape[1]):
        red.use(y[:, j])
        targets.append((red.resid, _kernel_log_bounds(red, config, True)))
    return _scan_ratios(red, targets)


def _scan_ratios(red: _Reduced, targets) -> list:
    """Per (centered targets on red's inputs, their log bounds) in
    ``targets``: the cells (log length_scale, log signal_std, log noise_std)
    of an (SCAN_LENGTHS, SCAN_RATIOS) log grid, and the LML of each.

    With v = signal_std^2 and lam = noise_std^2 / v + JITTER_FRAC, the
    reduced system is v N^-1/2 (A + lam I) N^-1/2 for the group sizes N and
    A = N^1/2 C N^1/2 = U diag(e) U^T, C the unit-signal Gram matrix. So the
    LML is -0.5 (F / v + n log v + sum log(e + lam) + (n - m) log lam +
    n log 2 pi), F = sum (U^T N^1/2 ybar)^2 / (e + lam) + S / lam with S the
    scatter about the group means, and v = F / n maximizes it. A cell clips
    that v into its box, then its noise std into its own, and scores there.
    A and the length-scale bounds depend on the inputs alone, so the targets
    share one U per length scale: decomposed once, held one at a time.
    """
    n, m = red.index.size, red.u.size
    sizes = np.bincount(red.index, minlength=m)
    root = np.sqrt(sizes)
    scans = []  # per target: N^1/2 ybar, S, its boxes and ratios, cells, LMLs
    for resid, (_, box_s, box_n) in targets:
        ybar = np.bincount(red.index, resid, m) / sizes
        d = resid - ybar[red.index]
        log_ratio = np.linspace(2.0 * (box_n[0] - box_s[1]),
                                2.0 * (box_n[1] - box_s[0]), SCAN_RATIOS)
        scans.append((root * ybar, float(d @ d), box_s, box_n,
                      log_ratio[:, None], [], []))
    # A ratio past the float range scores -inf or NaN: never a maximum.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for log_l in np.linspace(*targets[0][1][0], SCAN_LENGTHS):
            unit = red.gram(KernelParams(math.exp(log_l), 1.0))
            e, U = np.linalg.eigh(root[:, None] * unit * root)
            e = np.maximum(e, 0.0)  # A is positive semidefinite
            for root_ybar, scatter, box_s, box_n, log_ratio, cells, lml in scans:
                z2 = (U.T @ root_ybar) ** 2

                def fit_term(lam):  # F, per ratio
                    return (z2 / (e + lam)).sum(axis=1, keepdims=True) + scatter / lam

                lam = np.exp(log_ratio) + JITTER_FRAC
                log_sf = np.clip(0.5 * np.log(fit_term(lam) / n), *box_s)
                log_sn = np.clip(0.5 * log_ratio + log_sf, *box_n)
                lam = np.exp(2.0 * (log_sn - log_sf)) + JITTER_FRAC
                lml.append(-0.5 * (fit_term(lam) * np.exp(-2.0 * log_sf)
                                   + 2.0 * n * log_sf + (n - m) * np.log(lam)
                                   + np.log(e + lam).sum(axis=1, keepdims=True)
                                   + n * LOG_2PI)[:, 0])
                cells.append(np.column_stack([np.full(SCAN_RATIOS, log_l),
                                              log_sf, log_sn]))
    return [(np.array(scan[-2]), np.array(scan[-1])) for scan in scans]


def _peaks(cells, lml):
    """The scan's local maxima, best first: the cells no lower than any of
    their up to eight grid neighbours. Of equal neighbours only the first in
    grid order counts, so a plateau (clipping maps several grid points to
    one cell) gives one maximum."""
    lml = np.where(np.isnan(lml), -np.inf, lml)
    rows, cols = lml.shape
    pad = np.pad(lml, 1, constant_values=-np.inf)
    top = np.isfinite(lml)
    for i, j in np.ndindex(3, 3):
        near = pad[i:i + rows, j:j + cols]
        top &= lml > near if (i, j) < (1, 1) else lml >= near
    order = np.flatnonzero(top)
    order = order[np.argsort(-lml.flat[order], kind="stable")]
    return cells.reshape(lml.size, -1)[order]


# scipy's message for each (state, reason) task that setulb ends a run on.
_LBFGSB_MESSAGES = {
    (4, 401): "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL",
    (4, 402): "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH",
    (5, 502): "STOP: TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT",
    (5, 504): "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT",
    (8, 0): "ABNORMAL: "}


def minimize(fun, x0, jac, method, bounds, options):
    """``scipy.optimize.minimize`` bit for bit, for ``jac=True``, ``method=
    "L-BFGS-B"``, finite ``bounds`` and ``options={"maxiter": k}``: scipy's
    driver loop and defaults over its compiled ``setulb``. Other calls, and
    installations without that ``setulb``, go to scipy's ``minimize``."""
    if (setulb := compiled_setulb()) is None or (jac, method) != (True, "L-BFGS-B"):
        from scipy.optimize import minimize as scipy_minimize
        return scipy_minimize(fun, x0, jac=jac, method=method, bounds=bounds,
                              options=options)
    lo, hi = np.array(bounds, dtype=float).T.copy()
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    n, m, factr = x.size, 10, 2.2204460492503131e-09 / np.finfo(float).eps
    value, grad = fun(x.copy())  # as scipy evaluates x0 before the first call
    last, nfev, nit, f, g = x.copy(), 1, 0, 0.0, np.zeros(n)
    wa, dsave = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m), np.zeros(29)
    iwa, nbd = np.zeros(3 * n, np.int32), np.full(n, 2, np.int32)
    task, ln_task, lsave, isave = (np.zeros(k, np.int32) for k in (2, 2, 4, 44))
    while True:
        setulb(m, x, lo, hi, nbd, f, g, factr, 1e-5, wa, iwa, task, lsave,
               isave, dsave, 20, ln_task)
        if task[0] == 3:  # FG: the objective at x, evaluated once per point
            if not np.array_equal(x, last):
                value, grad = fun(x.copy())
                last, nfev = x.copy(), nfev + 1
            f, g = value, np.array(grad, dtype=float)
        elif task[0] == 1:  # NEW_X: an iteration done
            nit += 1
            if nit >= options["maxiter"]:
                task[:] = 5, 504
            elif nfev > 15000:
                task[:] = 5, 502
        else:
            break
    key = (int(task[0]), int(task[1]))
    return SimpleNamespace(x=x, fun=f, nfev=nfev, nit=nit, success=key[0] == 4,
                           message=_LBFGSB_MESSAGES.get(key, f"task {key}"))


def _lbfgs(objective, theta0, log_bounds, max_iter):
    """One L-BFGS-B run from theta0; None if it raised or ended non-finite."""
    try:
        res = minimize(objective, theta0, jac=True, method="L-BFGS-B",
                       bounds=log_bounds, options={"maxiter": max_iter})
    except (LinAlgError, ValueError):
        return None
    return res if np.isfinite(res.fun) else None


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


def predict_hetero(models, ts) -> PosteriorPrediction:
    """(q, c) ``predict`` at ``ts`` of c HeteroGPModels, column j
    models[j].predict(ts) bit for bit. Models on the same inputs share one
    (q, m) lag matrix and go through ``_predict`` in chunks of at most
    STACK_CELLS query kernel cells each; past that, one model per chunk.
    Models on different inputs each predict on their own."""
    systems = [model.signal_gp.system for model in models]
    u = systems[0].u
    step = max(STACK_CELLS // max(np.size(ts) * u.size, 1), 1)
    if any(s.u.tobytes() != u.tobytes() for s in systems):
        return _side_by_side([model.predict(ts) for model in models])
    lags, max_lag = _query_lags(_queries(ts), u)
    out = _side_by_side([_predict(systems[lo:lo + step], lags, max_lag)
                         for lo in range(0, len(systems), step)])
    out.var += np.column_stack([model.noise_variance(ts) for model in models])
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


def fit_heteroscedastic(train: TrainingSet, config: OptConfig = OptConfig(),
                        scan=None) -> HeteroGPModel:
    """Fit a GP whose observation noise varies over the input domain.

    Stage 1 is the homoscedastic search (``config`` and ``scan``, a scan
    and its polish). From its optimum, with every knot at its noise
    variance, one L-BFGS-B run of at most NOISE_ITER_PER_PARAM iterations
    per parameter searches (log length_scale, log signal_std, c_1..c_K) in
    stage 1's kernel bounds. It maximizes the exact LML, with r(t) =
    exp(interp(t, knots, c)) as every observation's noise variance, less
    NOISE_SMOOTHING / 2 * sum((c_{j+1} - c_j)^2), a random-walk prior that
    damps knot-to-knot swings at the edges of a noisy stretch. The K =
    min(NOISE_KNOTS, m) knots are uniform over the m distinct inputs; each
    c_j lies within 2 log ``config.noise_std_bounds`` when set, else within
    [log floor, max(log (3 sd)^2, log 10 floor)], floor = max(1e-10 var(y),
    1e-12). The run logs one DEBUG record on this module's logger: its
    evaluations, iterations and message, the knots on each bound and
    whether the length scale ends on its floor.
    """
    if len(train) < HETERO_MIN_POINTS:
        raise InsufficientDataError(
            f"heteroscedastic fit needs at least {HETERO_MIN_POINTS} points, "
            f"got {len(train)}")
    # The search refuses targets that overflow before their variance does.
    stage1 = optimize_hyperparameters(train, None, config, scan=scan)
    red = _Reduced(train)
    knots = np.linspace(red.u[0], red.u[-1], min(NOISE_KNOTS, red.u.size))
    floor = max(1e-10 * float(np.var(train.y)), 1e-12)
    noise_bounds = (tuple(2.0 * math.log(b) for b in config.noise_std_bounds)
                    if config.noise_std_bounds else
                    (math.log(floor), max(2.0 * math.log(3.0 * _target_sd(red)),
                                          math.log(10.0 * floor))))
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
    if (va < 0.0).any() or (vb < 0.0).any():
        raise InvalidInputError("variances must be nonnegative")
    return _product(ma, va, mb, vb)


def _product(ma, va, mb, vb) -> PosteriorPrediction:
    """``gaussian_product`` of checked arrays, which it does not check."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tot = va + vb
        mean = (vb * ma + va * mb) / tot
        var = va * vb / tot
    if not (np.isfinite(mean).all() and np.isfinite(var).all()):
        raise InvalidInputError("Gaussian product is not finite")
    return PosteriorPrediction(mean=mean, var=var)
