"""Trajectory policies learned from aligned demonstrations.

A policy is six independent heteroscedastic GPs over normalized time, one per
pose dimension (x, y, z, then the rotation vector components), each with a
piecewise-linear log-noise profile. Via-point adaptation fuses the
demonstration posterior with a second GP built from the via-points, one
Gaussian product per dimension and query time. The demonstration-side
posterior of the last query grid is kept, so repeated adaptation calls on
one grid only pay for the via-point side. A new grid predicts the six
signal GPs, which share their inputs, in stacked chunks of at most
gp.STACK_CELLS query kernel cells (``gp.predict_hetero``). The via side's
six factorized GPs of the last call are kept too and handed to the next call's
``gp.predict_columns``, which alone decides whether to grow them (by
via-points strictly after the kept ones in time) or to rebuild them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .alignment import MEASURES, Trajectory, align_demonstrations, resample
from .errors import (InconsistentConstraintError, InsufficientDataError,
                     InvalidInputError)
from .gp import (MAX_GP_INPUTS, OptConfig, PosteriorPrediction, TrainingSet,
                 fit_gp,  # noqa: F401 (tracers wrap it here)
                 fit_heteroscedastic, gaussian_product, predict_columns,
                 predict_hetero, scan_columns)
from .se3 import DistanceWeights, pose_rows

DIM_NAMES = ("x", "y", "z", "rx", "ry", "rz")

# Two via-points this close in time with near-zero strengths must agree.
_SAME_TIME_TOL = 1e-12
_HARD_STRENGTH = 1e-10

# Largest policy grid: the pooled training set has grid_size distinct inputs.
MAX_GRID_SIZE = MAX_GP_INPUTS


@dataclass(frozen=True)
class LearnConfig:
    weights: DistanceWeights = DistanceWeights()
    measure: str = "tci"
    grid_size: int = 100
    opt: OptConfig = OptConfig()

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise InvalidInputError(f"measure must be one of {MEASURES}")
        if not 2 <= self.grid_size <= MAX_GRID_SIZE:
            raise InvalidInputError(f"grid_size must lie in [2, {MAX_GRID_SIZE}]")


@dataclass
class PoseDistribution(PosteriorPrediction):
    """Componentwise Gaussian over pose vectors at q query times, or at one.

    ``query`` and ``adapt_with_viapoints`` return (q, 6) ``mean`` and ``var``
    and a (q,) bool ``extrapolated`` mask. Indexing, iteration and unpacking
    give row i, (6,) views and a bool; len and [] on a row raise TypeError.
    """

    extrapolated: bool | np.ndarray = False

    def __len__(self) -> int:
        return len(self.extrapolated)

    def __getitem__(self, i) -> PoseDistribution:
        flag = self.extrapolated[i]
        return PoseDistribution(self.mean[i], self.var[i],
                                flag if np.ndim(flag) else bool(flag))


def strength_vector(strength) -> np.ndarray:
    """Via-point strengths as 6 positive finite variances (from a scalar or 6)."""
    s = np.array(strength, dtype=float)
    if s.ndim == 0:
        s = np.full(6, float(s))
    if s.shape != (6,):
        raise InvalidInputError("via-point strength must be scalar or length 6")
    if not np.all(np.isfinite(s)) or np.any(s <= 0.0):
        raise InvalidInputError("via-point strengths must be positive")
    return s


@dataclass(frozen=True)
class ViaPoint:
    """Desired pose at a normalized time with per-dimension strengths.

    The pose is a read-only (6,) row: position, canonical rotation vector.
    Strength is the observation variance attached to the constraint
    (position dimensions in m^2, rotation dimensions in rad^2): smaller is
    harder. Strengths must be positive.
    """

    time: float
    pose: np.ndarray
    strength: np.ndarray

    def __post_init__(self):
        if not math.isfinite(self.time):
            raise InvalidInputError("via-point time must be finite")
        object.__setattr__(self, "pose", pose_rows([self.pose])[0])
        object.__setattr__(self, "strength", strength_vector(self.strength))
        self.pose.setflags(write=False)
        self.strength.setflags(write=False)


@dataclass
class TaskPolicy:
    """Six per-dimension heteroscedastic GPs over normalized time."""

    dims: list
    grid: np.ndarray
    # (grid bytes, the six models, (q, 6) posterior) of the last query grid;
    # the models are held by reference, so a changed ``dims`` misses.
    _last: tuple | None = field(default=None, init=False, repr=False)
    # The last via side's six systems, gp._Columns, while they fit.
    _via: object | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if len(self.dims) != 6:
            raise InvalidInputError("a task policy carries exactly 6 models")
        self.grid = np.asarray(self.grid, dtype=float)
        if (self.grid.ndim != 1 or self.grid.size < 2
                or not np.all(np.isfinite(self.grid))
                or np.any(self.grid[1:] <= self.grid[:-1])):
            raise InvalidInputError("grid must hold at least 2 finite, "
                                    "strictly increasing times")

    def demonstration_posterior(self, ts: np.ndarray) -> PosteriorPrediction:
        """(q, 6) posterior at ``ts``; the last grid's is kept. A miss
        predicts the six models in stacked chunks of at most gp.STACK_CELLS
        query kernel cells; past that each model predicts on its own."""
        key, models = ts.tobytes(), tuple(self.dims)
        last = self._last
        if (last is None or last[0] != key or len(last[1]) != len(models)
                or any(a is not b for a, b in zip(last[1], models))):
            self._last = (key, models, predict_hetero(models, ts))
        # Hand out copies so callers cannot mutate the kept arrays.
        kept = self._last[2]
        return PosteriorPrediction(mean=kept.mean.copy(), var=kept.var.copy())


def _as_times(policy: TaskPolicy, ts):
    """Checked query times, and the mask of those off the policy grid."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.ndim != 1 or ts.size == 0 or not np.isfinite(ts).all():
        raise InvalidInputError("query times must be a finite 1-d array")
    return ts, (ts < policy.grid[0]) | (ts > policy.grid[-1])


def learn_policy(demos, config: LearnConfig = LearnConfig()) -> TaskPolicy:
    """Align, resample and fit one heteroscedastic GP per pose dimension.
    The dimensions share their inputs, so ``scan_columns`` makes their
    stage-1 scans together: one eigendecomposition per length scale."""
    aligned = align_demonstrations(demos, config.weights, config.measure)
    if len(aligned) < 2:
        raise InsufficientDataError("policy learning needs at least 2 demonstrations")
    grid = np.linspace(0.0, 1.0, config.grid_size)
    pooled = np.concatenate([resample(traj, grid).samples for traj in aligned])
    t_pool = np.tile(grid, len(aligned))
    trains = [TrainingSet(t_pool, pooled[:, d].copy()) for d in range(6)]
    models = [fit_heteroscedastic(train, config.opt, scan=scan) for train, scan
              in zip(trains, scan_columns(t_pool, pooled, config.opt))]
    return TaskPolicy(dims=models, grid=grid)


def query(policy: TaskPolicy, ts) -> PoseDistribution:
    """(q, 6) policy posterior at the query times, any finite ones."""
    ts, outside = _as_times(policy, ts)
    post = policy.demonstration_posterior(ts)
    return PoseDistribution(post.mean, post.var, outside)


def _via_side(policy: TaskPolicy, via_t, via_y, via_s, ts) -> PosteriorPrediction:
    """(q, 6) via-point posterior at ``ts``, observation-level.

    Via-point k has time via_t[k], pose row via_y[k] and strengths
    via_s[k]. Each dimension gets a via-point GP sharing the policy's kernel
    hyperparameters, with the strengths as observation noise; its predictive
    variance includes the locally interpolated strength. ``predict_columns``
    grows the six GPs from the policy's kept ones or builds them from
    scratch; the policy keeps what it returns.
    """
    order = np.argsort(via_t, kind="stable")
    t, y, s = via_t[order], via_y[order], via_s[order]
    # A near-exact via-point must agree with the previous near-exact one of
    # its dimension if that is this close in time; a gap that overflows differs.
    hard = s < _HARD_STRENGTH
    if hard.any():
        prev = np.maximum.accumulate(
            np.where(hard, np.arange(t.size)[:, None], -1))[:-1]
        with np.errstate(over="ignore"):
            clash = (hard[1:] & (prev >= 0)
                     & (t[1:, None] - t[prev] <= _SAME_TIME_TOL)
                     & (np.abs(y[1:] - y[prev, np.arange(6)]) > 1e-9))
        if np.any(clash):
            d = np.argmax(clash.any(axis=0))
            first = prev[np.argmax(clash[:, d]), d]
            raise InconsistentConstraintError(
                f"two near-exact via-points at t={t[first]} demand different poses")

    params = [model.params for model in policy.dims]
    via_side, policy._via = predict_columns(via_t, via_y, via_s, params, ts,
                                            policy._via, order)
    # Treat the constraint noise as a log-interpolated profile so the via
    # side stays an observation-level posterior away from the knots.
    via_side.var += np.exp([np.interp(ts, t, c) for c in np.log(s.T)]).T
    return via_side


def _fuse(policy: TaskPolicy, via_t, via_y, via_s, ts) -> PosteriorPrediction:
    """(q, 6) posterior of the policy fused with via-points at ``ts``."""
    via_side = _via_side(policy, via_t, via_y, via_s, ts)
    return gaussian_product(policy.demonstration_posterior(ts), via_side)


def adapt_with_viapoints(policy: TaskPolicy, via, ts) -> PoseDistribution:
    """(q, 6) policy posterior fused with via-points at the query times."""
    via = list(via)
    if not via:
        raise InvalidInputError("via-point adaptation needs at least one via-point")
    if not all(isinstance(v, ViaPoint) for v in via):
        raise InvalidInputError("via must contain ViaPoint instances")
    ts, outside = _as_times(policy, ts)
    fused = _fuse(policy, np.array([v.time for v in via]),
                  np.array([v.pose for v in via]),
                  np.array([v.strength for v in via]), ts)
    return PoseDistribution(fused.mean, fused.var, outside)


def _expected_sq_error(mean, var, target) -> np.ndarray:
    """Per-dimension mean over rows of (mean - target)^2 + var.

    A mean that lies too far from its target overflows float64 and is
    refused.
    """
    with np.errstate(over="ignore"):
        err = np.mean((mean - target) ** 2 + var, axis=0)
    if not np.all(np.isfinite(err)):
        raise InvalidInputError("expected squared error overflows in float64")
    return err


def prediction_error(pred, truth: Trajectory) -> np.ndarray:
    """Per-dimension time-averaged expected squared error.

    For each dimension this is mean over samples of
    (posterior mean - truth)^2 + posterior variance, assuming ``pred`` and
    ``truth`` share their timestamps. ``pred`` is a posterior holding
    (q, 6) arrays, such as ``query`` returns, or a sequence of rows.
    """
    rows = np.ndim(getattr(pred, "mean", None)) != 2
    if (len(pred) if rows else len(pred.mean)) != len(truth):
        raise InvalidInputError("prediction and truth lengths differ")
    if rows:
        return _expected_sq_error(np.stack([p.mean for p in pred]),
                                  np.stack([p.var for p in pred]),
                                  truth.samples)
    return _expected_sq_error(pred.mean, pred.var, truth.samples)


def _calibration(mean, var, target):
    """Per-dimension share of targets within 2 sd, and the median |z|.

    z is (target - mean) / sd. A target on its mean scores 0 even at zero
    variance; one off its mean there has no finite z and is refused.
    """
    err = np.abs(target - mean)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = np.where(err == 0.0, 0.0, err / np.sqrt(var))
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("a target off its mean has a posterior "
                                "variance too small for a finite z-score")
    return np.mean(z <= 2.0, axis=0), np.median(z, axis=0)


@dataclass(frozen=True)
class StreamingReport:
    """Prediction-error comparison: static policy vs streaming adaptation.

    Per dimension: the expected squared error, the share of truth samples
    within 2 posterior sd and the median |z| of the truth under the
    posterior. A calibrated Gaussian gives 0.954 and 0.674.
    """

    static_mse: np.ndarray
    adaptive_mse: np.ndarray
    static_within_2sd: np.ndarray
    adaptive_within_2sd: np.ndarray
    static_median_z: np.ndarray
    adaptive_median_z: np.ndarray


def streaming_evaluation(policy: TaskPolicy, truth: Trajectory,
                         strength) -> StreamingReport:
    """Replay a measured trajectory as a stream of via-point observations.

    At every sample index i >= 1 the poses observed so far become
    via-points (observation variance ``strength``, scalar or 6-vector) and
    the adapted policy predicts the pose at stamp i; the static policy
    predicts the same stamp unaided. Stamps are normalized to [0, 1] before
    querying. Errors follow prediction_error over the predicted stamps, and
    the calibration scores the truth under the same predictions.
    """
    if len(truth) < 3:
        raise InsufficientDataError(
            "streaming evaluation needs at least three samples")
    # The last step fits the via-point GP on every sample but one.
    if len(truth) - 1 > MAX_GP_INPUTS:
        raise InvalidInputError(f"streaming evaluation takes at most "
                                f"{MAX_GP_INPUTS + 1} samples, got {len(truth)}")
    stamps, samples = truth.stamps, truth.samples
    ts = (stamps - stamps[0]) / (stamps[-1] - stamps[0])
    via_s = np.broadcast_to(strength_vector(strength), samples.shape)

    # Step i fuses its via-point posterior at ts[i] with row i - 1 of the
    # one demonstration posterior the static side scores.
    steps = [_via_side(policy, ts[:i], samples[:i], via_s[:i], ts[i:i + 1])
             for i in range(1, ts.size)]
    demo = policy.demonstration_posterior(ts[1:])
    fused = gaussian_product(demo, PosteriorPrediction(
        np.concatenate([p.mean for p in steps]),
        np.concatenate([p.var for p in steps])))
    adapted = (fused.mean, fused.var, samples[1:])
    static = (demo.mean, demo.var, samples[1:])
    adaptive_mse = _expected_sq_error(*adapted)
    static_mse = _expected_sq_error(*static)
    static_within, static_z = _calibration(*static)
    adaptive_within, adaptive_z = _calibration(*adapted)
    return StreamingReport(static_mse=static_mse, adaptive_mse=adaptive_mse,
                           static_within_2sd=static_within,
                           adaptive_within_2sd=adaptive_within,
                           static_median_z=static_z,
                           adaptive_median_z=adaptive_z)
