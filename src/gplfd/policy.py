"""Trajectory policies learned from aligned demonstrations.

A policy is six independent heteroscedastic GPs over normalized time, one per
pose dimension (x, y, z, then the rotation vector components). Via-point
adaptation fuses the demonstration posterior with a second GP built from the
via-points, one Gaussian product per dimension and query time. The
demonstration-side posterior of the last query grid is kept, so repeated
adaptation calls on one grid only pay for the via-point side.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .alignment import MEASURES, Trajectory, align_demonstrations, resample
from .errors import (InconsistentConstraintError, InsufficientDataError,
                     InvalidInputError)
from .gp import (MAX_GP_INPUTS, HeteroConfig, PosteriorPrediction,
                 TrainingSet, fit_gp, fit_heteroscedastic, gaussian_product)
from .se3 import DistanceWeights, Pose

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
    hetero: HeteroConfig = HeteroConfig()

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise InvalidInputError(f"measure must be one of {MEASURES}")
        if not 2 <= self.grid_size <= MAX_GRID_SIZE:
            raise InvalidInputError(f"grid_size must lie in [2, {MAX_GRID_SIZE}]")


@dataclass
class PoseDistribution:
    """Componentwise Gaussian over a pose vector at one query time."""

    mean: np.ndarray
    var: np.ndarray
    extrapolated: bool = False

    def pose(self) -> Pose:
        """Assemble a Pose; the rotation part is re-canonicalized.

        Warns when the raw rotation mean leaves the pi-ball, since the
        wrapped representative then jumps away from the componentwise mean.
        """
        rot = self.mean[3:]
        if float(np.linalg.norm(rot)) > math.pi:
            warnings.warn("rotation mean crossed the pi-ball boundary; the "
                          "canonical representative wraps", RuntimeWarning)
        return Pose(self.mean[:3], rot)


def strength_vector(strength) -> np.ndarray:
    """Via-point strengths as 6 positive finite variances (from a scalar or 6)."""
    s = np.asarray(strength, dtype=float)
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

    Strength is the observation variance attached to the constraint
    (position dimensions in m^2, rotation dimensions in rad^2): smaller is
    harder. Strengths must be positive.
    """

    time: float
    pose: Pose
    strength: np.ndarray

    def __post_init__(self):
        if not math.isfinite(self.time):
            raise InvalidInputError("via-point time must be finite")
        object.__setattr__(self, "strength", strength_vector(self.strength))
        self.strength.setflags(write=False)


@dataclass
class TaskPolicy:
    """Six per-dimension heteroscedastic GPs over normalized time."""

    dims: list
    grid: np.ndarray
    # (grid bytes, per-dimension posterior) of the last query grid.
    _last: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if len(self.dims) != 6:
            raise InvalidInputError("a task policy carries exactly 6 models")

    def demonstration_posterior(self, ts: np.ndarray):
        """Per-dimension posterior at ``ts``; the last grid's is kept."""
        key = ts.tobytes()
        if self._last is None or self._last[0] != key:
            self._last = (key, [model.predict(ts) for model in self.dims])
        # Hand out copies so callers cannot mutate the kept arrays.
        return [PosteriorPrediction(mean=p.mean.copy(), var=p.var.copy())
                for p in self._last[1]]


def _as_times(ts) -> np.ndarray:
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.ndim != 1 or ts.size == 0 or not np.all(np.isfinite(ts)):
        raise InvalidInputError("query times must be a finite 1-d array")
    return ts


def learn_policy(demos, config: LearnConfig = LearnConfig()) -> TaskPolicy:
    """Align, resample and fit one heteroscedastic GP per pose dimension."""
    demos = list(demos)
    if len(demos) < 2:
        raise InsufficientDataError("policy learning needs at least 2 demonstrations")
    aligned = align_demonstrations(demos, config.weights, config.measure)
    grid = np.linspace(0.0, 1.0, config.grid_size)
    pooled = np.concatenate([resample(traj, grid).samples for traj in aligned])
    t_pool = np.tile(grid, len(aligned))
    models = [fit_heteroscedastic(TrainingSet(t_pool, pooled[:, d].copy()),
                                  config.hetero) for d in range(6)]
    return TaskPolicy(dims=models, grid=grid)


def query(policy: TaskPolicy, ts) -> list:
    """Policy posterior at each query time.

    Times outside [0, 1] are allowed but flagged as extrapolation.
    """
    ts = _as_times(ts)
    per_dim = policy.demonstration_posterior(ts)
    means = np.stack([p.mean for p in per_dim], axis=1)
    vars_ = np.stack([p.var for p in per_dim], axis=1)
    lo, hi = policy.grid[0], policy.grid[-1]
    return [PoseDistribution(mean=means[i], var=vars_[i],
                             extrapolated=bool(ts[i] < lo or ts[i] > hi))
            for i in range(ts.size)]


def _check_via_consistency(via) -> None:
    by_time = sorted(via, key=lambda v: v.time)
    for a, b in zip(by_time[:-1], by_time[1:]):
        if abs(a.time - b.time) > _SAME_TIME_TOL:
            continue
        hard = (a.strength < _HARD_STRENGTH) & (b.strength < _HARD_STRENGTH)
        differ = np.abs(a.pose.as_vector() - b.pose.as_vector()) > 1e-9
        if np.any(hard & differ):
            raise InconsistentConstraintError(
                f"two near-exact via-points at t={a.time} demand different poses")


def adapt_with_viapoints(policy: TaskPolicy, via, ts) -> list:
    """Fuse the policy with via-point constraints at the query times.

    Each dimension gets a via-point GP sharing the policy's kernel
    hyperparameters, with the strengths as observation noise; its predictive
    variance includes the locally interpolated strength, and the result is
    fused with the demonstration posterior by a Gaussian product.
    """
    via = list(via)
    if not via:
        raise InvalidInputError("via-point adaptation needs at least one via-point")
    if not all(isinstance(v, ViaPoint) for v in via):
        raise InvalidInputError("via must contain ViaPoint instances")
    _check_via_consistency(via)
    ts = _as_times(ts)

    demo_side = policy.demonstration_posterior(ts)
    via_t = np.array([v.time for v in via])
    via_y = np.stack([v.pose.as_vector() for v in via])
    via_s = np.stack([v.strength for v in via])
    order = np.argsort(via_t, kind="stable")

    fused_mean = np.empty((ts.size, 6))
    fused_var = np.empty((ts.size, 6))
    for d in range(6):
        model = fit_gp(TrainingSet(via_t, via_y[:, d]),
                       policy.dims[d].params, noise=via_s[:, d])
        pred = model.predict(ts)
        # Treat the constraint noise as a log-interpolated profile so the
        # via side stays an observation-level posterior away from the knots.
        log_s = np.log(via_s[order, d])
        pred.var = pred.var + np.exp(np.interp(ts, via_t[order], log_s))
        fused = gaussian_product(demo_side[d], pred)
        fused_mean[:, d] = fused.mean
        fused_var[:, d] = fused.var

    lo, hi = policy.grid[0], policy.grid[-1]
    return [PoseDistribution(mean=fused_mean[i], var=fused_var[i],
                             extrapolated=bool(ts[i] < lo or ts[i] > hi))
            for i in range(ts.size)]


def prediction_error(pred, truth: Trajectory) -> np.ndarray:
    """Per-dimension time-averaged expected squared error.

    For each dimension this is mean over samples of
    (posterior mean - truth)^2 + posterior variance, assuming ``pred`` and
    ``truth`` share their timestamps.
    """
    if len(pred) != len(truth):
        raise InvalidInputError("prediction and truth lengths differ")
    means = np.stack([p.mean for p in pred])
    vars_ = np.stack([p.var for p in pred])
    target = truth.samples
    return np.mean((means - target) ** 2 + vars_, axis=0)


@dataclass(frozen=True)
class StreamingReport:
    """Prediction-error comparison: static policy vs streaming adaptation."""

    static_mse: np.ndarray
    adaptive_mse: np.ndarray

    def improvement(self) -> np.ndarray:
        """Per-dimension fraction of the static error the adaptation removed."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return 1.0 - self.adaptive_mse / self.static_mse


def streaming_evaluation(policy: TaskPolicy, truth: Trajectory,
                         strength) -> StreamingReport:
    """Replay a measured trajectory as a stream of via-point observations.

    At every sample index i >= 1 the poses observed so far become
    via-points (observation variance ``strength``, scalar or 6-vector) and
    the adapted policy predicts the pose at stamp i; the static policy
    predicts the same stamp unaided. Stamps are normalized to [0, 1] before
    querying. Errors follow prediction_error over the predicted stamps.
    """
    if len(truth) < 3:
        raise InsufficientDataError(
            "streaming evaluation needs at least three samples")
    # The last step fits the via-point GP on every sample but one.
    if len(truth) - 1 > MAX_GP_INPUTS:
        raise InvalidInputError(f"streaming evaluation takes at most "
                                f"{MAX_GP_INPUTS + 1} samples, got {len(truth)}")
    stamps = truth.stamps
    ts = (stamps - stamps[0]) / (stamps[-1] - stamps[0])
    strength = np.broadcast_to(np.asarray(strength, dtype=float), (6,)).copy()
    target = Trajectory(ts[1:], truth.samples[1:])

    vias = [ViaPoint(t, pose, strength) for t, pose in zip(ts, truth.poses)]
    adaptive = [adapt_with_viapoints(policy, vias[:i], ts[i])[0]
                for i in range(1, ts.size)]
    static = query(policy, ts[1:])
    return StreamingReport(static_mse=prediction_error(static, target),
                           adaptive_mse=prediction_error(adaptive, target))
