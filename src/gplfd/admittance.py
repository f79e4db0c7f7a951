"""Variable-stiffness admittance simulation in pose-error coordinates.

The simulated plant is m*e'' + d(t)*e' + k_p(t)*e = F_ext per axis, where
e = desired - actual. Stiffness follows a sigmoid schedule driven by the
policy's predictive uncertainty: confident phases get stiff tracking,
uncertain phases go compliant. Damping keeps a fixed damping ratio, and a
closed-form bound says how fast the uncertainty may grow before the
time-varying stiffness can feed energy into the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InvalidInputError

AXES = 6
INTEGRATORS = ("semi_implicit", "rk4")

# Most integration steps one run may take: a trace holds six (steps+1) x 6
# arrays, and a policy schedule queries every step.
MAX_SIM_STEPS = 100_000


@dataclass(frozen=True)
class ControllerParams:
    """Shared per-axis admittance constants.

    Inertia is in kg for the translation axes and kg*m^2 for the rotation
    axes; the same numeric value is applied to all six, matching the
    diagonal-gain controller the schedule was derived for. Stiffness bounds
    are N/m (translation) and Nm/rad (rotation).
    """

    inertia: float = 1.0
    damping_ratio: float = 1.0
    stiffness_min: float = 100.0
    stiffness_max: float = 500.0
    steepness: float = 600.0
    uncertainty_offset: float = 0.01

    def __post_init__(self):
        if not (self.inertia > 0.0 and math.isfinite(self.inertia)):
            raise InvalidInputError("inertia must be positive")
        if not (self.damping_ratio > 0.0 and math.isfinite(self.damping_ratio)):
            raise InvalidInputError("damping ratio must be positive")
        if not (0.0 < self.stiffness_min <= self.stiffness_max):
            raise InvalidInputError("stiffness bounds must satisfy 0 < min <= max")
        if not (self.steepness > 0.0 and math.isfinite(self.steepness)):
            raise InvalidInputError("steepness must be positive")
        if not math.isfinite(self.uncertainty_offset):
            raise InvalidInputError("uncertainty offset must be finite")


def stiffness_profile(sigma, params: ControllerParams = ControllerParams()):
    """Sigma-scheduled stiffness, strictly inside [min, max].

    k_p = k_max - (k_max - k_min) / (1 + exp(-a (sigma - b))).
    """
    sigma = np.asarray(sigma, dtype=float)
    span = params.stiffness_max - params.stiffness_min
    with np.errstate(over="ignore"):
        gate = 1.0 / (1.0 + np.exp(-params.steepness
                                   * (sigma - params.uncertainty_offset)))
    return params.stiffness_max - span * gate


def stiffness_rate(sigma, sigma_rate,
                   params: ControllerParams = ControllerParams()):
    """Analytic d(k_p)/dt along a sigma trajectory.

    Differentiating the sigmoid schedule and rewriting the gate in terms of
    k_p gives dk_p/dt = -a (k_max - k_p)(k_p - k_min) / (k_max - k_min)
    * dsigma/dt, whose magnitude peaks at the schedule midpoint.
    """
    span = params.stiffness_max - params.stiffness_min
    if span == 0.0:
        return np.zeros_like(np.asarray(sigma, dtype=float))
    kp = stiffness_profile(sigma, params)
    return (-params.steepness * (params.stiffness_max - kp)
            * (kp - params.stiffness_min) / span * np.asarray(sigma_rate))


def damping_from_ratio(stiffness, params: ControllerParams = ControllerParams()):
    """Damping that keeps the configured ratio: d = 2 delta sqrt(m k_p)."""
    return 2.0 * params.damping_ratio * np.sqrt(params.inertia
                                                * np.asarray(stiffness, dtype=float))


def stiffness_rate_bound(params: ControllerParams, sigma_rate) -> float:
    """Largest |dk_p/dt| the schedule can produce at a given |dsigma/dt|."""
    span = params.stiffness_max - params.stiffness_min
    return 0.25 * params.steepness * span * abs(float(sigma_rate))


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the uncertainty-rate stability check."""

    decay_rate: float
    sigma_rate_bound: float
    observed_sigma_rate: float
    satisfied: bool


def check_stability(params: ControllerParams,
                    sigma_rate_max: float) -> StabilityReport:
    """Sufficient condition for stability under a time-varying stiffness.

    The slowest guaranteed error decay over the schedule is
    gamma = 2 delta sqrt(k_min / m). The uncertainty may not grow faster
    than (16 delta / a) * sqrt(k_min^3) / ((k_max - k_min)(1 + 4 delta^2)
    sqrt(m)); a constant-stiffness schedule has no rate limit.
    """
    m, delta = params.inertia, params.damping_ratio
    span = params.stiffness_max - params.stiffness_min
    gamma = 2.0 * delta * math.sqrt(params.stiffness_min / m)
    if span == 0.0:
        bound = math.inf
    else:
        bound = (16.0 * delta / params.steepness
                 * math.sqrt(params.stiffness_min ** 3)
                 / (span * (1.0 + 4.0 * delta * delta) * math.sqrt(m)))
    return StabilityReport(decay_rate=gamma, sigma_rate_bound=bound,
                           observed_sigma_rate=float(sigma_rate_max),
                           satisfied=float(sigma_rate_max) < bound)


# ---------------------------------------------------------------------------
# Force models
# ---------------------------------------------------------------------------

def zero_force(t, e, v):
    return np.zeros(AXES)


def constant_force(vec):
    """External force fixed over time."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape == ():
        vec = np.full(AXES, float(vec))
    if vec.shape != (AXES,):
        raise InvalidInputError("constant force must be scalar or length 6")

    def force(t, e, v):
        return vec

    return force


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimTrace:
    """Dense per-axis record of a simulation run."""

    times: np.ndarray
    error: np.ndarray
    rate: np.ndarray
    stiffness: np.ndarray
    damping: np.ndarray
    force: np.ndarray
    sigma: np.ndarray
    inertia: float

    def energy(self) -> np.ndarray:
        """Per-axis diagnostic 0.5 m e'^2 + 0.5 k_p e^2."""
        return 0.5 * self.inertia * self.rate ** 2 + 0.5 * self.stiffness * self.error ** 2

    def max_sigma_rate(self) -> float:
        """Largest |dsigma/dt| observed, by central differences."""
        if self.times.size < 2:
            return 0.0
        grad = np.gradient(self.sigma, self.times, axis=0)
        return float(np.max(np.abs(grad)))


def _resolve_sigma(source, sigma, times, horizon, shared):
    from .policy import TaskPolicy  # local import to avoid a cycle

    if sigma is not None:
        if callable(sigma):
            rows = np.stack([np.broadcast_to(np.asarray(sigma(t), dtype=float),
                                             (AXES,)) for t in times])
        else:
            arr = np.asarray(sigma, dtype=float)
            if arr.ndim == 0:
                rows = np.full((times.size, AXES), float(arr))
            elif arr.shape == (times.size,):
                rows = np.repeat(arr[:, None], AXES, axis=1)
            elif arr.shape == (times.size, AXES):
                rows = arr.copy()
            else:
                raise InvalidInputError(
                    "sigma array must be scalar, (steps,) or (steps, 6)")
    elif isinstance(source, TaskPolicy):
        rows = np.sqrt(source.demonstration_posterior(times / horizon).var)
    else:
        raise InvalidInputError(
            "simulate needs a policy setpoint or an explicit sigma schedule")
    if np.any(rows < 0.0) or not np.all(np.isfinite(rows)):
        raise InvalidInputError("sigma schedule must be finite and >= 0")
    if shared:
        rows = np.repeat(np.max(rows, axis=1, keepdims=True), AXES, axis=1)
    return rows


def simulation_steps(dt: float, horizon: float,
                     integrator: str = "semi_implicit") -> int:
    """Integration steps over [0, horizon]; checks the timing arguments."""
    if integrator not in INTEGRATORS:
        raise InvalidInputError(f"integrator must be one of {INTEGRATORS}")
    if not (dt > 0.0 and horizon > 0.0):
        raise InvalidInputError("dt and horizon must be positive")
    if not 0.5 < horizon / dt < MAX_SIM_STEPS + 0.5:
        raise InvalidInputError("horizon / dt must round to 1 to "
                                f"{MAX_SIM_STEPS} steps")
    return round(horizon / dt)


def simulate(setpoint=None, force=None,
             params: ControllerParams = ControllerParams(),
             dt: float = 1e-3, horizon: float = 2.0, *,
             sigma=None, shared_sigma: bool = False,
             integrator: str = "semi_implicit",
             initial_error=None, initial_rate=None) -> SimTrace:
    """Integrate the admittance dynamics over [0, horizon].

    The stiffness schedule comes from the policy's predictive uncertainty
    (per axis, or the axis maximum when shared_sigma is set) or from an
    explicit ``sigma``. The default integrator is semi-implicit Euler, which
    respects the energy diagnostic; "rk4" is available when comparing
    against closed-form solutions.

    A force law is a function of (t, e, v) returning a 6-vector. The
    semi-implicit integrator calls it once a step, steps + 1 times in all;
    rk4 also calls it at each of its four stages.
    """
    steps = simulation_steps(dt, horizon, integrator)
    times = np.arange(steps + 1) * dt

    sig = _resolve_sigma(setpoint, sigma, times, horizon, shared_sigma)
    kp = stiffness_profile(sig, params)
    dmp = damping_from_ratio(kp, params)
    if force is None:
        force = zero_force

    e = np.zeros(AXES) if initial_error is None else np.asarray(initial_error,
                                                                dtype=float).copy()
    v = np.zeros(AXES) if initial_rate is None else np.asarray(initial_rate,
                                                               dtype=float).copy()
    if e.shape != (AXES,) or v.shape != (AXES,):
        raise InvalidInputError("initial error and rate must be 6-vectors")

    m = params.inertia
    err = np.empty((steps + 1, AXES))
    rate = np.empty((steps + 1, AXES))
    frc = np.empty((steps + 1, AXES))
    err[0], rate[0] = e, v
    frc[0] = force(0.0, e, v)

    def deriv(t_val, state, kp_val, d_val):
        e_val, v_val = state
        a = (force(t_val, e_val, v_val) - d_val * v_val - kp_val * e_val) / m
        return np.stack([v_val, a])

    for k in range(steps):
        if integrator == "semi_implicit":
            # frc[k] is force(times[k], e, v), stored by the previous step.
            v = v + dt * ((frc[k] - dmp[k] * v - kp[k] * e) / m)
            e = e + dt * v
        else:
            kp_mid = 0.5 * (kp[k] + kp[k + 1])
            d_mid = 0.5 * (dmp[k] + dmp[k + 1])
            t0 = times[k]
            s0 = np.stack([e, v])
            k1 = deriv(t0, s0, kp[k], dmp[k])
            k2 = deriv(t0 + 0.5 * dt, s0 + 0.5 * dt * k1, kp_mid, d_mid)
            k3 = deriv(t0 + 0.5 * dt, s0 + 0.5 * dt * k2, kp_mid, d_mid)
            k4 = deriv(t0 + dt, s0 + dt * k3, kp[k + 1], dmp[k + 1])
            s1 = s0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            e, v = s1[0], s1[1]
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(v))):
            raise DivergenceError("simulated state left the finite range",
                                  step=k + 1)
        err[k + 1], rate[k + 1] = e, v
        frc[k + 1] = force(times[k + 1], e, v)

    return SimTrace(times=times, error=err, rate=rate, stiffness=kp,
                    damping=dmp, force=frc, sigma=sig, inertia=m)
