"""Synthetic door-opening demonstrations.

Stand-in for motion-captured pulls on doors of different radii: planar arcs
in the x-z plane whose yaw tracks the door angle. Each demonstration gets
its own random monotone time parameterization so that alignment actually
has work to do, plus optional per-sample position noise.
"""

from __future__ import annotations

import math

import numpy as np

from .alignment import Trajectory
from .errors import InvalidInputError
from .se3 import Pose, RotationVector

# Most samples (Pose objects, ~0.5 kB each) over all demos of one door set.
MAX_DOOR_SAMPLES = 500_000


def _warped_stamps(rng, n: int) -> np.ndarray:
    """Strictly increasing stamps over a random duration with uneven pacing."""
    duration = rng.uniform(4.0, 6.0)
    steps = rng.uniform(0.5, 1.5, n - 1)
    u = np.concatenate([[0.0], np.cumsum(steps)])
    return duration * u / u[-1]


def door_pull_arc(radius: float, angles: np.ndarray) -> np.ndarray:
    """Handle positions of a door of given radius at the given hinge angles."""
    return np.stack([radius * np.sin(angles),
                     np.zeros_like(angles),
                     radius * (1.0 - np.cos(angles))], axis=1)


def check_door_set(radii, repeats, noise, n_samples, max_angle) -> tuple:
    """Check door-set arguments; returns the radii as a tuple of floats."""
    radii = tuple(float(r) for r in radii)
    if not radii or not all(0.0 < r < math.inf for r in radii):
        raise InvalidInputError("door radii must be positive and finite")
    if repeats < 1 or n_samples < 2:
        raise InvalidInputError("need repeats >= 1 and n_samples >= 2")
    if not 0.0 <= noise < math.inf:
        raise InvalidInputError("noise must be finite and >= 0")
    if len(radii) * repeats * n_samples > MAX_DOOR_SAMPLES:
        raise InvalidInputError(f"a door set holds at most {MAX_DOOR_SAMPLES} "
                                "samples (radii x repeats x n_samples)")
    if not 0.0 < max_angle <= math.pi:
        raise InvalidInputError("max door angle must lie in (0, pi]")
    return radii


def generate_synthetic_door_set(seed: int = 0,
                                radii=(0.7, 0.8, 0.9),
                                repeats: int = 2,
                                noise: float = 0.005,
                                n_samples: int = 60,
                                max_angle: float = math.pi / 2):
    """Generate ``len(radii) * repeats`` door-pull trajectories.

    All demonstrations sample the same hinge-angle grid, so with noise=0 the
    repeats of one radius differ only in their time stamps. Rotation is
    about the hinge axis (y), proportional to the door angle. Deterministic
    for a given seed.
    """
    radii = check_door_set(radii, repeats, noise, n_samples, max_angle)
    rng = np.random.default_rng(seed)
    angles = np.linspace(0.0, max_angle, n_samples)
    demos = []
    for radius in radii:
        for _ in range(repeats):
            stamps = _warped_stamps(rng, n_samples)
            positions = door_pull_arc(radius, angles)
            positions = positions + noise * rng.standard_normal(positions.shape)
            poses = tuple(Pose(p, RotationVector((0.0, a, 0.0)))
                          for p, a in zip(positions, angles))
            demos.append(Trajectory(stamps, poses))
    return demos
