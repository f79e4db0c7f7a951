"""Synthetic door-opening demonstrations.

Stand-in for motion-captured pulls on doors of different radii: planar arcs
in the x-z plane whose yaw tracks the door angle. Each demonstration gets
its own random monotone time parameterization so that alignment actually
has work to do, plus optional per-sample position noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alignment import Trajectory
from .errors import InvalidInputError

# Most samples over all demos of one door set: gen-data then writes ~60 MB.
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


@dataclass(frozen=True)
class DoorSet:
    """Door-set parameters, checked on construction: ``repeats`` pulls per
    door radius, each with ``n_samples`` hinge angles up to ``max_angle`` and
    position noise of std ``noise``. ``radii`` becomes a tuple of floats."""

    radii: tuple = (0.7, 0.8, 0.9)
    repeats: int = 2
    noise: float = 0.005
    n_samples: int = 60
    max_angle: float = math.pi / 2

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        object.__setattr__(self, "radii", radii)
        if not radii or not all(0.0 < r < math.inf for r in radii):
            raise InvalidInputError("door radii must be positive and finite")
        if self.repeats < 1 or self.n_samples < 2:
            raise InvalidInputError("need repeats >= 1 and n_samples >= 2")
        if not 0.0 <= self.noise < math.inf:
            raise InvalidInputError("noise must be finite and >= 0")
        if len(radii) * self.repeats * self.n_samples > MAX_DOOR_SAMPLES:
            raise InvalidInputError(f"a door set holds at most {MAX_DOOR_SAMPLES} "
                                    "samples (radii x repeats x n_samples)")
        if not 0.0 < self.max_angle <= math.pi:
            raise InvalidInputError("max door angle must lie in (0, pi]")


def generate_synthetic_door_set(seed: int = 0, **door):
    """Generate ``len(radii) * repeats`` door-pull trajectories.

    ``door`` holds `DoorSet` fields; omitted ones keep their defaults. All
    demonstrations sample the same hinge-angle grid, so with noise=0 the
    repeats of one radius differ only in their time stamps. Rotation is
    about the hinge axis (y), proportional to the door angle. Deterministic
    for a given seed.
    """
    door = DoorSet(**door)
    n_samples = door.n_samples
    rng = np.random.default_rng(seed)
    angles = np.linspace(0.0, door.max_angle, n_samples)
    demos = []
    for radius in door.radii:
        for _ in range(door.repeats):
            stamps = _warped_stamps(rng, n_samples)
            positions = door_pull_arc(radius, angles)
            samples = np.zeros((n_samples, 6))
            samples[:, :3] = positions + door.noise * rng.standard_normal(
                positions.shape)
            samples[:, 4] = angles
            demos.append(Trajectory(stamps, samples))
    return demos
