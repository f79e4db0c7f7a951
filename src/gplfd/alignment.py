"""Temporal alignment of demonstrations.

Trajectories are warped onto a common clock with dynamic time warping. The
default local cost compares task completion indices (TCI): the fraction of
total SE(3) path length accumulated so far. Matching by completion instead of
absolute pose keeps demonstrations of different spatial extent from having
their intermediate samples dragged onto the wrong task phase.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateTrajectoryError, InvalidInputError
from .se3 import (DistanceWeights, Pose, arc_distances, canonical_rotvecs,
                  pose_distances, pose_rows, slerp)

MEASURES = ("tci", "euclidean-pose")
# Most cells (na * nb) of one DTW pair: the cost matrix and the cumulative
# cost matrix take 8 bytes a cell each, about 400 MB together at the cap.
MAX_DTW_CELLS = 25_000_000
# Cells per row block of the euclidean-pose cost matrix: its (rows, nb, 3)
# temporaries take about 100 bytes a cell.
_COST_BLOCK_CELLS = 1_000_000


class AlignmentWarning(UserWarning):
    """Raised in warning form when a demonstration is skipped."""


@dataclass(frozen=True)
class Trajectory:
    """Strictly increasing stamps paired with pose rows, at least two samples.

    ``samples`` is an (n, 6) array: the position, then the canonical
    rotation vector. The constructor takes any array-like of that shape, a
    sequence of Poses included, and canonicalizes the rotations.
    """

    stamps: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        stamps = np.asarray(self.stamps, dtype=float)
        if stamps.ndim != 1 or stamps.size < 2:
            raise InvalidInputError("trajectory needs at least two samples")
        if not np.all(np.isfinite(stamps)):
            raise InvalidInputError("timestamps must be finite")
        if np.any(np.diff(stamps) <= 0.0):
            raise InvalidInputError("timestamps must be strictly increasing")
        samples = pose_rows(self.samples)
        if len(samples) != stamps.size:
            raise InvalidInputError("timestamps and poses differ in length")
        object.__setattr__(self, "stamps", stamps)
        object.__setattr__(self, "samples", samples)
        stamps.setflags(write=False)
        samples.setflags(write=False)

    def __len__(self):
        return self.stamps.size

    @cached_property
    def poses(self) -> tuple:
        """The samples as Pose objects, built on first use and kept."""
        return tuple(Pose.from_vector(row) for row in self.samples)


@dataclass(frozen=True)
class TCIProfile:
    """Monotone completion fractions, 0 at the start and 1 at the end."""

    zeta: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.zeta, dtype=float)
        object.__setattr__(self, "zeta", z)
        z.setflags(write=False)


def path_length(traj: Trajectory,
                weights: DistanceWeights = DistanceWeights()) -> float:
    """Total SE(3) arc length under the weighted pose distance."""
    return float(np.sum(pose_distances(traj.samples[:-1], traj.samples[1:],
                                       weights)))


def tci_profile(traj: Trajectory,
                weights: DistanceWeights = DistanceWeights()) -> TCIProfile:
    """Cumulative fraction of path length covered at each sample."""
    steps = pose_distances(traj.samples[:-1], traj.samples[1:], weights)
    total = float(np.sum(steps))
    if total <= 0.0:
        raise DegenerateTrajectoryError(
            "zero path length: completion fractions are undefined")
    zeta = np.concatenate([[0.0], np.cumsum(steps) / total])
    zeta[-1] = 1.0
    return TCIProfile(zeta=zeta)


@dataclass(frozen=True)
class WarpPath:
    """Monotone index pairs from (0, 0) to (len(a)-1, len(b)-1)."""

    pairs: np.ndarray
    cost: float

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=int)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise InvalidInputError("warp path must be an (L, 2) index array")
        steps = np.diff(pairs, axis=0)
        if np.any(steps < 0) or np.any(steps > 1) or np.any(steps.sum(axis=1) < 1):
            raise InvalidInputError("warp path steps must advance by (1,0), "
                                    "(0,1) or (1,1)")
        object.__setattr__(self, "pairs", pairs)
        pairs.setflags(write=False)


def _cost_matrix(a: Trajectory, b: Trajectory, weights: DistanceWeights,
                 measure: str) -> np.ndarray:
    if measure == "tci":
        za = tci_profile(a, weights).zeta
        zb = tci_profile(b, weights).zeta
        return np.abs(za[:, None] - zb[None, :])
    if measure == "euclidean-pose":
        step = max(1, _COST_BLOCK_CELLS // len(b))
        return np.concatenate([pose_distances(a.samples[i:i + step, None, :],
                                              b.samples[None, :, :], weights)
                               for i in range(0, len(a), step)])
    raise InvalidInputError(f"unknown alignment measure {measure!r}; "
                            f"expected one of {MEASURES}")


def dtw_align(a: Trajectory, b: Trajectory,
              weights: DistanceWeights = DistanceWeights(),
              measure: str = "tci") -> WarpPath:
    """Minimum-cost monotone warp between two trajectories.

    ``a`` is treated as the reference: when backtracking hits cost ties the
    diagonal step is preferred, then the step that advances ``a``.
    """
    if len(a) * len(b) > MAX_DTW_CELLS:
        raise InvalidInputError(f"a DTW pair holds at most {MAX_DTW_CELLS} "
                                f"cells; got {len(a)} x {len(b)} samples")
    C = _cost_matrix(a, b, weights, measure)
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
    return WarpPath(pairs=np.array(pairs), cost=float(D[na - 1, nb - 1]))


def _merge_collisions(samples: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """One pose row per reference index from the warp's (i, j) pairs.

    The pairs are sorted by i and cover every reference index. Samples that
    share an i average their positions; for the rotation, the member
    closest to the canonical componentwise mean wins, the first one on a
    tie. Averaging rotation vectors directly is only a tie-break device.
    """
    i, members = pairs[:, 0], samples[pairs[:, 1]]
    counts = np.bincount(i)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    means = np.add.reduceat(members, starts, axis=0) / counts[:, None]
    dists = arc_distances(members[:, 3:], canonical_rotvecs(means[i, 3:]))
    pick = np.lexsort((dists, i))[starts]
    return np.hstack([means[:, :3], members[pick, 3:]])


def align_demonstrations(demos, weights: DistanceWeights = DistanceWeights(),
                         measure: str = "tci"):
    """Warp every demonstration onto a shared normalized clock.

    The reference is the demonstration whose total SE(3) arc length is the
    median of the set. Each other demonstration is warped against it; pose
    values are carried along the warp, with collisions onto one reference
    index resolved by averaging positions and picking the rotation closest
    to the collided mean. Demonstrations with zero path length are skipped
    with a warning. Output trajectories all share the reference's sample
    count and a stamp vector normalized to [0, 1].
    """
    demos = list(demos)
    if not demos:
        raise InvalidInputError("no demonstrations to align")

    usable, lengths = [], []
    for idx, demo in enumerate(demos):
        total = path_length(demo, weights)
        if total <= 0.0:
            warnings.warn(f"demonstration {idx} has zero path length; skipped",
                          AlignmentWarning)
            continue
        usable.append(demo)
        lengths.append(total)
    if not usable:
        raise DegenerateTrajectoryError("every demonstration was degenerate")

    ref = usable[int(np.argsort(lengths, kind="stable")[len(usable) // 2])]
    span = ref.stamps[-1] - ref.stamps[0]
    stamps = (ref.stamps - ref.stamps[0]) / span

    aligned = []
    for demo in usable:
        if demo is ref:
            aligned.append(Trajectory(stamps, ref.samples))
            continue
        warp = dtw_align(ref, demo, weights, measure)
        aligned.append(Trajectory(stamps,
                                  _merge_collisions(demo.samples, warp.pairs)))
    return aligned


def resample(traj: Trajectory, grid) -> Trajectory:
    """Sample a trajectory on a new stamp grid inside its time span.

    Positions interpolate linearly; rotations follow the geodesic between
    the bracketing samples. Grid points that coincide with original stamps
    reproduce the original poses exactly.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise InvalidInputError("resample grid needs at least two points")
    if np.any(np.diff(grid) <= 0.0):
        raise InvalidInputError("resample grid must be strictly increasing")
    if grid[0] < traj.stamps[0] - 1e-12 or grid[-1] > traj.stamps[-1] + 1e-12:
        raise InvalidInputError("resample grid extends outside the trajectory span")

    stamps, samples = traj.stamps, traj.samples
    new_pos = np.stack([np.interp(grid, stamps, samples[:, d])
                        for d in range(3)], axis=1)
    idx = np.clip(np.searchsorted(stamps, grid, side="right") - 1,
                  0, len(traj) - 2)
    frac = (grid - stamps[idx]) / (stamps[idx + 1] - stamps[idx])
    rot = slerp(samples[idx, 3:], samples[idx + 1, 3:], frac)
    return Trajectory(grid, np.hstack([new_pos, rot]))
