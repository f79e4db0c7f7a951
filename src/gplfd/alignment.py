"""Temporal alignment of demonstrations.

Trajectories are warped onto a common clock with dynamic time warping. The
default local cost compares task completion indices (TCI): the fraction of
total SE(3) path length accumulated so far. Matching by completion instead of
absolute pose keeps demonstrations of different spatial extent from having
their intermediate samples dragged onto the wrong task phase.
"""

from __future__ import annotations

import mmap
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DegenerateTrajectoryError, InvalidInputError
from .se3 import (DistanceWeights, Pose, arc_distances, canonical_rotvecs,
                  pose_distances, pose_rows, quaternions_of, slerp)

MEASURES = ("tci", "euclidean-pose")
# Most cells (na * nb) of one DTW pair, and most backtrack codes of one
# sweep, padding included: one byte a cell, 25 MB at the cap.
MAX_DTW_CELLS = 25_000_000


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


def path_length(traj: Trajectory,
                weights: DistanceWeights = DistanceWeights()) -> float:
    """Total SE(3) arc length under the weighted pose distance."""
    return float(np.sum(pose_distances(traj.samples[:-1], traj.samples[1:],
                                       weights)))


def tci_profile(traj: Trajectory,
                weights: DistanceWeights = DistanceWeights()) -> np.ndarray:
    """Cumulative fraction of path length covered at each sample.

    A read-only (n,) array, monotone from 0 at the start to 1 at the end.
    """
    steps = pose_distances(traj.samples[:-1], traj.samples[1:], weights)
    total = float(np.sum(steps))
    if total <= 0.0:
        raise DegenerateTrajectoryError(
            "zero path length: completion fractions are undefined")
    zeta = np.concatenate([[0.0], np.cumsum(steps) / total])
    zeta[-1] = 1.0
    zeta.setflags(write=False)
    return zeta


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


def _sweep(ref: np.ndarray, others, cost) -> list:
    """Warps of the rows ``ref`` against each of ``others`` in one pass over
    the anti-diagonals. Diagonal k holds the cells (i, j), i + j = k, of
    every pair as a contiguous (L, P) block, by reference row i, of three
    rolling (n + 1, P) buffers of cumulative costs. The others are stacked
    reversed and padded with copies of their last row (cells past a pair's
    end never feed its own), so that ``cost`` takes the rows of up to 64
    diagonals as one strided window. Each cell's backtrack step is an int8
    code in one flat buffer: (lf < min(dg, up)) + (min(dg, up, lf) < dg),
    that is 2 left, else 1 up if up < dg, else 0 diagonal.
    """
    n, count = len(ref), len(others)
    widths = np.maximum.accumulate([len(b) for b in others])
    # Greedy groups of at most MAX_DTW_CELLS codes, padding included.
    over = int(np.argmax(n * widths * np.arange(1, count + 1) > MAX_DTW_CELLS))
    if over:
        return _sweep(ref, others[:over], cost) + _sweep(ref, others[over:], cost)
    width = int(widths[-1])
    # Diagonals whose costs are taken together: 4 to 64, within 8 192 cells
    # of the pairs where 4 allow it. Larger transient blocks raised the peak
    # RSS of perfbench's door-cli runs (2 vCPU Xeon, glibc).
    block = max(4, min(64, 8_192 // (count * (min(n, width) + 64))))
    rows = np.empty((width + 2 * block, count) + ref.shape[1:])
    for p, b in enumerate(others):  # row block + width - j: sample j - 1
        rows[:, p] = b[-1]
        rows[block + width - len(b):block + width, p] = b[::-1]
    bufs = list(np.full((3, n + 1, count), np.inf))
    bufs[0][0] = 0.0
    # In its own anonymous mapping, unmapped when the sweep ends: as a heap
    # block it left glibc's heap up to 3.5 MB higher on perfbench's runs.
    codes = np.frombuffer(mmap.mmap(-1, n * width * count),
                          np.int8).reshape(-1, count)
    starts, ends = np.empty(n + width + 1, int), np.empty((n + width + 1, count))
    s = 0
    for k0 in range(2, n + width + 1, block):
        k1 = min(k0 + block, n + width + 1)
        ilo, ihi = max(1, k0 - width), min(n, k1 - 2)
        # Cell (k0 + d, ilo + r) takes row block + width - k0 - d + ilo + r.
        local = cost(ref[ilo - 1:ihi, None], as_strided(
            rows[block + width - k0 + ilo:], (k1 - k0, ihi - ilo + 1)
            + rows.shape[1:], (-rows.strides[0],) + rows.strides, writeable=False))
        s0, lefts = s, codes[s:s + local.shape[0] * local.shape[1]].view(bool)
        ups = np.empty_like(lefts)
        for k in range(k0, k1):
            lo, hi = max(1, k - width), min(n, k - 1)
            prev2, prev1, cur = bufs[(k + 1) % 3], bufs[(k + 2) % 3], bufs[k % 3]
            dg, up, lf = prev2[lo - 1:hi], prev1[lo - 1:hi], prev1[lo:hi + 1]
            a, e = s - s0, s - s0 + hi - lo + 1
            best = np.minimum(dg, up)
            np.less(lf, best, out=lefts[a:e])
            np.minimum(best, lf, out=best)
            np.less(best, dg, out=ups[a:e])
            np.add(local[k - k0, lo - ilo:hi - ilo + 1], best, out=cur[lo:hi + 1])
            ends[k], starts[k], s = cur[n], s, s + hi - lo + 1
            if k == 2:
                prev2[0] = np.inf
        np.add(codes[s0:s], ups[:s - s0].view(np.int8), out=codes[s0:s])
    costs = ends[n + np.array([len(b) for b in others]), np.arange(count)]
    if not np.all(np.isfinite(costs)):
        raise InvalidInputError("DTW cost is not finite: a distance overflows")
    steps, starts, warps = memoryview(codes.reshape(-1)), memoryview(starts), []
    for p, b in enumerate(others):  # path: the steps back from the end
        i, j, path = n, len(b), bytearray()
        while i > 1 or j > 1:
            step = steps[(starts[i + j] + i - max(1, i + j - width)) * count + p]
            i, j = i - (step != 2), j - (step != 1)
            path.append(step)
        moves = np.frombuffer(b"\3" + path[::-1], np.int8)  # 3: onto (0, 0)
        # i advances on every move but 2 (left), j on every one but 1 (up).
        pairs = np.stack([np.cumsum(moves != 2), np.cumsum(moves != 1)], 1) - 1
        warps.append(WarpPath(pairs=pairs, cost=float(costs[p])))
    return warps


def _warps(a: Trajectory, others, weights: DistanceWeights,
           measure: str) -> list:
    """Warps of ``a`` against each of ``others`` by ``_sweep``."""
    if measure not in MEASURES:
        raise InvalidInputError(f"unknown alignment measure {measure!r}; "
                                f"expected one of {MEASURES}")
    for b in others:
        if len(a) * len(b) > MAX_DTW_CELLS:
            raise InvalidInputError(f"a DTW pair holds at most {MAX_DTW_CELLS}"
                                    f" cells; got {len(a)} x {len(b)} samples")
    if measure == "tci":
        rows = [tci_profile(t, weights) for t in (a, *others)]
        cost = lambda x, y: np.abs(d := x - y, out=d)  # noqa: E731
    else:  # the rotations as quaternions, made once per sample
        rows = [np.hstack([t.samples[:, :3], quaternions_of(t.samples[:, 3:])])
                for t in (a, *others)]
        cost = lambda x, y: pose_distances(x, y, weights)  # noqa: E731
    return _sweep(rows[0], rows[1:], cost)


def dtw_align(a: Trajectory, b: Trajectory,
              weights: DistanceWeights = DistanceWeights(),
              measure: str = "tci") -> WarpPath:
    """Minimum-cost monotone warp between two trajectories.

    ``a`` is treated as the reference: when backtracking hits cost ties the
    diagonal step is preferred, then the step that advances ``a``.
    """
    return _warps(a, [b], weights, measure)[0]


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

    others = [demo for demo in usable if demo is not ref]
    warps = iter(_warps(ref, others, weights, measure) if others else ())
    return [Trajectory(stamps, ref.samples if demo is ref else
                       _merge_collisions(demo.samples, next(warps).pairs))
            for demo in usable]


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
