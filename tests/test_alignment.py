import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation, Slerp

from gplfd import (AlignmentWarning, DegenerateTrajectoryError,
                   DistanceWeights, InvalidInputError, Pose, Trajectory,
                   WarpPath, align_demonstrations, dtw_align, io, path_length,
                   resample, tci_profile)
from gplfd import alignment
from gplfd.se3 import arc_distances, canonical_rotvecs
from gplfd.alignment import MAX_DTW_CELLS, _cost_matrix, _merge_collisions
from gplfd.cli import main

from oracles import brute_force_dtw_cost


def line_trajectory(stamps, start, end):
    stamps = np.asarray(stamps, float)
    frac = (stamps - stamps[0]) / (stamps[-1] - stamps[0])
    poses = tuple(Pose(np.asarray(start) + f * (np.asarray(end) - np.asarray(start)),
                       (0.0, 0.0, 0.0)) for f in frac)
    return Trajectory(stamps, poses)


def random_trajectory(rng, n=5):
    stamps = np.cumsum(rng.uniform(0.1, 1.0, n))
    poses = tuple(Pose(rng.normal(size=3),
                       rng.normal(size=3) * 0.4)
                  for _ in range(n))
    return Trajectory(stamps, poses)


class TestTrajectory:
    def test_requires_increasing_stamps(self):
        p = Pose(np.zeros(3), (0, 0, 0))
        with pytest.raises(InvalidInputError):
            Trajectory([0.0, 0.0], (p, p))

    def test_matrix_layout(self):
        traj = line_trajectory([0.0, 1.0], [0, 0, 0], [2, 0, 0])
        mat = traj.samples
        assert mat.shape == (2, 6)
        assert_allclose(mat[1], [2, 0, 0, 0, 0, 0])


    def test_samples_from_poses_or_rows(self, rng):
        traj = random_trajectory(rng, n=5)
        again = Trajectory(traj.stamps, traj.samples.copy())
        assert np.array_equal(Trajectory(traj.stamps, traj.poses).samples,
                              again.samples)
        # The Pose view is built once and kept.
        assert again.poses is again.poses
        for pose, row in zip(again.poses, again.samples):
            assert np.array_equal(pose.as_vector(), row)

    def test_rotations_canonicalized(self):
        traj = Trajectory([0.0, 1.0], [[0, 0, 0, 0, 0, 1.5 * math.pi],
                                       [1, 0, 0, 0, 0, 0]])
        assert_allclose(traj.samples[0, 3:], [0, 0, -math.pi / 2], atol=1e-15)
        assert not traj.samples.flags.writeable

    @pytest.mark.parametrize("samples", [np.zeros((2, 5)), np.zeros((3, 6)),
                                         [[0.0] * 6, [0.0] * 5], ["a", "b"],
                                         [[np.nan] + [0.0] * 5, [0.0] * 6]])
    def test_bad_samples_rejected(self, samples):
        with pytest.raises(InvalidInputError):
            Trajectory([0.0, 1.0], samples)


class TestCompletionIndex:
    def test_endpoints(self, rng):
        traj = random_trajectory(rng, n=8)
        zeta = tci_profile(traj).zeta
        assert zeta[0] == 0.0 and zeta[-1] == 1.0
        assert np.all(np.diff(zeta) >= 0.0)

    def test_straight_line_is_linear(self):
        traj = line_trajectory([0.0, 1.0, 2.0, 3.0], [0, 0, 0], [3, 0, 0])
        assert_allclose(tci_profile(traj).zeta, [0.0, 1 / 3, 2 / 3, 1.0])

    def test_timestamp_free(self, rng):
        """Arbitrary re-stamping leaves the completion profile untouched."""
        traj = random_trajectory(rng, n=8)
        warped = Trajectory(np.cumsum(rng.uniform(0.01, 5.0, len(traj))),
                            traj.poses)
        assert_allclose(tci_profile(warped).zeta, tci_profile(traj).zeta)

    def test_translation_scale_invariant(self):
        a = line_trajectory([0, 1, 2, 4], [0, 0, 0], [1, 0, 0])
        b = line_trajectory([0, 1, 2, 4], [0, 0, 0], [100, 0, 0])
        assert_allclose(tci_profile(a).zeta, tci_profile(b).zeta)

    def test_degenerate_rejected(self):
        p = Pose(np.zeros(3), (0, 0, 0))
        still = Trajectory([0.0, 1.0, 2.0], (p, p, p))
        with pytest.raises(DegenerateTrajectoryError):
            tci_profile(still)

    def test_path_length_hand_value(self):
        traj = line_trajectory([0.0, 1.0], [0, 0, 0], [3, 4, 0])
        w = DistanceWeights(rotation=0.0, translation=1.0)
        assert_allclose(path_length(traj, w), 5.0)


class TestDTW:
    def test_identical_sequences_take_diagonal(self, rng):
        traj = random_trajectory(rng, n=6)
        warp = dtw_align(traj, traj)
        assert_allclose(warp.cost, 0.0, atol=1e-15)
        assert np.array_equal(warp.pairs, np.stack([np.arange(6)] * 2, axis=1))

    def test_cost_matches_brute_force(self, rng):
        for _ in range(25):
            a, b = random_trajectory(rng), random_trajectory(rng)
            for measure in ("tci", "euclidean-pose"):
                warp = dtw_align(a, b, measure=measure)
                C = _cost_matrix(a, b, DistanceWeights(), measure)
                assert warp.cost == brute_force_dtw_cost(C)

    def test_cost_matrix_blocks_join_exactly(self, rng, monkeypatch):
        a, b = random_trajectory(rng, n=7), random_trajectory(rng, n=6)
        whole = _cost_matrix(a, b, DistanceWeights(), "euclidean-pose")
        monkeypatch.setattr(alignment, "_COST_BLOCK_CELLS", 13)
        blocks = _cost_matrix(a, b, DistanceWeights(), "euclidean-pose")
        assert np.array_equal(blocks, whole)

    def test_path_cost_is_sum_along_pairs(self, rng):
        a, b = random_trajectory(rng), random_trajectory(rng)
        warp = dtw_align(a, b)
        C = _cost_matrix(a, b, DistanceWeights(), "tci")
        acc = 0.0
        for i, j in warp.pairs:
            acc += C[i, j]
        assert_allclose(warp.cost, acc, rtol=1e-12)

    def test_unknown_measure_rejected(self, rng):
        a, b = random_trajectory(rng), random_trajectory(rng)
        with pytest.raises(InvalidInputError):
            dtw_align(a, b, measure="chebyshev")

    def test_cell_cap_checked_before_allocation(self):
        def long_line(n):
            samples = np.zeros((n, 6))
            samples[:, 0] = np.linspace(0.0, 1.0, n)
            return Trajectory(np.arange(n, dtype=float), samples)

        a, b = long_line(5001), long_line(MAX_DTW_CELLS // 5000 + 1)
        assert len(a) * len(b) > MAX_DTW_CELLS
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="at most"):
                dtw_align(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One n x m float matrix alone would be 200 MB.
        assert peak < 1_000_000

    def test_cell_cap_ends_cli_with_exit_1(self, tmp_path, capsys):
        paths = []
        for k in range(2):
            n = 5001 + k
            samples = np.zeros((n, 6))
            samples[:, 0] = np.linspace(0.0, 1.0 + k, n)
            path = tmp_path / f"demo_{k}.csv"
            io.save_demonstration(path, Trajectory(np.arange(n, dtype=float),
                                                   samples))
            paths.append(str(path))
        assert main(["align", *paths, "--out-dir", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_warp_path_steps_validated(self):
        with pytest.raises(InvalidInputError):
            WarpPath(pairs=np.array([[0, 0], [2, 1]]), cost=0.0)
        with pytest.raises(InvalidInputError):
            WarpPath(pairs=np.array([[0, 0], [0, 0]]), cost=0.0)


class TestAlignDemonstrations:
    def test_single_demo_normalized_only(self, rng):
        traj = random_trajectory(rng, n=6)
        (out,) = align_demonstrations([traj])
        assert out.stamps[0] == 0.0 and out.stamps[-1] == 1.0
        for ours, orig in zip(out.poses, traj.poses):
            assert_allclose(ours.as_vector(), orig.as_vector())

    def test_median_arc_reference_sets_length(self):
        demos = [line_trajectory(np.linspace(0, 1, n), [0, 0, 0], [L, 0, 0])
                 for n, L in ((10, 1.0), (17, 2.0), (24, 3.0))]
        aligned = align_demonstrations(demos)
        # The L=2 demo has the median arc; everything lands on its 17 samples.
        assert all(len(t) == 17 for t in aligned)
        for t in aligned:
            assert t.stamps[0] == 0.0 and t.stamps[-1] == 1.0

    def test_aligned_values_match_profiles(self):
        """After alignment, same completion fraction means same pose."""
        fine = line_trajectory(np.linspace(0, 1, 40), [0, 0, 0], [1, 0, 0])
        coarse = line_trajectory(np.linspace(0, 1, 20), [0, 0, 0], [1, 0, 0])
        aligned = align_demonstrations([coarse, fine])
        ref = aligned[0]
        assert_allclose(aligned[1].samples[:, 0], ref.samples[:, 0],
                        atol=0.06)

    def test_zero_length_demo_skipped_with_warning(self, rng):
        p = Pose(np.zeros(3), (0, 0, 0))
        still = Trajectory([0.0, 1.0], (p, p))
        moving = [random_trajectory(rng, 6) for _ in range(2)]
        with pytest.warns(AlignmentWarning):
            aligned = align_demonstrations(moving + [still])
        assert len(aligned) == 2

    def test_all_degenerate_is_an_error(self):
        p = Pose(np.zeros(3), (0, 0, 0))
        still = Trajectory([0.0, 1.0], (p, p))
        with pytest.warns(AlignmentWarning):
            with pytest.raises(DegenerateTrajectoryError):
                align_demonstrations([still])

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidInputError):
            align_demonstrations([])

    def test_collision_averages_positions(self):
        # Both late samples of b collapse onto the reference's end point.
        def x_line(xs):
            poses = tuple(Pose(np.array([x, 0.0, 0.0]),
                               (0, 0, 0)) for x in xs)
            return Trajectory(np.arange(len(xs), dtype=float), poses)

        a = x_line([0.0, 1.01])  # slightly longer arc: a becomes the reference
        b = x_line([0.0, 0.9, 1.0])
        warp = dtw_align(a, b)
        js = warp.pairs[warp.pairs[:, 0] == 1, 1]
        assert js.size == 2
        aligned = align_demonstrations([a, b])
        assert_allclose(aligned[1].samples[1, 0], 0.95)


class TestMergeCollisions:
    def test_matches_per_index_loop(self, rng):
        """Grouped reductions give what a loop over reference indices gives."""
        for _ in range(20):
            demo = random_trajectory(rng, n=12)
            steps = rng.choice([[1, 0], [0, 1], [1, 1]], size=40)
            pairs = np.vstack([[0, 0], np.cumsum(steps, axis=0)])
            pairs = pairs[(pairs[:, 0] < 8) & (pairs[:, 1] < 12)]
            pairs = pairs[:np.flatnonzero(pairs[:, 0] == pairs[-1, 0])[0] + 1]
            merged = _merge_collisions(demo.samples, pairs)
            for i in range(pairs[-1, 0] + 1):
                members = demo.samples[pairs[pairs[:, 0] == i, 1]]
                center = canonical_rotvecs(np.mean(members[:, 3:], axis=0))
                dists = [arc_distances(canonical_rotvecs(r), center)
                         for r in members[:, 3:]]
                assert_allclose(merged[i, :3], np.mean(members[:, :3], axis=0),
                                rtol=0, atol=1e-15)
                assert np.array_equal(merged[i, 3:],
                                      members[int(np.argmin(dists)), 3:])


    def test_first_member_wins_a_tie(self):
        # +r and -r lie exactly equally far from their mean, the identity.
        samples = np.array([[0.0, 0, 0, 0, 0, 0.3], [1.0, 0, 0, 0, 0, -0.3]])
        for first in (0, 1):
            pairs = np.array([[0, first], [0, 1 - first]])
            merged = _merge_collisions(samples, pairs)
            assert np.array_equal(merged[0], [0.5, 0, 0, *samples[first, 3:]])


class TestResample:
    def test_original_stamps_bit_for_bit(self, rng):
        traj = random_trajectory(rng, n=9)
        assert np.array_equal(resample(traj, traj.stamps).samples, traj.samples)
        inner = resample(traj, traj.stamps[2:7])
        assert np.array_equal(inner.samples, traj.samples[2:7])

    def test_identity_on_original_grid(self, rng):
        traj = random_trajectory(rng, n=6)
        out = resample(traj, traj.stamps)
        for ours, orig in zip(out.poses, traj.poses):
            assert_allclose(ours.as_vector(), orig.as_vector(), atol=1e-12)

    def test_linear_position_midpoint(self):
        traj = line_trajectory([0.0, 1.0], [0, 0, 0], [2, 0, 0])
        out = resample(traj, np.array([0.0, 0.5, 1.0]))
        assert_allclose(out.poses[1].position, [1.0, 0.0, 0.0])

    def test_rotation_geodesic_midpoint(self):
        poses = (Pose(np.zeros(3), (0, 0, 0)),
                 Pose(np.zeros(3), (0, 0, math.pi / 2)))
        traj = Trajectory([0.0, 1.0], poses)
        out = resample(traj, np.array([0.0, 0.5, 1.0]))
        assert_allclose(out.poses[1].rotation, [0, 0, math.pi / 4],
                        atol=1e-12)

    def test_rotation_matches_scipy_slerp(self, rng):
        for _ in range(10):
            rots = Rotation.from_rotvec(rng.normal(size=(2, 3)) * 0.8)
            poses = tuple(Pose(np.zeros(3), r)
                          for r in rots.as_rotvec())
            traj = Trajectory([0.0, 1.0], poses)
            grid = np.array([0.0, 0.3, 0.62, 1.0])
            ours = resample(traj, grid)
            theirs = Slerp([0.0, 1.0], rots)(grid)
            for got, want in zip(ours.samples[:, 3:].copy(), theirs):
                rel = Rotation.from_rotvec(got).inv() * want
                assert rel.magnitude() < 1e-9

    def test_grid_validation(self, rng):
        traj = random_trajectory(rng, n=5)
        with pytest.raises(InvalidInputError):
            resample(traj, np.array([traj.stamps[0], traj.stamps[0]]))
        with pytest.raises(InvalidInputError):
            resample(traj, np.array([traj.stamps[0] - 1.0, traj.stamps[-1]]))
