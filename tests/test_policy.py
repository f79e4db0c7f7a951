import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gplfd import (InconsistentConstraintError, InsufficientDataError,
                   InvalidInputError, LearnConfig, Pose, PoseDistribution,
                   RotationVector, Trajectory, ViaPoint, adapt_with_viapoints,
                   learn_policy, prediction_error, query,
                   streaming_evaluation)
from gplfd.policy import MAX_GRID_SIZE


def offset_pose(dist, dx=0.0, dz=0.0):
    """Via pose anchored at the policy mean so quiet dimensions stay put."""
    vec = dist.mean.copy()
    vec[0] += dx
    vec[2] += dz
    return Pose(vec[:3], RotationVector(vec[3:]))


class TestViaPoint:
    def test_scalar_strength_broadcasts(self):
        v = ViaPoint(0.5, Pose(np.zeros(3), RotationVector((0, 0, 0))), 1e-4)
        assert v.strength.shape == (6,)

    def test_strength_must_be_positive(self):
        pose = Pose(np.zeros(3), RotationVector((0, 0, 0)))
        with pytest.raises(InvalidInputError):
            ViaPoint(0.5, pose, 0.0)
        with pytest.raises(InvalidInputError):
            ViaPoint(0.5, pose, np.array([1e-4] * 5 + [-1e-4]))


class TestLearnAndQuery:
    def test_needs_two_demos(self, door_demos):
        with pytest.raises(InsufficientDataError):
            learn_policy(door_demos[:1])

    def test_grid_size_validated(self):
        with pytest.raises(InvalidInputError):
            LearnConfig(grid_size=1)
        with pytest.raises(InvalidInputError):
            LearnConfig(grid_size=MAX_GRID_SIZE + 1)

    def test_measure_validated(self):
        with pytest.raises(InvalidInputError):
            LearnConfig(measure="banana")

    def test_query_tracks_demonstrations(self, door_policy, door_demos):
        """The mean stays inside the envelope the demos actually span."""
        ts = np.linspace(0.0, 1.0, 21)
        dists = query(door_policy, ts)
        mats = [d.samples for d in door_demos]
        lo = np.min([m.min(axis=0) for m in mats], axis=0) - 0.05
        hi = np.max([m.max(axis=0) for m in mats], axis=0) + 0.05
        for dist in dists:
            assert np.all(dist.mean >= lo) and np.all(dist.mean <= hi)
            assert np.all(dist.var >= 0.0)
            assert not dist.extrapolated

    def test_uncertainty_grows_with_dispersion(self, door_policy):
        # Radii fan out with the pull angle, so late x/z spread beats early.
        early, late = query(door_policy, [0.05, 0.95])
        assert late.var[0] > early.var[0]
        assert late.var[2] > early.var[2]

    def test_extrapolation_flagged_and_reverts_to_prior(self):
        # Wiggly demos fit a short length scale, so t=2.0 sits many length
        # scales beyond the data and the posterior falls back to the prior.
        t = np.linspace(0.0, 1.0, 40)
        demos = []
        for off in (-0.02, 0.0, 0.02):
            xs = 0.3 * np.sin(4 * np.pi * t) + off
            zs = 0.2 * np.cos(4 * np.pi * t) + off
            poses = tuple(Pose(np.array([x, 0.0, z]),
                               RotationVector((0, 0, 0)))
                          for x, z in zip(xs, zs))
            demos.append(Trajectory(t.copy(), poses))
        policy = learn_policy(demos)
        inside, outside = query(policy, [0.5, 2.0])
        assert not inside.extrapolated
        assert outside.extrapolated
        sf2 = np.array([m.params.signal_std ** 2 for m in policy.dims])
        assert np.all(outside.var >= 0.9 * sf2)
        offsets = np.array([m.signal_gp.mean_offset for m in policy.dims])
        assert np.max(np.abs(outside.mean - offsets)) < 0.05

    def test_query_time_validation(self, door_policy):
        with pytest.raises(InvalidInputError):
            query(door_policy, [np.nan])
        with pytest.raises(InvalidInputError):
            query(door_policy, [])

    def test_pose_assembly_warns_outside_pi_ball(self):
        dist = PoseDistribution(mean=np.r_[np.zeros(3), 0.0, 3.2, 0.0],
                                var=np.ones(6))
        with pytest.warns(RuntimeWarning):
            dist.pose()


class TestAdaptation:
    def test_strong_via_is_met(self, door_policy):
        base = query(door_policy, [0.5])[0]
        target = offset_pose(base, dx=0.05, dz=0.03)
        via = ViaPoint(0.5, target, np.full(6, 1e-6))
        out = adapt_with_viapoints(door_policy, [via], [0.5])[0]
        assert np.max(np.abs(out.mean - target.as_vector())) < 1e-2

    def test_weak_via_leaves_policy_alone(self, door_policy):
        base = query(door_policy, [0.5])[0]
        target = offset_pose(base, dx=0.05, dz=0.03)
        via = ViaPoint(0.5, target, 1e3 * np.maximum(base.var, 1e-8))
        out = adapt_with_viapoints(door_policy, [via], [0.5])[0]
        std = np.sqrt(base.var)
        assert np.all(np.abs(out.mean - base.mean) < 0.01 * std + 1e-9)

    def test_fused_variance_contracts(self, door_policy):
        ts = np.linspace(0.0, 1.0, 11)
        base = query(door_policy, ts)
        target = offset_pose(base[5], dx=0.02)
        via = ViaPoint(0.5, target, np.full(6, 1e-4))
        adapted = adapt_with_viapoints(door_policy, [via], ts)
        for b, a in zip(base, adapted):
            assert np.all(a.var <= b.var + 1e-12)

    def test_demo_side_cache_is_bitwise_stable(self, door_policy):
        ts = np.linspace(0.0, 1.0, 13)
        pose = Pose(np.array([0.4, 0.0, 0.2]), RotationVector((0, 0.4, 0)))
        adapt_with_viapoints(door_policy, [ViaPoint(0.3, pose, 1e-4)], ts)
        demo_a = door_policy.demonstration_posterior(ts)
        adapt_with_viapoints(door_policy, [ViaPoint(0.7, pose, 1e-2)], ts)
        demo_b = door_policy.demonstration_posterior(ts)
        for a, b in zip(demo_a, demo_b):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.var, b.var)

    def test_empty_or_invalid_via_rejected(self, door_policy):
        with pytest.raises(InvalidInputError):
            adapt_with_viapoints(door_policy, [], [0.5])
        with pytest.raises(InvalidInputError):
            adapt_with_viapoints(door_policy, ["not a via"], [0.5])

    def test_conflicting_hard_constraints_rejected(self, door_policy):
        pa = Pose(np.zeros(3), RotationVector((0, 0, 0)))
        pb = Pose(np.ones(3), RotationVector((0, 0, 0)))
        vias = [ViaPoint(0.5, pa, 1e-12), ViaPoint(0.5, pb, 1e-12)]
        with pytest.raises(InconsistentConstraintError):
            adapt_with_viapoints(door_policy, vias, [0.5])

    def test_multiple_vias_each_pull_locally(self, door_policy):
        b1, b2 = query(door_policy, [0.3, 0.7])
        t1 = offset_pose(b1, dx=0.04)
        t2 = offset_pose(b2, dz=-0.04)
        vias = [ViaPoint(0.3, t1, 1e-6), ViaPoint(0.7, t2, 1e-6)]
        o1, o2 = adapt_with_viapoints(door_policy, vias, [0.3, 0.7])
        assert abs(o1.mean[0] - t1.as_vector()[0]) < 1e-2
        assert abs(o2.mean[2] - t2.as_vector()[2]) < 1e-2


class TestPredictionError:
    @staticmethod
    def flat_truth(ts, value=0.0):
        poses = tuple(Pose(np.array([value, 0.0, 0.0]),
                           RotationVector((0, 0, 0))) for _ in ts)
        return Trajectory(ts, poses)

    def test_pure_variance_term(self):
        ts = np.linspace(0.0, 1.0, 5)
        truth = self.flat_truth(ts)
        pred = [PoseDistribution(mean=np.zeros(6), var=np.full(6, 0.1))
                for _ in ts]
        assert_allclose(prediction_error(pred, truth), np.full(6, 0.1))

    def test_pure_bias_term(self):
        ts = np.linspace(0.0, 1.0, 4)
        truth = self.flat_truth(ts)
        pred = [PoseDistribution(mean=np.full(6, 0.2), var=np.zeros(6))
                for _ in ts]
        assert_allclose(prediction_error(pred, truth), np.full(6, 0.04))

    def test_matches_two_term_oracle(self, rng):
        ts = np.linspace(0.0, 1.0, 8)
        target = rng.normal(size=(8, 6))
        poses = tuple(Pose(row[:3], RotationVector(row[3:])) for row in target)
        truth = Trajectory(ts, poses)
        truth_mat = truth.samples
        means = rng.normal(size=(8, 6))
        vars_ = rng.uniform(0.0, 0.5, size=(8, 6))
        pred = [PoseDistribution(mean=means[i], var=vars_[i]) for i in range(8)]
        want = np.zeros(6)
        for i in range(8):
            want += (means[i] - truth_mat[i]) ** 2 + vars_[i]
        assert_allclose(prediction_error(pred, truth), want / 8.0, rtol=1e-12)

    def test_length_mismatch_rejected(self):
        ts = np.linspace(0.0, 1.0, 4)
        truth = self.flat_truth(ts)
        pred = [PoseDistribution(mean=np.zeros(6), var=np.zeros(6))] * 3
        with pytest.raises(InvalidInputError):
            prediction_error(pred, truth)


class TestStreaming:
    def test_needs_three_samples(self, door_policy):
        poses = (Pose(np.zeros(3), RotationVector((0, 0, 0))),
                 Pose(np.ones(3), RotationVector((0, 0, 0))))
        short = Trajectory([0.0, 1.0], poses)
        with pytest.raises(InsufficientDataError):
            streaming_evaluation(door_policy, short, 1e-4)

    def test_adaptation_beats_static_policy(self, door_policy, door_holdout):
        report = streaming_evaluation(door_policy, door_holdout, 1e-4)
        assert report.static_mse.shape == (6,)
        assert report.adaptive_mse.shape == (6,)
        gain = report.improvement()
        assert gain[0] > 0.0 and gain[2] > 0.0
