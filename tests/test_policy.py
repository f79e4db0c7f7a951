import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gplfd import (GPModel, InconsistentConstraintError, InsufficientDataError,
                   InvalidInputError, LearnConfig, OptConfig, Pose,
                   PoseDistribution, PosteriorPrediction, TaskPolicy,
                   Trajectory, ViaPoint, adapt_with_viapoints,
                   generate_synthetic_door_set, learn_policy,
                   prediction_error, query, streaming_evaluation)
from gplfd import gp
from gplfd.config import config_from_dict, learn_config
from gplfd.policy import MAX_GRID_SIZE
from gplfd.se3 import canonical_rotvecs


def posteriors_held(policy):
    """Count the posteriors reachable from the policy's fields."""
    stack, found = list(vars(policy).values()), 0
    while stack:
        obj = stack.pop()
        if isinstance(obj, PosteriorPrediction):
            found += 1
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
    return found


def offset_pose(dist, dx=0.0, dz=0.0):
    """Via pose anchored at the policy mean so quiet dimensions stay put."""
    vec = dist.mean.copy()
    vec[0] += dx
    vec[2] += dz
    return Pose(vec[:3], vec[3:])


class TestViaPoint:
    def test_scalar_strength_broadcasts(self):
        v = ViaPoint(0.5, Pose(np.zeros(3), (0, 0, 0)), 1e-4)
        assert v.strength.shape == (6,)

    def test_strength_must_be_positive(self):
        pose = Pose(np.zeros(3), (0, 0, 0))
        with pytest.raises(InvalidInputError):
            ViaPoint(0.5, pose, 0.0)
        with pytest.raises(InvalidInputError):
            ViaPoint(0.5, pose, np.array([1e-4] * 5 + [-1e-4]))

    def test_pose_or_row_give_one_read_only_row(self):
        raw = np.array([0.1, 0.2, 0.3, 0.0, 0.0, 1.5 * math.pi])
        want = np.r_[raw[:3], canonical_rotvecs(raw[3:])]
        vias = [ViaPoint(0.5, Pose.from_vector(raw), 1e-4),
                ViaPoint(0.5, raw, 1e-4), ViaPoint(0.5, raw.tolist(), 1e-4)]
        raw[0] = 9.0
        for via in vias:
            assert via.pose.shape == (6,) and not via.pose.flags.writeable
            assert np.array_equal(via.pose, want)
        strength = np.full(6, 1e-4)
        via = ViaPoint(0.5, want, strength)
        strength[0] = 1.0
        assert np.all(via.strength == 1e-4)
        for bad in (raw[:5], np.r_[raw[:5], np.nan], [raw, raw], "pose"):
            with pytest.raises(InvalidInputError):
                ViaPoint(0.5, bad, 1e-4)


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
                               (0, 0, 0))
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
        pose = Pose(np.array([0.4, 0.0, 0.2]), (0, 0.4, 0))
        adapt_with_viapoints(door_policy, [ViaPoint(0.3, pose, 1e-4)], ts)
        demo_a = door_policy.demonstration_posterior(ts)
        adapt_with_viapoints(door_policy, [ViaPoint(0.7, pose, 1e-2)], ts)
        demo_b = door_policy.demonstration_posterior(ts)
        for a, b in zip(demo_a, demo_b):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.var, b.var)

    def test_only_the_last_grid_is_kept(self, door_policy, monkeypatch):
        policy = TaskPolicy(dims=door_policy.dims, grid=door_policy.grid)
        via = [ViaPoint(0.5, query(policy, [0.5])[0].mean, 1e-4)]
        grids = [np.linspace(0.0, 1.0 - 1e-6 * k, 20) for k in range(1000)]
        for ts in grids:
            adapt_with_viapoints(policy, via, ts)
        # One per dimension: the last grid's posterior.
        assert posteriors_held(policy) == 6

        calls, predict = [], GPModel.predict

        def counted(model, ts):
            calls.append(ts.size)
            return predict(model, ts)

        monkeypatch.setattr(GPModel, "predict", counted)
        policy.demonstration_posterior(grids[-1])
        assert calls == []
        # The first grid was dropped: its 6 signal and 6 noise GPs predict.
        policy.demonstration_posterior(grids[0])
        assert calls == [20] * 12

    def test_empty_or_invalid_via_rejected(self, door_policy):
        with pytest.raises(InvalidInputError):
            adapt_with_viapoints(door_policy, [], [0.5])
        with pytest.raises(InvalidInputError):
            adapt_with_viapoints(door_policy, ["not a via"], [0.5])

    def test_conflicting_hard_constraints_rejected(self, door_policy):
        pa = Pose(np.zeros(3), (0, 0, 0))
        pb = Pose(np.ones(3), (0, 0, 0))
        vias = [ViaPoint(0.5, pa, 1e-12), ViaPoint(0.5, pb, 1e-12)]
        with pytest.raises(InconsistentConstraintError):
            adapt_with_viapoints(door_policy, vias, [0.5])
        # In any input order, among via-points at other times: a hard
        # partner 1e-13 later still clashes; a soft partner, or one hard only
        # where the two poses agree, does not.
        others = [ViaPoint(0.2, pa, 1e-4), ViaPoint(0.8, pb, 1e-12)]
        hard_rot = np.r_[np.full(3, 1e-4), np.full(3, 1e-12)]
        for partner, clash in [(vias[1], True),
                               (ViaPoint(0.5 + 1e-13, pb, 1e-12), True),
                               (ViaPoint(0.5, pb, 1e-4), False),
                               (ViaPoint(0.5, pb, hard_rot), False)]:
            for order in itertools.permutations([vias[0], partner, *others]):
                if clash:
                    with pytest.raises(InconsistentConstraintError):
                        adapt_with_viapoints(door_policy, order, [0.5])
                else:
                    adapt_with_viapoints(door_policy, order, [0.5])

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
                           (0, 0, 0)) for _ in ts)
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
        poses = tuple(Pose(row[:3], row[3:]) for row in target)
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


class TestNoiseSearch:
    def test_noise_gp_searches_with_the_signal_budget(self, monkeypatch):
        """Starts and iterations of ``opt``, seed + 1, no user bounds."""
        config = config_from_dict({"seed": 5, "policy": {
            "grid_size": 20, "opt_starts": 2, "opt_max_iter": 7,
            "hetero_iterations": 2, "length_scale_bounds": [0.01, 1.0]}})
        searches = []
        search = gp.optimize_hyperparameters

        def spy(train, noise=None, config=OptConfig()):
            searches.append((len(train), config))
            return search(train, noise, config)

        monkeypatch.setattr(gp, "optimize_hyperparameters", spy)
        learn_policy(generate_synthetic_door_set(seed=5, n_samples=20),
                     learn_config(config))
        # The noise GP regresses one value per grid time, the signal GP
        # the six pooled demonstrations.
        noise = [opt for n, opt in searches if n == 20]
        signal = [opt for n, opt in searches if n == 120]
        assert noise and len(noise) + len(signal) == len(searches)
        assert set(noise) == {OptConfig(n_starts=2, seed=6, max_iter=7)}
        assert set(signal) == {learn_config(config).hetero.opt}


class TestStreaming:
    def test_needs_three_samples(self, door_policy):
        poses = (Pose(np.zeros(3), (0, 0, 0)),
                 Pose(np.ones(3), (0, 0, 0)))
        short = Trajectory([0.0, 1.0], poses)
        with pytest.raises(InsufficientDataError):
            streaming_evaluation(door_policy, short, 1e-4)

    def test_adaptation_beats_static_policy(self, door_policy, door_holdout):
        report = streaming_evaluation(door_policy, door_holdout, 1e-4)
        assert report.static_mse.shape == (6,)
        assert report.adaptive_mse.shape == (6,)
        gain = 1.0 - report.adaptive_mse / report.static_mse
        assert gain[0] > 0.0 and gain[2] > 0.0

    def test_matches_the_per_step_public_path(self, door_policy,
                                              door_holdout):
        """Bit for bit: one adapt_with_viapoints per step, then the errors."""
        strength = np.r_[np.full(3, 1e-4), np.full(3, 1e-3)]
        report = streaming_evaluation(door_policy, door_holdout, strength)
        stamps = door_holdout.stamps
        ts = (stamps - stamps[0]) / (stamps[-1] - stamps[0])
        vias = [ViaPoint(t, pose, strength)
                for t, pose in zip(ts, door_holdout.poses)]
        adaptive = [adapt_with_viapoints(door_policy, vias[:i], ts[i])[0]
                    for i in range(1, ts.size)]
        target = Trajectory(ts[1:], door_holdout.samples[1:])
        assert np.array_equal(report.adaptive_mse,
                              prediction_error(adaptive, target))
        assert np.array_equal(report.static_mse,
                              prediction_error(query(door_policy, ts[1:]),
                                               target))
