import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gplfd import (AlignmentWarning, GPModel, HeteroGPModel,
                   InconsistentConstraintError, InsufficientDataError,
                   InvalidInputError, KernelParams, LearnConfig, OptConfig,
                   Pose, PoseDistribution, PosteriorPrediction, TaskPolicy,
                   Trajectory, TrainingSet, ViaPoint, adapt_with_viapoints,
                   fit_gp, generate_synthetic_door_set, learn_policy,
                   prediction_error, query, streaming_evaluation)
from gplfd import gp, io
from gplfd import policy as policy_module
from gplfd.config import config_from_dict, learn_config
from gplfd.gp import JITTER_FRAC, MAX_GP_INPUTS
from gplfd.policy import MAX_GRID_SIZE, _calibration, _fuse
from gplfd.se3 import canonical_rotvecs
from oracles import dense_posterior, loop_fuse


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


def spy_predictions(monkeypatch):
    """A list that records every GP prediction from now on as the (query
    times, columns) of its ``gp._predict`` pass: a stacked chunk of
    several systems, or one model's own ``predict``."""
    calls, real = [], gp._predict

    def spy(systems, lags, *rest):
        calls.append((lags.shape[0], len(systems)))
        return real(systems, lags, *rest)

    monkeypatch.setattr(gp, "_predict", spy)
    return calls


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
        with pytest.raises(InvalidInputError, match="scalar or length 6"):
            ViaPoint(0.5, pose, [1e-4] * 3)

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
        flat = Trajectory([0.0, 1.0, 2.0], [door_demos[0].samples[0]] * 3)
        with pytest.raises(InsufficientDataError):
            learn_policy(door_demos[:1])
        # Alignment skips the flat demo, which leaves one.
        with pytest.warns(AlignmentWarning), \
                pytest.raises(InsufficientDataError):
            learn_policy([door_demos[0], flat])

    def test_grid_size_validated(self):
        with pytest.raises(InvalidInputError):
            LearnConfig(grid_size=1)
        with pytest.raises(InvalidInputError):
            LearnConfig(grid_size=MAX_GRID_SIZE + 1)

    @pytest.mark.parametrize("grid", [[], [0.5], [np.nan, 1.0], [1.0, 0.5, 0.0],
                                      [0.0, 0.5, 0.5, 1.0]],
                             ids=["empty", "one-point", "non-finite",
                                  "reversed", "repeated"])
    def test_grid_validated(self, door_policy, grid):
        with pytest.raises(InvalidInputError, match="grid"):
            TaskPolicy(dims=door_policy.dims, grid=np.array(grid))

    def test_needs_six_models(self, door_policy):
        with pytest.raises(InvalidInputError, match="exactly 6 models"):
            TaskPolicy(dims=door_policy.dims[:5], grid=door_policy.grid)

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
        assert np.array_equal(demo_a.mean, demo_b.mean)
        assert np.array_equal(demo_a.var, demo_b.var)

    def test_only_the_last_grid_is_kept(self, door_policy, monkeypatch):
        policy = TaskPolicy(dims=door_policy.dims, grid=door_policy.grid)
        via = [ViaPoint(0.5, query(policy, [0.5])[0].mean, 1e-4)]
        grids = [np.linspace(0.0, 1.0 - 1e-6 * k, 20) for k in range(1000)]
        for ts in grids:
            adapt_with_viapoints(policy, via, ts)
        # One (q, 6) posterior: the last grid's.
        assert posteriors_held(policy) == 1

        calls = spy_predictions(monkeypatch)
        policy.demonstration_posterior(grids[-1])
        assert calls == []
        # The first grid was dropped: its 6 signal GPs predict, in one
        # stacked chunk.
        policy.demonstration_posterior(grids[0])
        assert calls == [(20, 6)]

    @pytest.mark.parametrize("change", ["swapped in place", "reassigned"])
    def test_changed_dims_are_predicted_afresh(self, door_policy, change):
        ts = np.linspace(0.0, 1.0, 100)
        policy = TaskPolicy(dims=list(door_policy.dims), grid=door_policy.grid)
        query(policy, ts)
        if change == "swapped in place":
            policy.dims[0], policy.dims[1] = policy.dims[1], policy.dims[0]
        else:
            policy.dims = [policy.dims[1], policy.dims[0], *policy.dims[2:]]
        fresh = TaskPolicy(dims=list(policy.dims), grid=door_policy.grid)
        ours, theirs = query(policy, ts), query(fresh, ts)
        assert np.array_equal(ours.mean, theirs.mean)
        assert np.array_equal(ours.var, theirs.var)

    def test_the_same_models_keep_the_posterior(self, door_policy,
                                                monkeypatch):
        ts = np.linspace(0.0, 1.0, 100)
        policy = TaskPolicy(dims=list(door_policy.dims), grid=door_policy.grid)
        kept = query(policy, ts)
        # A new list of the same six models still hits.
        policy.dims = list(policy.dims)
        calls = spy_predictions(monkeypatch)
        again = query(policy, ts)
        assert calls == []
        assert np.array_equal(again.mean, kept.mean)
        assert np.array_equal(again.var, kept.var)

    def test_fused_posterior_matches_dense_oracle(self, rng):
        """Each dimension rebuilt from explicit inverses and fused by hand."""
        dims = []
        knots = np.linspace(0.0, 1.0, 4)
        for _ in range(6):
            t = np.sort(rng.uniform(0.0, 1.0, 10))
            dims.append(HeteroGPModel.fit(
                TrainingSet(t, np.sin(3.0 * t) + rng.normal(0.0, 0.1, 10)),
                KernelParams(float(rng.uniform(0.2, 0.5)),
                             float(rng.uniform(0.5, 1.5))),
                knots, rng.normal(-4.0, 0.5, knots.size)))
        policy = TaskPolicy(dims=dims, grid=np.linspace(0.0, 1.0, 10))
        via_t = np.array([0.5, 0.15, 0.8])
        via_y = rng.normal(0.0, 0.5, (3, 6))
        via_s = rng.uniform(1e-4, 1e-2, (3, 6))
        ts = np.linspace(0.0, 1.0, 9)
        out = adapt_with_viapoints(
            policy, [ViaPoint(*row) for row in zip(via_t, via_y, via_s)], ts)

        order = np.argsort(via_t)
        for d, model in enumerate(dims):
            sig = model.signal_gp
            r = np.exp(np.interp(sig.train.t, knots, model.log_variance))
            ma, va = dense_posterior(sig.train.t, sig.train.y,
                                     sig.params.length_scale,
                                     sig.params.signal_std, r,
                                     sig.jitter, ts)
            va = va + np.exp(np.interp(ts, knots, model.log_variance))
            mb, vb = dense_posterior(via_t, via_y[:, d],
                                     sig.params.length_scale,
                                     sig.params.signal_std, via_s[:, d],
                                     JITTER_FRAC
                                     * sig.params.signal_std ** 2, ts)
            vb = vb + np.exp(np.interp(ts, via_t[order],
                                       np.log(via_s[order, d])))
            want_var = 1.0 / (1.0 / va + 1.0 / vb)
            want_mean = want_var * (ma / va + mb / vb)
            assert_allclose([p.mean[d] for p in out], want_mean, rtol=1e-9)
            assert_allclose([p.var[d] for p in out], want_var, rtol=1e-9)

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
        # partner 1e-13 later still clashes, and so does one with a soft
        # via-point between them; a soft partner, or one hard only where the
        # two poses agree, does not.
        others = [ViaPoint(0.2, pa, 1e-4), ViaPoint(0.8, pb, 1e-12)]
        hard_rot = np.r_[np.full(3, 1e-4), np.full(3, 1e-12)]
        soft_mid = ViaPoint(0.5, Pose(np.full(3, 0.5), (0, 0, 0)), 1e-4)
        for partner, clash in [((vias[1],), True),
                               ((ViaPoint(0.5 + 1e-13, pb, 1e-12),), True),
                               ((soft_mid, vias[1]), True),
                               ((ViaPoint(0.5, pb, 1e-4),), False),
                               ((ViaPoint(0.5, pb, hard_rot),), False)]:
            for order in itertools.permutations([vias[0], *partner, *others]):
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


class TestStackedDemonstrationSide:
    """demonstration_posterior predicts the six signal GPs in stacked
    ``gp._predict`` chunks of at most gp.STACK_CELLS query kernel cells;
    past that, one model per chunk on shared lags, and on different inputs
    each model predicts alone. Either way column j is dims[j].predict, bit
    for bit."""

    @staticmethod
    def per_dimension(dims, ts):
        parts = [model.predict(ts) for model in dims]
        return (np.stack([p.mean for p in parts], axis=1),
                np.stack([p.var for p in parts], axis=1))

    @pytest.fixture(scope="class")
    def loaded(self, door_policy, tmp_path_factory):
        path = tmp_path_factory.mktemp("stacked") / "policy.json"
        io.save_policy(path, door_policy)
        return io.load_policy(path)

    # A 100-input policy: 54 times fit six models in a 2^15-cell chunk,
    # 100 times three, 300 and 2001 times one.
    @pytest.mark.parametrize("q, chunks", [
        (1, [(1, 6)]), (54, [(54, 6)]), (100, [(100, 3)] * 2),
        (300, [(300, 1)] * 6), (2001, [(2001, 1)] * 6)])
    @pytest.mark.parametrize("source", ["fitted", "loaded"])
    def test_columns_are_the_models_own(self, door_policy, loaded, source,
                                        q, chunks, monkeypatch):
        policy = door_policy if source == "fitted" else loaded
        ts = np.linspace(-0.1, 1.1, q) if q > 1 else np.array([0.37])
        mean, var = self.per_dimension(policy.dims, ts)
        calls = spy_predictions(monkeypatch)
        fresh = TaskPolicy(dims=policy.dims, grid=policy.grid)
        got = fresh.demonstration_posterior(ts)
        assert calls == chunks
        assert np.array_equal(got.mean, mean)
        assert np.array_equal(got.var, var)

    def test_models_on_different_inputs_predict_alone(self, rng,
                                                      monkeypatch):
        knots = np.linspace(0.0, 1.0, 4)
        dims = [HeteroGPModel.fit(
            TrainingSet(t, np.sin(3.0 * t)), KernelParams(0.3, 1.0), knots,
            np.full(4, -6.0)) for t in np.sort(rng.uniform(0, 1, (6, 12)))]
        ts = np.linspace(0.0, 1.0, 9)
        mean, var = self.per_dimension(dims, ts)
        calls = spy_predictions(monkeypatch)
        policy = TaskPolicy(dims=dims, grid=np.linspace(0.0, 1.0, 10))
        got = policy.demonstration_posterior(ts)
        assert calls == [(9, 1)] * 6
        assert np.array_equal(got.mean, mean)
        assert np.array_equal(got.var, var)

    def test_memory_at_the_simulation_schedule(self, door_policy):
        """At simulate's 2001 times the chunks would hold more than one
        model's kernels: the posterior peaks within 1.1x of the loop."""
        ts = np.linspace(0.0, 1.0, 2001)

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        fresh = TaskPolicy(dims=door_policy.dims, grid=door_policy.grid)
        stacked = peak(lambda: fresh.demonstration_posterior(ts))
        loop = peak(lambda: self.per_dimension(door_policy.dims, ts))
        assert stacked <= 1.1 * loop


class TestPosteriorValue:
    """query and adapt_with_viapoints return one (q, 6) PoseDistribution;
    its rows are views into it, built on demand."""

    TIMES = np.array([-0.1, 0.0, 0.5, 1.0, 1.2])
    OUTSIDE = [True, False, False, False, True]

    def check(self, dist, ref):
        """``dist`` holds ``ref``'s arrays; each row is row i of them."""
        assert type(dist) is PoseDistribution
        assert dist.mean.shape == dist.var.shape == (self.TIMES.size, 6)
        assert len(dist) == self.TIMES.size
        assert dist.extrapolated.tolist() == self.OUTSIDE
        assert np.array_equal(dist.mean, ref.mean)
        assert np.array_equal(dist.var, ref.var)
        rows = list(dist)
        assert len(rows) == len(dist)
        for i, row in enumerate(rows):
            for got in (row, dist[i], dist[i - len(dist)]):
                assert got.mean.tobytes() == ref.mean[i].tobytes()
                assert got.var.tobytes() == ref.var[i].tobytes()
                assert np.shares_memory(got.mean, dist.mean)
                assert np.shares_memory(got.var, dist.var)
                assert type(got.extrapolated) is bool
                assert got.extrapolated == self.OUTSIDE[i]
            # A row is not a sequence.
            with pytest.raises(TypeError):
                len(row)
            with pytest.raises(TypeError):
                row[0]
            with pytest.raises(TypeError):
                list(row)
        with pytest.raises(IndexError):
            dist[len(dist)]

    def test_query_wraps_the_demonstration_posterior(self, door_policy):
        self.check(query(door_policy, self.TIMES),
                   door_policy.demonstration_posterior(self.TIMES))
        [mid] = query(door_policy, [0.5])
        assert mid.mean.shape == (6,) and mid.extrapolated is False

    def test_adapt_wraps_the_fused_posterior(self, door_policy, rng):
        via_t = np.array([0.25, 0.5, 0.75])
        via_y = door_policy.demonstration_posterior(via_t).mean
        via_y = via_y + rng.normal(0.0, 0.01, via_y.shape)
        via_s = np.full((3, 6), 1e-4)
        vias = [ViaPoint(t, y, s) for t, y, s in zip(via_t, via_y, via_s)]
        # ViaPoint canonicalizes the rotation; fuse the rows it holds.
        via_y = np.stack([v.pose for v in vias])
        self.check(adapt_with_viapoints(door_policy, vias, self.TIMES),
                   _fuse(door_policy, via_t, via_y, via_s, self.TIMES))
        first, second = adapt_with_viapoints(door_policy, vias, [0.3, 0.7])
        assert first.mean.shape == second.var.shape == (6,)


class TestFuseMatchesLoop:
    """One pass over the six dimensions equals the per-dimension loop."""

    GRID = np.linspace(0.0, 1.0, 100)

    @staticmethod
    def outcome(fuse, policy, via_t, via_y, via_s, ts):
        """(mean, var) of one fusion, or the message it was refused with."""
        try:
            out = fuse(policy, via_t, via_y, via_s, ts)
        except InconsistentConstraintError as exc:
            return str(exc)
        return out.mean, out.var

    def assert_same(self, policy, via_t, via_y, via_s, ts=GRID):
        """Bit-equal posteriors or equal messages; True when refused."""
        new = self.outcome(_fuse, policy, via_t, via_y, via_s, ts)
        old = self.outcome(loop_fuse, policy, via_t, via_y, via_s, ts)
        if isinstance(old, str):
            assert new == old
            return True
        assert not isinstance(new, str), new
        assert np.array_equal(new[0], old[0])
        assert np.array_equal(new[1], old[1])
        return False

    @staticmethod
    def near_policy(policy, via_t, rng, spread=0.02):
        """Via poses scattered around the policy mean at ``via_t``."""
        mean = policy.demonstration_posterior(np.asarray(via_t)).mean
        return mean + rng.normal(0.0, spread, mean.shape)

    def test_one_via_point(self, door_policy, rng):
        via_t = np.array([0.4])
        self.assert_same(door_policy, via_t,
                         self.near_policy(door_policy, via_t, rng),
                         np.full((1, 6), 1e-4))

    def test_repeated_times_with_unequal_strengths(self, door_policy, rng):
        via_t = np.array([0.6, 0.3, 0.3, 0.6, 0.3, 0.9])
        via_s = rng.uniform(1e-5, 1e-2, (6, 6))
        self.assert_same(door_policy, via_t,
                         self.near_policy(door_policy, via_t, rng), via_s)

    def test_hard_and_soft_mixed(self, door_policy, rng):
        via_t = np.array([0.1, 0.5, 0.5, 0.5 + 1e-13, 0.7, 0.9])
        via_y = self.near_policy(door_policy, via_t, rng)
        # Rows 1 and 3 agree wherever both are hard; row 2 is soft there.
        via_y[3] = via_y[1]
        via_s = np.full((6, 6), 1e-4)
        via_s[[0, 1, 3, 5], :3] = 1e-12
        via_s[4, 3:] = 1e-11
        assert not self.assert_same(door_policy, via_t, via_y, via_s)

    def test_via_times_outside_the_grid(self, door_policy, rng):
        via_t = np.array([1.4, -0.3, 0.5])
        via_s = rng.uniform(1e-6, 1e-3, (3, 6))
        self.assert_same(door_policy, via_t,
                         self.near_policy(door_policy, via_t, rng), via_s,
                         np.linspace(-0.5, 1.5, 41))

    def test_clashes_report_the_same_time(self, door_policy, rng):
        """Random near-exact clashes: same refusals, same messages."""
        times = np.array([0.2, 0.5, 0.5 + 1e-13, 0.8, 0.8])
        refused = 0
        for _ in range(60):
            k = int(rng.integers(2, 8))
            via_t = rng.choice(times, k)
            via_y = rng.choice([0.0, 0.1], (k, 6))
            via_s = rng.choice([1e-12, 1e-4], (k, 6))
            refused += self.assert_same(door_policy, via_t, via_y, via_s,
                                        np.array([0.5]))
        assert 10 < refused < 50

    def test_every_streaming_prefix(self, door_policy):
        (truth,) = generate_synthetic_door_set(seed=7, radii=(0.85,),
                                               repeats=1, n_samples=240)
        stamps, samples = truth.stamps, truth.samples
        ts = (stamps - stamps[0]) / (stamps[-1] - stamps[0])
        strength = np.r_[np.full(3, 1e-4), np.full(3, 1e-3)]
        via_s = np.broadcast_to(strength, samples.shape)
        for i in range(1, ts.size):
            # A fresh policy per prefix: the from-scratch via side.
            fresh = TaskPolicy(dims=door_policy.dims, grid=door_policy.grid)
            self.assert_same(fresh, ts[:i], samples[:i], via_s[:i],
                             ts[i:i + 1])

    def test_random_via_sets(self, door_policy, rng):
        """Seeded random via sets of 1 to 12 points, with repeated times,
        hard and soft strengths, times outside [0, 1] and shuffled order:
        through a fresh policy each fuses bit for bit as the loop does, and
        fed to one policy in time order, every prefix (grown where it can
        be) is within 1e-10 of the loop: the means of each column's scale,
        as in TestGrowingViaSide, and the variances of the column's signal
        variance sf2. Next to a near-exact via-point a grown variance is
        sf2 - explained with explained within ~1e-8 of sf2, so it agrees
        with the loop's to a small part of sf2 but only ~1e-8 of itself."""
        grid = np.linspace(-0.2, 1.2, 29)
        refused = 0
        for _ in range(40):
            k = int(rng.integers(1, 13))
            via_t = rng.choice(rng.uniform(-0.3, 1.3, k), k)
            hard = rng.random((k, 6)) < 0.3
            via_s = np.where(hard, rng.choice([1e-12, 1e-11], (k, 6)),
                             10.0 ** rng.uniform(-6.0, -2.0, (k, 6)))
            # Hard entries at one time agree unless a row is moved.
            mean = door_policy.demonstration_posterior(via_t).mean
            via_y = mean + np.where(hard, 0.0,
                                    rng.normal(0.0, 0.02, mean.shape))
            via_y[rng.random(k) < 0.1] += 0.01
            perm = rng.permutation(k)
            fresh = TaskPolicy(dims=door_policy.dims, grid=door_policy.grid)
            if self.assert_same(fresh, via_t[perm], via_y[perm],
                                via_s[perm], grid):
                refused += 1
                continue
            order = np.argsort(via_t, kind="stable")
            t, y, s = via_t[order], via_y[order], via_s[order]
            stream = TaskPolicy(dims=door_policy.dims, grid=door_policy.grid)
            scale = np.abs(y).max(axis=0) + 1e-3
            sf2 = np.array([m.params.signal_std ** 2
                            for m in door_policy.dims])
            for i in range(1, k + 1):
                got = _fuse(stream, t[:i], y[:i], s[:i], grid)
                want = loop_fuse(stream, t[:i], y[:i], s[:i], grid)
                assert np.all(np.abs(got.mean - want.mean) <= 1e-10 * scale)
                assert np.all(np.abs(got.var - want.var) <= 1e-10 * sf2)
        assert refused < 10

    def test_memory_at_the_input_cap(self, door_policy, rng):
        """Six GPs on MAX_GP_INPUTS via-points hold one system at a time.

        A stack of six m x m systems would take ~400 MB here; the loop of
        six separate models peaked at 128 MB.
        """
        via_t = np.linspace(0.0, 1.0, MAX_GP_INPUTS)
        via_y = self.near_policy(door_policy, via_t, rng, spread=0.01)
        via_s = np.full(via_y.shape, 1e-4)
        ts = np.array([0.0, 1.0])
        door_policy.demonstration_posterior(ts)
        tracemalloc.start()
        try:
            _fuse(door_policy, via_t, via_y, via_s, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 140e6


class TestGrowingViaSide:
    """Appended via-points grow the kept via side; every other call goes
    from scratch, bit for bit as a fresh policy does."""

    GRID = TestFuseMatchesLoop.GRID

    @pytest.fixture(scope="class")
    def stream(self):
        (truth,) = generate_synthetic_door_set(seed=7, radii=(0.85,),
                                               repeats=1, n_samples=240)
        stamps, samples = truth.stamps, truth.samples
        ts = (stamps - stamps[0]) / (stamps[-1] - stamps[0])
        strength = np.r_[np.full(3, 1e-4), np.full(3, 1e-3)]
        return ts, samples, np.broadcast_to(strength, samples.shape).copy()

    @staticmethod
    def grown(policy):
        """True when the kept via side has been grown."""
        return policy._via is not None and policy._via.factors is not None

    def test_every_prefix_within_1e_10_of_the_loop(self, door_policy, stream):
        """One policy takes the 240-sample stream in order: every step after
        the first grows the kept side, and each fused posterior is within
        1e-10 of the per-dimension loop's."""
        ts, samples, via_s = stream
        policy = TaskPolicy(dims=door_policy.dims, grid=door_policy.grid)
        scale = np.abs(samples).max(axis=0) + 1e-3
        for i in range(1, ts.size):
            got = _fuse(policy, ts[:i], samples[:i], via_s[:i], ts[i:i + 1])
            want = loop_fuse(policy, ts[:i], samples[:i], via_s[:i],
                             ts[i:i + 1])
            assert self.grown(policy) == (i > 1)
            assert np.all(np.abs(got.mean - want.mean) <= 1e-10 * scale)
            assert_allclose(got.var, want.var, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("case", [
        "earlier-time", "repeated-last-time", "changed-strength",
        "changed-pose", "swapped-dims", "same-via-points"])
    def test_other_calls_go_from_scratch(self, door_policy, stream, case):
        """A call that does not append via-points strictly after the kept
        ones, with the kept ones unchanged and the same kernels, is bit for
        bit the from-scratch fusion, and its side replaces the kept one."""
        ts, samples, via_s = stream
        dims = list(door_policy.dims)
        policy = TaskPolicy(dims=dims, grid=door_policy.grid)
        via_t, via_y, via_s = ts[:40].copy(), samples[:40].copy(), via_s[:40]
        for n in (30, 35):  # build, then grow
            _fuse(policy, via_t[:n], via_y[:n], via_s[:n], np.array([0.5]))
        assert self.grown(policy)
        n = 36
        if case == "earlier-time":
            via_t[35] = 0.5 * (via_t[33] + via_t[34])
        elif case == "repeated-last-time":
            via_t[35] = via_t[34]
        elif case == "changed-strength":
            via_s = via_s.copy()
            via_s[10, 2] *= 1.5
        elif case == "changed-pose":
            via_y[10, 4] += 1e-9
        elif case == "swapped-dims":
            dims[0], dims[1] = dims[1], dims[0]
        else:
            n = 35
        args = (via_t[:n], via_y[:n], via_s[:n], self.GRID)
        got = _fuse(policy, *args)
        assert not self.grown(policy)
        want = loop_fuse(TaskPolicy(dims=dims, grid=door_policy.grid), *args)
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.var, want.var)

    def test_shuffled_via_points_sort_once(self, door_policy, stream, rng,
                                           monkeypatch):
        """A via side sorts a shuffled list by one stable argsort, rebuilt
        and grown; it fuses bit for bit as the loop does when rebuilt, and
        within 1e-10 of it when grown."""
        ts, samples, via_s = stream
        policy = TaskPolicy(dims=door_policy.dims, grid=door_policy.grid)
        sorts, argsort = [], np.argsort
        monkeypatch.setattr(np, "argsort", lambda a, *rest, **kw:
                            sorts.append(a.size) or argsort(a, *rest, **kw))
        for n in (30, 36):
            perm = rng.permutation(n)
            args = (ts[:n][perm], samples[:n][perm], via_s[:n][perm],
                    self.GRID)
            sorts.clear()
            got = _fuse(policy, *args)
            assert sorts == [n]
            assert self.grown(policy) == (n == 36)
            want = loop_fuse(policy, *args)
            if n == 30:
                assert np.array_equal(got.mean, want.mean)
                assert np.array_equal(got.var, want.var)
            else:
                assert_allclose(got.mean, want.mean, rtol=0.0, atol=1e-10)
                assert_allclose(got.var, want.var, rtol=1e-10, atol=0.0)

    def test_extending_step_factorizes_no_full_system(self, door_policy,
                                                      stream, monkeypatch):
        """A step that grows the kept side factorizes only the new rows'
        Schur complements: no m x m Cholesky factorization."""
        ts, samples, via_s = stream
        policy = TaskPolicy(dims=door_policy.dims, grid=door_policy.grid)
        _fuse(policy, ts[:50], samples[:50], via_s[:50], ts[50:51])
        factored, cholesky = [], np.linalg.cholesky
        real = gp.cho_factor
        monkeypatch.setattr(gp, "cho_factor",
                            lambda a: factored.append(a.shape) or real(a))
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: factored.append(a.shape) or cholesky(a))
        _fuse(policy, ts[:52], samples[:52], via_s[:52], ts[52:53])
        assert self.grown(policy)
        assert factored == [(6, 2, 2)]

    def test_failed_schur_complement_goes_from_scratch(self, door_policy,
                                                       stream, monkeypatch):
        """An extension whose Schur complements do not factorize gives way
        to the from-scratch side, bit for bit, which is then kept."""
        ts, samples, via_s = stream
        policy = TaskPolicy(dims=door_policy.dims, grid=door_policy.grid)
        for n in (20, 21):
            _fuse(policy, ts[:n], samples[:n], via_s[:n], ts[n:n + 1])
        assert self.grown(policy)

        def refuse(a):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        args = (ts[:22], samples[:22], via_s[:22], self.GRID)
        got = _fuse(policy, *args)
        assert not self.grown(policy) and policy._via.inputs[0].size == 22
        want = loop_fuse(policy, *args)
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.var, want.var)

    def test_no_factor_kept_past_the_size_bound(self, door_policy, rng):
        """The six systems are kept while they fit in the memory of one
        MAX_GP_INPUTS system, 816 via-points each; past that nothing is."""
        bound = math.isqrt(MAX_GP_INPUTS ** 2 // 6)
        via_t = np.linspace(0.0, 1.0, bound + 1)
        via_y = TestFuseMatchesLoop.near_policy(door_policy, via_t, rng, 0.01)
        via_s = np.full(via_y.shape, 1e-4)
        policy = TaskPolicy(dims=door_policy.dims, grid=door_policy.grid)
        ts = np.array([0.5])
        _fuse(policy, via_t[:bound], via_y[:bound], via_s[:bound], ts)
        assert policy._via is not None and policy._via.inputs[0].size == bound
        _fuse(policy, via_t, via_y, via_s, ts)
        assert policy._via is None
        _fuse(policy, via_t[:bound - 1], via_y[:bound - 1], via_s[:bound - 1],
              ts)
        _fuse(policy, via_t, via_y, via_s, ts)
        assert policy._via is None

    def test_streaming_evaluation_grows_its_steps(self, door_policy,
                                                  door_holdout, monkeypatch):
        """streaming_evaluation's steps after the first grow the kept side."""
        fresh = TaskPolicy(dims=door_policy.dims, grid=door_policy.grid)
        calls, real = [], gp._Columns.extend

        def extend(columns, inputs, *rest):
            grown = real(columns, inputs, *rest)
            calls.append(grown and inputs[0].size - columns.inputs[0].size)
            return grown

        monkeypatch.setattr(gp._Columns, "extend", extend)
        streaming_evaluation(fresh, door_holdout, 1e-4)
        assert calls == [1] * (len(door_holdout) - 2)


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

    def test_array_posterior_equals_its_rows(self, door_policy,
                                             door_holdout):
        """A (q, 6) posterior is read as it is; its list of rows gives the
        same errors, bit for bit."""
        stamps = door_holdout.stamps
        ts = (stamps - stamps[0]) / (stamps[-1] - stamps[0])
        truth = Trajectory(ts, door_holdout.samples)
        post = query(door_policy, ts)
        got = prediction_error(post, truth)
        assert np.array_equal(got, prediction_error(list(post), truth))
        assert np.array_equal(got, prediction_error(
            PosteriorPrediction(post.mean, post.var), truth))
        with pytest.raises(InvalidInputError, match="lengths differ"):
            prediction_error(query(door_policy, ts[1:]), truth)

    def test_length_mismatch_rejected(self):
        ts = np.linspace(0.0, 1.0, 4)
        truth = self.flat_truth(ts)
        pred = [PoseDistribution(mean=np.zeros(6), var=np.zeros(6))] * 3
        with pytest.raises(InvalidInputError):
            prediction_error(pred, truth)


class TestNoiseSearch:
    def test_knot_run_searches_with_its_own_budget(self, monkeypatch):
        """The noise knots are searched in one L-BFGS-B run after stage 1,
        inside stage 1's kernel bounds (the user's length-scale bounds).
        Stage 1 is capped at ``opt``'s iterations, the knot run at
        NOISE_ITER_PER_PARAM per parameter."""
        config = config_from_dict({"seed": 5, "policy": {
            "grid_size": 20, "opt_starts": 2, "opt_max_iter": 7,
            "length_scale_bounds": [0.01, 1.0]}})
        searches, runs = [], []
        search, local = gp.optimize_hyperparameters, gp.minimize

        def spy(train, noise=None, config=OptConfig(), **kwargs):
            searches.append((len(train), config))
            return search(train, noise, config, **kwargs)

        def run(fun, x0, **kwargs):
            runs.append((len(x0), kwargs["bounds"][0],
                         kwargs["options"]["maxiter"]))
            return local(fun, x0, **kwargs)

        monkeypatch.setattr(gp, "optimize_hyperparameters", spy)
        monkeypatch.setattr(gp, "minimize", run)
        learn_policy(generate_synthetic_door_set(seed=5, n_samples=20),
                     learn_config(config))
        # One stage-1 search per dimension, on the six pooled demonstrations.
        assert searches == [(120, learn_config(config).opt)] * 6
        ls_bounds = (math.log(0.01), math.log(1.0))
        assert set(runs) == {(3, ls_bounds, 7),
                             (2 + 20, ls_bounds, 22 * gp.NOISE_ITER_PER_PARAM)}
        assert sum(n == 22 for n, _, _ in runs) == 6
        # Stage 1 polishes at most opt_starts maxima per dimension.
        assert sum(n == 3 for n, _, _ in runs) <= 2 * 6


    def test_policy_fit_decomposes_once_per_length_scale(self, monkeypatch):
        """The six dimensions share each length scale's eigendecomposition:
        a door fit makes SCAN_LENGTHS eigh calls, not six times as many, and
        a second fit makes as many again (nothing is kept between calls)."""
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: calls.append(a.shape) or eigh(a))
        demos = generate_synthetic_door_set(seed=0)
        learn_policy(demos)
        assert calls == [(100, 100)] * gp.SCAN_LENGTHS
        learn_policy(demos)
        assert len(calls) == 2 * gp.SCAN_LENGTHS

    @pytest.mark.parametrize("samples, grid", [(None, 100), (1000, 50)],
                             ids=["door-0", "1000-samples-grid-50"])
    def test_each_dimension_equals_its_fit_alone(self, samples, grid,
                                                 monkeypatch):
        """Each dimension of a learned policy is fit_heteroscedastic on its
        pooled targets alone, bit for bit: kernel, knots, log variances and
        LML."""
        trains, fit = [], gp.fit_heteroscedastic
        monkeypatch.setattr(policy_module, "fit_heteroscedastic",
                            lambda train, config, **kwargs: trains.append(train)
                            or fit(train, config, **kwargs))
        demos = (generate_synthetic_door_set(seed=0) if samples is None else
                 generate_synthetic_door_set(seed=0, n_samples=samples))
        learned = learn_policy(demos, LearnConfig(grid_size=grid))
        assert len(trains) == 6
        for train, model in zip(trains, learned.dims):
            alone = fit(TrainingSet(train.t, train.y), OptConfig())
            assert model.params == alone.params
            assert np.array_equal(model.knots, alone.knots)
            assert np.array_equal(model.log_variance, alone.log_variance)
            assert (model.signal_gp.log_marginal_likelihood()
                    == alone.signal_gp.log_marginal_likelihood())


class TestStreaming:
    def test_needs_three_samples(self, door_policy):
        poses = (Pose(np.zeros(3), (0, 0, 0)),
                 Pose(np.ones(3), (0, 0, 0)))
        short = Trajectory([0.0, 1.0], poses)
        with pytest.raises(InsufficientDataError):
            streaming_evaluation(door_policy, short, 1e-4)

    def test_stamps_spanning_past_the_largest_float(self, door_policy,
                                                    door_holdout, monkeypatch):
        """Stamps from -1e308 to 1e308 span past the largest float, so the
        samples near the top would get NaN via-point and query times: the
        truth is refused before any via side is built, without a numpy
        warning. A span just inside the largest float is scored as the same
        truth on its normalized stamps, bit for bit."""
        stamps = np.linspace(-1.0, 1.0, len(door_holdout)) * 1e308
        # More than the last sample lies past where stamps - stamps[0]
        # overflows, so a via-point time would be NaN too.
        assert (stamps > sys.float_info.max - 1e308).sum() > 1
        far = Trajectory(stamps, door_holdout.samples)
        built = []
        monkeypatch.setattr(policy_module, "_fit_columns",
                            lambda *args: built.append(args))
        with pytest.raises(InvalidInputError, match="span a finite interval"):
            streaming_evaluation(door_policy, far, 1e-4)
        assert built == []
        monkeypatch.undo()

        near = Trajectory(stamps * 0.8, door_holdout.samples)
        ts = (near.stamps - near.stamps[0]) / (near.stamps[-1] - near.stamps[0])
        got = streaming_evaluation(door_policy, near, 1e-4)
        want = streaming_evaluation(
            door_policy, Trajectory(ts, door_holdout.samples), 1e-4)
        for name in vars(want):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_adaptation_beats_static_policy(self, door_policy, door_holdout):
        report = streaming_evaluation(door_policy, door_holdout, 1e-4)
        assert report.static_mse.shape == (6,)
        assert report.adaptive_mse.shape == (6,)
        gain = 1.0 - report.adaptive_mse / report.static_mse
        assert gain[0] > 0.0 and gain[2] > 0.0

    def test_matches_the_per_step_public_path(self, door_policy,
                                              door_holdout):
        """One adapt_with_viapoints per step, then the errors: the static
        side bit for bit, the adaptive side to 1e-12 relative, since each
        public step predicts its own one-point demonstration posterior."""
        strength = np.r_[np.full(3, 1e-4), np.full(3, 1e-3)]
        report = streaming_evaluation(door_policy, door_holdout, strength)
        stamps = door_holdout.stamps
        ts = (stamps - stamps[0]) / (stamps[-1] - stamps[0])
        vias = [ViaPoint(t, pose, strength)
                for t, pose in zip(ts, door_holdout.poses)]
        adaptive = [adapt_with_viapoints(door_policy, vias[:i], ts[i])[0]
                    for i in range(1, ts.size)]
        target = Trajectory(ts[1:], door_holdout.samples[1:])
        assert_allclose(report.adaptive_mse,
                        prediction_error(adaptive, target), rtol=1e-12)
        assert np.array_equal(report.static_mse,
                              prediction_error(query(door_policy, ts[1:]),
                                               target))

    def test_adaptive_rows_fuse_the_static_posterior(self, door_policy,
                                                     door_holdout,
                                                     monkeypatch):
        """One batched demonstration posterior serves both rows: it is the
        static row, and the adaptive row fuses each step's via-point side
        with it, within 1e-12 of a loop over _fuse."""
        strength = np.r_[np.full(3, 1e-4), np.full(3, 1e-3)]
        stamps, samples = door_holdout.stamps, door_holdout.samples
        ts = (stamps - stamps[0]) / (stamps[-1] - stamps[0])
        products, real = [], policy_module.gaussian_product

        def spy(a, b):
            products.append((a, real(a, b)))
            return products[-1][1]

        monkeypatch.setattr(policy_module, "gaussian_product", spy)
        predicted = spy_predictions(monkeypatch)
        fresh = TaskPolicy(dims=door_policy.dims, grid=door_policy.grid)
        streaming_evaluation(fresh, door_holdout, strength)
        monkeypatch.undo()

        (demo, fused), = products
        # The demonstration GPs predict once, over every streamed stamp, in
        # stacked chunks of five and one (59 x 100 cells a model within
        # 2^15); the via side predicts one stamp at a time.
        assert ts.size - 1 == 59
        assert [c for c in predicted if c[0] != 1] == [(59, 5), (59, 1)]
        static = door_policy.demonstration_posterior(ts[1:])
        assert np.array_equal(demo.mean, static.mean)
        assert np.array_equal(demo.var, static.var)
        via_s = np.broadcast_to(strength, samples.shape)
        loop = [_fuse(door_policy, ts[:i], samples[:i], via_s[:i],
                      ts[i:i + 1]) for i in range(1, ts.size)]
        assert_allclose(fused.mean, np.concatenate([p.mean for p in loop]),
                        rtol=0.0, atol=1e-12)
        assert_allclose(fused.var, np.concatenate([p.var for p in loop]),
                        rtol=0.0, atol=1e-12)

    def test_calibration_on_an_interpolating_holdout(self, door_policy):
        """A pull at radius 0.85, between the training radii: x and z are
        pinned, and every dimension matches z-scores computed here."""
        (holdout,) = generate_synthetic_door_set(seed=7, radii=(0.85,),
                                                 repeats=1)
        report = streaming_evaluation(door_policy, holdout, 1e-4)
        stamps = holdout.stamps
        ts = (stamps - stamps[0]) / (stamps[-1] - stamps[0])
        static = query(door_policy, ts[1:])
        z = np.array([np.abs(holdout.samples[i + 1] - d.mean) / np.sqrt(d.var)
                      for i, d in enumerate(static)])
        z[np.abs(holdout.samples[1:] - [d.mean for d in static]) == 0] = 0.0
        assert np.array_equal(report.static_within_2sd,
                              np.count_nonzero(z <= 2.0, axis=0) / 59)
        assert np.array_equal(report.static_median_z, np.median(z, axis=0))
        # x and z, static then adaptive; 59 predicted samples.
        assert_allclose(report.static_within_2sd[[0, 2]], [59 / 59, 56 / 59])
        assert_allclose(report.adaptive_within_2sd[[0, 2]], [58 / 59, 56 / 59])
        assert_allclose(report.static_median_z[[0, 2]],
                        [0.679775184615671, 0.734691830252001], rtol=1e-5)
        assert_allclose(report.adaptive_median_z[[0, 2]],
                        [0.5802502416700129, 0.7762655610695185], rtol=1e-5)

    def test_calibration_at_zero_variance(self):
        """A hit scores z = 0; a miss has no finite z and is refused."""
        mean, var = np.zeros((2, 6)), np.zeros((2, 6))
        within, median = _calibration(mean, var, np.zeros((2, 6)))
        assert np.array_equal(within, np.ones(6))
        assert np.array_equal(median, np.zeros(6))
        with pytest.raises(InvalidInputError, match="finite z-score"):
            _calibration(mean, var, np.full((2, 6), 0.1))
