import logging
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.linalg import LinAlgError
from numpy.testing import assert_allclose
from scipy.linalg import lapack
from scipy.optimize import minimize

from gplfd import (InsufficientDataError, InvalidInputError,
                   KernelParams, LearnConfig, NumericalConditioningError,
                   OptConfig, OptimizationFailureError, PosteriorPrediction,
                   TrainingSet, fit_gp, fit_heteroscedastic, gaussian_product,
                   generate_synthetic_door_set, learn_policy, lml_gradient,
                   optimize_hyperparameters, query, rbf_kernel,
                   streaming_evaluation)
from gplfd import gp, policy
from gplfd import io as gio
from gplfd.cli import main
from gplfd.gp import (JITTER_FRAC, MAX_GP_INPUTS, MAX_OPT_STARTS,
                      MAX_PREDICT_CELLS, HeteroGPModel, _lml_and_grad,
                      _hats, _profile_lml_and_grad, _Reduced)

from oracles import (dense_lml, dense_posterior, longdouble_posterior,
                     random_hetero)


def random_instance(rng, vector_noise=False, allow_duplicates=False):
    n = int(rng.integers(2, 9))
    t = np.sort(rng.uniform(0.0, 1.0, n))
    if allow_duplicates and n >= 3:
        t[1] = t[0]
    y = rng.normal(0.0, 1.0, n)
    params = KernelParams(length_scale=float(rng.uniform(0.05, 1.0)),
                          signal_std=float(rng.uniform(0.3, 2.0)))
    if vector_noise:
        noise = rng.uniform(1e-4, 0.5, n)
    else:
        noise = float(rng.uniform(1e-4, 0.5))
    return TrainingSet(t, y), params, noise


class TestKernel:
    def test_zero_lag_unit_signal(self):
        params = KernelParams(length_scale=0.3, signal_std=1.0)
        assert_allclose(rbf_kernel([1.7], [1.7], params), [[1.0]])

    def test_symmetry_and_decay(self):
        params = KernelParams(length_scale=0.05, signal_std=2.0)
        K = rbf_kernel([0.0, 0.5], [0.0, 0.5], params)
        assert_allclose(K, K.T)
        assert K[0, 1] < 1e-8

    def test_params_validated(self):
        with pytest.raises(InvalidInputError):
            KernelParams(length_scale=-1.0, signal_std=1.0)
        with pytest.raises(InvalidInputError):
            KernelParams(length_scale=1.0, signal_std=0.0)
        # The kernel squares both; a square out of float range is refused.
        for length_scale, signal_std in [(1e-200, 1.0), (1e200, 1.0),
                                         (1.0, 1e-200), (1.0, 1e200)]:
            with pytest.raises(InvalidInputError, match="square"):
                KernelParams(length_scale=length_scale, signal_std=signal_std)


def subnormal(a):
    """Where ``a`` holds a nonzero value below the smallest normal double."""
    return (a != 0.0) & (np.abs(a) < np.finfo(float).tiny)


class TestKernelCut:
    """Kernel values below exp(-KERNEL_CUT) signal_std^2 are exact zeros."""

    # The y dimension's fitted kernel on the default door set.
    DOOR_Y = KernelParams(length_scale=0.0175, signal_std=9.5e-4)

    def test_no_subnormal_reaches_a_factorization(self, door_policy,
                                                  monkeypatch):
        """On the door grid at y's kernel, both Gram matrices hold only
        exact zeros and values >= exp(-KERNEL_CUT) signal_std^2; the
        Cholesky factor and dpotri's inverse hold no subnormal. Without the
        cut the same Gram matrix holds subnormals."""
        p, grid = self.DOOR_Y, door_policy.grid
        model = door_policy.dims[1].signal_gp
        red = _Reduced(model.train)
        floor = math.exp(-gp.KERNEL_CUT) * p.signal_std ** 2
        for K in (rbf_kernel(grid, grid, p), red.gram(p)):
            assert np.all((K == 0.0) | (K >= floor))
            assert np.any(K == 0.0)
        chol = fit_gp(model.train, p, model.noise).system.chol
        inverse = lapack.dpotri(chol, lower=1)[0]
        assert not subnormal(chol).any() and not subnormal(inverse).any()
        monkeypatch.setattr(gp, "KERNEL_CUT", math.inf)
        assert subnormal(red.gram(p)).any()

    def test_cut_changes_nothing_at_double_precision(
            self, door_demos, door_policy, door_holdout, monkeypatch):
        """The LML parts, a predict and the default door policy with its
        query and streaming evaluation are bit for bit those without the
        cut (KERNEL_CUT = inf)."""
        p, model = self.DOOR_Y, door_policy.dims[1].signal_gp
        ts = np.linspace(-0.1, 1.1, 61)

        def outputs(learned):
            red = _Reduced(model.train)
            lml, grad, d_shift = gp._lml_parts(red, p, model.noise)
            pred = fit_gp(model.train, p, model.noise).predict(ts)
            dists = query(learned, ts)
            report = streaming_evaluation(learned, door_holdout, 1e-4)
            return ([lml, grad, d_shift, pred.mean, pred.var]
                    + [d.signal_gp.log_marginal_likelihood()
                       for d in learned.dims]
                    + [d.log_variance for d in learned.dims]
                    + [np.stack([d.mean for d in dists]),
                       np.stack([d.var for d in dists])]
                    + list(vars(report).values()))

        cut = outputs(door_policy)
        monkeypatch.setattr(gp, "KERNEL_CUT", math.inf)
        uncut = outputs(learn_policy(door_demos))
        assert len(cut) == len(uncut)
        for a, b in zip(cut, uncut):
            assert np.array_equal(a, b)

    def test_far_query_gets_exactly_the_prior(self):
        """A query farther than sqrt(2 KERNEL_CUT) length scales from every
        input has each of its kernel values cut, so its posterior is exactly
        the prior: the data mean and signal_std^2."""
        train = TrainingSet([0.0, 0.1], [1.0, 3.0])
        p = KernelParams(length_scale=0.05, signal_std=1.5)
        far = 1.001 * math.sqrt(2.0 * gp.KERNEL_CUT) * p.length_scale
        ts = [0.1 + far, -far, 1e200]
        pred = fit_gp(train, p, noise=1e-4).predict(ts)
        assert np.array_equal(pred.mean, [2.0, 2.0, 2.0])
        assert np.array_equal(pred.var, [2.25, 2.25, 2.25])
        cols = gp.predict_columns(train.t, np.c_[train.y, -train.y],
                                  np.full((2, 2), 1e-4), [p, p], ts)[0]
        assert np.array_equal(cols.mean, [[2.0, -2.0]] * 3)
        assert np.array_equal(cols.var, [[2.25, 2.25]] * 3)


class TestFitPredict:
    def test_noise_free_interpolation(self):
        model = fit_gp(TrainingSet([0.0], [2.0]),
                       KernelParams(length_scale=1.0, signal_std=1.0))
        pred = model.predict([0.0])
        assert_allclose(pred.mean, [2.0])
        assert pred.var[0] < 1e-8

    def test_prior_recovery_far_from_data(self):
        train = TrainingSet([0.0, 0.1], [1.0, 3.0])
        params = KernelParams(length_scale=0.05, signal_std=1.5)
        pred = fit_gp(train, params, noise=1e-4).predict([50.0])
        assert_allclose(pred.mean, [2.0], atol=1e-9)  # centering offset
        assert_allclose(pred.var, [1.5 ** 2], rtol=1e-9)

    def test_matches_dense_oracle(self, rng):
        for k in range(30):
            train, params, noise = random_instance(
                rng, vector_noise=bool(k % 2), allow_duplicates=bool(k % 3 == 0))
            model = fit_gp(train, params, noise=noise)
            ts = rng.uniform(-0.2, 1.2, 7)
            pred = model.predict(ts)
            r_vec = np.broadcast_to(np.asarray(noise, float), train.t.shape)
            mean, var = dense_posterior(train.t, train.y, params.length_scale,
                                        params.signal_std, r_vec, model.jitter,
                                        ts)
            scale = params.signal_std ** 2
            assert np.max(np.abs(pred.mean - mean)) < 1e-9 * max(1.0, scale)
            assert np.max(np.abs(pred.var - var)) < 1e-9 * scale

    def test_duplicate_inputs_with_zero_noise_rejected(self):
        train = TrainingSet([0.2, 0.2, 0.5], [1.0, 1.1, 0.0])
        params = KernelParams(length_scale=0.3, signal_std=1.0)
        with pytest.raises(NumericalConditioningError):
            fit_gp(train, params, noise=0.0)
        # The same inputs are fine once observation noise separates them.
        fit_gp(train, params, noise=1e-3)

    @pytest.mark.parametrize("noise", [-1.0, math.nan, math.inf])
    def test_bad_scalar_noise_refused(self, noise):
        train = TrainingSet([0.0, 1.0], [0.0, 1.0])
        params = KernelParams(length_scale=0.3, signal_std=1.0)
        with pytest.raises(InvalidInputError):
            fit_gp(train, params, noise=noise)

    def test_noise_vector_length_checked(self):
        train = TrainingSet([0.0, 1.0], [0.0, 1.0])
        params = KernelParams(length_scale=0.3, signal_std=1.0)
        with pytest.raises(InvalidInputError):
            fit_gp(train, params, noise=np.array([1e-3, 1e-3, 1e-3]))

    def test_columns_equal_fit_gp_per_column(self, rng):
        """predict_columns on shared inputs is fit_gp + predict per column."""
        t = rng.uniform(0.0, 1.0, 12)
        t[[3, 7]] = t[0]
        y = rng.normal(0.0, 1.0, (12, 3))
        noise = rng.uniform(1e-4, 1e-2, (12, 3))
        params = [KernelParams(float(rng.uniform(0.05, 1.0)),
                               float(rng.uniform(0.3, 2.0))) for _ in range(3)]
        ts = np.linspace(-0.2, 1.2, 9)
        out = gp.predict_columns(t, y, noise, params, ts)[0]
        for j, p in enumerate(params):
            pred = fit_gp(TrainingSet(t, y[:, j]), p, noise=noise[:, j]).predict(ts)
            assert np.array_equal(out.mean[:, j], pred.mean)
            assert np.array_equal(out.var[:, j], pred.var)

    @pytest.mark.parametrize("m, q", [(1, 1), (7, 1), (7, 100), (100, 2),
                                      (100, 101)])
    def test_stacked_pass_is_each_systems_own(self, rng, m, q):
        """gp._predict stacks the kernels, products and row sums of c
        systems; column j keeps the bits of system j's own (q, m) kernel,
        product, in-place solve and row sum."""
        t = np.sort(rng.uniform(0.0, 1.0, m))
        systems = [fit_gp(TrainingSet(t, rng.normal(0.0, 1.0, m)),
                          KernelParams(float(rng.uniform(0.05, 1.0)),
                                       float(rng.uniform(0.3, 2.0))),
                          noise=1e-3).system for _ in range(6)]
        lags, max_lag = gp._query_lags(rng.uniform(-0.2, 1.2, q), t)
        got = gp._predict(systems, lags, max_lag)
        for j, sol in enumerate(systems):
            sf2 = sol.params.signal_std ** 2
            Ks = gp._lag_kernel(lags, max_lag, sol.params.length_scale, sf2)
            mean = sol.offset + Ks @ sol.alpha
            v = lapack.dtrtrs(sol.chol, Ks.T, lower=1, overwrite_b=1)[0]
            var = np.maximum(sf2 - np.einsum("ij,ij->j", v, v), 0.0)
            assert np.array_equal(got.mean[:, j], mean)
            assert np.array_equal(got.var[:, j], var)

    @pytest.mark.parametrize("inputs, queries, chunks", [
        (20, 5, [6]), (900, 5, [4, 2]), (300, 20_000, [6]),
        (300, 30_000, [4, 2])])
    def test_columns_go_in_bounded_chunks(self, inputs, queries, chunks,
                                          monkeypatch):
        """A stacked chunk holds no more columns than one m x m system at
        MAX_GP_INPUTS and one q x m block at MAX_PREDICT_CELLS hold."""
        t = np.linspace(0.0, 1.0, inputs)
        y = np.stack([np.sin(k * t) for k in range(1, 7)], axis=1)
        seen, real = [], gp._predict
        monkeypatch.setattr(gp, "_predict", lambda systems, *rest:
                            seen.append(len(systems)) or real(systems, *rest))
        params = [KernelParams(0.3, 1.0)] * 6
        gp.predict_columns(t, y, np.full(y.shape, 1e-2), params,
                           np.linspace(0.0, 1.0, queries))
        assert seen == chunks
        for size in chunks:
            assert (size * inputs ** 2 <= MAX_GP_INPUTS ** 2
                    and size * queries * inputs <= MAX_PREDICT_CELLS)

    @pytest.mark.parametrize("case", [
        "nan-query", "inf-query", "cells", "negative-noise", "nan-noise",
        "inf-noise", "zero-noise-duplicates", "overflowing-targets"])
    def test_columns_refuse_before_any_factorization(self, case, rng,
                                                     monkeypatch):
        """predict_columns checks its inputs and queries once, for all
        columns: each case fit_gp + predict refuses on one column is
        refused with the same error before any column is factorized."""
        t = np.linspace(0.0, 1.0, 500)
        y = rng.normal(0.0, 1.0, (t.size, 3))
        noise = np.full(y.shape, 1e-3)
        ts = np.array([0.25, 0.5])
        error, bad = InvalidInputError, 2
        if case.endswith("query"):
            ts[1], match = float(case[:3]), "query inputs"
        elif case == "cells":
            ts = np.linspace(0.0, 1.0, MAX_PREDICT_CELLS // t.size + 1)
            match = "cells"
        elif case.endswith("-noise"):
            noise[7, bad] = {"negative": -1e-3, "nan": np.nan,
                             "inf": np.inf}[case.split("-")[0]]
            match = "finite and >= 0"
        elif case == "zero-noise-duplicates":
            t[4], noise[[3, 4], bad] = t[3], 0.0
            error, match = NumericalConditioningError, "duplicate"
        else:
            y[:, bad] = np.where(np.arange(t.size) % 2 == 0, 1e200, -1e200)
            match = "overflow"
        params = [KernelParams(0.3, 1.0)] * 3
        with pytest.raises(error, match=match):
            fit_gp(TrainingSet(t, y[:, bad]), params[bad],
                   noise[:, bad]).predict(ts)
        real, calls = gp.cho_factor, []
        monkeypatch.setattr(gp, "cho_factor",
                            lambda a: calls.append(a.shape) or real(a))
        with pytest.raises(error, match=match):
            gp.predict_columns(t, y, noise, params, ts)
        assert not calls

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_columns_take_one_kernel_per_column(self, count):
        """A kernel list that does not match the target columns is refused."""
        t = np.linspace(0.0, 1.0, 5)
        y = np.stack([np.sin(t), np.cos(t)], axis=1)
        with pytest.raises(InvalidInputError, match="one kernel per column"):
            gp.predict_columns(t, y, np.full(y.shape, 1e-3),
                               [KernelParams(0.3, 1.0)] * count, [0.5])

    def test_columns_take_no_query(self):
        """No query gives (0, c) arrays, as fit_gp's predict gives (0,)."""
        t = np.linspace(0.0, 1.0, 5)
        y = np.stack([np.sin(t), np.cos(t)], axis=1)
        params = [KernelParams(0.3, 1.0)] * 2
        single = fit_gp(TrainingSet(t, y[:, 0]), params[0], 1e-3).predict([])
        assert single.mean.shape == single.var.shape == (0,)
        out, kept = gp.predict_columns(t[:4], y[:4], np.full((4, 2), 1e-3),
                                       params, [])
        assert out.mean.shape == out.var.shape == (0, 2)
        out, grown = gp.predict_columns(t, y, np.full(y.shape, 1e-3), params,
                                        [], kept)
        assert grown.factors is not None
        assert out.mean.shape == out.var.shape == (0, 2)

    def test_training_set_validation(self):
        with pytest.raises(InvalidInputError):
            TrainingSet([0.0, 1.0], [0.0])
        with pytest.raises(InvalidInputError):
            TrainingSet([0.0, np.inf], [0.0, 1.0])
        with pytest.raises(InvalidInputError, match="1-d"):
            TrainingSet(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(InvalidInputError, match="at least one point"):
            TrainingSet([], [])

    def test_caller_arrays_stay_writeable(self):
        """A training set stores read-only copies: after fit_gp and
        predict_columns the caller's arrays stay writeable, and writing to
        them changes no fitted output."""
        t = np.linspace(0.0, 1.0, 12)
        y = np.sin(np.outer(t, [3.0, 5.0]))
        y0 = y[:, 0].copy()
        noise = np.full(y.shape, 1e-3)
        params = [KernelParams(0.3, 1.0), KernelParams(0.2, 0.8)]
        ts = np.linspace(-0.1, 1.1, 9)
        train = TrainingSet(t, y0)
        model = fit_gp(train, params[0], noise=1e-3)
        kept = gp.predict_columns(t, y, noise, params, ts)[1]
        assert t.flags.writeable and y.flags.writeable and y0.flags.writeable
        assert not (train.t.flags.writeable or train.y.flags.writeable)
        want, inputs = model.predict(ts), (t.copy(), y.copy())
        t[0], y[0], y0[0] = 0.5, 9.0, 9.0
        got = model.predict(ts)
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.var, want.var)
        assert np.array_equal(kept.inputs[0], inputs[0])
        assert np.array_equal(kept.inputs[1], inputs[1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, bad):
        model = fit_gp(TrainingSet([0.0, 1.0], [0.0, 1.0]),
                       KernelParams(length_scale=0.5, signal_std=1.0),
                       noise=1e-3)
        with pytest.raises(InvalidInputError, match="query inputs"):
            model.predict([0.5, bad])


class TestGrowingColumns:
    """predict_columns grows the columns it is handed when the call's
    time-sorted inputs add points strictly after theirs; every other call
    is built from scratch, bit for bit."""

    PARAMS = [KernelParams(0.1 + 0.05 * j, 0.5 + 0.2 * j) for j in range(6)]
    TS = np.linspace(-0.1, 1.1, 7)

    @pytest.fixture
    def stream(self, rng):
        t = np.sort(rng.uniform(0.0, 1.0, 40))
        y = np.sin(np.outer(t, np.arange(1, 7))) + rng.normal(0.0, 0.01,
                                                                (40, 6))
        return t, y, np.full(y.shape, 1e-4)

    def kept(self, stream, n=35):
        """Columns built on the first 30 points, then grown to ``n``."""
        t, y, noise = stream
        kept = gp.predict_columns(t[:30], y[:30], noise[:30], self.PARAMS,
                                  self.TS)[1]
        kept = gp.predict_columns(t[:n], y[:n], noise[:n], self.PARAMS,
                                  self.TS, kept)[1]
        assert kept.factors is not None
        return kept

    @pytest.mark.parametrize("k", [1, 5])
    def test_later_points_grow_within_1e_10(self, stream, k):
        t, y, noise = stream
        kept = self.kept(stream)
        # The call's order does not matter: its points are sorted by time.
        args = (t[:35 + k][::-1], y[:35 + k][::-1], noise[:35 + k],
                self.PARAMS, self.TS)
        got, grown = gp.predict_columns(*args, kept)
        want = gp.predict_columns(*args)[0]
        assert grown.factors is not None and grown.inputs[0].size == 35 + k
        assert np.all(np.abs(got.mean - want.mean) <= 1e-10 * np.abs(
            want.mean).max(axis=0))
        assert_allclose(got.var, want.var, rtol=1e-10, atol=0.0)

    def test_shuffled_points_with_the_callers_sort(self, stream, rng):
        """Shuffled points with their stable argsort as ``order``: rebuilt,
        column j is fit_gp's on the call's order bit for bit; grown, it is
        the call without ``order`` bit for bit, centered over the call's
        order as fit_gp is and within 1e-10 of fit_gp's posterior."""
        t, y, noise = stream
        kept = gp.predict_columns(t[:30], y[:30], noise[:30], self.PARAMS,
                                  self.TS)[1]
        for n, start in ((30, None), (36, kept)):
            perm = rng.permutation(n)
            args = (t[:n][perm], y[:n][perm], noise[:n][perm], self.PARAMS,
                    self.TS)
            got, columns = gp.predict_columns(
                *args, start, np.argsort(args[0], kind="stable"))
            fits = [fit_gp(TrainingSet(args[0], args[1][:, j]), p,
                           noise=args[2][:, j])
                    for j, p in enumerate(self.PARAMS)]
            want = [fit.predict(self.TS) for fit in fits]
            if start is None:
                for j, pred in enumerate(want):
                    assert np.array_equal(got.mean[:, j], pred.mean)
                    assert np.array_equal(got.var[:, j], pred.var)
                continue
            assert columns.factors is not None
            again = gp.predict_columns(*args, start)[0]
            assert np.array_equal(got.mean, again.mean)
            assert np.array_equal(got.var, again.var)
            assert ([s.offset for s in columns.systems]
                    == [fit.mean_offset for fit in fits])
            for j, pred in enumerate(want):
                assert_allclose(got.mean[:, j], pred.mean, rtol=0.0,
                                atol=1e-10)
                assert_allclose(got.var[:, j], pred.var, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("case", [
        "earlier-time", "repeated-last-time", "changed-strength",
        "changed-pose", "changed-kernel", "same-inputs"])
    def test_other_calls_rebuild(self, stream, case):
        t, y, noise = (a.copy() for a in stream)
        params = list(self.PARAMS)
        kept = self.kept(stream)
        n = 36
        if case == "earlier-time":
            t[35] = 0.5 * (t[33] + t[34])
        elif case == "repeated-last-time":
            t[35] = t[34]
        elif case == "changed-strength":
            noise[10, 2] *= 1.5
        elif case == "changed-pose":
            y[10, 4] += 1e-9
        elif case == "changed-kernel":
            params[3] = KernelParams(params[3].length_scale * 1.01,
                                     params[3].signal_std)
        else:
            n = 35
        args = (t[:n], y[:n], noise[:n], params, self.TS)
        got, rebuilt = gp.predict_columns(*args, kept)
        want = gp.predict_columns(*args)[0]
        assert rebuilt.factors is None and rebuilt.inputs[0].size == n
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.var, want.var)

    @pytest.mark.parametrize("case", [
        "nan-time", "inf-time", "nan-target", "inf-target", "nan-noise"])
    def test_non_finite_appended_point_refused(self, stream, case):
        """An appended point the scratch path refuses is refused with its
        error, before anything is grown."""
        t, y, noise = (a[:36].copy() for a in stream)
        kept = self.kept(stream)
        kind, what = case.split("-")
        bad = {"nan": np.nan, "inf": np.inf}[kind]
        if what == "time":
            t[35] = bad
        elif what == "target":
            y[35, 0 if kind == "nan" else 4] = bad
        else:
            noise[35, 1] = bad
        args = (t, y, noise, self.PARAMS, self.TS)
        with pytest.raises(InvalidInputError) as scratch:
            gp.predict_columns(*args)
        with pytest.raises(InvalidInputError,
                           match=re.escape(str(scratch.value))):
            gp.predict_columns(*args, kept)
        assert kept.inputs[0].size == 35

    @pytest.mark.parametrize("path", ["rebuilt", "grown"])
    @pytest.mark.parametrize("column", range(6))
    def test_non_finite_target_in_any_column(self, stream, column, path):
        """A NaN target is non-finite training data in every column, on the
        rebuilt and the grown path alike."""
        t, y, noise = (a[:36].copy() for a in stream)
        y[35, column] = np.nan
        kept = self.kept(stream) if path == "grown" else None
        with pytest.raises(InvalidInputError,
                           match="^training data must be finite$"):
            gp.predict_columns(t, y, noise, self.PARAMS, self.TS, kept)

    def test_nothing_kept_past_816_inputs(self):
        """Six columns are kept while they fit in the memory of one
        MAX_GP_INPUTS system: 816 inputs each."""
        bound = math.isqrt(MAX_GP_INPUTS ** 2 // 6)
        assert bound == 816
        t = np.linspace(0.0, 1.0, bound + 1)
        y = np.sin(np.outer(t, np.arange(1, 7)))
        noise = np.full(y.shape, 1e-4)
        kept = gp.predict_columns(t[:bound], y[:bound], noise[:bound],
                                  self.PARAMS, [0.5])[1]
        assert kept is not None
        got, grown = gp.predict_columns(t, y, noise, self.PARAMS, [0.5], kept)
        assert grown is None
        want, scratch = gp.predict_columns(t, y, noise, self.PARAMS, [0.5])
        assert scratch is None
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.var, want.var)


def traced_peak(call):
    """Peak traced allocation, in bytes, while ``call`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSizeCaps:
    def test_input_cap_counts_distinct_inputs(self):
        params = KernelParams(length_scale=0.3, signal_std=1.0)
        t = np.repeat(np.linspace(0.0, 1.0, 10), MAX_GP_INPUTS)
        fit_gp(TrainingSet(t, np.sin(t)), params, noise=1e-3)

        t = np.linspace(0.0, 1.0, MAX_GP_INPUTS + 1)
        train = TrainingSet(t, np.sin(t))

        def refused():
            with pytest.raises(InvalidInputError, match="distinct inputs"):
                fit_gp(train, params, noise=1e-3)

        # One m x m float matrix alone would be 32 MB.
        assert traced_peak(refused) < 1_000_000

    def test_predict_cell_cap(self):
        t = np.linspace(0.0, 1.0, 500)
        model = fit_gp(TrainingSet(t, np.sin(t)), KernelParams(0.3, 1.0),
                       noise=1e-3)
        ts = np.linspace(0.0, 1.0, MAX_PREDICT_CELLS // t.size + 1)

        def refused():
            with pytest.raises(InvalidInputError, match="cells"):
                model.predict(ts)

        # One q x m float matrix alone would be 320 MB.
        assert traced_peak(refused) < 1_000_000
        # A default policy grid (100 distinct inputs) takes the largest
        # query and simulation, 100 001 times.
        assert 100_001 * 100 <= MAX_PREDICT_CELLS

    def test_fitted_model_keeps_one_matrix(self):
        """The factor is the only m x m array a model keeps; K is dropped."""
        t = np.linspace(0.0, 1.0, MAX_GP_INPUTS)
        train = TrainingSet(t, np.sin(6.0 * t))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = fit_gp(train, KernelParams(0.1, 1.0), noise=1e-2)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        matrix = 8 * MAX_GP_INPUTS ** 2
        assert model.system.chol.nbytes == matrix
        assert matrix <= kept < 1.2 * matrix


class TestSafetyPaths:
    """Factorization, search and variance guards, driven by a patched
    factorization.

    No well-posed input found reaches them: the jitter already factorizes
    near-identical inputs and noise-free dense grids.
    """

    @staticmethod
    def failing_cho_factor(monkeypatch, fails):
        """Make gp.cho_factor fail its first ``fails`` calls; return the calls."""
        real, calls = gp.cho_factor, []

        def flaky(a, *args, **kwargs):
            calls.append(a.shape[0])
            if len(calls) <= fails:
                raise LinAlgError("not positive definite")
            return real(a, *args, **kwargs)

        monkeypatch.setattr(gp, "cho_factor", flaky)
        return calls

    def test_failed_factorization_exits_1(self, monkeypatch, tmp_path,
                                          capsys, rng):
        """Loading a policy refits its GPs; one that does not factorize
        ends the command with exit 1 and an error line."""
        t = np.repeat(np.linspace(0.0, 1.0, 6), 2)
        params = KernelParams(0.3, 1.0)
        dims = [HeteroGPModel.fit(TrainingSet(t, rng.normal(0.0, 0.1, t.size)),
                                  params, [0.0, 1.0], [-5.0, -4.0])
                for _ in range(6)]
        path = tmp_path / "policy.json"
        gio.save_policy(path, policy.TaskPolicy(dims=dims,
                                                grid=np.linspace(0, 1, 6)))
        self.failing_cho_factor(monkeypatch, 3)
        assert main(["query", "--policy", str(path), "--grid", "5",
                     "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "positive definite" in err
        assert not (tmp_path / "query.csv").exists()

    def test_failed_column_is_refused(self, monkeypatch, rng):
        """A column that does not factorize is refused at once, with no
        retry: predict_columns stops at the second column."""
        train, params, noise = random_instance(rng)
        y = np.stack([train.y, train.y[::-1]], axis=1)
        noise = np.full(y.shape, noise)
        real, calls = gp.cho_factor, []

        def second_fails(a):
            calls.append(a.shape[0])
            if len(calls) == 2:
                raise LinAlgError("not positive definite")
            return real(a)

        monkeypatch.setattr(gp, "cho_factor", second_fails)
        with pytest.raises(NumericalConditioningError,
                           match="not positive definite"):
            gp.predict_columns(train.t, y, noise, [params, params], [0.5])
        assert len(calls) == 2

    def test_jitter_ceiling_raises(self, monkeypatch, rng):
        """The starting jitter is the only one tried: a Gram matrix that
        does not factorize with it is refused after one attempt."""
        train, params, noise = random_instance(rng)
        calls = self.failing_cho_factor(monkeypatch, math.inf)
        with pytest.raises(NumericalConditioningError,
                           match="not positive definite"):
            fit_gp(train, params, noise=noise)
        assert len(calls) == 1

    def test_search_fails_when_no_start_factorizes(self, monkeypatch):
        """The objective answers +inf, and every start is then skipped."""
        calls = self.failing_cho_factor(monkeypatch, math.inf)
        t = np.linspace(0.0, 1.0, 12)
        with pytest.raises(OptimizationFailureError, match="no start point"):
            optimize_hyperparameters(TrainingSet(t, np.sin(t)),
                                     config=OptConfig(n_starts=3))
        assert calls

    def test_best_cell_stands_in_when_its_run_cannot_start(self, monkeypatch):
        """The scan scores cells without factorizing. A noise-free sine's
        scan has one maximum; when its system fails to factorize, the run
        from it fails, and the search returns the GP at that cell, which
        factorizes on the next try."""
        calls = self.failing_cho_factor(monkeypatch, 1)
        peaks, real_peaks = [], gp._peaks
        monkeypatch.setattr(gp, "_peaks",
                            lambda *args: peaks.append(real_peaks(*args))
                            or peaks[-1])
        t = np.linspace(0.0, 1.0, 12)
        res = optimize_hyperparameters(TrainingSet(t, np.sin(3 * t)))
        log_l, log_sf, log_sn = peaks[0][0]
        assert len(peaks[0]) == 1 and len(calls) == 3
        assert res.params == KernelParams(math.exp(log_l), math.exp(log_sf))
        assert res.noise == math.exp(2.0 * log_sn)

    @pytest.mark.parametrize("error", [LinAlgError, ValueError])
    def test_raising_start_is_skipped(self, monkeypatch, error):
        """A run that raises is skipped. SINE's scan has more than three
        maxima: with three starts, three runs start and two finish; with
        one, the next maximum is polished in its place. A noise-free sine's
        scan has one maximum, and when its run raises the search still
        returns the GP at that best cell."""
        starts, finished, peaks = [], [], []
        real_peaks = gp._peaks

        def first_start_raises(fun, x0, **kwargs):
            starts.append(x0)
            if len(starts) == 1:
                raise error("start failed")
            res = minimize(fun, x0, **kwargs)
            finished.append(-res.fun)
            return res

        monkeypatch.setattr(gp, "minimize", first_start_raises)
        monkeypatch.setattr(gp, "_peaks",
                            lambda *args: peaks.append(real_peaks(*args))
                            or peaks[-1])
        for n_starts, runs in [(3, 3), (1, 2)]:
            starts.clear(), finished.clear()
            res = optimize_hyperparameters(TestScanSearch.SINE,
                                           config=OptConfig(n_starts=n_starts))
            assert len(starts) == runs and len(finished) == runs - 1
            assert res.log_marginal_likelihood() == max(finished)

        starts.clear(), finished.clear()
        t = np.linspace(0.0, 1.0, 12)
        res = optimize_hyperparameters(TrainingSet(t, np.sin(3 * t)),
                                       config=OptConfig(n_starts=3))
        assert len(peaks[-1]) == len(starts) == 1 and not finished
        log_l, log_sf, log_sn = peaks[-1][0]
        assert res.params == KernelParams(math.exp(log_l), math.exp(log_sf))
        assert res.noise == math.exp(2.0 * log_sn)
        assert math.isfinite(res.log_marginal_likelihood())

    def test_negative_variance_warns_and_clamps(self, monkeypatch):
        real = gp.cho_factor
        # Factorizing half the system doubles the explained variance, so
        # the latent variance turns negative near the data.
        monkeypatch.setattr(gp, "cho_factor",
                            lambda a, *args, **kwargs: real(0.5 * a, *args,
                                                            **kwargs))
        t = np.linspace(0.0, 1.0, 8)
        model = fit_gp(TrainingSet(t, np.sin(t)), KernelParams(0.3, 1.0),
                       noise=1e-4)
        with pytest.warns(RuntimeWarning, match="clamped"):
            pred = model.predict(t)
        assert np.all(pred.var == 0.0)


class TestLogMarginalLikelihood:
    def test_matches_dense_oracle(self, rng):
        for k in range(20):
            train, params, noise = random_instance(rng, vector_noise=bool(k % 2))
            model = fit_gp(train, params, noise=noise)
            r_vec = np.broadcast_to(np.asarray(noise, float), train.t.shape)
            want = dense_lml(train.t, train.y, params.length_scale,
                             params.signal_std, r_vec, model.jitter)
            assert_allclose(model.log_marginal_likelihood(), want, rtol=1e-9)

    def test_zero_data_kills_quadratic_term(self):
        train = TrainingSet([0.0, 0.4, 1.0], np.zeros(3))
        params = KernelParams(length_scale=0.3, signal_std=1.0)
        model = fit_gp(train, params, noise=0.1)
        want = dense_lml(train.t, train.y, 0.3, 1.0, np.full(3, 0.1),
                         model.jitter)
        assert_allclose(model.log_marginal_likelihood(), want, rtol=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        h = 1e-5

        def lml_at(train, theta):
            l, sf, sn = np.exp(theta)
            model = fit_gp(train, KernelParams(float(l), float(sf)),
                           noise=float(sn) ** 2)
            return model.log_marginal_likelihood()

        for _ in range(10):
            train, params, noise = random_instance(rng)
            grad = lml_gradient(fit_gp(train, params, noise=noise))
            theta = np.log([params.length_scale, params.signal_std,
                            math.sqrt(noise)])
            fd = np.empty(3)
            for i in range(3):
                up, dn = theta.copy(), theta.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (lml_at(train, up) - lml_at(train, dn)) / (2.0 * h)
            denom = np.maximum(np.abs(fd), 1e-6)
            assert np.max(np.abs(grad - fd) / denom) < 1e-4

    def test_gradient_requires_scalar_noise(self):
        train = TrainingSet([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        params = KernelParams(length_scale=0.3, signal_std=1.0)
        with pytest.raises(InvalidInputError):
            lml_gradient(fit_gp(train, params, noise=np.array([0.1, 0.2, 0.1])))
        with pytest.raises(InvalidInputError, match="positive noise"):
            lml_gradient(fit_gp(train, params, noise=0.0))


def replicated_instance(rng, noise_kind):
    """Replicated inputs with scatter; noise None, per group or per point."""
    reps = rng.integers(1, 5, int(rng.integers(3, 7)))
    t = np.repeat(np.sort(rng.uniform(0.0, 1.0, reps.size)), reps)
    y = np.sin(2 * np.pi * t) + rng.normal(0.0, 0.3, t.size)
    noise = {"searched": None,
             "per group": np.repeat(rng.uniform(1e-3, 0.2, reps.size), reps),
             "per point": rng.uniform(1e-3, 0.2, t.size)}[noise_kind]
    return TrainingSet(t, y), noise


class TestReducedCore:
    """The replicate-collapsed system against dense oracles on all points."""

    @pytest.mark.parametrize("noise_kind, shifted", [
        ("searched", True), ("per group", False), ("per point", False),
        ("per point", True)])
    def test_search_gradient_matches_finite_differences(self, rng, noise_kind,
                                                        shifted):
        """``shifted`` searches a noise variance added to every point's own,
        which is how the jitter enters; with unequal noise inside a group
        that shift also moves the precision-weighted group means."""
        h = 1e-5

        def dense_objective(train, noise, theta):
            l, sf = np.exp(theta[:2])
            r = 0.0 if noise is None else noise
            if shifted:
                r = r + np.exp(2.0 * theta[2])
            return dense_lml(train.t, train.y, l, sf,
                             np.broadcast_to(r, train.t.shape),
                             JITTER_FRAC * sf ** 2)

        for _ in range(10):
            train, noise = replicated_instance(rng, noise_kind)
            theta = np.log([rng.uniform(0.05, 1.0), rng.uniform(0.3, 2.0)]
                           + ([rng.uniform(0.03, 0.4)] if shifted else []))
            params = KernelParams(*np.exp(theta[:2]))
            noise_var = math.exp(2.0 * theta[2]) if shifted else None
            lml, grad = _lml_and_grad(_Reduced(train, noise), params, noise_var)
            assert_allclose(lml, dense_objective(train, noise, theta), rtol=1e-9)
            fd = np.empty(theta.size)
            for i in range(theta.size):
                step = np.zeros(theta.size)
                step[i] = h
                fd[i] = (dense_objective(train, noise, theta + step)
                         - dense_objective(train, noise, theta - step)) / (2 * h)
            denom = np.maximum(np.abs(fd), 1e-6)
            assert np.max(np.abs(grad - fd) / denom) < 1e-4

    @pytest.mark.parametrize("noise_kind", ["searched", "per point"])
    def test_search_gradient_tracks_the_jitter(self, rng, noise_kind):
        """Replicates whose noise sits below the jitter.

        The jitter scales with signal_std^2 and outweighs the noise of most
        observations here, so the gradient must carry its share; per-point
        noise also moves the precision-weighted group means.
        """
        grid = np.linspace(0.0, 1.0, 40)
        t = np.tile(grid, 6)
        y = np.sin(2 * np.pi * t)
        noise = None
        if noise_kind == "per point":
            y = y + rng.normal(0.0, 1e-6, t.size)
            noise = 10.0 ** rng.uniform(-14.0, -8.0, t.size)
        red = _Reduced(TrainingSet(t, y), noise)
        theta = np.log([0.05, 0.3, 1e-7])[:2 if noise is not None else 3]
        h = 1e-5

        def lml_at(theta):
            params = KernelParams(*np.exp(theta[:2]))
            noise_var = math.exp(2.0 * theta[2]) if noise is None else None
            return _lml_and_grad(red, params, noise_var)

        lml, grad = lml_at(theta)
        fd = np.array([(lml_at(theta + h * e)[0] - lml_at(theta - h * e)[0])
                       / (2 * h) for e in np.eye(theta.size)])
        assert abs(fd[1]) > 1.0
        assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)) < 1e-4

    @pytest.mark.parametrize("n_knots", [1, 2, 5])
    def test_knot_gradient_matches_finite_differences(self, rng, n_knots):
        """Noise exp(interp(t, knots, c)) on replicated groups of unequal
        sizes with scatter, against the dense LML with its jitter."""
        h = 1e-5
        for _ in range(5):
            train, _ = replicated_instance(rng, "searched")
            red = _Reduced(train)
            knots = np.linspace(red.u[0], red.u[-1], n_knots)
            hats = _hats(red.u, knots)
            theta = np.concatenate([
                np.log([rng.uniform(0.05, 1.0), rng.uniform(0.3, 2.0)]),
                rng.uniform(-6.0, -1.0, n_knots)])

            def dense(theta):
                l, sf = np.exp(theta[:2])
                r = np.exp(np.interp(train.t, knots, theta[2:]))
                return dense_lml(train.t, train.y, l, sf, r,
                                 JITTER_FRAC * sf ** 2)

            lml, grad = _profile_lml_and_grad(red, knots, hats, theta)
            assert_allclose(lml, dense(theta), rtol=1e-9)
            fd = np.array([(dense(theta + h * e) - dense(theta - h * e))
                           / (2 * h) for e in np.eye(theta.size)])
            assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)) < 1e-4

    def test_knot_gradient_tracks_the_jitter(self, rng):
        """Knot noise the size of the jitter on unequal replicate groups:
        the signal_std component must carry the jitter's share."""
        reps = rng.integers(1, 7, 40)
        t = np.repeat(np.linspace(0.0, 1.0, 40), reps)
        y = np.sin(2 * np.pi * t) + rng.normal(0.0, 1e-6, t.size)
        red = _Reduced(TrainingSet(t, y))
        knots = np.linspace(0.0, 1.0, 6)
        hats = _hats(red.u, knots)
        theta = np.concatenate([np.log([0.05, 0.3]),
                                rng.uniform(-25.0, -22.0, 6)])
        h = 1e-5
        lml, grad = _profile_lml_and_grad(red, knots, hats, theta)

        def lml_at(x):
            return _profile_lml_and_grad(red, knots, hats, x)[0]

        fd = np.array([(lml_at(theta + h * e) - lml_at(theta - h * e))
                       / (2 * h) for e in np.eye(theta.size)])
        sol_jitter = JITTER_FRAC * 0.3 ** 2
        r = np.exp(np.interp(red.u, knots, theta[2:]))
        assert np.min(r) < 10.0 * sol_jitter
        assert abs(fd[1]) > 1.0
        assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)) < 1e-4

    def test_one_knot_is_the_scalar_noise(self, rng):
        """With one knot the profile is one noise variance r = exp(c): the
        LML and kernel gradient are the scalar search's, and d/dc is half
        of d/d(log noise_std)."""
        for _ in range(5):
            train, _ = replicated_instance(rng, "searched")
            red = _Reduced(train)
            theta = np.log([rng.uniform(0.05, 1.0), rng.uniform(0.3, 2.0),
                            rng.uniform(0.03, 0.4)])
            lml, grad = _lml_and_grad(red, KernelParams(*np.exp(theta[:2])),
                                      math.exp(2.0 * theta[2]))
            knot_lml, knot_grad = _profile_lml_and_grad(
                red, red.u[:1], _hats(red.u, red.u[:1]),
                np.array([*theta[:2], 2.0 * theta[2]]))
            assert_allclose(knot_lml, lml, rtol=1e-12)
            assert_allclose(knot_grad, grad * [1.0, 1.0, 0.5], rtol=1e-9,
                            atol=1e-9)

    @pytest.mark.parametrize("noise_kind", ["scalar", "per group", "per point"])
    def test_fit_matches_dense_oracle(self, rng, noise_kind):
        for _ in range(10):
            train, noise = replicated_instance(
                rng, "searched" if noise_kind == "scalar" else noise_kind)
            if noise is None:
                noise = float(rng.uniform(1e-3, 0.2))
            params = KernelParams(float(rng.uniform(0.05, 1.0)),
                                  float(rng.uniform(0.3, 2.0)))
            model = fit_gp(train, params, noise=noise)
            r_vec = np.broadcast_to(noise, train.t.shape)
            ts = np.sort(rng.uniform(-0.2, 1.2, 9))
            pred = model.predict(ts)
            om, ov = dense_posterior(train.t, train.y, params.length_scale,
                                     params.signal_std, r_vec, model.jitter, ts)
            scale = max(params.signal_std ** 2, float(np.max(np.abs(om))), 1.0)
            assert np.max(np.abs(pred.mean - om)) < 1e-8 * scale
            assert np.max(np.abs(pred.var - ov)) < 1e-8 * scale
            want = dense_lml(train.t, train.y, params.length_scale,
                             params.signal_std, r_vec, model.jitter)
            assert_allclose(model.log_marginal_likelihood(), want, rtol=1e-8)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is no wider than float64 here")
    @pytest.mark.parametrize("length_scale, signal_std, noise", [
        (0.02, 0.3, 2e-11),    # like the door set's ry
        (0.5, 1e-4, 1e-12),    # a tiny signal, like rx and rz
    ])
    def test_noise_free_replicates_closer_to_extended_precision(
            self, length_scale, signal_std, noise):
        """Six identical replicates on a 100-point grid, as in a door policy.

        The reduced predict must land at least as close to the longdouble
        dense posterior as the float64 dense posterior over all 600 points.
        """
        grid = np.linspace(0.0, 1.0, 100)
        t = np.tile(grid, 6)
        y = np.tile(0.4 * np.sin(2 * np.pi * grid), 6)
        r_vec = np.full(t.size, noise)
        params = KernelParams(length_scale, signal_std)
        model = fit_gp(TrainingSet(t, y), params, noise=r_vec)
        ts = np.linspace(0.0, 1.0, 199)
        pred = model.predict(ts)
        args = (t, y, length_scale, signal_std, r_vec, model.jitter, ts)
        ref_mean, ref_var = longdouble_posterior(*args)
        dense_mean, dense_var = dense_posterior(*args)
        assert (np.max(np.abs(pred.mean - ref_mean))
                <= np.max(np.abs(dense_mean - ref_mean)))
        assert (np.max(np.abs(pred.var - ref_var))
                <= np.max(np.abs(dense_var - ref_var)))


class TestHyperparameterSearch:
    def test_needs_two_points(self):
        with pytest.raises(InsufficientDataError):
            optimize_hyperparameters(TrainingSet([0.0], [1.0]))

    def test_result_within_bounds(self, rng):
        t = np.linspace(0.0, 1.0, 25)
        y = np.sin(2 * np.pi * t) + rng.normal(0.0, 0.05, t.size)
        cfg = OptConfig(n_starts=4, length_scale_bounds=(0.01, 2.0),
                        signal_std_bounds=(0.1, 5.0))
        res = optimize_hyperparameters(TrainingSet(t, y), config=cfg)
        assert 0.01 <= res.params.length_scale <= 2.0
        assert 0.1 <= res.params.signal_std <= 5.0
        assert res.noise > 0.0

    def test_collapsed_objective_equals_full_system(self, rng):
        """Replicated inputs reduce exactly; the reported LML is the real one."""
        t = np.repeat(np.linspace(0.0, 1.0, 8), 3)
        y = np.sin(2 * np.pi * t) + rng.normal(0.0, 0.1, t.size)
        res = optimize_hyperparameters(TrainingSet(t, y),
                                       config=OptConfig(n_starts=4))
        full = fit_gp(TrainingSet(t, y), res.params, noise=res.noise)
        assert_allclose(full.log_marginal_likelihood(),
                        res.log_marginal_likelihood(), rtol=1e-6)

    def test_reported_lml_is_the_fit_lml_on_noise_free_replicates(self):
        """The jitter outweighs the searched noise here; the objective must
        still be the LML of the model fit_gp builds from the result."""
        grid = np.linspace(0.0, 1.0, 30)
        train = TrainingSet(np.tile(grid, 6), np.tile(np.sin(2 * np.pi * grid), 6))
        res = optimize_hyperparameters(train, config=OptConfig(n_starts=4))
        full = fit_gp(train, res.params, noise=res.noise)
        assert full.jitter > res.noise
        assert_allclose(full.log_marginal_likelihood(),
                        res.log_marginal_likelihood(), rtol=1e-6)

    def test_fixed_noise_is_respected(self, rng):
        t = np.linspace(0.0, 1.0, 15)
        y = np.cos(t) + rng.normal(0.0, 0.02, t.size)
        res = optimize_hyperparameters(TrainingSet(t, y), noise=0.01,
                                       config=OptConfig(n_starts=2))
        assert res.noise == 0.01

    def test_constant_data_drives_signal_down(self):
        train = TrainingSet(np.linspace(0.0, 1.0, 12), np.full(12, 3.0))
        res = optimize_hyperparameters(train, config=OptConfig(n_starts=2))
        assert res.params.signal_std <= 1e-7

    @pytest.mark.parametrize("kwargs", [
        {"n_starts": 0}, {"max_iter": 0},
        {"length_scale_bounds": (0.1, 0.1)}, {"signal_std_bounds": (0.0, 1.0)},
        {"noise_std_bounds": (1e-3, math.inf)}, {"noise_std_bounds": (1.0,)},
        {"n_starts": MAX_OPT_STARTS + 1},
        {"noise_std_bounds": (1e-300, 1e300)},
        {"noise_std_bounds": (1e-200, 1e-199)},
        {"signal_std_bounds": (1e-200, 1e-199)},
        {"length_scale_bounds": (1.0, 1e200)}])
    def test_config_ranges_refused(self, kwargs):
        """Bounds must be (low, high), 0 < low < high, with squares that
        neither overflow nor vanish."""
        with pytest.raises(InvalidInputError):
            OptConfig(**kwargs)

    def test_length_scale_floor_is_the_smallest_input_gap(self, monkeypatch):
        """Derived bounds keep the length scale at or above the smallest gap
        between distinct inputs (at least 1e-3); user bounds still win."""
        seen = []

        def record(fun, x0, **kwargs):
            seen.append(kwargs["bounds"][0])
            return minimize(fun, x0, **kwargs)

        monkeypatch.setattr(gp, "minimize", record)
        t = np.repeat([0.0, 0.1, 0.25, 0.5, 1.0], 2)
        train = TrainingSet(t, np.sin(2 * np.pi * t))
        optimize_hyperparameters(train, config=OptConfig(n_starts=1))
        dense = TrainingSet(np.linspace(0.0, 1e-3, 5), np.arange(5.0))
        optimize_hyperparameters(dense, config=OptConfig(n_starts=1))
        optimize_hyperparameters(train, config=OptConfig(
            n_starts=1, length_scale_bounds=(1e-4, 1.0)))
        assert seen == [(math.log(0.1), math.log(10.0)),
                        (math.log(1e-3), math.log(1e-2)),
                        (math.log(1e-4), math.log(1.0))]

    def test_bad_bounds_rejected(self):
        train = TrainingSet([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        with pytest.raises(InvalidInputError):
            optimize_hyperparameters(
                train, config=OptConfig(length_scale_bounds=(1.0, 0.5)))

    @pytest.mark.parametrize("field", ["noise_std_bounds",
                                       "signal_std_bounds"])
    def test_bounds_past_the_search_range_refused(self, field):
        """Signal and noise std bounds whose fourth powers overflow once
        ended the search in overflow warnings and a wrong LML; they are
        refused, with no warning, and the range's ends are accepted."""
        t = np.linspace(0.0, 10.0, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="search bounds"):
                optimize_hyperparameters(TrainingSet(t, np.sin(t)), config=(
                    OptConfig(**{field: (1e100, 1e150)})))
            with pytest.raises(InvalidInputError, match="search bounds"):
                OptConfig(**{field: (1e-78, 1.0)})
            model = optimize_hyperparameters(TrainingSet(t, np.sin(t)),
                                             config=OptConfig(**{field: (
                                                 1e-77, 1e77)}))
        assert math.isfinite(model.log_marginal_likelihood())

    @pytest.mark.parametrize("noise", ["searched", "scalar", "per-point"])
    def test_returns_the_model_fit_gp_builds(self, rng, noise):
        """Bit for bit: mean, variance, jitter and LML."""
        t = np.repeat(np.linspace(0.0, 1.0, 10), 2)
        y = np.sin(2 * np.pi * t) + rng.normal(0.0, 0.1, t.size)
        fixed = {"searched": None, "scalar": 0.01,
                 "per-point": rng.uniform(0.005, 0.02, t.size)}[noise]
        model = optimize_hyperparameters(TrainingSet(t, y), noise=fixed,
                                         config=OptConfig(n_starts=3))
        refit = fit_gp(model.train, model.params, noise=model.noise)
        ts = np.linspace(-0.1, 1.1, 13)
        got, want = model.predict(ts), refit.predict(ts)
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.var, want.var)
        assert model.jitter == refit.jitter
        assert (model.log_marginal_likelihood()
                == refit.log_marginal_likelihood())
        assert fixed is None or model.noise is fixed

    @pytest.mark.parametrize("noise", [None, 0.01])
    def test_start_outside_the_bounds_is_clipped(self, rng, monkeypatch,
                                                 noise):
        """The heteroscedastic knot run starts at the stage-1 optimum: its
        length scale and signal std, and every knot at its noise variance
        clipped into the knot bounds, within stage 1's kernel bounds.
        Noise-free targets (None) put that variance below the knots'
        floor. The fit scores no lower than that start, and its LML is the
        run's objective less the knots' random-walk prior."""
        seen = []

        def record(fun, x0, **kwargs):
            res = minimize(fun, x0, **kwargs)
            seen.append((np.array(x0), kwargs["bounds"], res, fun(x0)[0]))
            return res

        monkeypatch.setattr(gp, "minimize", record)
        t = np.repeat(np.linspace(0.0, 1.0, 20), 3)
        y = np.sin(2 * np.pi * t)
        if noise is not None:
            y = y + rng.normal(0.0, noise, t.size)
        model = fit_heteroscedastic(TrainingSet(t, y))

        *stage1, (x0, bounds, res, at_start) = seen
        best = max((s[2] for s in stage1), key=lambda r: -r.fun)
        lo, hi = np.transpose(bounds)
        assert bounds[:2] == stage1[0][1][:2]
        assert np.array_equal(x0[:2], np.log([math.exp(best.x[0]),
                                              math.exp(best.x[1])]))
        start_noise = math.log(math.exp(2.0 * best.x[2]))
        assert np.array_equal(x0[2:], np.clip(np.full(20, start_noise),
                                              lo[2:], hi[2:]))
        assert (start_noise < lo[2]) == (noise is None)
        assert -res.fun >= -at_start
        step = np.diff(res.x[2:])
        assert_allclose(model.signal_gp.log_marginal_likelihood(),
                        0.5 * gp.NOISE_SMOOTHING * (step @ step) - res.fun,
                        rtol=1e-12)


# Largest LML of the random-start search the scan replaced (every start
# run), over seeds 0-4 with 8 and 12 starts: SINE at fixed noise NOISE, and
# WHITE with a searched noise, both with the BOUNDS of TestScanSearch.
RANDOM_START_SINE = 7.128651312927644
RANDOM_START_WHITE = 26.556673302478078
# L-BFGS-B's default relative tolerance on the objective (ftol): how close
# two runs into one optimum agree.
LBFGS_FTOL = 2.220446049250313e-09


class TestScanSearch:
    """The search starts its L-BFGS-B runs at the local maxima of a fixed
    log grid over its box, best first. SINE is a noisy sine; WHITE's noise
    grows along its inputs, and with the length scale's lower bound at
    1e-3 (BOUNDS), below the inputs' gap, its scan also peaks in the
    white-noise corner."""

    SINE = TrainingSet(np.linspace(0.0, 1.0, 20),
                       np.sin(2 * np.pi * np.linspace(0.0, 1.0, 20))
                       + np.random.default_rng(0).normal(0.0, 0.1, 20))
    NOISE = 0.01
    T = np.repeat(np.linspace(0.0, 1.0, 25), 4)
    WHITE = TrainingSet(T, np.sin(2 * np.pi * T)
                        + np.random.default_rng(12345).normal(0.0,
                                                              0.02 + 0.3 * T))
    BOUNDS = {"length_scale_bounds": (1e-3, 10.0)}

    @pytest.mark.parametrize("sizes", ["equal", "unequal", "constant"])
    def test_scan_lml_is_the_solved_lml(self, sizes):
        """The closed-form LML of a scan cell equals the factorized
        system's at the cell's hyperparameters within 1e-9 relative, at
        every local maximum (the cells that rank the runs): for groups of
        equal and of unequal size, and for constant targets."""
        rng = np.random.default_rng(7)
        reps = {"equal": np.full(30, 4), "unequal": rng.integers(1, 7, 30),
                "constant": np.full(30, 3)}[sizes]
        t = np.repeat(np.linspace(0.0, 1.0, 30), reps)
        y = (np.full(t.size, 0.25) if sizes == "constant"
             else np.sin(2 * np.pi * t) + rng.normal(0.0, 0.1, t.size))
        red = _Reduced(TrainingSet(t, y))
        sd = gp._target_sd(red)
        bounds = gp._kernel_log_bounds(red, OptConfig()) + [
            (math.log(1e-6 * sd), math.log(3.0 * sd))]
        (cells, lml), = gp._scan_ratios(red, [(red.resid, bounds)])
        flat = cells.reshape(lml.size, -1)
        for theta in gp._peaks(cells, lml):
            k = np.flatnonzero((flat == theta).all(axis=1))[0]
            params = KernelParams(*np.exp(theta[:2]))
            want = gp._solve(red, params, red.gram(params),
                             math.exp(2.0 * theta[2])).lml
            assert_allclose(lml.flat[k], want, rtol=1e-9)

    def test_columns_scan_as_each_column_alone(self, rng):
        """``scan_columns`` gives each column the scan its own search makes,
        bit for bit, for columns whose signal-std boxes differ."""
        t = np.repeat(np.linspace(0.0, 1.0, 30), 3)
        y = np.column_stack([np.sin(2 * np.pi * t), 300.0 * np.cos(5 * t),
                             np.full(t.size, 2.0)])
        y += rng.normal(0.0, 0.1, y.shape) * [1.0, 1e2, 0.0]
        boxes = set()
        for j, (cells, lml) in enumerate(gp.scan_columns(t, y)):
            red = _Reduced(TrainingSet(t, y[:, j]))
            bounds = gp._kernel_log_bounds(red, OptConfig(), True)
            boxes.add(bounds[1])
            (want_cells, want_lml), = gp._scan_ratios(red, [(red.resid, bounds)])
            np.testing.assert_array_equal(cells, want_cells)
            np.testing.assert_array_equal(lml, want_lml)
        assert len(boxes) == 3

    def test_peaks_best_first_one_per_plateau(self):
        """A maximum is no lower than any of its eight neighbours; a NaN
        neighbour counts as lower, and of a plateau only its first cell in
        grid order counts."""
        lml = np.array([[0.0, 1.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 5.0, 5.0],
                        [2.0, 0.0, 0.0, 5.0, 5.0],
                        [np.nan, 0.0, 0.0, 0.0, 0.0]])
        cells = np.arange(lml.size, dtype=float).reshape(4, 5, 1)
        assert gp._peaks(cells, lml)[:, 0].tolist() == [8.0, 10.0, 1.0]

    def test_runs_start_at_the_scan_maxima_best_first(self, monkeypatch):
        """At most n_starts runs, each from the next maximum; a noise-free
        sine's scan has one maximum, and its search makes one run."""
        starts, peaks = [], []
        real = gp._peaks

        def record(fun, x0, **kwargs):
            starts.append(np.array(x0))
            return minimize(fun, x0, **kwargs)

        monkeypatch.setattr(gp, "minimize", record)
        monkeypatch.setattr(gp, "_peaks",
                            lambda *args: peaks.append(real(*args)) or peaks[-1])
        optimize_hyperparameters(self.WHITE,
                                 config=OptConfig(n_starts=2, **self.BOUNDS))
        assert len(peaks[0]) > 2
        assert np.array_equal(starts, peaks[0][:2])

        starts.clear()
        t = np.linspace(0.0, 1.0, 12)
        optimize_hyperparameters(TrainingSet(t, np.sin(3 * t)))
        assert len(peaks[1]) == len(starts) == 1

    def test_fixed_noise_reaches_the_random_start_optimum(self):
        model = optimize_hyperparameters(self.SINE, self.NOISE,
                                         OptConfig(**self.BOUNDS))
        assert (model.log_marginal_likelihood()
                >= RANDOM_START_SINE * (1.0 - LBFGS_FTOL))

    def test_white_noise_corner_reaches_the_random_start_optimum(self):
        model = optimize_hyperparameters(self.WHITE,
                                         config=OptConfig(**self.BOUNDS))
        assert (model.log_marginal_likelihood()
                >= RANDOM_START_WHITE * (1.0 - LBFGS_FTOL))
        assert model.params.length_scale > 0.1

    @pytest.mark.parametrize("scale", [1e100, 1e150])
    def test_targets_past_the_search_range_refused(self, scale):
        """Targets of this scale pass the overflow check, but the search
        would square their noise variances past the float range; it refuses
        them, naming their scale, and no warning escapes."""
        t = np.linspace(0.0, 10.0, 12)
        train = TrainingSet(t, scale * np.sin(t))
        sd = f"{np.std(train.y):.3g}"
        for fit in (optimize_hyperparameters, fit_heteroscedastic):
            with pytest.raises(InvalidInputError,
                               match=re.escape(f"deviation {sd} ")):
                fit(train)

    def test_each_search_logs_one_debug_record(self, monkeypatch, caplog):
        """The cells scanned, the maxima found and polished, the failed
        runs, the best LML and the hyperparameters on a bound."""
        peaks, runs = [], []
        real_peaks, real_minimize = gp._peaks, gp.minimize

        def second_run_fails(fun, x0, **kwargs):
            runs.append(x0)
            if len(runs) == 2:
                raise ValueError("this run failed")
            return real_minimize(fun, x0, **kwargs)

        monkeypatch.setattr(gp, "minimize", second_run_fails)
        monkeypatch.setattr(gp, "_peaks",
                            lambda *args: peaks.append(real_peaks(*args))
                            or peaks[-1])
        flat = TrainingSet(np.linspace(0.0, 1.0, 12), np.full(12, 3.0))
        with caplog.at_level(logging.DEBUG, logger="gplfd.gp"):
            white = optimize_hyperparameters(self.WHITE,
                                             config=OptConfig(**self.BOUNDS))
            constant = optimize_hyperparameters(flat, 0.01)
        records = [r for r in caplog.records if r.name == "gplfd.gp"]
        assert [r.levelno for r in records] == [logging.DEBUG] * 2
        polished = min(len(peaks[0]), OptConfig().n_starts)
        assert records[0].getMessage() == (
            f"search over 100 points: {gp.SCAN_LENGTHS * gp.SCAN_RATIOS} "
            f"cells scanned, {len(peaks[0])} maxima found, {polished} "
            "polished, 1 failed, best LML "
            f"{white.log_marginal_likelihood()!r}, on a bound: none")
        assert records[1].getMessage() == (
            f"search over 12 points: {gp.SCAN_LENGTHS ** 2} cells scanned, "
            f"{len(peaks[1])} maxima found, {len(peaks[1])} polished, "
            f"0 failed, best LML {constant.log_marginal_likelihood()!r}, "
            "on a bound: length_scale, signal_std")


class TestHeteroscedastic:
    @pytest.mark.parametrize("kwargs", [{"knots": [0.0, 0.5, 0.5]},
                                        {"log_variance": [-3.0, -2.0]},
                                        {"log_variance": [-3.0, 800.0, -2.0]}])
    def test_config_ranges_refused(self, kwargs):
        """A noise profile needs strictly increasing knots with one log
        variance each, whose exp neither overflows nor vanishes."""
        profile = {"knots": [0.0, 0.5, 1.0], "log_variance": [-3.0, -2.0, -3.0],
                   **kwargs}
        train = TrainingSet(np.linspace(0.0, 1.0, 5), np.zeros(5))
        with pytest.raises(InvalidInputError, match="noise"):
            HeteroGPModel.fit(train, KernelParams(0.3, 1.0), **profile)

    def test_needs_enough_points(self):
        with pytest.raises(InsufficientDataError):
            fit_heteroscedastic(TrainingSet([0.0, 1.0], [0.0, 1.0]))

    def test_overflowing_targets_refused(self):
        """The refusal comes before the floor's variance overflows."""
        t = np.linspace(0.0, 1.0, 12)
        y = np.where(np.arange(t.size) % 2 == 0, 1e200, -1e200)
        with pytest.raises(InvalidInputError, match="overflow"):
            fit_heteroscedastic(TrainingSet(t, y))

    def test_stage_one_runs_then_one_knot_run(self, rng, monkeypatch):
        """After the stage-1 search, one L-BFGS-B run outside any search
        fits the kernel and the 25 knots of 25 distinct inputs."""
        t = np.repeat(np.linspace(0.0, 1.0, 25), 4)
        y = np.sin(2 * np.pi * t) + rng.normal(0.0, 0.02 + 0.3 * t)
        inside, runs = [], []  # per run: (inside a search, searched values)
        search, local = gp.optimize_hyperparameters, gp.minimize

        def count_search(*args, **kwargs):
            inside.append(True)
            try:
                return search(*args, **kwargs)
            finally:
                inside.pop()

        def count_minimize(fun, x0, **kwargs):
            runs.append((bool(inside), len(x0)))
            return local(fun, x0, **kwargs)

        monkeypatch.setattr(gp, "optimize_hyperparameters", count_search)
        monkeypatch.setattr(gp, "minimize", count_minimize)
        model = fit_heteroscedastic(TrainingSet(t, y))
        assert model.knots.size == 25
        assert runs[-1] == (False, 27)
        assert 1 <= len(runs) - 1 <= OptConfig().n_starts
        assert set(runs[:-1]) == {(True, 3)}

    @pytest.mark.parametrize("seed, samples", [
        (0, None), (1, None), (3, None), (0, 1000)],
        ids=["0", "1", "3", "0-1000-samples"])
    def test_knot_fit_never_falls_below_the_noise_gp_loop(self, seed,
                                                          samples,
                                                          monkeypatch):
        """Per door dimension against Kersting's loop with random starts
        (`oracles.random_hetero`): the signal LML of the knot fit is no
        lower beyond 1e-7 relative. A 1000-sample set is fitted on a
        50-point grid."""
        sets = []
        fit = policy.fit_heteroscedastic

        def record(train, config, **kwargs):
            sets.append(train)
            return fit(train, config, **kwargs)

        monkeypatch.setattr(policy, "fit_heteroscedastic", record)
        if samples is None:
            demos, config = generate_synthetic_door_set(seed=seed), LearnConfig()
        else:
            demos = generate_synthetic_door_set(seed=seed, n_samples=samples)
            config = LearnConfig(grid_size=50)
        learned = learn_policy(demos, config)
        for train, model in zip(sets, learned.dims):
            got = model.signal_gp.log_marginal_likelihood()
            want = random_hetero(train).signal_gp.log_marginal_likelihood()
            assert got >= want - 1e-7 * abs(want)

    def test_door_ry_searched_at_its_own_noise(self):
        """The door set's hinge dimension, flat at the noise floor, scores
        at least the 5689.3 its kernel reached before the floor was put
        under a noise searched elsewhere."""
        learned = learn_policy(generate_synthetic_door_set(seed=0))
        assert learned.dims[4].signal_gp.log_marginal_likelihood() >= 5689.3

    @pytest.mark.parametrize("seed", [0, 1, 104729])
    def test_door_knot_runs_end_before_the_iteration_cap(self, seed, caplog):
        """Every dimension's knot run on the door set converges: none stops
        on its NOISE_ITER_PER_PARAM cap, as the hinge dimension did at 60
        iterations on door seeds 1 and 104729."""
        with caplog.at_level(logging.DEBUG, logger="gplfd.gp"):
            learn_policy(generate_synthetic_door_set(seed=seed))
        runs = [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("noise search")]
        assert len(runs) == 6
        assert not [m for m in runs if "LIMIT" in m]

    def test_door_4_y_reaches_its_higher_optimum(self):
        """Door seed 4's y has two near-equal stage-1 optima. The scan finds
        the higher one; the random-start search missed it and ended at
        2 467.93."""
        learned = learn_policy(generate_synthetic_door_set(seed=4))
        assert learned.dims[1].signal_gp.log_marginal_likelihood() >= 2475.0

    def test_fit_draws_no_random_numbers(self, monkeypatch):
        demos = generate_synthetic_door_set(seed=0)

        def refuse(*args, **kwargs):
            raise AssertionError("the fit drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert len(learn_policy(demos).dims) == 6

    def test_noise_std_bounds_bound_every_knot(self):
        """A set ``noise_std_bounds`` bounds the knot run too, not only
        stage 1's scalar noise: every knot's log variance lies within twice
        the log of the bounds."""
        low, high = 1e-3, 2e-3
        config = LearnConfig(opt=OptConfig(noise_std_bounds=(low, high)))
        learned = learn_policy(generate_synthetic_door_set(seed=0), config)
        for dim in learned.dims:
            assert np.all(dim.log_variance >= 2.0 * math.log(low))
            assert np.all(dim.log_variance <= 2.0 * math.log(high))

    def test_knot_prior_enters_the_objective(self, rng, monkeypatch):
        """The knot run's objective is the profile LML less
        NOISE_SMOOTHING / 2 * sum of squared knot steps, and its gradient
        matches finite differences."""
        seen = []

        def record(fun, x0, **kwargs):
            seen.append(fun)
            return minimize(fun, x0, **kwargs)

        monkeypatch.setattr(gp, "minimize", record)
        t = np.repeat(np.linspace(0.0, 1.0, 25), 4)
        y = np.sin(2 * np.pi * t) + rng.normal(0.0, 0.02 + 0.3 * t)
        fit_heteroscedastic(TrainingSet(t, y))
        red = _Reduced(TrainingSet(t, y))
        knots = np.linspace(0.0, 1.0, 25)
        theta = np.concatenate([np.log([0.2, 1.0]),
                                rng.uniform(-6.0, -1.0, 25)])
        value, grad = seen[-1](theta)
        lml = _profile_lml_and_grad(red, knots, _hats(red.u, knots), theta)[0]
        step = np.diff(theta[2:])
        assert_allclose(value, 0.5 * gp.NOISE_SMOOTHING * (step @ step) - lml,
                        rtol=1e-12)
        h = 1e-5
        fd = np.array([(seen[-1](theta + h * e)[0] - seen[-1](theta - h * e)[0])
                       / (2 * h) for e in np.eye(theta.size)])
        assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)) < 1e-4

    def test_replicated_demonstration_puts_every_knot_on_the_floor(
            self, caplog):
        """A single demonstration replicated has nothing to disperse: every
        knot ends on the floor, and the fit's record says so."""
        t = np.repeat(np.linspace(0.0, 1.0, 20), 2)
        y = np.sin(2 * np.pi * t)
        with caplog.at_level(logging.DEBUG, logger="gplfd.gp"):
            model = fit_heteroscedastic(TrainingSet(t, y))
        floor = max(1e-10 * float(np.var(y)), 1e-12)
        assert np.array_equal(model.log_variance,
                              np.full(20, math.log(floor)))
        assert np.all(model.noise_variance(np.linspace(0, 1, 9)) < 1e-8)
        assert "knots on the lower / upper bound: 20 / 0" in caplog.text

    def test_fit_logs_one_debug_record(self, rng, monkeypatch, caplog):
        """One record per fit on gplfd.gp after stage 1's: the knot run's
        evaluations, iterations and message, the knots on each bound and
        whether the length scale ends on its floor."""
        runs = []

        def record(fun, x0, **kwargs):
            runs.append((minimize(fun, x0, **kwargs), kwargs["bounds"]))
            return runs[-1][0]

        monkeypatch.setattr(gp, "minimize", record)
        t = np.repeat(np.linspace(0.0, 1.0, 25), 4)
        y = np.sin(2 * np.pi * t) + rng.normal(0.0, 0.02 + 0.3 * t)
        with caplog.at_level(logging.DEBUG, logger="gplfd.gp"):
            model = fit_heteroscedastic(TrainingSet(t, y))
        records = [r.getMessage() for r in caplog.records
                   if r.name == "gplfd.gp"]
        assert len(records) == 2 and records[0].startswith("search over")
        res, bounds = runs[-1]
        lo, hi = bounds[2]
        c = model.log_variance
        assert records[1] == (
            f"noise search over 100 points with 25 knots: {res.nfev} "
            f"evaluations, {res.nit} iterations, {res.message}; knots on "
            f"the lower / upper bound: {np.sum(c <= lo)} / {np.sum(c >= hi)}, "
            f"length scale on its floor: {bool(res.x[0] <= bounds[0][0])}")
        assert res.x[0] > bounds[0][0]

    def test_predictive_var_adds_local_noise(self, rng):
        t = np.repeat(np.linspace(0.0, 1.0, 15), 4)
        y = np.sin(2 * np.pi * t) + rng.normal(0.0, 0.2, t.size)
        model = fit_heteroscedastic(TrainingSet(t, y))
        ts = np.linspace(0.0, 1.0, 7)
        latent = model.signal_gp.predict(ts)
        full = model.predict(ts)
        assert_allclose(full.var, latent.var + model.noise_variance(ts),
                        rtol=1e-12)
        assert_allclose(full.mean, latent.mean, rtol=1e-12)

    def test_manual_model_offset_is_exact(self):
        """Adding a known r(t*) lifts the observation variance by exactly
        it, and the signal GP carries the same r at its inputs."""
        train = TrainingSet(np.linspace(0.0, 1.0, 6),
                            np.array([0.0, 0.3, 0.9, 0.7, 0.2, -0.1]))
        params = KernelParams(length_scale=0.3, signal_std=1.0)
        model = HeteroGPModel.fit(train, params, [0.0, 1.0], np.log([0.2, 0.2]))
        ts = np.array([0.25, 0.8])
        assert_allclose(model.noise_variance(ts), [0.2, 0.2], rtol=1e-15)
        assert np.array_equal(model.signal_gp.noise,
                              model.noise_variance(train.t))
        assert_allclose(model.predict(ts).var - model.signal_gp.predict(ts).var,
                        model.noise_variance(ts), rtol=1e-12)


class TestGaussianProduct:
    def test_equal_variance_average(self):
        a = PosteriorPrediction(mean=np.array([1.0]), var=np.array([1.0]))
        b = PosteriorPrediction(mean=np.array([3.0]), var=np.array([1.0]))
        out = gaussian_product(a, b)
        assert_allclose(out.mean, [2.0])
        assert_allclose(out.var, [0.5])

    def test_precision_weighted_oracle(self, rng):
        ma, mb = rng.normal(size=6), rng.normal(size=6)
        va, vb = rng.uniform(0.1, 2.0, 6), rng.uniform(0.1, 2.0, 6)
        out = gaussian_product(PosteriorPrediction(mean=ma, var=va),
                               PosteriorPrediction(mean=mb, var=vb))
        assert_allclose(out.mean, (ma / va + mb / vb) / (1 / va + 1 / vb),
                        rtol=1e-12)
        assert_allclose(out.var, 1.0 / (1 / va + 1 / vb), rtol=1e-12)
        assert np.all(out.var <= np.minimum(va, vb) + 1e-15)

    def test_uninformative_side_is_identity(self):
        """An infinite-variance side has no finite product and is refused."""
        a = PosteriorPrediction(mean=np.array([1.0, 2.0]),
                                var=np.array([0.3, 0.4]))
        b = PosteriorPrediction(mean=np.array([9.0, 9.0]),
                                var=np.array([np.inf, np.inf]))
        with pytest.raises(InvalidInputError):
            gaussian_product(a, b)

    def test_hard_side_dominates(self):
        a = PosteriorPrediction(mean=np.array([1.0]), var=np.array([0.0]))
        b = PosteriorPrediction(mean=np.array([5.0]), var=np.array([2.0]))
        out = gaussian_product(a, b)
        assert_allclose(out.mean, [1.0])
        assert_allclose(out.var, [0.0])

    def test_conflicting_exact_constraints(self):
        """Two zero variances have no finite product, agreeing or not."""
        a = PosteriorPrediction(mean=np.array([1.0]), var=np.array([0.0]))
        b = PosteriorPrediction(mean=np.array([2.0]), var=np.array([0.0]))
        with pytest.raises(InvalidInputError):
            gaussian_product(a, b)
        agree = PosteriorPrediction(mean=np.array([1.0]), var=np.array([0.0]))
        with pytest.raises(InvalidInputError):
            gaussian_product(a, agree)

    def test_bad_inputs_rejected(self):
        good = PosteriorPrediction(mean=np.array([0.0]), var=np.array([1.0]))
        with pytest.raises(InvalidInputError):
            gaussian_product(good, PosteriorPrediction(mean=np.array([0.0]),
                                                       var=np.array([-1.0])))
        with pytest.raises(InvalidInputError):
            gaussian_product(good, PosteriorPrediction(mean=np.zeros(2),
                                                       var=np.ones(2)))
