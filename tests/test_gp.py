import logging
import math
import tracemalloc

import numpy as np
import pytest
from numpy.linalg import LinAlgError
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from gplfd import (HeteroConfig, InsufficientDataError, InvalidInputError,
                   KernelParams, LearnConfig, NumericalConditioningError,
                   OptConfig, OptimizationFailureError, PosteriorPrediction,
                   TrainingSet, fit_gp, fit_heteroscedastic, gaussian_product,
                   generate_synthetic_door_set, learn_policy, lml_gradient,
                   optimize_hyperparameters, rbf_kernel)
from gplfd import gp, policy
from gplfd.gp import (JITTER_MAX_FRAC, JITTER_START_FRAC, MAX_GP_INPUTS,
                      MAX_OPT_STARTS, MAX_PREDICT_CELLS, HeteroGPModel,
                      _lml_and_grad, _Reduced)

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
        out = gp.predict_columns(t, y, noise, params, ts)
        for j, p in enumerate(params):
            pred = fit_gp(TrainingSet(t, y[:, j]), p, noise=noise[:, j]).predict(ts)
            assert np.array_equal(out.mean[:, j], pred.mean)
            assert np.array_equal(out.var[:, j], pred.var)

    def test_training_set_validation(self):
        with pytest.raises(InvalidInputError):
            TrainingSet([0.0, 1.0], [0.0])
        with pytest.raises(InvalidInputError):
            TrainingSet([0.0, np.inf], [0.0, 1.0])
        with pytest.raises(InvalidInputError, match="1-d"):
            TrainingSet(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(InvalidInputError, match="at least one point"):
            TrainingSet([], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, bad):
        model = fit_gp(TrainingSet([0.0, 1.0], [0.0, 1.0]),
                       KernelParams(length_scale=0.5, signal_std=1.0),
                       noise=1e-3)
        with pytest.raises(InvalidInputError, match="query inputs"):
            model.predict([0.5, bad])


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
    """Jitter, search and variance guards, driven by a patched factorization.

    No well-posed input found reaches them: the jitter's first rung already
    factorizes near-identical inputs and noise-free dense grids.
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

    def test_jitter_escalates_tenfold(self, monkeypatch, rng):
        train, params, noise = random_instance(rng)
        calls = self.failing_cho_factor(monkeypatch, 2)
        model = fit_gp(train, params, noise=noise)
        assert len(calls) == 3
        assert model.jitter == JITTER_START_FRAC * params.signal_std ** 2 * 100.0
        # The escalated jitter is the one the posterior and LML carry.
        ts = np.linspace(-0.2, 1.2, 7)
        r_vec = np.full(train.t.shape, noise)
        mean, var = dense_posterior(train.t, train.y, params.length_scale,
                                    params.signal_std, r_vec, model.jitter, ts)
        pred = model.predict(ts)
        assert_allclose(pred.mean, mean, atol=1e-9)
        assert_allclose(pred.var, var, atol=1e-9)
        assert_allclose(model.log_marginal_likelihood(),
                        dense_lml(train.t, train.y, params.length_scale,
                                  params.signal_std, r_vec, model.jitter),
                        rtol=1e-9)

    def test_columns_escalate_one_at_a_time(self, monkeypatch, rng):
        """Only the column whose factorization failed carries more jitter."""
        train, params, noise = random_instance(rng)
        y = np.stack([train.y, train.y[::-1]], axis=1)
        noise = np.full(y.shape, noise)
        ts = np.linspace(-0.2, 1.2, 7)
        calls = self.failing_cho_factor(monkeypatch, 2)
        out = gp.predict_columns(train.t, y, noise, [params, params], ts)
        assert len(calls) == 4
        self.failing_cho_factor(monkeypatch, 2)
        models = [fit_gp(TrainingSet(train.t, y[:, j]), params,
                         noise=noise[:, j]) for j in range(2)]
        assert models[0].jitter == 100.0 * models[1].jitter
        for j, model in enumerate(models):
            pred = model.predict(ts)
            assert np.array_equal(out.mean[:, j], pred.mean)
            assert np.array_equal(out.var[:, j], pred.var)

    def test_jitter_ceiling_raises(self, monkeypatch, rng):
        train, params, noise = random_instance(rng)
        calls = self.failing_cho_factor(monkeypatch, math.inf)
        with pytest.raises(NumericalConditioningError, match="ceiling"):
            fit_gp(train, params, noise=noise)
        # Every tenfold rung from the start to the ceiling, both included.
        rungs = round(math.log10(JITTER_MAX_FRAC / JITTER_START_FRAC)) + 1
        assert len(calls) == rungs

    def test_search_fails_when_no_start_factorizes(self, monkeypatch):
        """The objective answers +inf, and every start is then skipped."""
        calls = self.failing_cho_factor(monkeypatch, math.inf)
        t = np.linspace(0.0, 1.0, 12)
        with pytest.raises(OptimizationFailureError, match="no start point"):
            optimize_hyperparameters(TrainingSet(t, np.sin(t)),
                                     config=OptConfig(n_starts=3))
        assert calls

    @pytest.mark.parametrize("error", [LinAlgError, ValueError])
    def test_raising_start_is_skipped(self, monkeypatch, error):
        starts, finished = [], []

        def first_start_raises(fun, x0, **kwargs):
            starts.append(x0)
            if len(starts) == 1:
                raise error("start failed")
            res = minimize(fun, x0, **kwargs)
            finished.append(-res.fun)
            return res

        monkeypatch.setattr(gp, "minimize", first_start_raises)
        t = np.linspace(0.0, 1.0, 12)
        res = optimize_hyperparameters(TrainingSet(t, np.sin(3 * t)),
                                       config=OptConfig(n_starts=3))
        assert len(starts) == 3 and len(finished) == 2
        assert res.log_marginal_likelihood() == max(finished)

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
                             JITTER_START_FRAC * sf ** 2)

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
        {"n_starts": MAX_OPT_STARTS + 1}])
    def test_config_ranges_refused(self, kwargs):
        with pytest.raises(InvalidInputError):
            OptConfig(**kwargs)

    def test_starts_drawn_in_seed_order(self, rng, monkeypatch):
        bounds = {"length_scale_bounds": (0.01, 2.0),
                  "signal_std_bounds": (0.1, 5.0),
                  "noise_std_bounds": (1e-4, 1.0)}
        seen = []

        def record(fun, x0, **kwargs):
            seen.append(np.array(x0))
            return minimize(fun, x0, **kwargs)

        monkeypatch.setattr(gp, "minimize", record)
        t = np.linspace(0.0, 1.0, 12)
        optimize_hyperparameters(TrainingSet(t, np.sin(t)),
                                 config=OptConfig(n_starts=5, seed=3, **bounds))
        draws = np.random.default_rng(3)
        logs = [(math.log(lo), math.log(hi)) for lo, hi in bounds.values()]
        want = [[draws.uniform(lo, hi) for lo, hi in logs] for _ in range(5)]
        assert np.array_equal(np.array(seen), np.array(want))

    def test_bad_bounds_rejected(self):
        train = TrainingSet([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        with pytest.raises(InvalidInputError):
            optimize_hyperparameters(
                train, config=OptConfig(length_scale_bounds=(1.0, 0.5)))

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

    @pytest.mark.parametrize("fixed", [None, 0.01])
    def test_start_outside_the_bounds_is_clipped(self, rng, monkeypatch,
                                                 fixed):
        """The start runs first from its clipped log hyperparameters; the
        random starts follow it under a fixed noise and draw as without it.
        The result never scores below the fit at the clipped start."""
        bounds = {"length_scale_bounds": (0.05, 0.5),
                  "signal_std_bounds": (0.1, 2.0),
                  "noise_std_bounds": (1e-3, 0.3)}
        seen = []

        def record(fun, x0, **kwargs):
            seen.append(np.array(x0))
            return minimize(fun, x0, **kwargs)

        monkeypatch.setattr(gp, "minimize", record)
        t = np.linspace(0.0, 1.0, 20)
        train = TrainingSet(t, np.sin(2 * np.pi * t)
                            + rng.normal(0.0, 0.05, t.size))
        start = fit_gp(train, KernelParams(5.0, 1e-3), noise=1.0)
        config = OptConfig(n_starts=3, seed=4, **bounds)
        model = optimize_hyperparameters(train, noise=fixed, config=config,
                                         start=start)

        clipped = [math.log(0.5), math.log(0.1), math.log(0.3)]
        logs = [(math.log(lo), math.log(hi)) for lo, hi in bounds.values()]
        if fixed is not None:
            clipped, logs = clipped[:2], logs[:2]
        draws = np.random.default_rng(4)
        want = [[draws.uniform(lo, hi) for lo, hi in logs] for _ in range(3)]
        assert np.array_equal(seen[0], clipped)
        assert np.array_equal(np.array(seen[1:]).reshape(-1, len(logs)),
                              want if fixed is not None else np.empty((0, 3)))
        at_start = fit_gp(train, KernelParams(math.exp(clipped[0]),
                                              math.exp(clipped[1])),
                          noise=(math.exp(2.0 * clipped[2]) if fixed is None
                                 else fixed))
        assert (model.log_marginal_likelihood()
                >= at_start.log_marginal_likelihood())

    def test_failed_start_falls_back_to_random_starts(self, monkeypatch):
        calls = []

        def first_fails(fun, x0, **kwargs):
            calls.append(x0)
            if len(calls) == 1:
                raise ValueError("the start's run failed")
            return minimize(fun, x0, **kwargs)

        monkeypatch.setattr(gp, "minimize", first_fails)
        t = np.linspace(0.0, 1.0, 12)
        train = TrainingSet(t, np.sin(2 * np.pi * t))
        start = fit_gp(train, KernelParams(0.3, 1.0), noise=0.01)
        optimize_hyperparameters(train, config=OptConfig(n_starts=4),
                                 start=start)
        assert len(calls) == 5

    def test_searched_noise_needs_a_scalar_start(self):
        t = np.linspace(0.0, 1.0, 12)
        train = TrainingSet(t, np.sin(2 * np.pi * t))
        start = fit_gp(train, KernelParams(0.3, 1.0),
                       noise=np.linspace(0.01, 0.02, t.size))
        with pytest.raises(InvalidInputError, match="scalar noise"):
            optimize_hyperparameters(train, start=start)


def record_runs(monkeypatch, fail=()):
    """Spy on gp.minimize: (LML, theta) per L-BFGS-B run in order, or None
    for a run whose number (from 1) is in ``fail``, which raises instead."""
    runs = []

    def run(fun, x0, **kwargs):
        if len(runs) + 1 in fail:
            runs.append(None)
            raise ValueError("this run failed")
        res = minimize(fun, x0, **kwargs)
        runs.append((-res.fun, res.x))
        return res

    monkeypatch.setattr(gp, "minimize", run)
    return runs


def at_optimum(runs):
    """Numbers (from 1) of the runs that end at the best run's optimum."""
    lml, theta = max(runs, key=lambda r: r[0])
    return [k for k, (value, x) in enumerate(runs, start=1)
            if abs(value - lml) <= 1e-6 * abs(lml)
            and np.all(np.abs(x - theta) <= 1e-3)]


class TestConfirmedSearch:
    """``stop_when_confirmed``: a search draws no more random starts once two
    random starts have ended at its best candidate. With the noise fixed at
    NOISE, some random starts on SINE end at its best optimum and the
    others at a lower one."""

    SINE = TrainingSet(np.linspace(0.0, 1.0, 20),
                       np.sin(2 * np.pi * np.linspace(0.0, 1.0, 20))
                       + np.random.default_rng(0).normal(0.0, 0.1, 20))
    NOISE = 0.01

    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_stops_at_the_second_start_at_the_optimum(self, seed,
                                                      monkeypatch):
        config = OptConfig(seed=seed)
        runs = record_runs(monkeypatch)
        optimize_hyperparameters(self.SINE, self.NOISE, config)
        assert len(runs) == config.n_starts  # without the flag, every start
        every = list(runs)
        stop = at_optimum(every)[1]
        assert stop < config.n_starts

        runs.clear()
        model = optimize_hyperparameters(self.SINE, self.NOISE, config,
                                         stop_when_confirmed=True)
        assert [r[0] for r in runs] == [r[0] for r in every[:stop]]
        lml, theta = max(runs, key=lambda r: r[0])
        assert model.log_marginal_likelihood() == lml
        assert model.params == KernelParams(math.exp(theta[0]),
                                            math.exp(theta[1]))

    def test_warm_start_at_the_optimum_is_no_confirmation(self, monkeypatch):
        """It precedes the random starts, which still need two of their own
        at its optimum; they draw as without it."""
        config = OptConfig(seed=0)
        runs = record_runs(monkeypatch)
        optimum = optimize_hyperparameters(self.SINE, self.NOISE, config)
        first, second = at_optimum(runs)[:2]
        assert first < second < config.n_starts

        runs.clear()
        model = optimize_hyperparameters(self.SINE, self.NOISE, config,
                                         start=optimum,
                                         stop_when_confirmed=True)
        assert len(runs) == 1 + second
        assert at_optimum(runs)[0] == 1
        assert (model.log_marginal_likelihood()
                >= optimum.log_marginal_likelihood())

    @pytest.mark.parametrize("failed", [1, 2, 3])
    def test_failed_run_neither_confirms_nor_resets(self, failed,
                                                    monkeypatch):
        config = OptConfig(seed=2)
        runs = record_runs(monkeypatch)
        optimize_hyperparameters(self.SINE, self.NOISE, config)
        confirming = [k for k in at_optimum(runs) if k != failed]

        runs = record_runs(monkeypatch, fail={failed})
        optimize_hyperparameters(self.SINE, self.NOISE, config,
                                 stop_when_confirmed=True)
        assert len(runs) == confirming[1] < config.n_starts

    def test_white_noise_corner_is_never_confirmed(self, monkeypatch):
        """Starts that agree at the length scale's lower bound do not stop
        the search: all 8 starts run, and the interior optimum wins."""
        rng = np.random.default_rng(12345)
        t = np.repeat(np.linspace(0.0, 1.0, 25), 4)
        train = TrainingSet(t, np.sin(2 * np.pi * t)
                            + rng.normal(0.0, 0.02 + 0.3 * t))
        runs = record_runs(monkeypatch)
        every = optimize_hyperparameters(train)
        corner = [k for k, (_, x) in enumerate(runs, start=1)
                  if x[0] <= math.log(1e-3) + 1e-3]
        assert len(corner) >= 2 and corner[1] < at_optimum(runs)[0]

        runs.clear()
        model = optimize_hyperparameters(train, stop_when_confirmed=True)
        assert len(runs) == 8
        assert (model.log_marginal_likelihood()
                == every.log_marginal_likelihood())

    def test_each_search_logs_one_debug_record(self, monkeypatch, caplog):
        config = OptConfig(seed=2)
        with caplog.at_level(logging.DEBUG, logger="gplfd.gp"):
            record_runs(monkeypatch, fail={2})
            stopped = optimize_hyperparameters(self.SINE, self.NOISE, config,
                                               stop_when_confirmed=True)
            record_runs(monkeypatch)
            every = optimize_hyperparameters(self.SINE, self.NOISE, config)
        records = [r for r in caplog.records if r.name == "gplfd.gp"]
        assert [r.levelno for r in records] == [logging.DEBUG] * 2
        assert records[0].getMessage() == (
            "search over 20 points: 3 of 8 random starts run, 1 failed, "
            "stopped on confirmation: True, best LML "
            f"{stopped.log_marginal_likelihood()!r}")
        assert records[1].getMessage() == (
            "search over 20 points: 8 of 8 random starts run, 0 failed, "
            "stopped on confirmation: False, best LML "
            f"{every.log_marginal_likelihood()!r}")


class TestHeteroscedastic:
    @pytest.mark.parametrize("kwargs", [{"iterations": 0},
                                        {"smoothing_window": 0},
                                        {"smoothing_window": 4}])
    def test_config_ranges_refused(self, kwargs):
        with pytest.raises(InvalidInputError):
            HeteroConfig(**kwargs)

    def test_needs_enough_points(self):
        with pytest.raises(InsufficientDataError):
            fit_heteroscedastic(TrainingSet([0.0, 1.0], [0.0, 1.0]))

    def test_overflowing_targets_refused(self):
        """The refusal comes before the floor's variance overflows."""
        t = np.linspace(0.0, 1.0, 12)
        y = np.where(np.arange(t.size) % 2 == 0, 1e200, -1e200)
        with pytest.raises(InvalidInputError, match="overflow"):
            fit_heteroscedastic(TrainingSet(t, y))

    def test_warm_noise_rounds_make_one_minimize_call(self, rng,
                                                     monkeypatch):
        """Round 0 searches the noise GP from random starts; each later
        round refines the previous optimum once. The round-0 signal refit
        tries the stage-1 optimum before its random starts."""
        t = np.repeat(np.linspace(0.0, 1.0, 25), 4)
        y = np.sin(2 * np.pi * t) + rng.normal(0.0, 0.02 + 0.3 * t)
        runs = []  # per search: [training points, L-BFGS-B runs]
        search, local = gp.optimize_hyperparameters, gp.minimize

        def count_search(train, noise=None, config=OptConfig(), start=None,
                         **kwargs):
            runs.append([len(train), 0])
            return search(train, noise, config, start, **kwargs)

        def count_minimize(*args, **kwargs):
            runs[-1][1] += 1
            return local(*args, **kwargs)

        monkeypatch.setattr(gp, "optimize_hyperparameters", count_search)
        monkeypatch.setattr(gp, "minimize", count_minimize)
        model = fit_heteroscedastic(TrainingSet(t, y), HeteroConfig(iterations=4))
        assert not model.degenerate
        assert runs == [[100, 8], [25, 8], [100, 6], [25, 1], [25, 1], [25, 1]]

    def test_only_signal_searches_stop_when_confirmed(self, rng,
                                                      monkeypatch):
        """Stage 1 and the round-0 refit stop once confirmed; every
        noise-GP search keeps all its starts."""
        t = np.repeat(np.linspace(0.0, 1.0, 25), 4)
        y = np.sin(2 * np.pi * t) + rng.normal(0.0, 0.02 + 0.3 * t)
        calls = []  # per search: [training points, warm, stops when confirmed]
        search = gp.optimize_hyperparameters

        def spy(train, noise=None, config=OptConfig(), start=None, **kwargs):
            calls.append([len(train), start is not None,
                          kwargs.get("stop_when_confirmed", False)])
            return search(train, noise, config, start, **kwargs)

        monkeypatch.setattr(gp, "optimize_hyperparameters", spy)
        fit_heteroscedastic(TrainingSet(t, y), HeteroConfig(iterations=3))
        assert calls == [[100, False, True], [25, False, False],
                         [100, True, True], [25, True, False],
                         [25, True, False]]

    @pytest.mark.parametrize("seed, samples", [
        (0, None), (1, None), (3, None), (0, 1000)],
        ids=["0", "1", "3", "0-1000-samples"])
    def test_warm_rounds_never_fall_below_random_starts(self, seed, samples,
                                                        monkeypatch):
        """Per door dimension against the all-random-starts loop: the
        signal LML is no lower beyond 1e-7 relative, and a degenerate
        dimension is bit for bit the same model. A 1000-sample set is
        fitted on a 50-point grid."""
        sets = []
        fit = policy.fit_heteroscedastic

        def record(train, config):
            sets.append(train)
            return fit(train, config)

        monkeypatch.setattr(policy, "fit_heteroscedastic", record)
        if samples is None:
            demos, config = generate_synthetic_door_set(seed=seed), LearnConfig()
        else:
            demos = generate_synthetic_door_set(seed=seed, n_samples=samples)
            config = LearnConfig(grid_size=50)
        learned = learn_policy(demos, config)
        assert any(model.degenerate for model in learned.dims)
        ts = np.linspace(0.0, 1.0, 11)
        for train, warm in zip(sets, learned.dims):
            cold = random_hetero(train)
            got = warm.signal_gp.log_marginal_likelihood()
            want = cold.signal_gp.log_marginal_likelihood()
            assert got >= want - 1e-7 * abs(want)
            assert warm.degenerate == cold.degenerate
            if cold.degenerate:
                assert got == want
                for a, b in ((warm.signal_gp, cold.signal_gp),
                             (warm.noise_gp, cold.noise_gp)):
                    assert a.params == b.params
                    assert np.array_equal(a.noise, b.noise)
                got, want = warm.predict(ts), cold.predict(ts)
                assert np.array_equal(got.mean, want.mean)
                assert np.array_equal(got.var, want.var)

    def test_degenerate_dispersion_flagged(self):
        # A single demonstration replicated has nothing to disperse.
        t = np.repeat(np.linspace(0.0, 1.0, 20), 2)
        y = np.sin(2 * np.pi * t)
        model = fit_heteroscedastic(TrainingSet(t, y))
        assert model.degenerate
        assert np.all(model.noise_variance(np.linspace(0, 1, 9)) < 1e-8)

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
        """Adding a known r(t*) lifts the observation variance by exactly it."""
        train = TrainingSet(np.linspace(0.0, 1.0, 6),
                            np.array([0.0, 0.3, 0.9, 0.7, 0.2, -0.1]))
        params = KernelParams(length_scale=0.3, signal_std=1.0)
        signal = fit_gp(train, params, noise=0.05)
        flat = fit_gp(TrainingSet([0.0, 1.0], np.log([0.2, 0.2])),
                      KernelParams(length_scale=1.0, signal_std=1e-6),
                      noise=1e-12)
        model = HeteroGPModel(signal_gp=signal, noise_gp=flat)
        ts = np.array([0.25, 0.8])
        assert_allclose(model.noise_variance(ts), [0.2, 0.2], rtol=1e-5)
        assert_allclose(model.predict(ts).var - signal.predict(ts).var,
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
