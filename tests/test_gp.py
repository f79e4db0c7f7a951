import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from gplfd import (GPModel, HeteroConfig, InconsistentConstraintError,
                   InsufficientDataError, InvalidInputError, KernelParams,
                   NotFittedError, NumericalConditioningError, OptConfig,
                   PosteriorPrediction, TrainingSet, fit_gp,
                   fit_heteroscedastic, gaussian_product, lml_gradient,
                   optimize_hyperparameters, rbf_kernel)
from gplfd import gp
from gplfd.gp import (JITTER_START_FRAC, MAX_OPT_STARTS, HeteroGPModel,
                      _lml_and_grad, _Reduced)

from oracles import dense_lml, dense_posterior, longdouble_posterior


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

    def test_full_cov_diagonal_consistent(self, rng):
        train, params, noise = random_instance(rng)
        model = fit_gp(train, params, noise=noise)
        ts = np.linspace(0.0, 1.0, 5)
        pred = model.predict(ts, full_cov=True)
        assert pred.cov.shape == (5, 5)
        assert_allclose(np.diag(pred.cov), pred.var, atol=1e-10)

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

    def test_unfitted_model_refuses_predict(self):
        bare = GPModel(train=TrainingSet([0.0, 1.0], [0.0, 1.0]),
                       params=KernelParams(length_scale=1.0, signal_std=1.0),
                       noise=0.0)
        with pytest.raises(NotFittedError):
            bare.predict([0.5])

    def test_training_set_validation(self):
        with pytest.raises(InvalidInputError):
            TrainingSet([0.0, 1.0], [0.0])
        with pytest.raises(InvalidInputError):
            TrainingSet([0.0, np.inf], [0.0, 1.0])


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
        assert_allclose(full.log_marginal_likelihood(), res.lml, rtol=1e-6)

    def test_reported_lml_is_the_fit_lml_on_noise_free_replicates(self):
        """The jitter outweighs the searched noise here; the objective must
        still be the LML of the model fit_gp builds from the result."""
        grid = np.linspace(0.0, 1.0, 30)
        train = TrainingSet(np.tile(grid, 6), np.tile(np.sin(2 * np.pi * grid), 6))
        res = optimize_hyperparameters(train, config=OptConfig(n_starts=4))
        full = fit_gp(train, res.params, noise=res.noise)
        assert full.jitter > res.noise
        assert_allclose(full.log_marginal_likelihood(), res.lml, rtol=1e-6)

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


class TestHeteroscedastic:
    @pytest.mark.parametrize("kwargs", [{"iterations": 0},
                                        {"smoothing_window": 0}])
    def test_config_ranges_refused(self, kwargs):
        with pytest.raises(InvalidInputError):
            HeteroConfig(**kwargs)

    def test_needs_enough_points(self):
        with pytest.raises(InsufficientDataError):
            fit_heteroscedastic(TrainingSet([0.0, 1.0], [0.0, 1.0]))

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
        a = PosteriorPrediction(mean=np.array([1.0, 2.0]),
                                var=np.array([0.3, 0.4]))
        b = PosteriorPrediction(mean=np.array([9.0, 9.0]),
                                var=np.array([np.inf, np.inf]))
        out = gaussian_product(a, b)
        assert np.array_equal(out.mean, a.mean)
        assert np.array_equal(out.var, a.var)

    def test_hard_side_dominates(self):
        a = PosteriorPrediction(mean=np.array([1.0]), var=np.array([0.0]))
        b = PosteriorPrediction(mean=np.array([5.0]), var=np.array([2.0]))
        out = gaussian_product(a, b)
        assert_allclose(out.mean, [1.0])
        assert_allclose(out.var, [0.0])

    def test_conflicting_exact_constraints(self):
        a = PosteriorPrediction(mean=np.array([1.0]), var=np.array([0.0]))
        b = PosteriorPrediction(mean=np.array([2.0]), var=np.array([0.0]))
        with pytest.raises(InconsistentConstraintError):
            gaussian_product(a, b)
        agree = PosteriorPrediction(mean=np.array([1.0]), var=np.array([0.0]))
        out = gaussian_product(a, agree)
        assert out.mean[0] == 1.0 and out.var[0] == 0.0

    def test_bad_inputs_rejected(self):
        good = PosteriorPrediction(mean=np.array([0.0]), var=np.array([1.0]))
        with pytest.raises(InvalidInputError):
            gaussian_product(good, PosteriorPrediction(mean=np.array([0.0]),
                                                       var=np.array([-1.0])))
        with pytest.raises(InvalidInputError):
            gaussian_product(good, PosteriorPrediction(mean=np.zeros(2),
                                                       var=np.ones(2)))
