import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gplfd import (ControllerParams, DivergenceError, InvalidInputError,
                   check_stability, constant_force, damping_from_ratio,
                   simulate, stiffness_profile, stiffness_rate,
                   stiffness_rate_bound, zero_force)
from gplfd.admittance import MAX_SIM_STEPS, simulation_steps

from oracles import critically_damped_free

DEFAULTS = ControllerParams()


class TestStiffnessProfile:
    def test_midpoint_of_the_sigmoid(self):
        # At sigma equal to the offset the profile sits exactly halfway.
        assert stiffness_profile(DEFAULTS.uncertainty_offset, DEFAULTS) == 300.0

    def test_certain_limit(self):
        assert_allclose(stiffness_profile(0.0, DEFAULTS), 499.01, atol=5e-3)

    def test_uncertain_limit(self):
        assert_allclose(stiffness_profile(1.0, DEFAULTS), 100.0, atol=1e-9)

    def test_monotone_decreasing_in_sigma(self):
        sigma = np.linspace(0.0, 0.1, 200)
        kp = stiffness_profile(sigma, DEFAULTS)
        assert np.all(np.diff(kp) <= 0.0)
        # Strict decrease while the sigmoid is active; the gate saturates to
        # the lower bound in floats once alpha*(sigma-beta) passes ~36.
        active = sigma[:-1] < 0.04
        assert np.all(np.diff(kp)[active] < 0.0)
        assert np.all((kp >= DEFAULTS.stiffness_min)
                      & (kp <= DEFAULTS.stiffness_max))

    def test_damping_follows_critical_ratio(self):
        assert_allclose(damping_from_ratio(100.0, DEFAULTS), 20.0)
        kp = np.array([100.0, 300.0, 500.0])
        assert_allclose(damping_from_ratio(kp, DEFAULTS),
                        2.0 * np.sqrt(kp))

    def test_params_validated(self):
        with pytest.raises(InvalidInputError):
            ControllerParams(stiffness_min=500.0, stiffness_max=100.0)
        with pytest.raises(InvalidInputError):
            ControllerParams(inertia=0.0)


class TestStiffnessRate:
    def test_rate_identity_against_finite_differences(self):
        """The closed-form rate matches central differences along sigma(t)."""
        h = 1e-5
        sigma = np.linspace(0.002, 0.03, 40)
        for sigma_rate in (0.004, 0.02, -0.01):
            analytic = stiffness_rate(sigma, np.full_like(sigma, sigma_rate),
                                      DEFAULTS)
            fd = (stiffness_profile(sigma + sigma_rate * h, DEFAULTS)
                  - stiffness_profile(sigma - sigma_rate * h, DEFAULTS)) / (2 * h)
            keep = np.abs(analytic) > 1e-3 * np.max(np.abs(analytic))
            rel = np.abs(analytic[keep] - fd[keep]) / np.abs(analytic[keep])
            assert np.max(rel) < 1e-4

    def test_rate_vanishes_at_the_rails(self):
        big = stiffness_rate(np.array([5.0]), np.array([1.0]), DEFAULTS)
        assert_allclose(big, 0.0, atol=1e-9)

    def test_worst_case_bound(self):
        assert_allclose(stiffness_rate_bound(DEFAULTS, 0.01), 600.0)
        sigma = np.linspace(0.0, 1.0, 500)
        rate = stiffness_rate(sigma, np.full_like(sigma, 0.01), DEFAULTS)
        assert np.max(np.abs(rate)) <= 600.0 + 1e-9

    def test_simulated_trace_respects_the_bound(self):
        trace = simulate(sigma=lambda t: 0.004 + 0.005 * t, dt=1e-3,
                         horizon=2.0, initial_error=np.full(6, 0.05))
        kp_rate = np.gradient(trace.stiffness, trace.times, axis=0)
        bound = stiffness_rate_bound(DEFAULTS, trace.max_sigma_rate())
        assert np.max(np.abs(kp_rate)) <= bound * (1.0 + 1e-6) + 1e-9


class TestStabilityCheck:
    def test_reference_constants_bound(self):
        report = check_stability(DEFAULTS, sigma_rate_max=0.0)
        assert abs(report.sigma_rate_bound - 0.013333333333333334) < 1e-9

    def test_decay_rate_value(self):
        report = check_stability(DEFAULTS, sigma_rate_max=0.0)
        assert_allclose(report.decay_rate,
                        2.0 * math.sqrt(DEFAULTS.stiffness_min))

    def test_satisfied_flag(self):
        assert check_stability(DEFAULTS, 0.01).satisfied
        assert not check_stability(DEFAULTS, 0.02).satisfied


class TestSimulate:
    def test_free_decay_reaches_rest(self):
        trace = simulate(sigma=0.05, dt=1e-3, horizon=2.0,
                         initial_error=np.full(6, 0.1))
        assert np.all(np.abs(trace.error[-1]) < 1e-4)
        assert np.all(np.abs(trace.error[-1]) < np.abs(trace.error[0]))

    def test_trace_shapes_and_times(self):
        trace = simulate(sigma=0.05, dt=1e-2, horizon=0.5)
        assert trace.times.shape == (51,)
        assert trace.error.shape == (51, 6)
        assert trace.stiffness.shape == (51, 6)
        assert_allclose(trace.times[-1], 0.5)

    def test_constant_force_offsets_equilibrium(self):
        trace = simulate(sigma=0.05, force=constant_force(1.0), horizon=3.0)
        kp = trace.stiffness[-1]
        assert_allclose(trace.error[-1], 1.0 / kp, rtol=1e-3)

    def test_closed_form_constant_coefficients(self):
        """Constant sigma gives a critically damped linear system."""
        e0, v0 = 0.1, -0.2
        sigma = DEFAULTS.uncertainty_offset  # kp == 300 on the nose
        omega = math.sqrt(300.0)
        trace = simulate(sigma=sigma, dt=1e-3, horizon=2.0,
                         initial_error=np.full(6, e0),
                         initial_rate=np.full(6, v0), integrator="rk4")
        want = critically_damped_free(e0, v0, omega, trace.times)
        assert np.max(np.abs(trace.error[:, 0] - want)) < 1e-3

    def test_semi_implicit_tracks_rk4(self):
        kw = dict(sigma=0.03, dt=1e-3, horizon=1.0,
                  initial_error=np.full(6, 0.05))
        a = simulate(integrator="semi_implicit", **kw)
        b = simulate(integrator="rk4", **kw)
        assert np.max(np.abs(a.error - b.error)) < 1e-3

    def test_energy_diagnostic_decays_without_forcing(self):
        trace = simulate(sigma=0.02, dt=1e-3, horizon=1.0,
                         initial_error=np.full(6, 0.1))
        E = trace.energy()
        assert np.all(np.diff(E, axis=0) <= 1e-12)

    def test_sigma_schedules(self):
        by_scalar = simulate(sigma=0.05, dt=1e-2, horizon=0.1)
        steps = by_scalar.times.size
        by_vector = simulate(sigma=np.full(steps, 0.05), dt=1e-2, horizon=0.1)
        by_matrix = simulate(sigma=np.full((steps, 6), 0.05), dt=1e-2,
                             horizon=0.1)
        by_callable = simulate(sigma=lambda t: 0.05, dt=1e-2, horizon=0.1)
        for other in (by_vector, by_matrix, by_callable):
            assert np.array_equal(by_scalar.stiffness, other.stiffness)

    def test_shared_sigma_takes_axis_maximum(self):
        steps = 11
        sig = np.tile(np.linspace(0.01, 0.06, 6), (steps, 1))
        trace = simulate(sigma=sig, dt=1e-2, horizon=0.1, shared_sigma=True)
        assert_allclose(trace.sigma, 0.06)

    def test_policy_setpoint_drives_stiffness(self, door_policy):
        trace = simulate(setpoint=door_policy, dt=1e-2, horizon=2.0)
        assert np.all((trace.stiffness >= DEFAULTS.stiffness_min)
                      & (trace.stiffness <= DEFAULTS.stiffness_max))

    def test_missing_schedule_rejected(self):
        with pytest.raises(InvalidInputError):
            simulate()

    def test_bad_sigma_shape_rejected(self):
        with pytest.raises(InvalidInputError):
            simulate(sigma=np.zeros((3, 2)), dt=1e-2, horizon=0.1)

    def test_unknown_integrator_rejected(self):
        with pytest.raises(InvalidInputError):
            simulate(sigma=0.05, integrator="euler")

    @pytest.mark.parametrize("dt, horizon", [
        (math.nan, 1.0), (1e-3, math.nan), (-1e-3, -1.0), (1e-3, 4e-4),
        (1e-3, math.inf), (1.0 / MAX_SIM_STEPS, 1.00001), (1e-9, 1.0)])
    def test_timing_refused(self, dt, horizon):
        # The step cap is checked before any (steps + 1) x 6 array exists.
        with pytest.raises(InvalidInputError):
            simulate(sigma=0.05, dt=dt, horizon=horizon)

    def test_step_count_rounds(self):
        assert simulation_steps(1e-3, 6e-4) == 1
        assert simulation_steps(1.0 / MAX_SIM_STEPS, 1.0) == MAX_SIM_STEPS

    def test_divergence_reports_the_step(self):
        # Positive position feedback beyond the controller stiffness blows up.
        runaway = lambda t, e, v: 1e7 * e + 1.0
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as info:
                simulate(sigma=0.05, force=runaway, dt=1e-3, horizon=2.0,
                         initial_error=np.full(6, 0.01))
        assert info.value.step is not None and info.value.step > 0

    def test_stiff_environment_spring_diverges(self):
        # A spring toward a ground truth the setpoint already follows.
        gap = lambda t: np.zeros(6)
        force = lambda t, e, v: 1e7 * (e - gap(t))
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError):
                simulate(sigma=0.05, force=force, dt=1e-3, horizon=2.0,
                         initial_error=np.full(6, 0.01))

    def test_max_sigma_rate_measures_ramp(self):
        trace = simulate(sigma=lambda t: 0.01 + 0.004 * t, dt=1e-3,
                         horizon=2.0)
        assert_allclose(trace.max_sigma_rate(), 0.004, rtol=1e-6)


class TestForceModels:
    def test_zero_force(self):
        assert np.array_equal(zero_force(0.0, np.ones(6), np.ones(6)),
                              np.zeros(6))

    def test_constant_force_broadcasts(self):
        f = constant_force(2.0)
        assert_allclose(f(0.0, np.zeros(6), np.zeros(6)), np.full(6, 2.0))
        g = constant_force(np.arange(6.0))
        assert_allclose(g(1.0, np.zeros(6), np.zeros(6)), np.arange(6.0))

