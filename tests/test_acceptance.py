"""One test per shipping criterion; `pytest -v` gives the pass/fail report."""

import math
import time

import numpy as np

from gplfd import (ControllerParams, KernelParams, Pose, Trajectory,
                   TrainingSet, ViaPoint, adapt_with_viapoints,
                   check_stability, fit_gp, fit_heteroscedastic, learn_policy,
                   lml_gradient, query, simulate, stiffness_profile,
                   streaming_evaluation)
from gplfd.alignment import (DistanceWeights, align_demonstrations, dtw_align,
                             tci_profile)
from gplfd.cli import main
from gplfd.gp import HeteroGPModel
from gplfd import io

from oracles import (brute_force_dtw_cost, cost_matrix,
                     critically_damped_free, dense_posterior)


def random_instance(rng, vector_noise=False):
    n = int(rng.integers(2, 9))
    t = np.sort(rng.uniform(0.0, 1.0, n))
    y = rng.normal(0.0, 1.0, n)
    params = KernelParams(length_scale=float(rng.uniform(0.05, 1.0)),
                          signal_std=float(rng.uniform(0.3, 2.0)))
    if vector_noise:
        noise = rng.uniform(1e-4, 0.5, n)
    else:
        noise = float(rng.uniform(1e-4, 0.5))
    return TrainingSet(t, y), params, noise


def test_criterion_01_posterior_matches_dense_oracle():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    for k in range(100):
        train, params, noise = random_instance(rng, vector_noise=k % 2 == 0)
        model = fit_gp(train, params, noise=noise)
        ts = np.sort(rng.uniform(-0.2, 1.2, 12))
        pred = model.predict(ts)
        r_vec = np.broadcast_to(np.asarray(noise, dtype=float),
                                (len(train),))
        om, ov = dense_posterior(train.t, train.y, params.length_scale,
                                 params.signal_std, r_vec, model.jitter, ts)
        scale = max(params.signal_std ** 2, float(np.max(np.abs(om))), 1.0)
        assert np.max(np.abs(pred.mean - om)) < 1e-8 * scale
        assert np.max(np.abs(pred.var - ov)) < 1e-8 * scale

    # Same oracle for the input-dependent-noise model: latent posterior from
    # the per-point noise r = exp(interp(t, knots, c)), plus r at the query.
    for _ in range(20):
        train, params, _ = random_instance(rng)
        knots = np.sort(rng.uniform(0.0, 1.0, int(rng.integers(1, 8))))
        log_r = rng.normal(-3.0, 0.5, knots.size)
        model = HeteroGPModel.fit(train, params, knots, log_r)
        r_vec = np.exp(np.interp(train.t, knots, log_r))
        ts = np.sort(rng.uniform(0.0, 1.0, 9))
        pred = model.predict(ts)
        om, ov = dense_posterior(train.t, train.y, params.length_scale,
                                 params.signal_std, r_vec,
                                 model.signal_gp.jitter, ts)
        r_ts = np.exp(np.interp(ts, knots, log_r))
        scale = max(params.signal_std ** 2, float(np.max(np.abs(om))), 1.0)
        assert np.max(np.abs(pred.mean - om)) < 1e-8 * scale
        assert np.max(np.abs(pred.var - (ov + r_ts))) < 1e-8 * scale
    assert time.perf_counter() - start < 5.0


def test_criterion_02_lml_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    h = 1e-5

    def lml_at(train, theta):
        l, sf, sn = np.exp(theta)
        model = fit_gp(train, KernelParams(float(l), float(sf)),
                       noise=float(sn) ** 2)
        return model.log_marginal_likelihood()

    for _ in range(50):
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


def test_criterion_03_noise_profile_recovers_midspan_bump():
    def build(sigma_fn, seed=0, n_unique=25, reps=6):
        rng = np.random.default_rng(seed)
        t = np.repeat(np.linspace(0.0, 1.0, n_unique), reps)
        y = np.sin(2 * np.pi * t) + rng.normal(0.0, sigma_fn(t))
        return TrainingSet(t, y)

    bump = lambda t: 0.01 + 0.29 * np.sin(np.pi * t) ** 2
    flat = lambda t: np.full_like(t, 0.05)
    probes = np.array([0.0, 0.5, 1.0])

    r = fit_heteroscedastic(build(bump)).noise_variance(probes)
    assert r[1] / max(r[0], r[2]) >= 5.0

    r = fit_heteroscedastic(build(flat)).noise_variance(probes)
    assert r[1] / max(r[0], r[2]) < 3.0


def make_two_phase_demo(apex, rotate_first, n=60, reach=1.5, twist=0.35):
    """Lift arc whose translation and rotation halves come in either order."""
    f = np.linspace(0.0, 1.0, n)
    first = np.clip(2 * f, 0.0, 1.0)
    second = np.clip(2 * f - 1.0, 0.0, 1.0)
    if rotate_first:
        rot, x = twist * first, reach * second
    else:
        x, rot = reach * first, twist * second
    z = apex * np.sin(np.pi * f) ** 2
    poses = tuple(Pose(np.array([xv, 0.0, zv]),
                       (0.0, 0.0, rv))
                  for xv, zv, rv in zip(x, z, rot))
    return Trajectory(f * 5.0, poses)


def test_criterion_04_completion_alignment_beats_euclidean_pairing():
    low = [make_two_phase_demo(a, True) for a in (0.20, 0.21, 0.19)]
    high = [make_two_phase_demo(a, False) for a in (0.30, 0.315)]
    demos = low + high

    def pooled_height_var(aligned):
        Z = np.stack([t.samples[:, 2] for t in aligned])
        return float(np.mean(np.var(Z, axis=0)))

    v_tci = pooled_height_var(align_demonstrations(demos, measure="tci"))
    v_euc = pooled_height_var(align_demonstrations(demos,
                                                   measure="euclidean-pose"))
    assert v_tci <= 0.7 * v_euc

    # The euclidean warp drags the high demos' mid-completion samples deep
    # into the reference's final third; completion matching does not.
    ref = low[0]
    zeta_ref = tci_profile(ref)
    for measure, check in (("euclidean-pose", lambda w: w >= 2.0 / 3.0),
                           ("tci", lambda w: w < 2.0 / 3.0)):
        worst = 0.0
        for b in high:
            warp = dtw_align(ref, b, measure=measure)
            zeta_b = tci_profile(b)
            worst = max(worst, max(zeta_ref[i] for i, j in warp.pairs
                                   if 0.4 <= zeta_b[j] <= 0.6))
        assert check(worst)


def test_criterion_05_warp_cost_is_optimal():
    rng = np.random.default_rng(17)

    def random_trajectory(n=5):
        stamps = np.cumsum(rng.uniform(0.1, 0.5, n))
        poses = tuple(Pose(rng.normal(size=3),
                           rng.normal(size=3) * 0.5)
                      for _ in range(n))
        return Trajectory(stamps, poses)

    weights = DistanceWeights()
    for k in range(200):
        a, b = random_trajectory(), random_trajectory()
        measure = "tci" if k % 2 == 0 else "euclidean-pose"
        warp = dtw_align(a, b, weights, measure=measure)
        assert warp.cost == brute_force_dtw_cost(
            cost_matrix(a, b, weights, measure))


def test_criterion_06_viapoint_adaptation(door_policy, door_holdout):
    report = streaming_evaluation(door_policy, door_holdout, 1e-4)
    improvement = 1.0 - report.adaptive_mse / report.static_mse
    assert improvement[0] >= 0.25
    assert improvement[2] >= 0.25

    base = query(door_policy, [0.5])[0]
    vec = base.mean.copy()
    vec[0] += 0.05
    vec[2] += 0.03
    target = Pose(vec[:3], vec[3:])

    hard = ViaPoint(0.5, target, np.full(6, 1e-6))
    out = adapt_with_viapoints(door_policy, [hard], [0.5])[0]
    assert np.max(np.abs(out.mean - target.as_vector())) < 1e-2

    weak = ViaPoint(0.5, target, 1e3 * np.maximum(base.var, 1e-8))
    out = adapt_with_viapoints(door_policy, [weak], [0.5])[0]
    assert np.all(np.abs(out.mean - base.mean) < 0.01 * np.sqrt(base.var)
                  + 1e-9)


def test_criterion_07_stability_bound_and_energy():
    params = ControllerParams()
    bound = check_stability(params, 0.0).sigma_rate_bound
    assert abs(bound - 0.013333333333333334) < 1e-9

    ramp = lambda t: 0.005 + 0.8 * bound * t
    trace = simulate(sigma=ramp, dt=1e-3, horizon=2.0,
                     initial_error=np.full(6, 0.05))
    report = check_stability(params, trace.max_sigma_rate())
    assert report.satisfied
    assert np.all(np.diff(trace.energy()) <= 1e-12)
    assert np.all(trace.stiffness >= 100.0 - 1e-9)
    assert np.all(trace.stiffness <= 500.0 + 1e-9)

    fast = lambda t: 0.005 + 5.0 * bound * t
    trace = simulate(sigma=fast, dt=1e-3, horizon=2.0,
                     initial_error=np.full(6, 0.05))
    assert not check_stability(params, trace.max_sigma_rate()).satisfied


def test_criterion_08_simulator_matches_closed_form():
    params = ControllerParams()
    sigma = params.uncertainty_offset
    kp = float(stiffness_profile(sigma, params))
    assert kp == 300.0
    omega = math.sqrt(kp / params.inertia)
    e0, v0 = 0.1, -0.2
    trace = simulate(sigma=sigma, dt=1e-3, horizon=2.0, integrator="rk4",
                     initial_error=np.full(6, e0), initial_rate=np.full(6, v0))
    exact = critically_damped_free(e0, v0, omega, trace.times)
    assert np.max(np.abs(trace.error[:, 0] - exact)) < 1e-3


def test_criterion_09_stiffness_relaxes_as_uncertainty_grows():
    def fan(slope, n=40):
        t = np.linspace(0.0, 1.0, n)
        poses = tuple(Pose(np.array([slope * v, 0.0, 0.0]),
                           (0, 0, 0)) for v in t)
        return Trajectory(t, poses)

    policy = learn_policy([fan(a) for a in (0.8, 0.9, 1.0, 1.1, 1.2)])
    trace = simulate(setpoint=policy, dt=1e-2, horizon=2.0)
    kp_x = trace.stiffness[:, 0]
    final = trace.times / trace.times[-1] >= 0.6
    assert np.all(np.diff(kp_x[final]) <= 1e-9)
    assert np.all(kp_x >= 100.0 - 1e-9)
    assert np.all(kp_x <= 500.0 + 1e-9)


def test_criterion_10_pipeline_is_bit_reproducible(tmp_path):
    start = time.perf_counter()
    first = tmp_path / "run"
    args = ["--out-dir", str(first)]
    assert main(["gen-data", *args]) == 0
    demos = sorted(str(p) for p in first.glob("demo_*.csv"))
    assert main(["align", *demos, *args]) == 0
    assert main(["fit", *demos, *args]) == 0

    policy = str(first / "policy.json")
    vias = [ViaPoint(0.5, Pose(np.array([0.6, 0.0, 0.3]),
                               (0, 0.6, 0)), 1e-4)]
    io.save_viapoints(first / "via.csv", vias)
    adapt_args = ["--policy", policy, "--via", str(first / "via.csv"), *args]
    assert main(["adapt", *adapt_args]) == 0
    assert main(["simulate", "--policy", policy, *args]) == 0
    assert main(["eval", "--policy", policy, "--truth", demos[0], *args]) == 0

    # Replay every stage from its manifest into a fresh directory and demand
    # byte-identical outputs.
    second = tmp_path / "replay"
    redo = ["--out-dir", str(second)]
    rerun_demos = sorted(str(second / p.name)
                         for p in first.glob("demo_*.csv"))
    replay_policy = str(second / "policy.json")
    stages = [
        ["gen-data", "--config", str(first / "gen-data.manifest.json"), *redo],
        ["align", *rerun_demos,
         "--config", str(first / "align.manifest.json"), *redo],
        ["fit", *rerun_demos,
         "--config", str(first / "fit.manifest.json"), *redo],
        ["adapt", "--policy", replay_policy, "--via", str(first / "via.csv"),
         "--config", str(first / "adapt.manifest.json"), *redo],
        ["simulate", "--policy", replay_policy,
         "--config", str(first / "simulate.manifest.json"), *redo],
        ["eval", "--policy", replay_policy, "--truth", rerun_demos[0],
         "--config", str(first / "eval.manifest.json"), *redo],
    ]
    for argv in stages:
        assert main(argv) == 0

    for path in sorted(first.glob("*.csv")) + [first / "policy.json"]:
        if path.name == "via.csv":
            continue
        assert (second / path.name).read_bytes() == path.read_bytes(), path.name
    assert time.perf_counter() - start < 60.0
