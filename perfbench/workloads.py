"""The benchmark workloads: set-up, one closed-loop iteration, output checks.

Each workload's ``setup`` builds its inputs from the seed, ``iterate`` runs
one iteration (the caller waits for each operation before starting the
next) and checks what it produced, and ``summary`` turns the iterations of
one run into the workload's own metrics. Library calls go through module
attributes (``policy.adapt_with_viapoints``, ``cli.main``) so that a traced
run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gplfd.cli as cli
import gplfd.io as gio
import gplfd.policy as policy
from gplfd.alignment import Trajectory, resample
from gplfd.config import config_from_dict, learn_config, via_strength
from gplfd.synthetic import generate_synthetic_door_set

# Tail percentiles of the online-adapt latencies: the highest that keeps at
# least ten samples beyond it at the benchmark's run length (four stream
# passes give 956 steps) and whose run-to-run spread is no wider than the
# median's (see README.md).
STREAM_TAIL = 98
REPLAN_TAIL = 95
# Held-out trajectories: a door radius between the training radii, drawn
# from a seed the training set never uses.
HOLDOUT_SEED_OFFSET = 7919
# door-cli's extra door sets use seed + k * CHAIN_SEED_STRIDE.
CHAIN_SEED_STRIDE = 104729
HOLDOUT_RADIUS = 0.85
# Via-point strengths (observation variances): a hard one must pin the
# adapted mean, soft ones use the CLI default.
HARD = 1e-9
SOFT = 1e-4
# A hard via-point must pin a dimension where its variance is PIN_RATIO
# times smaller than both the policy's posterior variance and the kernel's
# signal variance (the via-point GP shares the policy's kernel, so a tiny
# signal variance keeps it from following any single via-point). The
# adapted mean must then close all but PIN_TOL of the gap, give or take the
# via-point's own standard deviation.
PIN_RATIO = 1e4
PIN_TOL = 1e-3


@dataclass(frozen=True)
class Sizes:
    door_config: dict = field(default_factory=dict)
    grid: int = 100
    holdout_samples: int = 60
    long_samples: int = 1000
    long_grid: int = 50
    stream_samples: int = 240
    replan_calls: int = 1000
    setup_reps: int = 3


FULL = Sizes()
TINY = Sizes(door_config={"data": {"n_samples": 20},
                          "policy": {"grid_size": 20, "opt_starts": 2},
                          "simulation": {"horizon": 0.2}},
             grid=20, holdout_samples=20, long_samples=60, long_grid=20,
             stream_samples=20, replan_calls=30, setup_reps=1)


@dataclass
class Iteration:
    """What one iteration did: timings, output digests and checks."""

    ops: dict = field(default_factory=dict)  # (group, index) -> seconds
    hashes: dict = field(default_factory=dict)
    failed_ops: set = field(default_factory=set)
    attempted: int = 0
    checks: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)

    @property
    def work_s(self) -> float:
        return sum(self.ops.values())

    def group(self, name: str) -> list:
        return [t for (g, _), t in self.ops.items() if g == name]

    def check(self, op, name: str, ok: bool) -> None:
        ok = bool(ok)
        self.checks[name] = self.checks.get(name, True) and ok
        if not ok:
            self.failed_ops.add(op)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _holdout(seed: int, n_samples: int) -> Trajectory:
    return generate_synthetic_door_set(seed=seed + HOLDOUT_SEED_OFFSET,
                                       radii=(HOLDOUT_RADIUS,), repeats=1,
                                       n_samples=n_samples)[0]


def _normalized(traj: Trajectory) -> Trajectory:
    s = traj.stamps
    return Trajectory((s - s[0]) / (s[-1] - s[0]), traj.poses)


def _sane(mean, var) -> bool:
    return bool(np.all(np.isfinite(mean)) and np.all(np.isfinite(var))
                and np.all(var >= 0.0))


def _pinned(fused, static_mean, static_var, signal_var, target) -> bool:
    """A hard via-point closes the gap wherever it is much the stronger."""
    strong = (static_var > PIN_RATIO * HARD) & (signal_var > PIN_RATIO * HARD)
    tol = PIN_TOL * np.abs(static_mean - target) + HARD ** 0.5
    return bool(np.all((np.abs(fused - target) <= tol)[strong]))


def _stability_verdict(trace_csv, ctrl):
    """(max |dsigma/dt|, bound, satisfied) recomputed from a saved trace.

    The bound is the closed form (16 d / a) sqrt(k_min^3) /
    ((k_max - k_min)(1 + 4 d^2) sqrt(m)), written out here independently of
    ``gplfd.admittance``; values are rounded as ``simulate`` prints them.
    """
    table = _table(trace_csv)
    sigma = np.stack([table[f"sigma_{n}"] for n in policy.DIM_NAMES], axis=1)
    rate = float(np.max(np.abs(np.gradient(sigma, table["t"], axis=0))))
    d, span = ctrl.damping_ratio, ctrl.stiffness_max - ctrl.stiffness_min
    bound = (16.0 * d / ctrl.steepness * ctrl.stiffness_min ** 1.5
             / (span * (1.0 + 4.0 * d * d) * ctrl.inertia ** 0.5))
    return float(f"{rate:.6g}"), float(f"{bound:.6g}"), rate < bound


def _printed_verdict(stdout: str):
    """The same triple as printed by ``gplfd simulate``."""
    line = next(l for l in stdout.splitlines() if l.startswith("stability:"))
    rate = float(line.split("max |dsigma/dt| = ")[1].split(",")[0])
    bound = float(line.split("bound = ")[1].split()[0])
    return rate, bound, line.endswith("(ok)")


def _table(path):
    _, header, data = gio.read_table(path)
    return {name: data[:, i] for i, name in enumerate(header)}


def _mean_var(table):
    mean = np.stack([table[f"mean_{n}"] for n in policy.DIM_NAMES], axis=1)
    var = np.stack([table[f"var_{n}"] for n in policy.DIM_NAMES], axis=1)
    return mean, var


def _lml(pol) -> float:
    return float(sum(d.signal_gp.log_marginal_likelihood() for d in pol.dims))


# ---------------------------------------------------------------------------
# door-cli: the user's path through the command line
# ---------------------------------------------------------------------------

class DoorCli:
    """gen-data, align, fit, query, adapt, simulate, eval on door sets.

    One iteration runs the chain once on each of ``chains`` door sets: the
    seed's own and ones drawn from seed + k * CHAIN_SEED_STRIDE. The search
    cost differs from one door set to the next by up to half (see
    README.md), so several sets per iteration keep a run's figure from
    hanging on one draw.
    """

    name = "door-cli"
    n_demos = 6
    chains = 3
    STAGES = ("gen-data", "align", "fit", "query", "adapt", "simulate", "eval")

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed: int, work: Path) -> dict:
        work.mkdir(parents=True)
        holdout = _holdout(seed, self.sizes.holdout_samples)
        gio.save_demonstration(work / "holdout.csv", holdout)
        grid = np.linspace(0.0, 1.0, self.sizes.grid)
        on_grid = resample(_normalized(holdout), grid)
        last = grid.size - 1
        picks = [round(0.2 * last), round(0.5 * last), round(0.8 * last)]
        hard = picks[1]
        vias = [policy.ViaPoint(grid[k], on_grid.poses[k],
                                HARD if k == hard else SOFT) for k in picks]
        gio.save_viapoints(work / "vias.csv", vias)

        chains = []
        for k in range(self.chains):
            payload = {"seed": seed + k * CHAIN_SEED_STRIDE,
                       **self.sizes.door_config}
            config = work / f"config{k}.json"
            config.write_text(json.dumps(payload))
            chains.append({"config": str(config), "out": work / f"out{k}",
                           "controller": config_from_dict(payload).controller})
        return {"chains": chains, "holdout": str(work / "holdout.csv"),
                "vias": str(work / "vias.csv"), "hard_index": hard,
                "hard_pose": on_grid.poses[hard].as_vector()}

    def _argv(self, stage, chain, state):
        out = chain["out"]
        demos = [str(out / f"demo_{i:02d}.csv")
                 for i in range(1, self.n_demos + 1)]
        pol = str(out / "policy.json")
        grid = ["--grid", str(self.sizes.grid)]
        return [stage] + {
            "gen-data": [],
            "align": demos,
            "fit": demos,
            "query": ["--policy", pol, *grid],
            "adapt": ["--policy", pol, "--via", state["vias"], *grid],
            "simulate": ["--policy", pol],
            "eval": ["--policy", pol, "--truth", state["holdout"]],
        }[stage] + ["--config", chain["config"], "--out-dir", str(out)]

    def iterate(self, state: dict, tracer=None) -> Iteration:
        it = Iteration()
        for k, chain in enumerate(state["chains"]):
            self._chain(k, chain, state, tracer, it)
        return it

    def _chain(self, k, chain, state, tracer, it) -> None:
        stdout = {}
        for stage in self.STAGES:
            buf = stdio.StringIO()
            t0 = time.perf_counter()
            with _span(tracer, f"cli.{stage}"), \
                    contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(buf):
                code = cli.main(self._argv(stage, chain, state))
            it.ops[(stage, k)] = time.perf_counter() - t0
            stdout[stage] = buf.getvalue()
            it.attempted += 1
            it.check((stage, k), f"{stage}.exit_0", code == 0)
        out = chain["out"]
        for path in sorted(out.iterdir()):
            if not path.name.endswith(".manifest.json"):
                it.hashes[f"{k}/{path.name}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
        if it.failed_ops:
            return

        verdict = _stability_verdict(out / "trace.csv", chain["controller"])
        it.check(("simulate", k), "simulate.verdict_consistent",
                 verdict == _printed_verdict(stdout["simulate"]))
        static_mean, static_var = _mean_var(_table(out / "query.csv"))
        it.check(("query", k), "query.finite", _sane(static_mean, static_var))
        mean, var = _mean_var(_table(out / "adapted.csv"))
        it.check(("adapt", k), "adapt.finite", _sane(mean, var))
        h = state["hard_index"]
        dims = json.loads((out / "policy.json").read_text())["dims"]
        signal_var = np.array([d["signal"]["signal_std"] ** 2 for d in dims])
        it.check(("adapt", k), "adapt.hard_pin",
                 _pinned(mean[h], static_mean[h], static_var[h], signal_var,
                         state["hard_pose"]))
        static_mse, adaptive_mse = _table(out / "eval.csv")["mse_mean"]
        it.check(("eval", k), "eval.adaptive_le_static",
                 adaptive_mse <= static_mse)
        if k == 0:
            it.values.update(holdout_mse=float(static_mse),
                             adapt_gain=float(1.0 - adaptive_mse / static_mse),
                             policy_bytes=(out / "policy.json").stat().st_size,
                             stability_satisfied=verdict[2])

    def quality(self, state: dict) -> dict:
        path = state["chains"][0]["out"] / "policy.json"
        return {"policy_lml": _lml(gio.load_policy(path))}

    def summary(self, iters) -> dict:
        """Per-chain figures: a stage's time is its mean over the chains."""
        per_chain = [it.work_s / self.chains for it in iters]
        stage = {s: statistics.median(sum(it.group(s)) / self.chains
                                      for it in iters)
                 for s in self.STAGES}
        first = iters[0].values
        return {"pipeline_s": (statistics.median(per_chain), "s"),
                "fit_s": (stage["fit"], "s"),
                "query_s": (stage["query"], "s"),
                "simulate_s": (stage["simulate"], "s"),
                "eval_s": (stage["eval"], "s"),
                "policy_bytes": (first.get("policy_bytes"), "B"),
                "holdout_mse": (first.get("holdout_mse"), "1"),
                "adapt_gain": (first.get("adapt_gain"), "1"),
                "stability_satisfied": (first.get("stability_satisfied"),
                                        "bool"),
                **{f"stage.{s}_s": (v, "s") for s, v in stage.items()}}


# ---------------------------------------------------------------------------
# long-demos: fitting long demonstrations, where alignment dominates
# ---------------------------------------------------------------------------

class LongDemos:
    """CLI ``fit`` on six long demonstration files with a coarse grid."""

    name = "long-demos"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed: int, work: Path) -> dict:
        work.mkdir(parents=True)
        config = work / "config.json"
        config.write_text(json.dumps({"seed": seed}))
        demos = generate_synthetic_door_set(seed=seed,
                                            n_samples=self.sizes.long_samples)
        paths = []
        for i, demo in enumerate(demos, start=1):
            path = work / f"long_{i:02d}.csv"
            gio.save_demonstration(path, demo)
            paths.append(str(path))
        return {"config": str(config), "demos": paths, "out": work / "out"}

    def iterate(self, state: dict, tracer=None) -> Iteration:
        it = Iteration()
        out = state["out"]
        argv = ["fit", *state["demos"], "--config", state["config"],
                "--set", f"policy.grid_size={self.sizes.long_grid}",
                "--out-dir", str(out)]
        buf = stdio.StringIO()
        t0 = time.perf_counter()
        with _span(tracer, "cli.fit"), contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(buf):
            code = cli.main(argv)
        it.ops[("fit", 0)] = time.perf_counter() - t0
        it.attempted = 1
        it.check(("fit", 0), "fit.exit_0", code == 0)
        if code != 0:
            return it
        path = out / "policy.json"
        it.hashes["policy.json"] = hashlib.sha256(path.read_bytes()).hexdigest()
        pol = gio.load_policy(path)
        ts = np.linspace(0.0, 1.0, self.sizes.grid)
        dists = policy.query(pol, ts)
        it.check(("fit", 0), "fit.posterior_finite",
                 _sane(np.stack([d.mean for d in dists]),
                       np.stack([d.var for d in dists])))
        return it

    def quality(self, state: dict) -> dict:
        return {"policy_lml": _lml(gio.load_policy(state["out"] / "policy.json"))}

    def summary(self, iters) -> dict:
        return {"fit_s": (statistics.median(it.work_s for it in iters), "s")}


# ---------------------------------------------------------------------------
# online-adapt: via-point adaptation on a fitted policy, library level
# ---------------------------------------------------------------------------

class OnlineAdapt:
    """Streaming adaptation (cache misses) and replanning (cache hits)."""

    name = "online-adapt"
    n_via_sets = 50

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed: int, work: Path) -> dict:
        config = config_from_dict({"seed": seed, **self.sizes.door_config})
        d = config.data
        demos = generate_synthetic_door_set(seed=seed, radii=d.radii,
                                            repeats=d.repeats, noise=d.noise,
                                            n_samples=d.n_samples,
                                            max_angle=d.max_angle)
        fitted = policy.learn_policy(demos, learn_config(config))

        truth = _normalized(_holdout(seed, self.sizes.stream_samples))
        ts = truth.stamps
        strength = via_strength(config)
        stream_vias = [policy.ViaPoint(ts[j], truth.poses[j], strength)
                       for j in range(ts.size)]
        target = Trajectory(ts[1:], truth.poses[1:])
        fresh = policy.TaskPolicy(dims=fitted.dims, grid=fitted.grid)
        static_mse = policy.prediction_error(policy.query(fresh, ts[1:]), target)

        grid = np.linspace(0.0, 1.0, self.sizes.grid)
        on_grid = resample(truth, grid)
        static = policy.query(fresh, grid)
        rng = np.random.default_rng(seed + HOLDOUT_SEED_OFFSET)
        via_sets = []
        for m in range(self.n_via_sets):
            picks = np.sort(rng.choice(grid.size, 1 + m % 10, replace=False))
            hard = int(picks[0])
            vias = [policy.ViaPoint(grid[k], on_grid.poses[k],
                                    HARD if k == hard else SOFT)
                    for k in picks]
            via_sets.append((vias, hard, on_grid.poses[hard].as_vector()))
        return {"policy": fitted, "ts": ts, "stream_vias": stream_vias,
                "target": target, "static_mse": static_mse, "grid": grid,
                "static_mean": np.stack([s.mean for s in static]),
                "static_var": np.stack([s.var for s in static]),
                "signal_var": np.array([d.params.signal_std ** 2
                                        for d in fitted.dims]),
                "via_sets": via_sets}

    def iterate(self, state: dict, tracer=None) -> Iteration:
        it = Iteration()
        fitted, ts, vias = state["policy"], state["ts"], state["stream_vias"]

        # (a) stream: a fresh policy object, so every step misses the cache.
        pol = policy.TaskPolicy(dims=fitted.dims, grid=fitted.grid)
        preds = []
        with _span(tracer, "stream"):
            for i in range(1, ts.size):
                t0 = time.perf_counter()
                out = policy.adapt_with_viapoints(pol, vias[:i], ts[i])
                it.ops[("stream_step", i)] = time.perf_counter() - t0
                preds.append(out[0])
        mean = np.stack([p.mean for p in preds])
        var = np.stack([p.var for p in preds])
        for i in range(len(preds)):
            it.check(("stream_step", i + 1), "stream.finite",
                     _sane(mean[i], var[i]))
        adaptive_mse = policy.prediction_error(preds, state["target"])
        static_mse = state["static_mse"]
        it.check(("stream_step", 1), "stream.adaptive_le_static",
                 np.mean(adaptive_mse) <= np.mean(static_mse))
        it.hashes["stream"] = _digest(mean, var)
        it.values["adapt_gain"] = float(1.0 - np.mean(adaptive_mse)
                                        / np.mean(static_mse))

        # (b) replan: one policy object and one grid, so all calls after the
        # first hit the cache.
        pol = policy.TaskPolicy(dims=fitted.dims, grid=fitted.grid)
        grid, sets = state["grid"], state["via_sets"]
        outs = []
        with _span(tracer, "replan"):
            for j in range(self.sizes.replan_calls):
                via = sets[j % len(sets)][0]
                t0 = time.perf_counter()
                out = policy.adapt_with_viapoints(pol, via, grid)
                it.ops[("replan", j)] = time.perf_counter() - t0
                outs.append(out)
        arrays = []
        for j, out in enumerate(outs):
            _, hard, target = sets[j % len(sets)]
            mean = np.stack([p.mean for p in out])
            var = np.stack([p.var for p in out])
            arrays += [mean, var]
            it.check(("replan", j), "replan.finite", _sane(mean, var))
            it.check(("replan", j), "replan.hard_pin",
                     _pinned(mean[hard], state["static_mean"][hard],
                             state["static_var"][hard], state["signal_var"],
                             target))
        it.hashes["replan"] = _digest(*arrays)

        it.attempted = len(it.ops)
        return it

    def quality(self, state: dict) -> dict:
        return {"policy_lml": _lml(state["policy"])}

    def summary(self, iters) -> dict:
        out = {}
        for key, tail_q in (("stream_step", STREAM_TAIL), ("replan", REPLAN_TAIL)):
            samples = [s for it in iters for s in it.group(key)]
            for q in (50, 90, 95, 98, 99):
                out[f"{key}_ms_p{q}"] = (1e3 * float(np.percentile(samples, q)),
                                         "ms")
            # The tail needs at least ten samples beyond its percentile.
            enough = len(samples) * (1.0 - tail_q / 100.0) >= 10.0
            out[f"{key}_ms_tail"] = (out[f"{key}_ms_p{tail_q}"][0]
                                     if enough else None, "ms")
            out[f"{key}_tail_percentile"] = (tail_q, "%")
            out[f"{key}_samples"] = (len(samples), "count")
        out["adapt_gain"] = (iters[-1].values.get("adapt_gain"), "1")
        return out


WORKLOADS = {cls.name: cls for cls in (DoorCli, LongDemos, OnlineAdapt)}
