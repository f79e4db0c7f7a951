#!/usr/bin/env python3
"""Run one gplfd benchmark workload and print its metrics.

    python3 perfbench/run.py --workload door-cli --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics from spans and counters. The line before
it holds every metric the run produced, the checks and the environment; the
same record (plus the spans of a traced run) is written under
``.perfbench_out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Per-layer metrics of a traced run: (name, unit). Every workload reports
# every one; a layer the workload does not exercise reads 0.
LAYER_COUNTS = (
    "dtw_align.calls", "dtw_cells", "tci_profile.calls", "pose.count",
    "optimize_hyperparameters.calls", "lbfgs.runs", "lbfgs.nfev", "lbfgs.nit",
    "lbfgs.failed", "cholesky.calls", "cholesky.rows", "cholesky.retries",
    "fit_gp.calls", "fit_gp.points", "predict.calls", "predict.cells",
    "posterior_cache.hits", "posterior_cache.misses", "admittance.steps",
    "load_policy.calls")
LAYERS = ("alignment", "gp_search", "gp_cholesky", "gp_fit", "gp_predict",
          "policy", "admittance", "io", "synthetic", "cli", "other")
SPAN_LAYER = {
    "align_demonstrations": "alignment", "dtw_align": "alignment",
    "tci_profile": "alignment", "resample": "alignment",
    "optimize_hyperparameters": "gp_search", "lbfgs": "gp_search",
    "cholesky": "gp_cholesky", "fit_gp": "gp_fit", "predict": "gp_predict",
    "learn_policy": "policy", "adapt_with_viapoints": "policy",
    "query": "policy", "streaming_evaluation": "policy",
    "demonstration_posterior": "policy",
    "simulate": "admittance", "check_stability": "admittance",
    "generate_data": "synthetic",
}
PER_LAYER = (
    [(name, "count") for name in LAYER_COUNTS]
    + [("cholesky.flops", "flop"), ("demo_bytes", "B"), ("policy_bytes", "B"),
       ("lbfgs.distinct_ratio", "ratio"),
       ("fit_gp.s", "s"), ("cholesky.s", "s"), ("predict.s", "s"),
       ("iteration.s", "s"), ("trace_overhead", "%")]
    + [(f"share.{layer}", "%") for layer in LAYERS])
END_TO_END = (("setup_s", "s"), ("iter_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("door-cli", "long-demos", "online-adapt"))
    seeds = json.loads((HERE / "seeds.json").read_text())
    parser.add_argument("--seed", type=int, default=seeds["default"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (smoke tests)")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "commit": git_commit()}


# ---------------------------------------------------------------------------
# Trace analysis
# ---------------------------------------------------------------------------

def layer_metrics(tracer):
    """(gated per-layer metrics, detail) of one traced iteration."""
    from tracing import self_time

    spans, counts = tracer.spans, tracer.counts
    out = {name: counts.get(name, 0) for name in LAYER_COUNTS}
    for name in ("cholesky.flops", "demo_bytes", "policy_bytes"):
        out[name] = counts.get(name, 0)
    hits = misses = 0
    for span in spans:
        if span.name == "demonstration_posterior":
            if any(spans[c].name == "predict" for c in span.children):
                misses += 1
            else:
                hits += 1
    out["posterior_cache.hits"], out["posterior_cache.misses"] = hits, misses
    out["optimize_hyperparameters.calls"] = sum(
        s.name == "optimize_hyperparameters" for s in spans)
    runs = counts.get("lbfgs.runs", 0)
    out["lbfgs.distinct_ratio"] = counts.get("lbfgs.distinct", 0) / runs \
        if runs else 0.0

    inclusive, own = {}, {}
    for span in spans:
        inclusive[span.name] = inclusive.get(span.name, 0.0) + span.duration
        own[span.name] = own.get(span.name, 0.0) + self_time(span, spans)
    root = spans[0]
    layer = dict.fromkeys(LAYERS, 0.0)
    for name, value in own.items():
        if name.startswith("cli."):
            layer["cli"] += value
        elif name in SPAN_LAYER:
            layer[SPAN_LAYER[name]] += value
        elif name.startswith(("load_", "save_", "write_")):
            layer["io"] += value
        else:
            layer["other"] += value
    for key, value in layer.items():
        out[f"share.{key}"] = 100.0 * value / root.duration
    for name in ("fit_gp", "cholesky", "predict"):
        out[f"{name}.s"] = inclusive.get(name, 0.0)
    out["iteration.s"] = root.duration

    # Detail: self and inclusive time of every span name, and the shares of
    # the fit stage, each with its base.
    detail = {f"{name}.s": v for name, v in inclusive.items()}
    detail.update({f"{name}.self_s": v for name, v in own.items()})
    nfev = counts.get("lbfgs.nfev", 0)
    detail["eval_ms"] = (1e3 * inclusive.get("optimize_hyperparameters", 0.0)
                         / nfev) if nfev else None
    steps = counts.get("admittance.steps", 0)
    detail["step_us"] = (1e6 * own.get("simulate", 0.0) / steps) if steps else None
    refit = 0.0
    for span in spans:
        if span.name == "load_policy":
            refit += sum(spans[c].duration for c in span.children
                         if spans[c].name == "fit_gp")
    detail["load_policy.refit_s"] = refit
    fit = sum(s.duration for s in spans if s.name == "cli.fit")
    if fit:
        detail["fit.base_s"] = fit
        for key, name in (("search", "optimize_hyperparameters"),
                          ("alignment", "align_demonstrations")):
            detail[f"fit.{key}_share"] = sum(
                s.duration for s in spans
                if s.name == name and _under(s, "cli.fit", spans)) / fit
    return out, detail


def _under(span, name, spans) -> bool:
    """Whether some ancestor of ``span`` is called ``name``."""
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------

def run(args, workloads):
    from tracing import Tracer

    sizes = workloads.TINY if args.tiny else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](sizes)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = []
        for rep in range(sizes.setup_reps):
            t0 = time.perf_counter()
            state = workload.setup(args.seed, work / f"setup{rep}")
            setups.append(time.perf_counter() - t0)

        # A traced run keeps its first iteration untraced: it is the baseline
        # for the tracing overhead and for byte-identical outputs.
        min_iters = 3 if args.trace else 2
        iters, tracers = [], []
        deadline = time.perf_counter() + args.seconds
        while len(iters) < min_iters or time.perf_counter() < deadline:
            if args.trace and iters:
                tracer = Tracer()
                with tracer.install(), tracer.span("iteration"):
                    it = workload.iterate(state, tracer)
                tracers.append(tracer)
            else:
                it = workload.iterate(state)
            iters.append(it)
        quality = workload.quality(state)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return setups, iters, tracers, quality, workload


def summarize(args, env, import_s, setups, iters, tracers, quality, workload):
    layers, details = zip(*map(layer_metrics, tracers)) if tracers else ((), ())
    first = iters[0]
    checks = {}
    for it in iters:
        for name, ok in it.checks.items():
            checks[name] = checks.get(name, True) and ok
    attempted = sum(it.attempted for it in iters)
    failed = sum(len(it.failed_ops) for it in iters)
    same = all(it.hashes == first.hashes for it in iters[1:])
    checks["outputs_repeat"] = same
    if not same:
        failed += 1
    if layers:
        exact = ("lbfgs.nfev", "cholesky.calls", "dtw_cells",
                 "posterior_cache.hits", "posterior_cache.misses", "pose.count")
        repeat = all(m[k] == layers[0][k] for m in layers[1:] for k in exact)
        checks["traced_counts_repeat"] = repeat
        if not repeat:
            failed += 1
    correct = failed == 0 and all(checks.values())

    setup_s = import_s + statistics.median(setups)
    work = [it.work_s for it in iters]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "iterations": len(iters),
        "environment": env, "checks": checks, "outputs": first.hashes,
        "metrics": {
            "setup_s": (setup_s, "s"), "import_s": (import_s, "s"),
            "iter_s": (statistics.median(work), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "policy_lml": (quality["policy_lml"], "nat"),
            "fail_ratio": (failed / attempted, "1"),
            **workload.summary(iters)},
    }
    if layers:
        per_layer = {}
        for name, unit in PER_LAYER:
            if name == "trace_overhead":
                traced = statistics.median(it.work_s for it in iters[1:])
                value = 100.0 * (traced - first.work_s) / first.work_s
            elif unit in ("s", "%"):
                value = statistics.median(m[name] for m in layers)
            else:
                value = layers[0][name]
            per_layer[name] = {"value": value, "unit": unit}
        keys = sorted({k for d in details for k in d})
        detail["layers"] = {k: statistics.median(
            d[k] for d in details if d.get(k) is not None)
            for k in keys if any(d.get(k) is not None for d in details)}
        groups = sorted({g for g, _ in first.ops})
        detail["overhead_s"] = {
            "iter_s": statistics.median(it.work_s for it in iters[1:])
            - first.work_s,
            **{f"{g}_s": statistics.median(sum(it.group(g)) for it in iters[1:])
               - sum(first.group(g)) for g in groups}}
        metrics = per_layer
    else:
        metrics = {name: {"value": detail["metrics"][name][0], "unit": unit}
                   for name, unit in END_TO_END}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "gplfd" / "__init__.py").is_file():
        print(f"error: no gplfd sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]

    t0 = time.perf_counter()
    import workloads  # numpy, scipy and gplfd load here
    import_s = time.perf_counter() - t0
    import gplfd
    if Path(gplfd.__file__).resolve().parent != src / "gplfd":
        print(f"error: gplfd imported from {gplfd.__file__}, not {src}",
              file=sys.stderr)
        return 2

    env = environment()
    outcome = run(args, workloads)
    detail, result = summarize(args, env, import_s, *outcome)
    if args.trace:
        detail["per_layer"] = result["metrics"]
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    if args.trace:
        spans = [[[s.name, s.start, s.end, s.parent] for s in tracer.spans]
                 for tracer in outcome[2]]
        (OUT / name.replace(".json", "-spans.json")).write_text(json.dumps(spans))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
