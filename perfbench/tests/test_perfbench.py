"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest perfbench/tests -q

The smoke runs use ``--tiny`` inputs and ``--seconds 0`` so that each run
does the minimum number of iterations.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import Span, Tracer, self_time, union_length  # noqa: E402

WORKLOADS = ("door-cli", "long-demos", "online-adapt")
# The per-workload end-to-end metrics every record must carry.
RECORD_METRICS = {
    "door-cli": ("setup_s", "pipeline_s", "fit_s", "query_s", "simulate_s",
                 "eval_s", "peak_rss_mb", "policy_bytes", "policy_lml",
                 "holdout_mse", "adapt_gain", "fail_ratio"),
    "long-demos": ("setup_s", "fit_s", "peak_rss_mb", "policy_lml",
                   "fail_ratio"),
    "online-adapt": ("setup_s", "stream_step_ms_p50", "stream_step_ms_tail",
                     "replan_ms_p50", "replan_ms_tail", "peak_rss_mb",
                     "adapt_gain", "fail_ratio"),
}
EXACT = ("lbfgs.nfev", "cholesky.calls", "dtw_cells", "posterior_cache.hits",
         "posterior_cache.misses", "pose.count")


def run_bench(workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--tiny"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------

def test_union_of_overlapping_intervals():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0
    assert union_length([(2.0, 3.0), (0.0, 1.0), (1.0, 2.0)]) == 3.0


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [Span("parent", 0.0, None, 10.0, [1, 2, 3]),
             Span("a", 1.0, 0, 4.0), Span("b", 3.0, 0, 6.0),
             Span("c", 8.0, 0, 9.0)]
    # Children cover [1, 6] and [8, 9]: 6 of the parent's 10.
    assert self_time(spans[0], spans) == pytest.approx(4.0)
    assert self_time(spans[1], spans) == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent():
    spans = [Span("parent", 0.0, None, 5.0, [1]), Span("late", 4.0, 0, 7.0)]
    assert self_time(spans[0], spans) == pytest.approx(4.0)


def test_tracer_records_nesting():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        tracer.add("n", 2)
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.children == [1]
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert tracer.counts == {"n": 2}
    assert 0.0 <= self_time(outer, tracer.spans) <= outer.duration


def test_install_restores_every_wrapped_attribute():
    sys.path.insert(0, str(ROOT / "src"))
    import gplfd.gp as gp
    import gplfd.policy as policy

    before = (gp.minimize, gp.GPModel.__dict__["predict"], policy.fit_gp)
    with Tracer().install():
        assert gp.minimize is not before[0]
    assert (gp.minimize, gp.GPModel.__dict__["predict"],
            policy.fit_gp) == before


# ---------------------------------------------------------------------------
# Smoke runs and transparency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric(workload):
    detail, result = run_bench(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in RECORD_METRICS[workload]:
        value, unit = detail["metrics"][name]
        # Tiny runs have too few samples for a tail percentile.
        assert unit and (value is not None or name.endswith("_tail")), name
    assert detail["metrics"]["fail_ratio"][0] == 0.0
    assert all(detail["checks"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_transparent_and_repeatable(workload):
    untraced, _ = run_bench(workload, trace=0)
    first, result = run_bench(workload, trace=1)
    second, again = run_bench(workload, trace=1)
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("per_layer")
    assert result["correct"], first["checks"]
    # Byte-identical outputs with and without tracing.
    assert first["outputs"] == untraced["outputs"] == second["outputs"]
    assert first["checks"]["outputs_repeat"]
    for name in EXACT:
        assert result["metrics"][name] == again["metrics"][name], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "door-cli",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no gplfd sources" in proc.stderr
