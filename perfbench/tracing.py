"""In-memory spans and counters at the gplfd layer boundaries.

The tracer is installed from outside the package: ``Tracer.install()``
replaces module attributes that the layers call through (for example
``gplfd.gp.minimize`` or the ``fit_gp`` name imported into ``gplfd.policy``)
with thin wrappers that open a span, call the original and record counts.
Every original is restored on exit, and no wrapper alters an argument or a
result, so traced and untraced runs write byte-identical outputs.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float | None = None
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span, spans) -> float:
    """Span duration minus the union of its children's intervals.

    Children are clipped to the parent's interval first, so a child that
    outlives its parent cannot drive the self time below zero.
    """
    clipped = [(max(spans[c].start, span.start), min(spans[c].end, span.end))
               for c in span.children]
    covered = union_length([(lo, hi) for lo, hi in clipped if hi > lo])
    return span.duration - covered


class Tracer:
    """Spans (name, start, end, parent) plus named counters, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._optima = None  # distinct L-BFGS optima of the current search

    # -- recording --------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent))
        if parent is not None:
            self.spans[parent].children.append(idx)
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _minimize(self, fn):
        def wrapper(*args, **kwargs):
            with self.span("lbfgs"):
                res = fn(*args, **kwargs)
            self.add("lbfgs.runs")
            self.add("lbfgs.nfev", int(res.nfev))
            self.add("lbfgs.nit", int(res.nit))
            if not res.success:
                self.add("lbfgs.failed")
            if self._optima is not None:
                self._optima.add(tuple(np.round(res.x, 4).tolist()))
            return res

        return wrapper

    def _search(self, fn):
        def wrapper(*args, **kwargs):
            outer, self._optima = self._optima, set()
            try:
                with self.span("optimize_hyperparameters"):
                    return fn(*args, **kwargs)
            finally:
                self.add("lbfgs.distinct", len(self._optima))
                self._optima = outer

        return wrapper

    def _cho_factor(self, fn):
        def wrapper(a, *args, **kwargs):
            n = int(np.shape(a)[0])
            self.add("cholesky.calls")
            self.add("cholesky.rows", n)
            self.add("cholesky.flops", n ** 3 / 3.0)
            try:
                with self.span("cholesky"):
                    return fn(a, *args, **kwargs)
            except np.linalg.LinAlgError:
                self.add("cholesky.retries")
                raise

        return wrapper

    def _plan(self):
        """(module, attribute, wrapper factory) for every traced boundary."""
        import gplfd.alignment as alignment
        import gplfd.cli as cli
        import gplfd.gp as gp
        import gplfd.io as io
        import gplfd.policy as policy
        from gplfd.se3 import Pose

        def simple(name, after=None):
            return lambda fn: self._wrap(name, fn, after)

        def dtw_after(args, kwargs, out):
            self.add("dtw_align.calls")
            self.add("dtw_cells", len(args[0]) * len(args[1]))

        def predict_after(args, kwargs, out):
            model = args[0]
            self.add("predict.calls")
            self.add("predict.cells",
                     int(np.size(args[1])) * len(model.train))

        def fit_after(args, kwargs, out):
            self.add("fit_gp.calls")
            self.add("fit_gp.points", len(out.train))

        def pose_init(fn):
            def wrapper(obj):
                self.add("pose.count")
                return fn(obj)
            wrapper.__wrapped__ = fn
            return wrapper

        fit_gp = simple("fit_gp", after=fit_after)
        return [
            (gp, "minimize", self._minimize),
            (gp, "cho_factor", self._cho_factor),
            (gp, "optimize_hyperparameters", self._search),
            (gp.GPModel, "predict", simple("predict", after=predict_after)),
            (gp, "fit_gp", fit_gp), (policy, "fit_gp", fit_gp),
            (io, "fit_gp", fit_gp),
            (alignment, "dtw_align", simple("dtw_align", after=dtw_after)),
            (alignment, "tci_profile", simple(
                "tci_profile",
                after=lambda a, k, o: self.add("tci_profile.calls"))),
            (policy, "resample", simple("resample")),
            (policy, "align_demonstrations", simple("align_demonstrations")),
            (cli, "align_demonstrations", simple("align_demonstrations")),
            (cli, "learn_policy", simple("learn_policy")),
            (policy, "adapt_with_viapoints", simple("adapt_with_viapoints")),
            (cli, "adapt_with_viapoints", simple("adapt_with_viapoints")),
            (policy, "query", simple("query")),
            (cli, "query", simple("query")),
            (cli, "streaming_evaluation", simple("streaming_evaluation")),
            (policy.TaskPolicy, "demonstration_posterior",
             simple("demonstration_posterior")),
            (cli, "simulate", simple(
                "simulate",
                after=lambda a, k, o: self.add("admittance.steps",
                                               o.times.size - 1))),
            (cli, "check_stability", simple("check_stability")),
            (cli, "generate_synthetic_door_set", simple("generate_data")),
            (io, "load_demonstrations", simple("load_demonstrations")),
            (io, "load_demonstration", simple(
                "load_demonstration",
                after=lambda a, k, o: self.add("demo_bytes",
                                               os.path.getsize(a[0])))),
            (io, "save_demonstration", simple("save_demonstration")),
            (io, "load_viapoints", simple("load_viapoints")),
            (io, "save_policy", simple(
                "save_policy",
                after=lambda a, k, o: self.add("policy_bytes",
                                               os.path.getsize(a[0])))),
            (io, "load_policy", simple(
                "load_policy",
                after=lambda a, k, o: self.add("load_policy.calls"))),
            (io, "save_trace", simple("save_trace")),
            (io, "write_table", simple("write_table")),
            (io, "write_manifest", simple("write_manifest")),
            (Pose, "__post_init__", pose_init),
        ]

    @contextmanager
    def install(self):
        """Wrap every traced boundary for the duration of the block."""
        saved = []
        try:
            for owner, attr, factory in self._plan():
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, factory(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
