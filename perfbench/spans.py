"""In-memory spans around maddm's layer boundaries, wrapped from outside.

A span is (name, start, end, parent). Spans are kept in flat arrays while
the benchmark runs and written out once it ends. A span's self time is
its duration minus the durations of its direct children; spans nest
strictly because the harness runs serially in one thread.

Wrappers are installed on the name the caller actually looks up.
``from x import y`` copies the binding, so ``maddm.harness.review_update``
is what ``run_maddm`` calls; patching ``maddm.review.review_update``
would see no calls at all.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: Span recorded around the benchmark's own post-call bookkeeping, so the
#: time it takes is not charged to the enclosing layer's self time.
HOOK_SPAN = "perfbench.hook"

#: Spans whose self times sum to ``harness.report.self_s``.
REPORT_SPANS = (
    "harness.summarize",
    "harness.significance_tests",
    "harness.write_results_csv",
    "harness.write_summary_csv",
    "harness.write_significance_csv",
)


class SpanRecorder:
    """Flat span store plus the counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def record_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def wrap(self, fn, name: str, on_return=None):
        """``fn`` inside a span; ``on_return(args, result)`` runs after it."""
        nid = self._name_id(name)
        hook_id = self._name_id(HOOK_SPAN) if on_return is not None else -1
        names, starts, ends, parents, stack = (
            self.name_col, self.start, self.end, self.parent, self._stack,
        )
        clock = time.perf_counter

        def open_span(span_name: int) -> int:
            idx = len(starts)
            names.append(span_name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            return idx

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_return is not None:
                idx = open_span(hook_id)
                t0 = clock()
                on_return(args, result)
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            return result

        return traced

    def count_calls(self, fn, key: str):
        """``fn`` with a call counter and no span."""
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
        }

    def per_name(self) -> dict[str, tuple[int, float]]:
        """(calls, summed self seconds) for every span name seen."""
        cols = self.span_arrays()
        duration = cols["end"] - cols["start"]
        parent = cols["parent"]
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
        self_time = duration - child_time
        k = len(self.names)
        calls = np.bincount(cols["name"], minlength=k)
        self_sum = np.bincount(cols["name"], weights=self_time, minlength=k)
        return {name: (int(calls[i]), float(self_sum[i])) for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        cols = self.span_arrays()
        np.savez_compressed(path, names=np.array(self.names), **cols)


@contextmanager
def patched(patches):
    """Install ``(owner, attribute, replacement)`` triples, then restore them."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_patches(rec: SpanRecorder):
    """Every wrapper of the traced run, keyed to the layer it measures."""
    from maddm import baselines, ensemble, harness
    from maddm.baselines import EmAggregator
    from maddm.environment import Environment
    from maddm.trust import TrustVector

    def on_selection(args, outcome) -> None:
        rec.add("selection.select_advisors.rounds", outcome.rounds)
        rec.add("selection.select_advisors.hires", len(outcome.hired))

    def on_review(args, outcome) -> None:
        rec.add("review.review_update.passes", outcome.passes)
        rec.record_max("review.review_update.passes_max", outcome.passes)
        rec.add("review.review_update.members_scanned",
                args[0].flat_arrays()[0].size * outcome.passes)

    def on_infer(args, _result) -> None:
        rec.add("baselines.EmAggregator.infer.decisions_scanned", args[0].n_decisions)

    # (owner, attribute, span name, post-call hook)
    spans = [
        (harness, "execute_plan", "harness.execute_plan", None),
        (harness, "run_cell", "harness.run_cell", None),
        (harness, "build_cell_environment", "environment.build_cell_environment", None),
        (harness, "run_method", "harness.run_method", None),
        (harness, "run_maddm", "harness.run_maddm", None),
        (harness, "run_baseline", "baselines.run_baseline", None),
        (harness, "select_advisors", "selection.select_advisors", on_selection),
        (harness, "decide_and_update", "ensemble.decide_and_update", None),
        (harness, "review_update", "review.review_update", on_review),
        (ensemble, "apply_confidence_update", "trust.apply_confidence_update", None),
        (baselines, "apply_confidence_update", "trust.apply_confidence_update", None),
        (baselines, "select_fixed_number", "baselines.select_fixed_number", None),
        (baselines, "select_budget_constrained", "baselines.select_budget_constrained", None),
        (EmAggregator, "infer", "baselines.EmAggregator.infer", on_infer),
        (Environment, "answer_set", "environment.Environment.answer_set", None),
        (harness, "mann_whitney_u", "stats.mann_whitney_u", None),
    ]
    spans += [(harness, name.split(".", 1)[1], name, None) for name in REPORT_SPANS]
    patches = [
        (owner, attr, rec.wrap(getattr(owner, attr), name, hook))
        for owner, attr, name, hook in spans
    ]
    patches.append(
        (TrustVector, "__init__",
         rec.count_calls(TrustVector.__init__, "trust.TrustVector.constructions"))
    )
    return patches


def layer_metrics(rec: SpanRecorder) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json: name -> (value, unit)."""
    per = rec.per_name()

    def calls(name: str) -> int:
        return per.get(name, (0, 0.0))[0]

    def self_s(name: str) -> float:
        return per.get(name, (0, 0.0))[1]

    out: dict[str, tuple[float, str]] = {}
    for name in (
        "baselines.EmAggregator.infer",
        "baselines.select_fixed_number",
        "baselines.select_budget_constrained",
        "review.review_update",
        "selection.select_advisors",
        "ensemble.decide_and_update",
        "trust.apply_confidence_update",
        "environment.Environment.answer_set",
        "environment.build_cell_environment",
        "stats.mann_whitney_u",
    ):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in (
        "baselines.run_baseline",
        "harness.run_maddm",
        "harness.run_cell",
        "harness.execute_plan",
    ):
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["harness.report.self_s"] = (sum(self_s(name) for name in REPORT_SPANS), "s")

    counts = rec.counts
    for key in (
        "baselines.EmAggregator.infer.decisions_scanned",
        "review.review_update.passes",
        "review.review_update.members_scanned",
        "selection.select_advisors.rounds",
        "selection.select_advisors.hires",
        "trust.TrustVector.constructions",
    ):
        out[key] = (counts.get(key, 0), "count")
    out["review.review_update.passes_max"] = (rec.maxima.get("review.review_update.passes_max", 0), "count")
    rounds = counts.get("selection.select_advisors.rounds", 0)
    hires = counts.get("selection.select_advisors.hires", 0)
    out["selection.hire_ratio"] = (hires / rounds if rounds else 0.0, "ratio")
    return out
