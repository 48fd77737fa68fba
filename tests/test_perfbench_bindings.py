"""What the benchmark relies on in maddm: the layers it wraps and the plans it loads.

``perfbench/spans.py`` patches ``(owner, attribute)`` pairs such as
``harness.select_advisors`` and restores them from ``owner.__dict__``.
A refactor that moves one of those names (renames it, stops importing it
into the calling module, or moves a method to a base class) breaks the
traced benchmark run; and ``perfbench/workloads.py`` writes plan dicts
that a stricter plan loader could reject. These checks make either fail
here first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from maddm import harness
from maddm.harness import EnvironmentTemplate, ExperimentPlan, MethodSpec, plan_from_dict
from maddm.review import ReviewConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_layer_is_bound_on_its_owner():
    spans = load_perfbench("spans")
    patches = spans.layer_patches(spans.SpanRecorder())
    assert patches
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in patches
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_every_benchmark_plan_loads():
    # the benchmark loads its plans through plan_from_dict; a loader rule that
    # rejects one of them fails here before it breaks a benchmark run
    workloads = load_perfbench("workloads")
    for workload in workloads.WORKLOADS:
        for smoke in (False, True):
            for round_index in range(workloads.rounds(workload, smoke)):
                plan_from_dict(workloads.plan_dict(workload, 0, round_index, smoke))


def test_members_scanned_counts_every_logged_member_per_pass(monkeypatch):
    # perfbench's review hook reads flat_arrays()[0].size members per pass;
    # the log's distinct sets, each segment times its count, must give the same
    spans = load_perfbench("spans")
    original, expected = harness.review_update, 0

    def review_update(history, trust, config):
        nonlocal expected
        outcome = original(history, trust, config)
        _, _, starts, counts, _ = history.distinct_arrays()
        expected += outcome.passes * int((counts * np.diff(starts)).sum())
        return outcome

    monkeypatch.setattr(harness, "review_update", review_update)
    plan = ExperimentPlan(
        environments=(EnvironmentTemplate.named("env1"),), accuracy_means=(0.8,),
        methods=(MethodSpec(method="maddm", review=ReviewConfig(frequency=5)),),
        repetitions=1, n_decisions=60, n_advisors=10,
    )
    rec = spans.SpanRecorder()
    with spans.patched(spans.layer_patches(rec)):
        harness.run_cell(plan, 0, 0, 0)
    assert expected > 0
    assert rec.counts["review.review_update.members_scanned"] == expected
