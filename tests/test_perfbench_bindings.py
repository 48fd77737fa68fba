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

from maddm.harness import plan_from_dict

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
