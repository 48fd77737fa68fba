"""Smoke test of the benchmark: each workload at a tiny size, both modes.

    python3 -m pytest -q perfbench/tests

Asserts that every metric named in BENCHMARK.json, and every metric the
workload prints beside them, appears with a unit; that the outputs pass
their checks; that the traced run sees the layer split each workload
relies on; and that the golden check flags a row it has no entry for.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402

#: Metrics printed only where the workload runs what they measure.
WORKLOAD_METRICS = {
    "em_long": ("ms_per_decision.fna", "ms_per_decision.bc"),
    "maddm_long": ("ms_per_decision.maddm",),
    "plan_short": ("cell_s_p90", "rerun_s", "ms_per_decision.maddm", "ms_per_decision.fna",
                   "ms_per_decision.bc", "ms_per_decision.rv"),
}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if not line.startswith("#"):
            name, value, unit = line.split()[:3]
            printed[name] = (float(value), unit)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return printed, result


def check_named(printed: dict, result: dict, spec: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == (result["metrics"][m["name"]]["value"], m["unit"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    printed, result = run(workload, 0)
    check_named(printed, result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0
    for name in WORKLOAD_METRICS[workload] + ("failed_run_ratio",):
        assert printed[name][1]
    assert printed["failed_run_ratio"][0] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    printed, result = run(workload, 1)
    check_named(printed, result, SPEC["per_layer"])
    value = {name: m["value"] for name, m in result["metrics"].items()}
    if workload == "em_long":
        assert value["review.review_update.calls"] == 0
        assert value["selection.select_advisors.calls"] == 0
        assert value["baselines.EmAggregator.infer.calls"] > 0
    if workload == "maddm_long":
        assert value["baselines.EmAggregator.infer.calls"] == 0
        assert value["review.review_update.calls"] > 0
    if workload == "plan_short":
        assert all(value[f"{name}.calls"] > 0 for name in (
            "baselines.EmAggregator.infer", "review.review_update", "selection.select_advisors",
            "stats.mann_whitney_u"))


def test_golden_check_requires_every_row():
    from checks import check_rows, row_key, row_values
    from run import load_maddm
    from workloads import plan_dict

    harness = load_maddm()
    plan = harness.plan_from_dict(plan_dict("maddm_long", 3, 0, smoke=True))
    rows = [r for cell in plan.cells() for r in harness.run_cell(plan, *cell)]
    assert check_rows(plan, rows, None) == ([], 0)
    problems, matched = check_rows(plan, rows, {})
    assert matched == 0 and len(problems) == len(rows)
    assert all(p.endswith("no golden row") for p in problems)
    golden = {row_key(plan, r): row_values(r) for r in rows}
    assert check_rows(plan, rows, golden) == ([], len(rows))
