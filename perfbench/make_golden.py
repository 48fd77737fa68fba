#!/usr/bin/env python3
"""Record the golden rows that run.py compares the default seed against.

    python3 perfbench/make_golden.py

Runs every round a run of each workload measures, at the default seed and
untimed, and rewrites ``golden/<workload>.json`` for every workload.
Rerun it only when a change to the program alters results on purpose,
and say so where the change is made.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import OUT, load_maddm  # noqa: E402


def main() -> int:
    harness = load_maddm()
    from checks import DEFAULT_SEED, GOLDEN_DIR, row_key, row_values
    from workloads import ROUNDS, plan_dict

    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload, rounds in ROUNDS.items():
        rows = {}
        for r in range(rounds):
            plan = harness.plan_from_dict(plan_dict(workload, DEFAULT_SEED, r))
            out_dir = OUT / f"golden-{workload}-{r}"
            try:
                report = harness.execute_plan(plan, out_dir, force=True)
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            rows.update((row_key(plan, row), row_values(row)) for row in report.results)
            print(f"{workload} round {r}: {len(report.results)} rows", flush=True)
        path = GOLDEN_DIR / f"{workload}.json"
        path.write_text(json.dumps(
            {"workload": workload, "seed": DEFAULT_SEED, "rounds": rounds, "rows": rows},
            indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
