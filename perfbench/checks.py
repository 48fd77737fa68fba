"""Output checks behind ``failed_run_ratio``.

Every run row must satisfy the invariants below, for any seed. For the
default seed the rows are also compared with golden rows recorded from
the seed code (``golden/<workload>.json``, written by ``make_golden.py``);
the golden file holds every row of a default-seed run, so a row with no
golden entry is a problem too. Rows are keyed by the plan's base seed and
horizon plus the cell and the method label.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DEFAULT_SEED = 0
#: Relative tolerance of the golden comparison: a change of summation
#: order may flip the last bits of a float, never more.
GOLDEN_RTOL = 1e-9


def row_key(plan, row) -> str:
    return (f"{plan.base_seed}|{plan.n_decisions}|{row.environment}|{row.accuracy_mean!r}"
            f"|{row.repetition}|{row.method}|{row.variant}")


def row_values(row) -> list:
    return [row.utility, row.correct_count, row.total_cost]


def load_golden(workload: str) -> dict:
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.is_file():
        raise SystemExit(f"error: no golden rows at {path}; run make_golden.py")
    return json.loads(path.read_text())["rows"]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=GOLDEN_RTOL, abs_tol=GOLDEN_RTOL)


def check_rows(plan, rows, golden: dict | None) -> tuple[list[str], int]:
    """Problems found in one round's rows, and how many golden rows matched.

    ``golden`` is None where there is nothing to compare with (other seeds,
    smoke runs). Each problem names one failed run.
    """
    problems: list[str] = []
    expected = len(plan.cells()) * len(plan.methods)
    if len(rows) != expected:
        problems.extend(["row count"] * abs(expected - len(rows)))
    bound: dict[tuple, float] = {
        (r.environment, r.accuracy_mean, r.repetition): r.utility for r in rows if r.method == "bu"
    }
    matched = 0
    for r in rows:
        key = row_key(plan, r)
        cell = (r.environment, r.accuracy_mean, r.repetition)
        if not math.isfinite(r.utility) or not math.isfinite(r.total_cost):
            problems.append(f"{key}: non-finite utility or cost")
        elif not 0 <= r.correct_count <= r.n_decisions or r.n_decisions != plan.n_decisions:
            problems.append(f"{key}: correct_count {r.correct_count} of {r.n_decisions}")
        elif cell in bound and r.utility > bound[cell]:
            problems.append(f"{key}: utility {r.utility!r} above bu {bound[cell]!r}")
        elif golden is None:
            continue
        elif key not in golden:
            problems.append(f"{key}: no golden row")
        else:
            want = golden[key]
            got = row_values(r)
            if got[1] != want[1] or not (_close(got[0], want[0]) and _close(got[2], want[2])):
                problems.append(f"{key}: {got} differs from golden {want}")
            else:
                matched += 1
    return problems, matched


def result_tuples(rows) -> list[tuple]:
    """Everything a row carries, for comparing two passes exactly."""
    return [
        (r.environment, r.accuracy_mean, r.repetition, r.method, r.variant,
         r.utility, r.correct_count, r.total_cost, r.n_decisions)
        for r in rows
    ]
