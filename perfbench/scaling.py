#!/usr/bin/env python3
"""Report-only scaling series: run time against the decision horizon.

    python3 perfbench/scaling.py

Runs ``maddm:standard`` and ``fna:standard`` once each at 500, 1000, 2000
and 4000 decisions on env1 at accuracy 0.8 (30 advisors, serial) and
prints each run's wall time (plan seed 0) and the least-squares slope of log(time)
against log(decisions). A slope near 1 is linear growth, near 2 is a
full-history rescan per decision. Nothing here is gated; it takes about
a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import OUT, load_maddm, metadata_end, metadata_start  # noqa: E402

HORIZONS = (500, 1000, 2000, 4000)
METHODS = ("maddm", "fna")
SEED = 0


def log_log_slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main() -> int:
    wall_start = time.perf_counter()
    harness = load_maddm()
    meta = metadata_start()

    seconds: dict[str, list[float]] = {m: [] for m in METHODS}
    for method in METHODS:
        for n in HORIZONS:
            plan = harness.plan_from_dict({
                "base_seed": SEED, "repetitions": 1, "n_decisions": n, "n_advisors": 30,
                "environments": ["env1"], "accuracy_means": [0.8],
                "methods": [{"method": method, "variant": "standard"}],
            })
            out_dir = OUT / f"scaling-{method}-{n}"
            t0 = time.perf_counter()
            try:
                harness.execute_plan(plan, out_dir, force=True)
            finally:
                t1 = time.perf_counter()
                shutil.rmtree(out_dir, ignore_errors=True)
            seconds[method].append(t1 - t0)
            print(f"{method}:standard n_decisions={n} run_s {t1 - t0:.3f} s", flush=True)

    slopes = {m: log_log_slope(HORIZONS, seconds[m]) for m in METHODS}
    for method, slope in slopes.items():
        print(f"{method}:standard growth exponent {slope:.3f}")
    metadata_end(meta, wall_start)
    print("# meta " + json.dumps(meta, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    (OUT / "scaling.json").write_text(json.dumps(
        {"meta": meta, "horizons": HORIZONS, "run_s": seconds, "growth_exponent": slopes},
        indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
