"""One set-up, timed from outside by run.py: imports, plan load, output dir.

Prints ``ready`` at the point where a run would call its first
``run_cell``, then exits. Usage: setup_probe.py WORKLOAD SEED OUT_DIR SMOKE
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import maddm.harness  # noqa: E402,F401  (the import is part of what is timed)
from workloads import prepare  # noqa: E402

workload, seed, out_dir, smoke = sys.argv[1:5]
prepare(workload, int(seed), Path(out_dir), smoke == "1")
print("ready", flush=True)
