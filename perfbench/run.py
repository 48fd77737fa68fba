#!/usr/bin/env python3
"""Benchmark of maddm's experiment harness.

Runs one workload through the public ``plan_from_dict`` -> ``execute_plan``
path, serially in this process, checks every result row, and prints one
metric per line followed by a JSON summary as the last line.

    python3 perfbench/run.py --workload em_long --seed 0 --seconds 50 --trace 0

A run measures the workload's fixed number of rounds (``workloads.ROUNDS``),
sized to take about ``run_seconds`` of BENCHMARK.json, so that two versions
of the code are always timed on the same inputs. ``--seconds`` is accepted
for the common benchmark interface and does not change the work.

``--trace 0`` times only ``run_cell`` and ``run_method`` (one clock pair per
call) and reports the end-to-end metrics. ``--trace 1`` first makes the
same untraced pass, then repeats its rounds with spans around every layer
boundary, checks that both passes produced identical rows, and reports the
per-layer metrics. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
WARM_RERUNS = 5
TIMED_METHODS = ("maddm", "fna", "bc", "rv")

clock = time.perf_counter


def load_maddm():
    """Import the package from this checkout's sources, nowhere else."""
    if not (SRC / "maddm" / "__init__.py").is_file():
        raise SystemExit("error: no maddm sources at src/maddm; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import maddm.harness

    if Path(maddm.harness.__file__).resolve().parents[1] != SRC:
        raise SystemExit("error: maddm was imported from outside this checkout")
    return maddm.harness


def git_sha() -> str:
    """HEAD of the checkout, or 'unknown' where it is not a git repository."""
    # the ceiling keeps git from reporting a repository that merely encloses ROOT
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata_start() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg_start": list(os.getloadavg()),
    }


def metadata_end(meta: dict, wall_start: float) -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    meta.update(
        loadavg_end=list(os.getloadavg()),
        wall_s=clock() - wall_start,
        cpu_s=usage.ru_utime + usage.ru_stime,
    )
    return meta


def measure_setup(args, run_dir: Path) -> list[float]:
    """Wall seconds from process start to the point of the first run_cell."""
    samples = []
    for i in range(SETUP_PROBES):
        out_dir = run_dir / f"probe{i}"
        cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed),
               str(out_dir), "1" if args.smoke else "0"]
        t0 = clock()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = clock()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        samples.append(t1 - t0)
        shutil.rmtree(out_dir, ignore_errors=True)
    return samples


class Timers:
    """The untraced run's only instrumentation: run_cell and run_method."""

    def __init__(self, harness) -> None:
        self.cells: list[tuple[str, float]] = []
        self.methods: list[tuple[str, int, float]] = []
        run_cell, run_method = harness.run_cell, harness.run_method
        cells, methods = self.cells, self.methods

        def timed_cell(*args, **kwargs):
            t0 = clock()
            out = run_cell(*args, **kwargs)
            cells.append((out[0].environment, clock() - t0))
            return out

        def timed_method(spec, *args, **kwargs):
            t0 = clock()
            out = run_method(spec, *args, **kwargs)
            t1 = clock()
            methods.append((spec.method, out.n_decisions, t1 - t0))
            return out

        self.patches = [(harness, "run_cell", timed_cell), (harness, "run_method", timed_method)]

    def cell_calls(self) -> int:
        return len(self.cells)


class Pass:
    """Rows, failures and wall times of one pass over the workload's rounds."""

    def __init__(self) -> None:
        self.rounds = 0
        self.rows: list[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.golden_matched = 0
        self.problems: list[str] = []
        self.loop_s = 0.0
        self.rerun_s: list[float] = []

    @property
    def decisions(self) -> int:
        return sum(row[8] for row in self.rows if row[3] != "bu")


def run_pass(harness, args, golden, patches, cell_calls, pass_dir: Path) -> Pass:
    """Execute the workload's rounds with ``patches`` in place."""
    import spans
    from checks import check_rows, result_tuples
    from workloads import plan_dict, rounds

    result = Pass()
    rerun = args.workload == "plan_short"
    with spans.patched(patches):
        for r in range(rounds(args.workload, args.smoke)):
            plan = harness.plan_from_dict(plan_dict(args.workload, args.seed, r, args.smoke))
            out_dir = pass_dir / f"round{r}"
            attempted = len(plan.cells()) * len(plan.methods)
            result.attempted += attempted
            result.rounds += 1
            t0 = clock()
            try:
                report = harness.execute_plan(plan, out_dir, jobs=1)
            except Exception as exc:  # a failed round is reported, not raised
                result.failed += attempted
                result.problems.append(f"round {r}: {exc!r}")
                break
            result.loop_s += clock() - t0

            problems, matched = check_rows(plan, report.results, golden)
            result.failed += min(len(problems), attempted)
            result.problems.extend(problems)
            result.golden_matched += matched
            result.rows.extend(result_tuples(report.results))

            if rerun:
                csvs = {p.name: p.read_bytes() for p in out_dir.glob("*.csv")}
                ran_before = cell_calls()
                for _ in range(WARM_RERUNS):
                    t0 = clock()
                    warm = harness.execute_plan(plan, out_dir, jobs=1)
                    result.rerun_s.append(clock() - t0)
                    if result_tuples(warm.results) != result_tuples(report.results):
                        result.problems.append(f"round {r}: warm rerun rows differ")
                    if {p.name: p.read_bytes() for p in out_dir.glob("*.csv")} != csvs:
                        result.problems.append(f"round {r}: warm rerun CSVs differ")
                if cell_calls() != ran_before:
                    result.problems.append(f"round {r}: warm rerun recomputed cells")
            shutil.rmtree(out_dir, ignore_errors=True)
    return result


def end_to_end(args, p: Pass, timers: Timers, setup: list[float]) -> tuple[dict, dict]:
    """(gated metrics, workload-specific metrics); both name -> (value, unit, note)."""
    cells = [t for _, t in timers.cells]
    by_env: dict[str, list[float]] = {}
    for env, t in timers.cells:
        by_env.setdefault(env, []).append(t)
    gated = {
        "decisions_per_s": (p.decisions / p.loop_s, "1/s",
                            f"{p.decisions} decisions in {p.loop_s:.3f} s, {p.rounds} rounds"),
        # one median per environment: a cell's cost depends on its stakes, and a
        # pooled median of few cells would mix the two environments' costs
        "cell_s_p50": (statistics.fmean(statistics.median(ts) for ts in by_env.values()), "s",
                       "mean over environments of the median cell; " + ", ".join(
                           f"{env} {statistics.median(ts):.3f} s of {len(ts)} cells"
                           for env, ts in by_env.items())),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", ""),
    }
    extra = {}
    if args.workload == "plan_short":
        p90 = statistics.quantiles(cells, n=10, method="inclusive")[8] if len(cells) > 1 else cells[0]
        extra["cell_s_p90"] = (p90, "s", f"cells={len(cells)}")
        extra["rerun_s"] = (statistics.median(p.rerun_s), "s",
                            f"median of {len(p.rerun_s)} warm execute_plan calls")
    for method in TIMED_METHODS:
        runs = [(n, t) for m, n, t in timers.methods if m == method]
        if runs:
            n = sum(n for n, _ in runs)
            t = sum(t for _, t in runs)
            extra[f"ms_per_decision.{method}"] = (1000.0 * t / n, "ms",
                                                  f"runs={len(runs)} decisions={n}")
    extra["failed_run_ratio"] = (p.failed / p.attempted, "ratio",
                                 f"failed={p.failed} attempted={p.attempted}")
    return gated, extra


def per_layer(rec, untraced: Pass, traced: Pass) -> dict:
    import spans

    metrics = {name: (value, unit, "") for name, (value, unit) in spans.layer_metrics(rec).items()}
    dps_u = untraced.decisions / untraced.loop_s
    dps_t = traced.decisions / traced.loop_s
    metrics["tracing.overhead_ratio"] = (
        (dps_u - dps_t) / dps_u, "ratio",
        f"decisions_per_s untraced {dps_u:.1f} traced {dps_t:.1f}, drop {dps_u - dps_t:.1f}/s",
    )
    return metrics


def print_metrics(metrics: dict) -> None:
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value!r} {unit}" + (f"  ({note})" if note else ""))


def main(argv=None) -> int:
    wall_start = clock()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="accepted for the common interface; the work per run is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every round to a few seconds' work (for the smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    harness = load_maddm()
    sys.path.insert(0, str(HERE))
    import spans
    from checks import DEFAULT_SEED, load_golden
    from workloads import WORKLOADS, prepare

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    meta = metadata_start()
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    golden = load_golden(args.workload) if args.seed == DEFAULT_SEED and not args.smoke else None

    try:
        setup = [] if args.trace else measure_setup(args, run_dir)
        prepare(args.workload, args.seed, run_dir / "untraced", args.smoke)
        timers = Timers(harness)
        untraced = run_pass(harness, args, golden, timers.patches, timers.cell_calls,
                            run_dir / "untraced")
        passes = [untraced]
        if args.trace:
            rec = spans.SpanRecorder()
            traced = run_pass(harness, args, golden, spans.layer_patches(rec),
                              lambda: rec.per_name().get("harness.run_cell", (0, 0.0))[0],
                              run_dir / "traced")
            passes.append(traced)
            if traced.rows != untraced.rows:
                traced.problems.append("traced rows differ from untraced rows")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    correct = not problems
    meta["golden_rows_matched"] = sum(p.golden_matched for p in passes)
    if not all(p.loop_s > 0 for p in passes):  # the first round failed: nothing to time
        gated = shown = {}
    elif args.trace:
        shown = per_layer(rec, untraced, traced)
        gated = shown
    else:
        gated, extra = end_to_end(args, untraced, timers, setup)
        shown = {**gated, **extra}
    metadata_end(meta, wall_start)

    print("# meta " + json.dumps(meta, sort_keys=True))
    for msg in problems[:20]:
        print("# problem " + msg)
    print_metrics(shown)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "problems": problems,
         "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in shown.items()}},
        indent=1))
    if args.trace:
        rec.write(OUT / f"{stem}.spans.npz")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in gated.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
