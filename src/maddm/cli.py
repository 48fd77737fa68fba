"""Command line front end for the simulator.

Subcommands:

* ``generate``: emit the world one plan cell plays as JSON for audits,
  answer matrix included, so a dump can replay a run by itself.
* ``run``: execute a plan from a config file, writing results.csv,
  summary.csv and significance.csv into an output directory.
* ``report``: rebuild summary.csv and significance.csv from an existing
  results.csv.
* ``trace``: replay a single (cell, method) pair through ``run_cell``,
  the derivation ``run`` uses, and dump its per-decision rows as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from maddm.harness import (
    ExperimentPlan,
    build_cell_environment,
    default_plan,
    execute_plan,
    plan_from_dict,
    read_results_csv,
    run_cell,
    write_report,
)


def _load_plan(path: str | None) -> ExperimentPlan:
    if path is None:
        return default_plan()
    return plan_from_dict(json.loads(Path(path).read_text()))


def _plan_cell(args: argparse.Namespace) -> tuple[ExperimentPlan, tuple[int, int, int]]:
    """The plan and the (environment, grid, repetition) indices the cell flags name."""
    plan = _load_plan(args.config)
    env_names = [t.name for t in plan.environments]
    if args.environment not in env_names:
        raise SystemExit(f"environment {args.environment!r} not in plan ({env_names})")
    grid = list(plan.accuracy_means)
    if args.accuracy_mean not in grid:
        raise SystemExit(f"accuracy mean {args.accuracy_mean} not in plan grid {grid}")
    if not (0 <= args.repetition < plan.repetitions):
        raise SystemExit(f"repetition must lie in [0, {plan.repetitions})")
    return plan, (env_names.index(args.environment), grid.index(args.accuracy_mean), args.repetition)


def _write_text(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_generate(args: argparse.Namespace) -> int:
    plan, cell = _plan_cell(args)
    environment = build_cell_environment(plan, *cell)
    payload = {
        "digest": environment.digest(),
        **json.loads(environment.to_json()),
        "answers": environment.answers.tolist(),
    }
    _write_text(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    plan = _load_plan(args.config)
    report = execute_plan(plan, args.output_dir, jobs=args.jobs, force=args.force)
    print(f"wrote {len(report.results)} runs to {args.output_dir}/results.csv")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    results = read_results_csv(args.results)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report(out, results)
    print(f"wrote summary.csv and significance.csv to {out}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    plan, cell = _plan_cell(args)
    label = f"{args.method}:{args.variant}"
    spec = next((s for s in plan.methods if s.label == label), None)
    if spec is None:
        raise SystemExit(f"method {label} not in plan")
    (result,) = run_cell(replace(plan, methods=(spec,)), *cell, trace=True)
    _write_text("".join(json.dumps(row) + "\n" for row in result.trace or []), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maddm",
        description="Sequential multi-advisor decision-making simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit the world one plan cell plays as JSON")
    gen.add_argument("--config", default=None, help="plan file; omit for the desk-scale default")
    gen.add_argument("--environment", default="env1")
    gen.add_argument("--accuracy-mean", type=float, default=0.8)
    gen.add_argument("--repetition", type=int, default=0)
    gen.add_argument("--output", default=None)
    gen.set_defaults(func=_cmd_generate)

    run = sub.add_parser("run", help="execute a plan from a JSON config file")
    run.add_argument("--config", default=None, help="plan file; omit for the desk-scale default")
    run.add_argument("--output-dir", required=True)
    run.add_argument("--jobs", type=int, default=1)
    run.add_argument("--force", action="store_true", help="recompute cached cells")
    run.set_defaults(func=_cmd_run)

    rep = sub.add_parser("report", help="rebuild summary and significance from results.csv")
    rep.add_argument("--results", required=True)
    rep.add_argument("--output-dir", required=True)
    rep.set_defaults(func=_cmd_report)

    tra = sub.add_parser("trace", help="replay one cell/method and dump per-decision rows")
    tra.add_argument("--config", default=None)
    tra.add_argument("--environment", required=True)
    tra.add_argument("--accuracy-mean", type=float, required=True)
    tra.add_argument("--repetition", type=int, default=0)
    tra.add_argument("--method", required=True)
    tra.add_argument("--variant", default="standard")
    tra.add_argument("--output", default=None)
    tra.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
