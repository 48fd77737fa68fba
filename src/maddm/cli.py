"""Command line front end for the simulator.

Subcommands:

* ``generate``: emit one realized environment as JSON for audits.
* ``run``: execute a plan from a config file, writing results.csv,
  summary.csv and significance.csv into an output directory.
* ``report``: rebuild summary.csv and significance.csv from an existing
  results.csv.
* ``trace``: replay a single (cell, method) pair and dump its
  per-decision rows as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from maddm.environment import Environment, env_config
from maddm.harness import (
    ExperimentPlan,
    build_cell_environment,
    default_plan,
    execute_plan,
    plan_from_dict,
    read_results_csv,
    run_method,
    significance_tests,
    summarize,
    write_significance_csv,
    write_summary_csv,
    _method_rng,
)


def _load_plan(path: str | None) -> ExperimentPlan:
    if path is None:
        return default_plan()
    return plan_from_dict(json.loads(Path(path).read_text()))


def _cmd_generate(args: argparse.Namespace) -> int:
    config = env_config(
        args.environment,
        args.accuracy_mean,
        seed=args.seed,
        n_decisions=args.n_decisions,
        n_advisors=args.n_advisors,
    )
    environment = Environment.build(config)
    text = environment.to_json()
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text)
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
    write_summary_csv(out / "summary.csv", summarize(results))
    write_significance_csv(out / "significance.csv", significance_tests(results))
    print(f"wrote summary.csv and significance.csv to {out}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    plan = _load_plan(args.config)
    env_names = [t.name for t in plan.environments]
    if args.environment not in env_names:
        raise SystemExit(f"environment {args.environment!r} not in plan ({env_names})")
    env_idx = env_names.index(args.environment)
    grid = list(plan.accuracy_means)
    if args.accuracy_mean not in grid:
        raise SystemExit(f"accuracy mean {args.accuracy_mean} not in plan grid {grid}")
    grid_idx = grid.index(args.accuracy_mean)
    if not (0 <= args.repetition < plan.repetitions):
        raise SystemExit(f"repetition must lie in [0, {plan.repetitions})")
    spec = next(
        (s for s in plan.methods if s.method == args.method and s.variant == args.variant),
        None,
    )
    if spec is None:
        raise SystemExit(f"method {args.method}:{args.variant} not in plan")

    environment = build_cell_environment(plan, env_idx, grid_idx, args.repetition)
    rng = _method_rng(plan, env_idx, grid_idx, args.repetition, spec.label)
    result = run_method(spec, environment, rng, trace=True)
    lines = [json.dumps(row) for row in result.trace or []]
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maddm",
        description="Sequential multi-advisor decision-making simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit one realized environment as JSON")
    gen.add_argument("--environment", default="env1", choices=("env1", "env2"))
    gen.add_argument("--accuracy-mean", type=float, default=0.8)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n-decisions", type=int, default=1000)
    gen.add_argument("--n-advisors", type=int, default=30)
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
