from __future__ import annotations

import concurrent.futures
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maddm import harness
from maddm.baselines import StrategyConfig, run_baseline
from maddm.environment import ENV_TEMPLATES, TRUTH, Environment
from maddm.harness import (
    EnvironmentTemplate,
    ExperimentPlan,
    MethodSpec,
    _cell_stamps,
    _environment_rng,
    build_cell_environment,
    default_plan,
    execute_plan,
    plan_from_dict,
    plan_to_dict,
    read_results_csv,
    run_cell,
    run_maddm,
    run_method,
    significance_tests,
    summarize,
    write_results_csv,
)
from maddm.results import RunResult, play
from maddm.review import ReviewConfig


MINIMAL_PLAN = {"environments": ["env1"], "accuracy_means": [0.8], "methods": [{"method": "bu"}]}
PLANS = Path(__file__).resolve().parents[1] / "plans"

_STRATEGY = {"kind": "epsilon_greedy", "epsilon": 0.1, "criterion": "cost_effectiveness"}
_REVIEW = {"threshold": 0.001, "max_passes": 100, "frequency": 1}
#: What plan_to_dict writes for default_plan()'s methods, key for key.
DEFAULT_ENTRIES = [
    {"method": "maddm", "variant": "standard", "review": _REVIEW},
    {"method": "fna", "variant": "standard", "strategy": _STRATEGY, "fna_k": 5},
    {"method": "bc", "variant": "standard", "strategy": _STRATEGY, "bc_budget_fraction": 0.1},
    {"method": "rv", "variant": "standard", "rv_k": 3},
    {"method": "maddm", "variant": "exploration_first", "review": _REVIEW, "exploration_first_rounds": 10},
    {"method": "fna", "variant": "exploration_first", "strategy": _STRATEGY, "fna_k": 5,
     "exploration_first_rounds": 10},
    {"method": "bc", "variant": "exploration_first", "strategy": _STRATEGY, "bc_budget_fraction": 0.1,
     "exploration_first_rounds": 10},
    {"method": "rv", "variant": "exploration_first", "rv_k": 3, "exploration_first_rounds": 10},
    {"method": "bu", "variant": "standard"},
]


def written_default_plan(accuracy_means, repetitions, n_decisions) -> dict:
    """What plan_to_dict writes for the default plan's templates and methods, key for key."""
    return {
        "environments": [{"name": "env1", "value_mean": 100.0, "value_std": 100.0},
                         {"name": "env2", "value_mean": 500.0, "value_std": 500.0}],
        "accuracy_means": accuracy_means, "repetitions": repetitions, "base_seed": 0,
        "n_decisions": n_decisions, "n_advisors": 30, "methods": DEFAULT_ENTRIES,
    }


def tiny_plan(out_methods=None, base_seed=7) -> ExperimentPlan:
    methods = out_methods or (
        MethodSpec(method="maddm", review=ReviewConfig(frequency=10)),
        MethodSpec(method="fna"),
        MethodSpec(method="rv"),
        MethodSpec(method="bu"),
    )
    return ExperimentPlan(
        environments=(EnvironmentTemplate.named("env1"),),
        accuracy_means=(0.8,),
        methods=tuple(methods),
        repetitions=2,
        base_seed=base_seed,
        n_decisions=40,
        n_advisors=12,
    )


def python_spec(entry: dict) -> MethodSpec:
    """The MethodSpec a plan's method entry describes, built in Python instead of loaded."""
    sections = {"strategy": StrategyConfig, "review": ReviewConfig}
    return MethodSpec(**{key: sections[key](**value) if key in sections else value
                         for key, value in entry.items()})


def assert_rejected_alike(entry: dict, keys: list[str]) -> None:
    """The plan loader and a spec built in Python reject ``entry`` with one message naming ``keys``."""
    label = "{}:{}".format(entry["method"], entry.get("variant", "standard"))
    with pytest.raises(ValueError, match=re.escape(f"{label} does not read {keys};")) as loaded:
        plan_from_dict({**MINIMAL_PLAN, "methods": [entry]})
    with pytest.raises(ValueError) as built:
        python_spec(entry)
    assert str(built.value) == str(loaded.value)


def cell_file(cell: tuple[int, int, int]) -> str:
    return "cell_{}_{}_{}.json".format(*cell)


#: The cell that :func:`_faulty_run_cell` fails, the folder where it marks each cell it returns,
#: and how long it takes over every other cell.
_FAULT: dict = {}


def _faulty_run_cell(plan: ExperimentPlan, *cell: int) -> list[RunResult]:
    if cell == _FAULT["cell"]:
        raise ValueError("an injected fault")
    time.sleep(_FAULT.get("delay", 0.0))
    results = run_cell(plan, *cell)
    (_FAULT["returned"] / cell_file(cell)).touch()
    return results


def _unstorable(*args) -> None:
    raise OSError("an injected fault")


class TestRunMaddm:
    def test_noiseless_free_pool_is_perfect_after_warmup(self):
        # stakes bounded away from zero: a worthless decision is correctly
        # answered blind, which would dilute the perfect count
        stakes = np.clip(np.random.default_rng(3).normal(100.0, 100.0, (2, 80)), 5.0, None)
        env = Environment(
            profits=stakes[0], losses=stakes[1], accuracies=np.ones(6), costs=np.zeros(6),
            answers=np.full((80, 6), TRUTH),
        )
        result = run_maddm(MethodSpec("maddm", "exploration_first"), env, np.random.default_rng(0))
        assert result.total_cost == 0.0
        assert result.correct_count == env.n_decisions
        assert result.utility == pytest.approx(math.fsum(env.profits), abs=1e-9)

    def test_adversarial_pool_keeps_accounting_identity(self):
        world = Environment.build(ENV_TEMPLATES["env1"], 0.0, 60, 8, np.random.default_rng(5))
        env = replace(world, accuracies=np.zeros(8), answers=np.full((60, 8), -TRUTH))
        result = run_maddm(
            MethodSpec("maddm", review=ReviewConfig(frequency=5)), env,
            np.random.default_rng(1), trace=True,
        )
        self._check_identity(env, result)

    def test_accounting_identity_on_generic_world(self, template_world):
        env = template_world("env2", 0.75, 9, n_decisions=120)
        result = run_maddm(MethodSpec("maddm"), env, np.random.default_rng(2), trace=True)
        self._check_identity(env, result)

    @staticmethod
    def _check_identity(env, result):
        won = math.fsum(profit for profit, row in zip(env.profits, result.trace) if row["correct"])
        lost = math.fsum(loss for loss, row in zip(env.losses, result.trace) if not row["correct"])
        fees = math.fsum(row["total_cost"] for row in result.trace)
        scale = max(1.0, abs(result.utility))
        assert result.utility == pytest.approx(won - lost - fees, abs=1e-9 * scale)
        assert result.total_cost == pytest.approx(fees, abs=1e-9 * scale)
        assert result.correct_count == sum(row["correct"] for row in result.trace)

    def test_exploration_first_consults_whole_pool(self, template_world):
        env = template_world("env1", 0.8, 2, n_decisions=25)
        result = run_maddm(MethodSpec("maddm", "exploration_first"), env, np.random.default_rng(3), trace=True)
        full_cost = math.fsum(env.costs)
        for row in result.trace[:10]:
            assert len(row["hired"]) == env.n_advisors
            assert row["total_cost"] == pytest.approx(full_cost)

    @pytest.mark.parametrize("variant", ["standard", "exploration_first"])
    def test_label_flip_symmetry_is_exact(self, template_world, variant):
        # negating every answer in the world negates every ensemble margin
        # bit for bit, so the run must repeat its hires, sweeps, fees and
        # confidences exactly and negate each answer; a zero-confidence tie
        # answers no on both sides (with exploration first, env1 at 0.55 and
        # seed 0 splits the whole pool evenly at decision 1)
        for name, accuracy, seed in (("env1", 0.55, 0), ("env2", 0.8, 1)):
            env = template_world(name, accuracy, seed, n_decisions=400)
            straight, mirrored = (
                run_maddm(MethodSpec("maddm", variant), world, np.random.default_rng(seed + 100), trace=True)
                for world in (env, replace(env, answers=-env.answers))
            )
            for row, flipped in zip(straight.trace, mirrored.trace, strict=True):
                for key in ("hired", "rounds", "total_cost", "confidence"):
                    assert flipped[key] == row[key]
                answers = (-1, -1) if row["confidence"] == 0.0 else (row["answer"], -row["answer"])
                assert (row["answer"], flipped["answer"]) == answers

    @pytest.mark.parametrize("method", ["maddm", "bc"])
    def test_empty_hire_answers_negative_at_zero_cost(self, method):
        # all advisors cost more than any decision can be worth
        correct = np.random.default_rng(6).random((30, 5)) < 0.9
        env = Environment(
            profits=np.full(30, 10.0), losses=np.full(30, 10.0), accuracies=np.full(5, 0.9),
            costs=np.full(5, 900.0), answers=np.where(correct, TRUTH, -TRUTH),
        )
        result = run_method(MethodSpec(method), env, np.random.default_rng(4), trace=True)
        assert result.total_cost == 0.0
        assert result.correct_count == 0
        for row in result.trace:
            assert row["hired"] == []
            assert row["answer"] == -1
            assert row["confidence"] == 0.0
            assert row["p_positive"] == 0.5

    def test_monotone_accuracy_sweep_with_free_full_pool(self):
        # whole pool consulted at zero cost: mean correctness should climb
        # with the advisor-accuracy grid, up to 3-sigma noise
        grid = (0.55, 0.7, 0.85, 1.0)
        reps = 3
        means, sigmas = [], []
        for accuracy in grid:
            counts = []
            for rep in range(reps):
                env = Environment.build(ENV_TEMPLATES["env1"], accuracy, 60, 10, np.random.default_rng(100 + rep))
                env = replace(env, costs=np.zeros(env.n_advisors))
                result = run_maddm(
                    MethodSpec(
                        "maddm", "exploration_first", review=ReviewConfig(frequency=10),
                        exploration_first_rounds=env.n_decisions,
                    ),
                    env,
                    np.random.default_rng(rep),
                )
                counts.append(result.correct_count)
            means.append(float(np.mean(counts)))
            sigmas.append(float(np.std(counts)) / math.sqrt(reps))
        for lo, hi in zip(range(len(grid) - 1), range(1, len(grid))):
            slack = 3.0 * math.hypot(sigmas[lo], sigmas[hi])
            assert means[hi] >= means[lo] - slack


class TestPairedDesign:
    def test_same_cell_same_world(self):
        plan = tiny_plan()
        first = build_cell_environment(plan, 0, 0, 1)
        second = build_cell_environment(plan, 0, 0, 1)
        assert first.digest() == second.digest()

    def test_cells_differ_across_coordinates(self):
        plan = ExperimentPlan(
            environments=(EnvironmentTemplate.named("env1"), EnvironmentTemplate.named("env2")),
            accuracy_means=(0.6, 0.9),
            methods=(MethodSpec(method="bu"),),
            repetitions=2,
            base_seed=7,
            n_decisions=10,
            n_advisors=5,
        )
        digests = {
            (e, g, r): build_cell_environment(plan, e, g, r).digest()
            for e in range(2)
            for g in range(2)
            for r in range(2)
        }
        assert len(set(digests.values())) == 8

    @pytest.mark.parametrize("name", sorted(ENV_TEMPLATES))
    def test_cell_world_matches_named_template_config(self, name):
        plan = replace(tiny_plan(), environments=(EnvironmentTemplate.named(name),))
        expected = Environment.build(
            ENV_TEMPLATES[name], 0.8, plan.n_decisions, plan.n_advisors, _environment_rng(plan, 0, 0, 1),
        )
        assert build_cell_environment(plan, 0, 0, 1).digest() == expected.digest()

    @pytest.mark.parametrize("method", ["maddm", "fna"])
    def test_run_method_keeps_the_variant(self, method, template_world):
        env = template_world("env1", 0.8, 1, n_decisions=15, n_advisors=6)
        spec = MethodSpec(method, "exploration_first")
        assert run_method(spec, env, np.random.default_rng(0)).variant == "exploration_first"


class TestAggregation:
    def make_results(self):
        rows = []
        for method, base in (("maddm", 100.0), ("fna", 50.0)):
            for rep in range(6):
                rows.append(
                    RunResult(
                        method=method, utility=base + rep, correct_count=10,
                        total_cost=5.0, n_decisions=10, variant="standard",
                        environment="env1", accuracy_mean=0.8, repetition=rep,
                    )
                )
        return rows

    def test_summarize_moments(self):
        rows = summarize(self.make_results())
        assert len(rows) == 2
        maddm = next(r for r in rows if r.method == "maddm")
        assert maddm.runs == 6
        assert maddm.utility_mean == pytest.approx(102.5)
        assert maddm.utility_ci95_low < 102.5 < maddm.utility_ci95_high

    def test_significance_detects_separation(self):
        tests = significance_tests(self.make_results())
        assert len(tests) == 1
        row = tests[0]
        assert row.method_b == "fna"
        assert row.p_value < 0.05 / 3
        assert row.significant

    def test_missing_reference_yields_no_tests(self):
        rows = [r for r in self.make_results() if r.method != "maddm"]
        assert significance_tests(rows) == []


class TestExecutePlan:
    def test_csv_artifacts_and_bu_dominance(self, tmp_path):
        plan = tiny_plan()
        report = execute_plan(plan, tmp_path / "out")
        results_csv = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert results_csv[0] == (
            "environment,accuracy_mean,repetition,method,variant,"
            "utility,correct_count,total_cost,n_decisions"
        )
        assert len(results_csv) == 1 + len(plan.methods) * 2  # header + rows
        assert (tmp_path / "out" / "summary.csv").exists()
        assert (tmp_path / "out" / "significance.csv").exists()
        by_method = {}
        for r in report.results:
            by_method.setdefault(r.method, []).append(r.utility)
        for method in ("maddm", "fna", "rv"):
            for bu_utility, other in zip(by_method["bu"], by_method[method]):
                assert bu_utility > other

    def test_determinism_across_directories(self, tmp_path):
        plan = tiny_plan()
        execute_plan(plan, tmp_path / "a")
        execute_plan(plan, tmp_path / "b")
        for name in ("results.csv", "summary.csv", "significance.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_resume_recomputes_only_missing_cells(self, tmp_path):
        plan = tiny_plan()
        execute_plan(plan, tmp_path / "full")
        reference = (tmp_path / "full" / "results.csv").read_bytes()

        # pre-populate a partial cache, then resume
        partial = tmp_path / "partial"
        (partial / "cells").mkdir(parents=True)
        source = sorted((tmp_path / "full" / "cells").glob("*.json"))
        kept = source[0]
        (partial / "cells" / kept.name).write_bytes(kept.read_bytes())
        before = (partial / "cells" / kept.name).stat().st_mtime_ns
        execute_plan(plan, partial)
        after = (partial / "cells" / kept.name).stat().st_mtime_ns
        assert before == after  # cached cell was reused, not rewritten
        assert (partial / "results.csv").read_bytes() == reference

    def test_force_recomputes_everything(self, tmp_path):
        plan = tiny_plan()
        execute_plan(plan, tmp_path / "out")
        cell = sorted((tmp_path / "out" / "cells").glob("*.json"))[0]
        before = cell.stat().st_mtime_ns
        execute_plan(plan, tmp_path / "out", force=True)
        assert cell.stat().st_mtime_ns != before
        ref = execute_plan(plan, tmp_path / "fresh")
        assert (tmp_path / "out" / "results.csv").read_bytes() == (
            tmp_path / "fresh" / "results.csv"
        ).read_bytes()
        assert len(ref.results) == len(plan.methods) * 2

    def test_stale_cache_with_different_methods_is_recomputed(self, tmp_path):
        small = tiny_plan(out_methods=(MethodSpec(method="bu"), MethodSpec(method="rv")))
        execute_plan(small, tmp_path / "out")
        richer = tiny_plan()
        report = execute_plan(richer, tmp_path / "out")
        assert {r.method for r in report.results} == {"maddm", "fna", "rv", "bu"}

    def test_cell_file_in_earlier_format_is_served(self, tmp_path):
        # result dicts in the earlier key order, under the stamp the plan's own run wrote
        plan = tiny_plan(out_methods=(MethodSpec(method="bu"),))
        execute_plan(plan, tmp_path)
        stored = {
            "method": "bu", "variant": "standard", "environment": "env1",
            "accuracy_mean": 0.8, "repetition": 0, "utility": 1234.5,
            "correct_count": 40, "total_cost": 0.0, "n_decisions": 40,
        }
        for rep in (0, 1):
            path = tmp_path / "cells" / f"cell_0_0_{rep}.json"
            stamp = json.loads(path.read_text())["stamp"]
            payload = {"stamp": stamp,
                       "runs": [{"label": "bu:standard", "result": dict(stored, repetition=rep)}]}
            path.write_text(json.dumps(payload))
        report = execute_plan(plan, tmp_path)
        assert report.results == [
            RunResult(**dict(stored, repetition=rep)) for rep in (0, 1)
        ]

    def test_unstamped_cell_file_is_recomputed(self, tmp_path):
        plan = tiny_plan(out_methods=(MethodSpec(method="bu"),))
        reference = execute_plan(plan, tmp_path / "fresh").results
        (tmp_path / "out" / "cells").mkdir(parents=True)
        for rep in (0, 1):
            result = dict(vars(reference[rep]), utility=1234.5)
            del result["trace"]
            payload = {"runs": [{"label": "bu:standard", "result": result}]}
            (tmp_path / "out" / "cells" / f"cell_0_0_{rep}.json").write_text(json.dumps(payload))
        assert execute_plan(plan, tmp_path / "out").results == reference

    @pytest.mark.parametrize("stamped", [False, True])
    def test_cell_file_of_another_shape_is_recomputed(self, tmp_path, stamped):
        # valid JSON but not a stamped cell: a list, or the cell's stamp with no runs
        plan = tiny_plan(out_methods=(MethodSpec(method="bu"),))
        reference = execute_plan(plan, tmp_path / "fresh").results
        path = tmp_path / "out" / "cells" / "cell_0_0_0.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"stamp": _cell_stamps(plan)[0, 0, 0]} if stamped else []))
        assert execute_plan(plan, tmp_path / "out").results == reference
        assert len(json.loads(path.read_text())["runs"]) == 1

    @pytest.mark.parametrize("kept", ["no runs", "the first run", "a run without a result"])
    def test_cell_file_short_of_the_plans_runs_is_recomputed(self, tmp_path, kept):
        # the cell's stamp over runs that do not hold one result per method, in order
        plan = replace(tiny_plan(out_methods=(MethodSpec(method="bu"), MethodSpec(method="rv"))),
                       repetitions=1, n_decisions=20)
        execute_plan(plan, tmp_path)
        reference = (tmp_path / "results.csv").read_bytes()
        path = tmp_path / "cells" / "cell_0_0_0.json"
        payload = json.loads(path.read_text())
        payload["runs"] = {"no runs": [], "the first run": payload["runs"][:1],
                           "a run without a result": [{}]}[kept]
        path.write_text(json.dumps(payload))
        execute_plan(plan, tmp_path)
        assert (tmp_path / "results.csv").read_bytes() == reference
        assert [run["label"] for run in json.loads(path.read_text())["runs"]] == ["bu:standard", "rv:standard"]

    @pytest.mark.parametrize("result", [{}, 5, {"method": "bu"}], ids=["empty", "a number", "fields missing"])
    def test_cell_file_whose_result_does_not_load_is_recomputed(self, tmp_path, result):
        plan = replace(tiny_plan(out_methods=(MethodSpec(method="bu"), MethodSpec(method="rv"))),
                       repetitions=1, n_decisions=20)
        execute_plan(plan, tmp_path)
        reference = (tmp_path / "results.csv").read_bytes()
        path = tmp_path / "cells" / "cell_0_0_0.json"
        payload = json.loads(path.read_text())
        payload["runs"][0]["result"] = result
        path.write_text(json.dumps(payload))
        execute_plan(plan, tmp_path)
        assert (tmp_path / "results.csv").read_bytes() == reference
        assert json.loads(path.read_text())["runs"][0]["result"]["method"] == "bu"

    def test_cache_is_not_served_for_another_seed(self, tmp_path):
        plan = replace(tiny_plan(out_methods=(MethodSpec(method="maddm"),)), repetitions=1)
        execute_plan(replace(plan, base_seed=0), tmp_path / "out")
        rerun = execute_plan(replace(plan, base_seed=7), tmp_path / "out")
        fresh = execute_plan(replace(plan, base_seed=7), tmp_path / "fresh")
        assert [r.utility for r in rerun.results] == [r.utility for r in fresh.results]

    @pytest.mark.parametrize("first, second", [
        (MethodSpec(method="fna"),
         MethodSpec(method="fna", fna_k=2)),
        (MethodSpec(method="maddm"),
         MethodSpec(method="maddm", review=ReviewConfig(frequency=10))),
    ])
    def test_cache_is_not_served_for_another_knob(self, tmp_path, first, second):
        execute_plan(tiny_plan(out_methods=(first,)), tmp_path / "out")
        rerun = execute_plan(tiny_plan(out_methods=(second,)), tmp_path / "out")
        assert rerun.results == execute_plan(tiny_plan(out_methods=(second,)), tmp_path / "fresh").results

    def test_more_repetitions_recompute_only_new_cells(self, tmp_path):
        plan = tiny_plan()
        execute_plan(plan, tmp_path / "out")
        cells = tmp_path / "out" / "cells"
        before = {path.name: path.stat().st_mtime_ns for path in cells.glob("*.json")}
        extended = replace(plan, repetitions=3)
        execute_plan(extended, tmp_path / "out")
        after = {path.name: path.stat().st_mtime_ns for path in cells.glob("*.json")}
        assert {name: after[name] for name in before} == before
        assert set(after) - set(before) == {"cell_0_0_2.json"}
        execute_plan(extended, tmp_path / "fresh")
        assert (tmp_path / "out" / "results.csv").read_bytes() == (
            tmp_path / "fresh" / "results.csv"
        ).read_bytes()

    def test_code_change_recomputes_every_cell(self, tmp_path, monkeypatch):
        plan = tiny_plan()
        execute_plan(plan, tmp_path / "out")
        ran = []
        run_cell = harness.run_cell
        monkeypatch.setattr(harness, "run_cell", lambda *args: ran.append(args[1:]) or run_cell(*args))
        execute_plan(plan, tmp_path / "out")
        assert ran == []
        monkeypatch.setattr(harness, "_code_digest", lambda: "an edited module")
        execute_plan(plan, tmp_path / "out")
        assert ran == plan.cells()

    def test_importing_the_harness_leaves_the_process_pool_unloaded(self):
        # a serial run never needs multiprocessing; execute_plan imports the
        # pool when jobs > 1
        code = (
            "import sys, maddm.harness; print(sorted(name for name in "
            "('concurrent.futures.process', 'multiprocessing') if name in sys.modules))"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_a_failed_pooled_plan_keeps_its_finished_cells(self, tmp_path, monkeypatch):
        plan = replace(tiny_plan(out_methods=(MethodSpec(method="rv"),)), repetitions=6, n_decisions=20)
        (tmp_path / "returned").mkdir()
        # patched before the pool forks, so every worker runs the faulty runner
        monkeypatch.setitem(_FAULT, "cell", plan.cells()[0])
        monkeypatch.setitem(_FAULT, "returned", tmp_path / "returned")
        monkeypatch.setattr(harness, "run_cell", _faulty_run_cell)
        with pytest.raises(RuntimeError, match="cell env=0 grid=0 rep=0 failed"):
            execute_plan(plan, tmp_path / "out", jobs=2)
        stored = {path.name for path in (tmp_path / "out" / "cells").glob("*.json")}
        assert {path.name for path in (tmp_path / "returned").iterdir()} <= stored
        assert cell_file(plan.cells()[0]) not in stored

        ran = []
        monkeypatch.setattr(harness, "run_cell", lambda *args: ran.append(args[1:]) or run_cell(*args))
        execute_plan(plan, tmp_path / "out")
        assert ran == [cell for cell in plan.cells() if cell_file(cell) not in stored]
        execute_plan(plan, tmp_path / "serial")
        assert (tmp_path / "out" / "results.csv").read_bytes() == (tmp_path / "serial" / "results.csv").read_bytes()

    def test_a_cell_that_cannot_be_stored_fails_named(self, tmp_path, monkeypatch):
        plan = replace(tiny_plan(out_methods=(MethodSpec(method="rv"),)), n_decisions=20)
        ran = []
        monkeypatch.setattr(harness, "run_cell", lambda *args: ran.append(args[1:]) or run_cell(*args))
        monkeypatch.setattr(harness, "_store_cell", _unstorable)
        with pytest.raises(RuntimeError, match="cell env=0 grid=0 rep=0 failed") as raised:
            execute_plan(plan, tmp_path / "out")
        assert isinstance(raised.value.__cause__, OSError)
        assert ran == plan.cells()[:1]

    def test_a_pooled_cell_that_cannot_be_stored_fails_named_and_cancels_the_queue(self, tmp_path, monkeypatch):
        plan = replace(tiny_plan(out_methods=(MethodSpec(method="rv"),)), repetitions=12, n_decisions=20)
        (tmp_path / "returned").mkdir()
        # patched before the pool forks; every cell is slow, so the queue is
        # still full when the first store fails, in this process
        monkeypatch.setitem(_FAULT, "cell", None)
        monkeypatch.setitem(_FAULT, "returned", tmp_path / "returned")
        monkeypatch.setitem(_FAULT, "delay", 0.2)
        monkeypatch.setattr(harness, "run_cell", _faulty_run_cell)
        monkeypatch.setattr(harness, "_store_cell", _unstorable)
        with pytest.raises(RuntimeError, match="cell env=0 grid=0 rep=0 failed") as raised:
            execute_plan(plan, tmp_path / "out", jobs=2)
        assert isinstance(raised.value.__cause__, OSError)
        assert len(list((tmp_path / "returned").iterdir())) < len(plan.cells())
        assert not list((tmp_path / "out").glob("cells/*"))

    def test_a_failed_cell_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness.os, "replace", _unstorable)
        with pytest.raises(RuntimeError, match="cell env=0 grid=0 rep=0 failed"):
            execute_plan(tiny_plan(out_methods=(MethodSpec(method="bu"),)), tmp_path / "out")
        assert list((tmp_path / "out" / "cells").iterdir()) == []

    def test_parallel_execution_matches_serial(self, tmp_path):
        plan = tiny_plan()
        execute_plan(plan, tmp_path / "serial", jobs=1)
        execute_plan(plan, tmp_path / "parallel", jobs=2)
        assert (tmp_path / "serial" / "results.csv").read_bytes() == (
            tmp_path / "parallel" / "results.csv"
        ).read_bytes()

    @pytest.mark.parametrize("jobs", [0, -2, 1.5, True])
    def test_jobs_below_one_rejected(self, tmp_path, jobs):
        with pytest.raises(ValueError, match="jobs must be an int of at least 1"):
            execute_plan(tiny_plan(out_methods=(MethodSpec(method="bu"),)), tmp_path, jobs=jobs)

    @pytest.mark.parametrize("jobs, cached, pools", [
        (1, 0, []), (2, 0, [2]), (64, 0, [3]), (64, 2, []), (64, 3, []),
    ], ids=["one job", "jobs below missing", "jobs above missing", "one missing", "none missing"])
    def test_pool_is_no_larger_than_the_missing_cells(self, tmp_path, monkeypatch, jobs, cached, pools):
        # a process pool forks all its workers at the first submit; this one
        # records its size and runs each cell inline, so no process starts
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        plan = replace(tiny_plan(out_methods=(MethodSpec(method="rv"),)), repetitions=3, n_decisions=20)
        if cached:
            execute_plan(replace(plan, repetitions=cached), tmp_path / "out")
        execute_plan(plan, tmp_path / "out", jobs=jobs)
        assert sizes == pools
        execute_plan(plan, tmp_path / "serial")
        assert (tmp_path / "out" / "results.csv").read_bytes() == (
            tmp_path / "serial" / "results.csv").read_bytes()

    def test_results_csv_values_parse_back_to_the_cell_files_doubles(self, tmp_path):
        # results.csv writes each float as its shortest round-trip text, so
        # maddm report rebuilds the tables from the very doubles maddm run used
        plan = tiny_plan()
        execute_plan(plan, tmp_path)
        stored = [
            RunResult(**entry["result"])
            for cell in plan.cells()
            for entry in json.loads((tmp_path / "cells" / cell_file(cell)).read_text())["runs"]
        ]
        assert read_results_csv(tmp_path / "results.csv") == stored


class TestMethodKnobs:
    def test_specs_that_run_the_same_way_are_equal_and_share_stamps(self):
        # a knob the spec does not read is taken only at its default
        spec = MethodSpec("maddm", fna_k=5, strategy=StrategyConfig())
        assert spec == MethodSpec("maddm")
        assert _cell_stamps(tiny_plan(out_methods=(spec,))) == _cell_stamps(
            tiny_plan(out_methods=(MethodSpec("maddm"),)))
        with pytest.raises(ValueError, match=re.escape("maddm:standard does not read ['fna_k'];")):
            MethodSpec("maddm", fna_k=2)

    @pytest.mark.parametrize("method", ["maddm", "fna", "bu"])
    def test_warm_up_rounds_reach_the_stamp_only_with_exploration_first(self, method):
        def stamps(variant, rounds):
            return _cell_stamps(tiny_plan(out_methods=(MethodSpec(method, variant, exploration_first_rounds=rounds),)))

        for variant in ("standard", "exploration_first"):
            if variant == "exploration_first" and method != "bu":
                assert stamps(variant, 2) != stamps(variant, 10)
                continue
            # a spec that does not read its rounds cannot be given others
            for rounds in (-1, 2):
                with pytest.raises(ValueError, match=re.escape("does not read ['exploration_first_rounds']")):
                    stamps(variant, rounds)

    @pytest.mark.parametrize("variant", ["standard", "exploration_first"])
    @pytest.mark.parametrize("method", ["maddm", "fna", "bc", "rv", "bu"])
    def test_warm_up_rounds_are_the_rounds_of_a_spec_that_reads_them(self, method, variant):
        # an exploration-first maddm, fna, bc or rv warms up; bu and every
        # standard spec do not, and hold their rounds at the default
        reads = variant == "exploration_first" and method != "bu"
        assert MethodSpec(method, variant).warm_up_rounds == (10 if reads else 0)
        if reads:
            assert MethodSpec(method, variant, exploration_first_rounds=7).warm_up_rounds == 7
        else:
            with pytest.raises(ValueError, match=re.escape("does not read ['exploration_first_rounds']")):
                MethodSpec(method, variant, exploration_first_rounds=7)

    @pytest.mark.parametrize("method", ["maddm", "fna", "bc", "rv"])
    def test_a_direct_runner_call_plays_its_specs_warm_up_and_carries_its_variant(self, template_world, method):
        env = template_world("env1", 0.8, 4, n_decisions=12)
        spec = MethodSpec(method, "exploration_first", exploration_first_rounds=3)
        runner = run_maddm if method == "maddm" else run_baseline
        result = runner(spec, env, np.random.default_rng(0), trace=True)
        everyone = list(range(env.n_advisors))
        # a hire after the warm-up takes at least one round
        warmed = [row["rounds"] == 0 and row["hired"] == everyone for row in result.trace]
        assert warmed == [True] * 3 + [False] * 9
        assert (result.method, result.variant) == (method, "exploration_first")

    def test_the_runners_and_the_loop_read_the_warm_up_from_the_spec(self):
        for runner in (run_maddm, run_baseline):
            assert list(inspect.signature(runner).parameters) == ["spec", "environment", "rng", "trace"]
        assert "warm_up_rounds" not in inspect.signature(play).parameters

    @pytest.mark.parametrize("entry, keys", [
        ({"method": "rv", "fna_k": 2}, ["fna_k"]),
        ({"method": "rv", "strategy": {"kind": "thompson"}}, ["strategy"]),
        ({"method": "bu", "bc_budget_fraction": 0.5, "strategy": {"kind": "ucb"}},
         ["bc_budget_fraction", "strategy"]),
        ({"method": "maddm", "exploration_first_rounds": 3}, ["exploration_first_rounds"]),
        ({"method": "maddm", "exploration_first_rounds": -1}, ["exploration_first_rounds"]),
        ({"method": "bu", "exploration_first_rounds": -1}, ["exploration_first_rounds"]),
    ])
    def test_knob_the_spec_does_not_read_rejected_at_load(self, entry, keys):
        assert_rejected_alike(entry, keys)

    def test_knob_the_spec_does_not_read_loads_at_its_default(self):
        # compared as loaded, so an integral float counts as its int
        entry = {"method": "bu", "strategy": {"kind": "epsilon_greedy"}, "fna_k": 5.0,
                 "bc_budget_fraction": 0.1, "rv_k": 3, "exploration_first_rounds": 10.0}
        assert plan_from_dict({**MINIMAL_PLAN, "methods": [entry]}).methods == (MethodSpec("bu"),)

    @pytest.mark.parametrize("entry", [
        {"method": "fna", "review": {}},
        {"method": "bc", "review": {"threshold": 1e-3, "mode": "rebuild"}},
        {"method": "rv", "review": {"frequency": 1}},
        {"method": "bu", "review": {}},
        {"method": "maddm", "fna_k": 5},
        {"method": "maddm", "rv_k": 3.0},
        {"method": "maddm", "bc_budget_fraction": 0.1},
    ])
    def test_another_methods_knob_at_its_default_loads(self, entry):
        # one rule for every knob: an entry may carry any knob its spec does
        # not read, at that knob's default
        loaded = plan_from_dict({**MINIMAL_PLAN, "methods": [entry]}).methods
        assert loaded == (MethodSpec(entry["method"]),)

    @pytest.mark.parametrize("entry, keys", [
        ({"method": "fna", "review": {"threshold": 0.01}}, ["review"]),
        ({"method": "bc", "review": {"max_passes": 3}}, ["review"]),
        ({"method": "rv", "review": {"frequency": 2}}, ["review"]),
        ({"method": "bu", "review": {"threshold": 0.01}}, ["review"]),
        ({"method": "maddm", "fna_k": 7}, ["fna_k"]),
        ({"method": "maddm", "rv_k": 4}, ["rv_k"]),
        ({"method": "maddm", "bc_budget_fraction": 0.5, "rv_k": 3}, ["bc_budget_fraction"]),
    ])
    def test_another_methods_knob_off_its_default_rejected_at_load(self, entry, keys):
        assert_rejected_alike(entry, keys)

    def test_the_spec_holds_and_checks_the_three_hiring_knobs(self):
        def hiring(spec):
            return spec.fna_k, spec.bc_budget_fraction, spec.rv_k

        assert hiring(MethodSpec("fna", fna_k=7)) == (7, 0.10, 3)
        assert hiring(MethodSpec("bc", bc_budget_fraction=0.25)) == (5, 0.25, 3)
        assert hiring(replace(MethodSpec("rv"), rv_k=2)) == (5, 0.10, 2)
        with pytest.raises(ValueError, match="budget fraction"):
            MethodSpec("bc", bc_budget_fraction=0.0)
        with pytest.raises(ValueError, match="fna_k"):
            MethodSpec("fna", fna_k=0)
        with pytest.raises(ValueError, match="rv_k"):
            MethodSpec("rv", rv_k=0)
        # a knob the method does not read is held to its default before any count is checked
        with pytest.raises(ValueError, match=re.escape("bc:standard does not read ['fna_k']")):
            MethodSpec("bc", bc_budget_fraction=0.25, fna_k=7)
        with pytest.raises(ValueError, match=re.escape("maddm:standard does not read ['fna_k']")):
            MethodSpec("maddm", fna_k=0)
        with pytest.raises(ValueError, match=re.escape("maddm:standard does not read ['exploration_first_rounds']")):
            MethodSpec("maddm", exploration_first_rounds=-1)
        # the three knobs have no section of their own in a plan
        with pytest.raises(ValueError, match="baseline"):
            plan_from_dict({**MINIMAL_PLAN, "methods": [{"method": "fna", "baseline": {"fna_k": 2}}]})

    def test_spec_round_trips_through_the_plan_format(self):
        plan = tiny_plan(out_methods=(MethodSpec("fna", fna_k=7),))
        data = json.loads(json.dumps(plan_to_dict(plan)))
        assert data["methods"] == [{
            "method": "fna", "variant": "standard",
            "strategy": {"kind": "epsilon_greedy", "epsilon": 0.1, "criterion": "cost_effectiveness"},
            "fna_k": 7,
        }]
        again = plan_from_dict(data)
        assert again == plan
        assert again.methods[0].fna_k == 7

    def test_writer_gives_each_entry_the_knobs_its_spec_reads(self):
        entries = plan_to_dict(default_plan())["methods"]
        assert {(entry["method"], entry["variant"]): set(entry) - {"method", "variant"}
                for entry in entries} == {
            ("maddm", "standard"): {"review"},
            ("fna", "standard"): {"strategy", "fna_k"},
            ("bc", "standard"): {"strategy", "bc_budget_fraction"},
            ("rv", "standard"): {"rv_k"},
            ("maddm", "exploration_first"): {"review", "exploration_first_rounds"},
            ("fna", "exploration_first"): {"strategy", "fna_k", "exploration_first_rounds"},
            ("bc", "exploration_first"): {"strategy", "bc_budget_fraction", "exploration_first_rounds"},
            ("rv", "exploration_first"): {"rv_k", "exploration_first_rounds"},
            ("bu", "standard"): set(),
        }


class TestPlanSerialization:
    def test_round_trip(self):
        plan = default_plan()
        again = plan_from_dict(plan_to_dict(plan))
        assert again == plan

    def test_custom_template_and_method_settings(self):
        data = {
            "base_seed": 3,
            "repetitions": 4,
            "n_decisions": 55,
            "n_advisors": 9,
            "environments": [
                "env1",
                {"name": "mid", "value_mean": 250.0, "value_std": 250.0},
            ],
            "accuracy_means": [0.6, 0.9],
            "methods": [
                {"method": "maddm", "variant": "exploration_first",
                 "review": {"frequency": 5, "mode": "rebuild"}},
                {"method": "fna", "fna_k": 7,
                 "strategy": {"kind": "ucb", "criterion": "trustworthiness"}},
                {"method": "bc", "bc_budget_fraction": 0.25},
            ],
        }
        plan = plan_from_dict(data)
        assert plan.environments[1] == EnvironmentTemplate("mid", 250.0, 250.0)
        assert plan.methods[0].review.frequency == 5
        assert plan.methods[1].fna_k == 7
        assert plan.methods[1].strategy.kind == "ucb"
        assert plan.methods[2].bc_budget_fraction == 0.25
        assert json.dumps(plan_to_dict(plan))  # serializable
        assert plan_from_dict(plan_to_dict(plan)) == plan
        assert plan_to_dict(plan)["methods"][0]["review"] == {
            "threshold": 1e-3, "max_passes": 100, "frequency": 5,
        }

    @pytest.mark.parametrize("source, expected", [
        (None, written_default_plan([0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0], 20, 1000)),
        ("check.json", written_default_plan([0.55, 0.8, 1.0], 2, 300)),
        ("paper.json", written_default_plan([round(0.51 + 0.01 * k, 2) for k in range(50)], 20, 1000)),
    ])
    def test_writer_output_is_pinned(self, source, expected):
        # every cell stamp hashes this text, so a change to it recomputes every cached cell
        plan = default_plan() if source is None else plan_from_dict(json.loads((PLANS / source).read_text()))
        assert json.dumps(plan_to_dict(plan)) == json.dumps(expected)

    def test_unsupported_review_mode_rejected_at_load(self):
        data = plan_to_dict(tiny_plan())
        data["methods"][0]["review"]["mode"] = "accumulate"
        with pytest.raises(ValueError, match="review mode"):
            plan_from_dict(data)

    @pytest.mark.parametrize("entry, key", [
        ({"method": "fna", "review": {"threshold": 0.01}}, "review"),
        ({"method": "maddm", "fna_k": 2}, "fna_k"),
    ])
    def test_key_the_entrys_method_does_not_read_rejected_at_load(self, entry, key):
        with pytest.raises(ValueError, match=key):
            plan_from_dict({**MINIMAL_PLAN, "methods": [entry]})

    @pytest.mark.parametrize("method, knob", [("fna", "fna_k"), ("rv", "rv_k")])
    def test_advisor_count_beyond_pool_rejected_at_load(self, method, knob):
        data = plan_to_dict(tiny_plan(out_methods=(MethodSpec(method=method),)))
        data["n_advisors"] = 3
        data["methods"][0][knob] = 4
        with pytest.raises(ValueError, match=knob):
            plan_from_dict(data)

    @pytest.mark.parametrize("data, section", [
        ({**MINIMAL_PLAN, "accuracy_means": 0.8}, "accuracy_means"),
        ({**MINIMAL_PLAN, "accuracy_means": [None]}, "accuracy_means"),
        ({**MINIMAL_PLAN, "environments": "env1"}, "environments"),
        ({**MINIMAL_PLAN, "methods": [5]}, "methods entry"),
        ({**MINIMAL_PLAN, "methods": {"method": "bu"}}, "methods"),
        ({**MINIMAL_PLAN, "methods": [{"method": "maddm", "review": 5}]}, "review"),
        ({**MINIMAL_PLAN, "methods": [{"method": "fna", "strategy": 5}]}, "strategy"),
        ([MINIMAL_PLAN], "plan"),
    ])
    def test_section_of_the_wrong_shape_rejected_at_load(self, data, section):
        with pytest.raises(ValueError, match=f"^{section} must be"):
            plan_from_dict(data)

    @pytest.mark.parametrize("data, message", [
        ({**MINIMAL_PLAN, "methods": [{"method": "mvp"}]}, "unknown method 'mvp'"),
        ({**MINIMAL_PLAN, "methods": [{"method": "fna", "variant": "greedy"}]}, "unknown variant 'greedy'"),
        ({**MINIMAL_PLAN, "environments": []}, "plan needs at least one"),
        ({**MINIMAL_PLAN, "accuracy_means": []}, "plan needs at least one"),
        ({**MINIMAL_PLAN, "methods": []}, "plan needs at least one"),
    ])
    def test_unknown_method_or_variant_or_empty_section_rejected_at_load(self, data, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            plan_from_dict(data)

    def test_unknown_template_name_rejected(self):
        with pytest.raises(ValueError, match="unknown environment template"):
            EnvironmentTemplate.named("env3")

    def test_negative_value_std_rejected_at_load(self):
        data = plan_to_dict(tiny_plan())
        data["environments"] = [{"name": "env1", "value_mean": 100.0, "value_std": -1.0}]
        with pytest.raises(ValueError, match="std must be non-negative"):
            plan_from_dict(data)

    def test_non_finite_accuracy_mean_rejected_at_load(self):
        data = plan_to_dict(tiny_plan())
        data["accuracy_means"] = [0.8, float("nan")]
        with pytest.raises(ValueError, match="accuracy_means must be finite"):
            plan_from_dict(data)

    @pytest.mark.parametrize("mean", [80, -0.5, 1.01])
    def test_accuracy_mean_outside_unit_interval_rejected_at_load(self, mean):
        # Environment.build clamps every advisor into [0, 1], so a mean of 80
        # would otherwise run silently with every advisor at accuracy 1
        with pytest.raises(ValueError, match=r"accuracy_means must be finite and lie in \[0, 1\]"):
            plan_from_dict({**MINIMAL_PLAN, "accuracy_means": [mean]})

    @pytest.mark.parametrize("key, value", [
        # a custom template under a named template's name
        ("environments", ["env1", {"name": "env1", "value_mean": 500, "value_std": 500}]),
        ("environments", ["env2", "env2"]),
        ("accuracy_means", [0.8, 0.8]),
        ("accuracy_means", [0.6, 0.8, 0.6]),
    ])
    def test_duplicate_grid_coordinate_rejected_at_load(self, key, value):
        # summaries group runs by name and accuracy, so two cells of one row
        # would merge into a single summary and a doubled rank test
        data = plan_to_dict(tiny_plan())
        data[key] = value
        with pytest.raises(ValueError, match=f"duplicate {key}"):
            plan_from_dict(data)

    @pytest.mark.parametrize("name", [5, None, ["x"]])
    @pytest.mark.parametrize("values", [{"value_mean": 1, "value_std": 1}, {}, None])
    def test_non_string_template_name_rejected_at_load(self, name, values):
        # with values the entry is a custom template, without them a named
        # one; with None the entry is the bare name, neither text nor object
        data = plan_to_dict(tiny_plan())
        data["environments"] = [name if values is None else {"name": name, **values}]
        with pytest.raises(ValueError, match="name must be a string|unknown environment template"):
            plan_from_dict(data)

    @pytest.mark.parametrize("section, key, value", [
        ("plan", "repetitions", 2.7),
        ("plan", "n_decisions", 10.9),
        ("method", "fna_k", 2.9),
        ("plan", "repetitions", True),
        ("plan", "accuracy_means", [True]),
        ("method", "bc_budget_fraction", True),
        ("strategy", "epsilon", False),
        ("maddm", "exploration_first_rounds", True),
        ("maddm", "exploration_first_rounds", 1.5),
        ("maddm", "exploration_first_rounds", -1),
        ("bu", "exploration_first_rounds", True),
        ("bu", "exploration_first_rounds", 1.5),
        ("bu", "exploration_first_rounds", -1),
        ("plan", "n_decisions", "abc"),
        ("method", "fna_k", "2.5"),
        ("strategy", "epsilon", "often"),
    ])
    def test_fractional_count_or_bool_rejected_at_load(self, section, key, value):
        # int() truncated 2.7 to 2 and read true as 1; float() read true as 1.0
        data = plan_to_dict(tiny_plan(out_methods=(
            MethodSpec(method="fna"), MethodSpec(method="maddm"), MethodSpec(method="bu"),
        )))
        method, maddm, bu = data["methods"]
        {"plan": data, "method": method, "strategy": method["strategy"],
         "maddm": maddm, "bu": bu}[section][key] = value
        with pytest.raises(ValueError, match=key):
            plan_from_dict(data)

    @pytest.mark.parametrize("make", [
        lambda value: ReviewConfig(frequency=value),
        lambda value: ReviewConfig(max_passes=value),
        lambda value: MethodSpec("maddm", "exploration_first", exploration_first_rounds=value),
        lambda value: MethodSpec("fna", fna_k=value),
        lambda value: MethodSpec("rv", rv_k=value),
        lambda value: MethodSpec("rv", "exploration_first", exploration_first_rounds=value),
        lambda value: replace(tiny_plan(), repetitions=value),
        lambda value: replace(tiny_plan(), base_seed=value),
        lambda value: replace(tiny_plan(), n_decisions=value),
        lambda value: replace(tiny_plan(out_methods=(MethodSpec(method="bu"),)), n_advisors=value),
        lambda value: Environment.build(ENV_TEMPLATES["env1"], 0.8, value, 1, np.random.default_rng(0)),
        lambda value: Environment.build(ENV_TEMPLATES["env1"], 0.8, 1, value, np.random.default_rng(0)),
    ])
    def test_fractional_count_or_bool_rejected_from_python(self, make):
        # a count is an int from Python too: only the plan loader converts an
        # integral 2.0, and it never reaches a constructor as a float
        make(2)
        for value in (1.5, 2.0, True, "2", np.int64(2), -1):
            with pytest.raises(ValueError, match="int"):
                make(value)

    @pytest.mark.parametrize("make, message", [
        (lambda value: MethodSpec("bc", bc_budget_fraction=value), "budget fraction"),
        (lambda value: StrategyConfig(epsilon=value), "epsilon"),
        (lambda value: ReviewConfig(threshold=value), "threshold"),
        (lambda value: EnvironmentTemplate("x", value, 1.0), "value_mean"),
        (lambda value: EnvironmentTemplate("x", 1.0, value), "value_std"),
        (lambda value: replace(tiny_plan(), accuracy_means=(value,)), "accuracy_means"),
    ])
    def test_float_knob_given_as_bool_rejected_from_python(self, make, message):
        # a bool, Python's or numpy's, would be written as text that neither
        # plan_from_dict nor read_results_csv reads back as a number
        make(1.0)
        for value in (True, np.True_):
            with pytest.raises(ValueError, match=message):
                make(value)

    def test_integral_numbers_load_from_json_floats_and_csv_text(self, tmp_path):
        data = plan_to_dict(tiny_plan(out_methods=(MethodSpec(method="fna"),)))
        data["n_decisions"] = 1000.0
        data["methods"][0]["fna_k"] = 2.0
        plan = plan_from_dict(data)
        assert type(plan.n_decisions) is int and plan.n_decisions == 1000
        assert plan.methods[0].fna_k == 2
        # read_results_csv hands every field over as text, "1000" included
        result = RunResult(method="fna", utility=1.5, correct_count=1000, total_cost=2.25, n_decisions=1000,
                           environment="env1", accuracy_mean=0.8, repetition=3)
        path = tmp_path / "results.csv"
        write_results_csv(path, [result])
        assert read_results_csv(path) == [result]
        # text that does not parse names its column
        text = path.read_text()
        assert text.splitlines()[1] == "env1,0.8,3,fna,standard,1.5,1000,2.25,1000"
        path.write_text(text.replace(",1.5,", ",abc,"))
        with pytest.raises(ValueError, match="utility"):
            read_results_csv(path)

    def test_paper_plan_is_the_default_plan_on_the_paper_grid(self):
        path = Path(__file__).resolve().parents[1] / "plans" / "paper.json"
        plan = plan_from_dict(json.loads(path.read_text()))
        grid = tuple(round(0.51 + 0.01 * k, 2) for k in range(50))
        assert grid[0] == 0.51 and grid[-1] == 1.0
        assert plan == replace(default_plan(), accuracy_means=grid)

    def test_check_plan_is_the_default_plan_cut_to_the_desk_corners(self):
        path = Path(__file__).resolve().parents[1] / "plans" / "check.json"
        plan = plan_from_dict(json.loads(path.read_text()))
        cut = replace(default_plan(), accuracy_means=(0.55, 0.8, 1.0), repetitions=2, n_decisions=300)
        assert plan == cut

    def test_check_plan_reproduces_its_recorded_tables_byte_for_byte(self, tmp_path):
        # plans/check/ may be re-recorded only by a change that declares a
        # results change and names every row it moves
        plans = Path(__file__).resolve().parents[1] / "plans"
        execute_plan(plan_from_dict(json.loads((plans / "check.json").read_text())), tmp_path)
        for name in ("results.csv", "summary.csv", "significance.csv"):
            assert (tmp_path / name).read_bytes() == (plans / "check" / name).read_bytes(), name

    def test_readme_plan_loads_and_round_trips(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```json\n(.*?)```", readme, re.DOTALL)
        plan = plan_from_dict(json.loads(block.group(1)))
        assert plan_from_dict(plan_to_dict(plan)) == plan

    def test_readme_python_blocks_run(self, capsys):
        # the second block reuses the first one's names, as a reader would
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        assert len(blocks) == 2
        namespace: dict = {}
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
        assert len(capsys.readouterr().out.splitlines()) == 2

    @given(
        data=st.data(),
        n_advisors=st.integers(0, 6),
        fna_k=st.integers(0, 7),
        rv_k=st.integers(0, 7),
    )
    def test_plan_either_fails_at_load_or_runs(self, data, n_advisors, fna_k, rv_k):
        plan = {
            "base_seed": 1, "repetitions": 1, "n_decisions": 5, "n_advisors": n_advisors,
            "environments": ["env1"], "accuracy_means": [0.8],
            "methods": [
                {"method": "maddm", "strategy": {}, "review": {"frequency": 2}},
                {"method": "fna", "strategy": {"kind": "ucb"}, "fna_k": fna_k},
                {"method": "rv", "rv_k": rv_k},
            ],
        }
        sections = {
            "top": plan,
            "method": plan["methods"][1],
            "strategy": plan["methods"][0]["strategy"],
            "review": plan["methods"][0]["review"],
            "maddm": plan["methods"][0],
        }
        unknown = data.draw(st.lists(st.sampled_from(sorted(sections)), unique=True))
        for name in unknown:
            sections[name]["x_" + data.draw(st.text("abK_", min_size=1, max_size=4))] = 1
        bad = bool(unknown) or not (1 <= fna_k <= n_advisors and 1 <= rv_k <= n_advisors)
        try:
            loaded = plan_from_dict(plan)
        except ValueError:
            assert bad
            return
        assert not bad
        with tempfile.TemporaryDirectory() as out_dir:
            report = execute_plan(loaded, out_dir)
        assert len(report.results) == 3

    def test_duplicate_methods_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentPlan(
                environments=(EnvironmentTemplate.named("env1"),),
                accuracy_means=(0.8,),
                methods=(MethodSpec(method="bu"), MethodSpec(method="bu")),
            )
