from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maddm.baselines import BaselineConfig
from maddm.environment import ENV_TEMPLATES, Environment, EnvironmentConfig, ErgdParams, env_config
from maddm.harness import (
    EnvironmentTemplate,
    ExperimentPlan,
    MaddmConfig,
    MethodSpec,
    _environment_rng,
    build_cell_environment,
    default_plan,
    execute_plan,
    plan_from_dict,
    plan_to_dict,
    read_results_csv,
    run_maddm,
    run_method,
    significance_tests,
    summarize,
    write_results_csv,
)
from maddm.results import RunResult
from maddm.review import ReviewConfig


def tiny_plan(out_methods=None, base_seed=7) -> ExperimentPlan:
    methods = out_methods or (
        MethodSpec(method="maddm", maddm=MaddmConfig(review=ReviewConfig(frequency=10))),
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


class TestRunMaddm:
    def test_noiseless_free_pool_is_perfect_after_warmup(self):
        # stakes bounded away from zero: a worthless decision is correctly
        # answered blind, which would dilute the perfect count
        config = EnvironmentConfig(
            n_decisions=80,
            n_advisors=6,
            value_params=ErgdParams(100.0, 100.0, lower=5.0),
            accuracy_params=ErgdParams(1.0, 0.0, lower=0.0, upper=1.0),
            cost_mean_factor=0.0,
            cost_std=0.0,
            seed=3,
        )
        env = Environment.build(config)
        result = run_maddm(env, MaddmConfig(), np.random.default_rng(0), exploration_first=True)
        assert result.total_cost == 0.0
        assert result.correct_count == env.n_decisions
        assert result.utility == pytest.approx(
            math.fsum(d.value.profit for d in env.decisions), abs=1e-9
        )

    def test_adversarial_pool_keeps_accounting_identity(self):
        config = EnvironmentConfig(
            n_decisions=60,
            n_advisors=8,
            accuracy_params=ErgdParams(0.0, 0.0, lower=0.0, upper=1.0),
            seed=5,
        )
        env = Environment.build(config)
        result = run_maddm(
            env, MaddmConfig(review=ReviewConfig(frequency=5)),
            np.random.default_rng(1), trace=True,
        )
        self._check_identity(env, result)

    def test_accounting_identity_on_generic_world(self):
        env = Environment.build(env_config("env2", 0.75, seed=9, n_decisions=120))
        result = run_maddm(env, MaddmConfig(), np.random.default_rng(2), trace=True)
        self._check_identity(env, result)

    @staticmethod
    def _check_identity(env, result):
        won = math.fsum(
            d.value.profit for d, row in zip(env.decisions, result.trace) if row["correct"]
        )
        lost = math.fsum(
            d.value.loss for d, row in zip(env.decisions, result.trace) if not row["correct"]
        )
        fees = math.fsum(row["total_cost"] for row in result.trace)
        scale = max(1.0, abs(result.utility))
        assert result.utility == pytest.approx(won - lost - fees, abs=1e-9 * scale)
        assert result.total_cost == pytest.approx(fees, abs=1e-9 * scale)
        assert result.correct_count == sum(row["correct"] for row in result.trace)

    def test_exploration_first_consults_whole_pool(self):
        env = Environment.build(env_config("env1", 0.8, seed=2, n_decisions=25))
        config = MaddmConfig(exploration_first_rounds=10)
        result = run_maddm(env, config, np.random.default_rng(3), exploration_first=True, trace=True)
        full_cost = math.fsum(env.costs)
        for row in result.trace[:10]:
            assert len(row["hired"]) == env.n_advisors
            assert row["total_cost"] == pytest.approx(full_cost)

    def test_empty_hire_answers_negative_at_zero_cost(self):
        # all advisors cost more than any decision can be worth
        config = EnvironmentConfig(
            n_decisions=30,
            n_advisors=5,
            value_params=ErgdParams(10.0, 0.0, lower=0.0),
            accuracy_params=ErgdParams(0.9, 0.0, lower=0.0, upper=1.0),
            cost_mean_factor=1000.0,
            cost_std=0.0,
            seed=6,
        )
        env = Environment.build(config)
        result = run_maddm(env, MaddmConfig(), np.random.default_rng(4), trace=True)
        assert result.total_cost == 0.0
        assert result.correct_count == 0
        for row in result.trace:
            assert row["hired"] == []
            assert row["answer"] == -1
            assert row["confidence"] == 0.0

    def test_monotone_accuracy_sweep_with_free_full_pool(self):
        # whole pool consulted at zero cost: mean correctness should climb
        # with the advisor-accuracy grid, up to 3-sigma noise
        grid = (0.55, 0.7, 0.85, 1.0)
        reps = 3
        means, sigmas = [], []
        for accuracy in grid:
            counts = []
            for rep in range(reps):
                config = EnvironmentConfig(
                    n_decisions=60,
                    n_advisors=10,
                    accuracy_params=ErgdParams(accuracy, 0.3, lower=0.0, upper=1.0),
                    cost_mean_factor=0.0,
                    cost_std=0.0,
                    seed=100 + rep,
                )
                env = Environment.build(config)
                result = run_maddm(
                    env,
                    MaddmConfig(exploration_first_rounds=env.n_decisions,
                                review=ReviewConfig(frequency=10)),
                    np.random.default_rng(rep),
                    exploration_first=True,
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
        config = env_config(name, 0.8, n_decisions=plan.n_decisions, n_advisors=plan.n_advisors)
        expected = Environment.build(config, _environment_rng(plan, 0, 0, 1))
        assert build_cell_environment(plan, 0, 0, 1).digest() == expected.digest()

    @pytest.mark.parametrize("method", ["maddm", "fna"])
    def test_run_method_keeps_the_variant(self, method):
        env = Environment.build(env_config("env1", 0.8, seed=1, n_decisions=15, n_advisors=6))
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

    def test_cache_is_not_served_for_another_seed(self, tmp_path):
        plan = replace(tiny_plan(out_methods=(MethodSpec(method="maddm"),)), repetitions=1)
        execute_plan(replace(plan, base_seed=0), tmp_path / "out")
        rerun = execute_plan(replace(plan, base_seed=7), tmp_path / "out")
        fresh = execute_plan(replace(plan, base_seed=7), tmp_path / "fresh")
        assert [r.utility for r in rerun.results] == [r.utility for r in fresh.results]

    @pytest.mark.parametrize("first, second", [
        (MethodSpec(method="fna"),
         MethodSpec(method="fna", baseline=BaselineConfig(method="fna", fna_k=2))),
        (MethodSpec(method="maddm"),
         MethodSpec(method="maddm", maddm=MaddmConfig(review=ReviewConfig(frequency=10)))),
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

    def test_parallel_execution_matches_serial(self, tmp_path):
        plan = tiny_plan()
        execute_plan(plan, tmp_path / "serial", jobs=1)
        execute_plan(plan, tmp_path / "parallel", jobs=2)
        assert (tmp_path / "serial" / "results.csv").read_bytes() == (
            tmp_path / "parallel" / "results.csv"
        ).read_bytes()


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
        assert plan.methods[0].maddm.review.frequency == 5
        assert plan.methods[1].baseline.fna_k == 7
        assert plan.methods[1].strategy.kind == "ucb"
        assert plan.methods[2].baseline.bc_budget_fraction == 0.25
        assert json.dumps(plan_to_dict(plan))  # serializable
        assert plan_to_dict(plan)["methods"][0]["review"] == {
            "threshold": 1e-3, "max_passes": 100, "frequency": 5,
        }

    def test_unsupported_review_mode_rejected_at_load(self):
        data = plan_to_dict(tiny_plan())
        data["methods"][0]["review"]["mode"] = "accumulate"
        with pytest.raises(ValueError, match="review mode"):
            plan_from_dict(data)

    @pytest.mark.parametrize("method, knob", [("fna", "fna_k"), ("rv", "rv_k")])
    def test_advisor_count_beyond_pool_rejected_at_load(self, method, knob):
        data = plan_to_dict(tiny_plan(out_methods=(MethodSpec(method=method),)))
        data["n_advisors"] = 3
        data["methods"][0][knob] = 4
        with pytest.raises(ValueError, match=knob):
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

    @pytest.mark.parametrize("section, key, value", [
        ("plan", "repetitions", 2.7),
        ("plan", "n_decisions", 10.9),
        ("method", "fna_k", 2.9),
        ("plan", "repetitions", True),
        ("plan", "accuracy_means", [True]),
        ("method", "bc_budget_fraction", True),
        ("strategy", "epsilon", False),
    ])
    def test_fractional_count_or_bool_rejected_at_load(self, section, key, value):
        # int() truncated 2.7 to 2 and read true as 1; float() read true as 1.0
        data = plan_to_dict(tiny_plan(out_methods=(MethodSpec(method="fna"),)))
        method = data["methods"][0]
        {"plan": data, "method": method, "strategy": method["strategy"]}[section][key] = value
        with pytest.raises(ValueError, match=key):
            plan_from_dict(data)

    def test_integral_numbers_load_from_json_floats_and_csv_text(self, tmp_path):
        data = plan_to_dict(tiny_plan(out_methods=(MethodSpec(method="fna"),)))
        data["n_decisions"] = 1000.0
        data["methods"][0]["fna_k"] = 2.0
        plan = plan_from_dict(data)
        assert type(plan.n_decisions) is int and plan.n_decisions == 1000
        assert plan.methods[0].baseline.fna_k == 2
        # read_results_csv hands every field over as text, "1000" included
        result = RunResult("fna", 1.5, 1000, 2.25, 1000, environment="env1",
                           accuracy_mean=0.8, repetition=3)
        write_results_csv(tmp_path / "results.csv", [result])
        assert read_results_csv(tmp_path / "results.csv") == [result]

    def test_readme_plan_loads_and_round_trips(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```json\n(.*?)```", readme, re.DOTALL)
        plan = plan_from_dict(json.loads(block.group(1)))
        assert plan_from_dict(plan_to_dict(plan)) == plan

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
