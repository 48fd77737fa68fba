from __future__ import annotations

import ast
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from maddm import cli
from maddm.cli import main
from maddm.environment import Environment
from maddm.harness import _method_rng, build_cell_environment, plan_from_dict, run_cell, run_method


@pytest.fixture
def plan_file(tmp_path):
    config = {
        "base_seed": 5,
        "repetitions": 2,
        "n_decisions": 30,
        "n_advisors": 8,
        "environments": ["env1"],
        "accuracy_means": [0.8],
        "methods": [
            {"method": "maddm", "review": {"frequency": 10}},
            {"method": "rv"},
            {"method": "bu"},
        ],
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(config))
    return path


class TestGenerate:
    def test_emits_audit_tables(self, tmp_path, plan_file):
        out = tmp_path / "env.json"
        code = main([
            "generate", "--config", str(plan_file), "--environment", "env1",
            "--accuracy-mean", "0.8", "--repetition", "1", "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["decisions"]) == 30
        assert len(payload["advisors"]) == 8

    def test_same_seed_same_output(self, tmp_path, plan_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["generate", "--config", str(plan_file), "--output", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_prints_to_stdout_without_output(self, plan_file, capsys):
        main(["generate", "--config", str(plan_file)])
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["decisions"]) == 30

    def test_dumps_the_world_the_cell_plays(self, tmp_path, plan_file):
        # the plan file's methods and the two it leaves out, so every method replays
        config = json.loads(plan_file.read_text())
        config["methods"] += [{"method": "fna"}, {"method": "bc"}]
        plan_file.write_text(json.dumps(config))
        cell_flags = ["--config", str(plan_file), "--environment", "env1",
                      "--accuracy-mean", "0.8", "--repetition", "1"]
        world, trace = tmp_path / "world.json", tmp_path / "trace.jsonl"
        main(["generate", *cell_flags, "--output", str(world)])
        main(["trace", *cell_flags, "--method", "maddm", "--output", str(trace)])
        payload = json.loads(world.read_text())
        plan = plan_from_dict(config)
        environment = build_cell_environment(plan, 0, 0, 1)
        assert payload["digest"] == environment.digest()
        assert payload["decisions"] == [
            {"id": i, "profit": profit, "loss": loss}
            for i, (profit, loss) in enumerate(zip(environment.profits, environment.losses))
        ]
        # the trace replays this world: one row per decision, and every
        # decision's fees are the dumped prices of the advisors it hired
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [row["decision_id"] for row in rows] == [d["id"] for d in payload["decisions"]]
        costs = [advisor["cost"] for advisor in payload["advisors"]]
        for row in rows:
            assert row["total_cost"] == pytest.approx(math.fsum(costs[i] for i in row["hired"]))
        # the dump alone rebuilds the world, answer matrix included, and
        # replays every run of the cell
        dumped = Environment(
            profits=np.array([d["profit"] for d in payload["decisions"]]),
            losses=np.array([d["loss"] for d in payload["decisions"]]),
            accuracies=np.array([a["hidden_accuracy"] for a in payload["advisors"]]),
            costs=np.array(costs),
            answers=np.array(payload["answers"], dtype=np.int8),
        )
        assert dumped.digest() == payload["digest"]
        cell_rows = run_cell(plan, 0, 0, 1)
        assert [row.method for row in cell_rows] == ["maddm", "rv", "bu", "fna", "bc"]
        for spec, cell_row in zip(plan.methods, cell_rows):
            replayed = run_method(spec, dumped, _method_rng(plan, 0, 0, 1, spec.label))
            assert replace(replayed, environment="env1", accuracy_mean=0.8, repetition=1) == cell_row


class TestRunAndReport:
    def test_run_emits_csvs(self, tmp_path, plan_file, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(plan_file), "--output-dir", str(out_dir)])
        assert code == 0
        lines = (out_dir / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 2  # header + methods * repetitions
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "significance.csv").exists()

    def test_report_reproduces_summary(self, tmp_path, plan_file):
        # results.csv carries each float's shortest round-trip text, so the
        # rebuilt tables match the ones maddm run wrote byte for byte
        out_dir = tmp_path / "out"
        main(["run", "--config", str(plan_file), "--output-dir", str(out_dir)])
        rep_dir = tmp_path / "rebuilt"
        code = main([
            "report", "--results", str(out_dir / "results.csv"),
            "--output-dir", str(rep_dir),
        ])
        assert code == 0
        for name in ("summary.csv", "significance.csv"):
            assert (rep_dir / name).read_bytes() == (out_dir / name).read_bytes(), name


class TestTrace:
    def test_trace_rows_parse(self, tmp_path, plan_file):
        out = tmp_path / "trace.jsonl"
        code = main([
            "trace", "--config", str(plan_file), "--environment", "env1",
            "--accuracy-mean", "0.8", "--repetition", "1",
            "--method", "maddm", "--output", str(out),
        ])
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 30
        assert set(rows[0]) == {
            "decision_id", "rounds", "hired", "advisors_polled", "total_cost",
            "p_positive", "answer", "confidence", "correct",
        }
        assert all(row["advisors_polled"] == len(row["hired"]) for row in rows)

    @pytest.mark.parametrize("command", ["generate", "trace"])
    @pytest.mark.parametrize("flags, message", [
        (["--environment", "env9"], "environment 'env9' not in plan"),
        (["--accuracy-mean", "0.7"], "accuracy mean 0.7 not in plan grid"),
        (["--repetition", "2"], "repetition must lie in"),
    ], ids=["environment", "grid_point", "repetition"])
    def test_unknown_cell_is_a_clean_error(self, plan_file, command, flags, message):
        method = ["--method", "maddm"] if command == "trace" else []
        with pytest.raises(SystemExit, match=message):
            main([
                command, "--config", str(plan_file), "--environment", "env1",
                "--accuracy-mean", "0.8", *method, *flags,
            ])

    def test_trace_replays_the_run_the_cell_records(self, tmp_path, plan_file):
        # the plan file's methods and the two it leaves out, so every method is traced
        config = json.loads(plan_file.read_text())
        config["methods"] += [{"method": "fna"}, {"method": "bc"}]
        plan_file.write_text(json.dumps(config))
        cell_rows = run_cell(plan_from_dict(config), 0, 0, 1)
        assert [row.method for row in cell_rows] == ["maddm", "rv", "bu", "fna", "bc"]
        for cell_row in cell_rows:
            out = tmp_path / f"{cell_row.method}.jsonl"
            main(["trace", "--config", str(plan_file), "--environment", "env1", "--accuracy-mean", "0.8",
                  "--repetition", "1", "--method", cell_row.method, "--output", str(out)])
            rows = [json.loads(line) for line in out.read_text().splitlines()]
            assert len(rows) == cell_row.n_decisions
            assert sum(row["correct"] for row in rows) == cell_row.correct_count
            assert math.fsum(row["total_cost"] for row in rows) == cell_row.total_cost

    def test_cli_imports_no_private_harness_name(self):
        # the cli plays a cell only through the harness's public entry points
        tree = ast.parse(Path(cli.__file__).read_text())
        names = [alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "maddm.harness" for alias in node.names]
        assert [name for name in names if name.startswith("_")] == []
        assert "run_cell" in names

    def test_unknown_method_is_a_clean_error(self, plan_file):
        with pytest.raises(SystemExit, match="method bc:standard not in plan"):
            main([
                "trace", "--config", str(plan_file), "--environment", "env1",
                "--accuracy-mean", "0.8", "--method", "bc",
            ])
