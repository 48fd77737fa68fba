"""Experiment orchestration: paired runs, aggregation, and CSV emission.

A plan is a grid of cells, one per (environment template, accuracy mean,
repetition). Every method in the plan faces the identical realized world
within a cell; the world stream and each method's private stream are
derived from the plan seed and the cell coordinates, so methods cannot
perturb each other's draws and any cell can be recomputed in isolation.

Completed cells are cached as JSON under the output directory, which
makes interrupted plans resumable: a rerun recomputes only the missing
cells and regenerates byte-identical CSVs.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Callable, Hashable, Sequence, get_type_hints

import numpy as np

from maddm.answers import AnswerLog
from maddm.baselines import BaselineConfig, StrategyConfig, run_baseline
from maddm.ensemble import decide_and_update
from maddm.environment import (
    ENV_TEMPLATES,
    Environment,
    EnvironmentConfig,
    ErgdParams,
    accuracy_spread,
)
from maddm.results import RunLedger, RunResult
from maddm.review import ReviewConfig, review_update
from maddm.selection import select_advisors
from maddm.stats import mann_whitney_u, mean_confidence_interval
from maddm.trust import TrustVector

#: Familywise error budget for the per-grid-point tests against the
#: three comparison methods.
SIGNIFICANCE_ALPHA = 0.05 / 3

_ENV_STREAM = 0
_METHOD_STREAM = 1

RESULT_COLUMNS = (
    "environment",
    "accuracy_mean",
    "repetition",
    "method",
    "variant",
    "utility",
    "correct_count",
    "total_cost",
    "n_decisions",
)


@dataclass(frozen=True)
class MaddmConfig:
    """Configuration of the adaptive method's decision loop."""

    review: ReviewConfig = field(default_factory=ReviewConfig)
    exploration_first_rounds: int = 10

    def __post_init__(self) -> None:
        if self.exploration_first_rounds < 0:
            raise ValueError("exploration-first round count must be non-negative")


def run_maddm(
    environment: Environment,
    config: MaddmConfig = MaddmConfig(),
    rng: np.random.Generator | None = None,
    exploration_first: bool = False,
    trace: bool = False,
) -> RunResult:
    """Play the adaptive method through an entire environment.

    Per decision: hire advisors through the marginal-utility loop (or the
    whole pool during exploration-first warm-up), commit the ensemble
    answer, feed its confidence back into the trust records, and
    periodically review the full history. A decision nobody was hired
    for is answered negative with zero confidence at zero cost.
    """
    if rng is None:
        raise ValueError("run_maddm requires an rng")
    n_advisors = environment.n_advisors
    all_ids = list(range(n_advisors))
    ef_rounds = config.exploration_first_rounds if exploration_first else 0

    trust = TrustVector.fresh(n_advisors)
    history = AnswerLog()
    ledger = RunLedger(trace)

    for index, decision in enumerate(environment.decisions):
        if index < ef_rounds:
            answers = environment.answer_set(decision.id, all_ids)
            paid = math.fsum(environment.costs)
            rounds = 0
            hired: tuple[int, ...] = tuple(all_ids)
        else:
            outcome_sel = select_advisors(
                decision.value, environment.costs, trust,
                oracle=environment.oracle(decision.id), rng=rng,
            )
            answers = outcome_sel.answers
            paid = outcome_sel.total_cost
            rounds = outcome_sel.rounds
            hired = outcome_sel.hired

        if answers.is_empty:
            answer, confidence, p_positive = -1, 0.0, 0.5
        else:
            outcome, trust = decide_and_update(answers, trust)
            answer, confidence, p_positive = outcome.answer, outcome.confidence, outcome.p_positive
            history.append(answers)

        if len(history) and (index + 1) % config.review.frequency == 0:
            trust = review_update(history, trust, config.review).trust

        ledger.record(decision, answer, paid, hired, rounds, p_positive, confidence)

    return ledger.result("maddm")


@dataclass(frozen=True)
class EnvironmentTemplate:
    """Named value-scale template a plan sweeps the accuracy grid over."""

    name: str
    value_mean: float
    value_std: float

    def __post_init__(self) -> None:
        # raises at load for a value distribution no cell could draw from
        ErgdParams(self.value_mean, self.value_std, lower=0.0)

    @classmethod
    def named(cls, name: str) -> "EnvironmentTemplate":
        if name not in ENV_TEMPLATES:
            raise ValueError(f"unknown environment template {name!r}; choose from {list(ENV_TEMPLATES)}")
        return cls(name, *ENV_TEMPLATES[name])


@dataclass(frozen=True)
class MethodSpec:
    """One method entry of a plan: which method, which variant, its knobs."""

    method: str
    variant: str = "standard"
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    baseline: BaselineConfig | None = None
    maddm: MaddmConfig = field(default_factory=MaddmConfig)

    def __post_init__(self) -> None:
        if self.method not in ("maddm", "fna", "bc", "rv", "bu"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.variant not in ("standard", "exploration_first"):
            raise ValueError(f"unknown variant {self.variant!r}")
        # canonical form: baselines always carry their config, the
        # adaptive method never does; keeps equality checks meaningful
        if self.method == "maddm":
            object.__setattr__(self, "baseline", None)
        elif self.baseline is None:
            object.__setattr__(self, "baseline", BaselineConfig(method=self.method))
        elif self.baseline.method != self.method:
            raise ValueError("baseline config does not match the method")

    @property
    def label(self) -> str:
        return f"{self.method}:{self.variant}"


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed to reproduce a full experiment byte for byte."""

    environments: tuple[EnvironmentTemplate, ...]
    accuracy_means: tuple[float, ...]
    methods: tuple[MethodSpec, ...]
    repetitions: int = 20
    base_seed: int = 0
    n_decisions: int = 1000
    n_advisors: int = 30

    def __post_init__(self) -> None:
        if not self.environments or not self.accuracy_means or not self.methods:
            raise ValueError("plan needs at least one environment, grid point, and method")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")
        if self.n_decisions < 1 or self.n_advisors < 1:
            raise ValueError("n_decisions and n_advisors must be at least 1")
        if not all(math.isfinite(mean) for mean in self.accuracy_means):
            raise ValueError("accuracy_means must be finite")
        for spec in self.methods:
            # the advisor count each method hires per decision, where fixed
            knob = {"fna": "fna_k", "rv": "rv_k"}.get(spec.method)
            if knob and getattr(spec.baseline, knob) > self.n_advisors:
                raise ValueError(f"{spec.label}: {knob} exceeds n_advisors={self.n_advisors}")
        labels = [spec.label for spec in self.methods]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate method/variant entries in plan")

    def cells(self) -> list[tuple[int, int, int]]:
        """(environment index, grid index, repetition) for every cell."""
        return [
            (e, g, r)
            for e in range(len(self.environments))
            for g in range(len(self.accuracy_means))
            for r in range(self.repetitions)
        ]


def _method_entropy(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


def _environment_rng(plan: ExperimentPlan, env_idx: int, grid_idx: int, rep: int) -> np.random.Generator:
    seq = np.random.SeedSequence([plan.base_seed, _ENV_STREAM, env_idx, grid_idx, rep])
    return np.random.default_rng(seq)


def _method_rng(
    plan: ExperimentPlan, env_idx: int, grid_idx: int, rep: int, label: str
) -> np.random.Generator:
    seq = np.random.SeedSequence(
        [plan.base_seed, _METHOD_STREAM, env_idx, grid_idx, rep, _method_entropy(label)]
    )
    return np.random.default_rng(seq)


def build_cell_environment(
    plan: ExperimentPlan, env_idx: int, grid_idx: int, rep: int
) -> Environment:
    """Realize the one world every method in this cell plays against."""
    template = plan.environments[env_idx]
    config = EnvironmentConfig(
        n_decisions=plan.n_decisions,
        n_advisors=plan.n_advisors,
        value_params=ErgdParams(template.value_mean, template.value_std, lower=0.0),
        accuracy_params=accuracy_spread(plan.accuracy_means[grid_idx]),
    )
    return Environment.build(config, _environment_rng(plan, env_idx, grid_idx, rep))


def run_method(
    spec: MethodSpec,
    environment: Environment,
    rng: np.random.Generator,
    trace: bool = False,
) -> RunResult:
    """Dispatch one method spec against a realized environment.

    The result carries the spec's variant, whichever method ran.
    """
    exploration_first = spec.variant == "exploration_first"
    if spec.method == "maddm":
        result = run_maddm(
            environment, spec.maddm, rng, exploration_first=exploration_first, trace=trace
        )
    else:
        result = run_baseline(
            spec.baseline, spec.strategy, environment, rng,
            exploration_first=exploration_first, trace=trace,
        )
    return replace(result, variant=spec.variant)


def run_cell(plan: ExperimentPlan, env_idx: int, grid_idx: int, rep: int) -> list[RunResult]:
    """All method results for one cell, stamped with the cell identity."""
    environment = build_cell_environment(plan, env_idx, grid_idx, rep)
    template = plan.environments[env_idx]
    accuracy = plan.accuracy_means[grid_idx]
    out: list[RunResult] = []
    for spec in plan.methods:
        rng = _method_rng(plan, env_idx, grid_idx, rep, spec.label)
        result = run_method(spec, environment, rng)
        out.append(
            replace(
                result,
                environment=template.name,
                accuracy_mean=accuracy,
                repetition=rep,
            )
        )
    return out


@dataclass(frozen=True)
class SummaryRow:
    environment: str
    accuracy_mean: float
    method: str
    variant: str
    runs: int
    utility_mean: float
    utility_std: float
    utility_ci95_low: float
    utility_ci95_high: float
    correct_mean: float
    cost_mean: float


@dataclass(frozen=True)
class SignificanceRow:
    environment: str
    accuracy_mean: float
    variant: str
    method_a: str
    method_b: str
    n_a: int
    n_b: int
    u_statistic: float
    p_value: float
    significant: bool


@dataclass
class ComparisonReport:
    """Everything execute_plan derives from the raw per-run results."""

    results: list[RunResult]
    summaries: list[SummaryRow]
    tests: list[SignificanceRow]

    def utilities(self, environment: str, accuracy_mean: float, method: str, variant: str) -> list[float]:
        key = (environment, accuracy_mean, method, variant)
        return [r.utility for r in self.results if _summary_key(r) == key]

    def summary(self, environment: str, accuracy_mean: float, method: str, variant: str) -> SummaryRow:
        key = (environment, accuracy_mean, method, variant)
        for row in self.summaries:
            if _summary_key(row) == key:
                return row
        raise KeyError(key)


def _summary_key(row) -> tuple:
    """What a summary row aggregates over; also its leading fields."""
    return (row.environment, row.accuracy_mean, row.method, row.variant)


def _group_by(items: Sequence, key: Callable[[object], Hashable]) -> dict[Hashable, list]:
    """Items grouped by ``key``, groups in order of first appearance."""
    groups: dict[Hashable, list] = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups


def summarize(results: Sequence[RunResult]) -> list[SummaryRow]:
    """Per (environment, grid point, method, variant) moments and CIs."""
    rows = []
    for key, batch in _group_by(results, _summary_key).items():
        mean, std, low, high = mean_confidence_interval([r.utility for r in batch])
        rows.append(
            SummaryRow(
                *key,
                runs=len(batch),
                utility_mean=mean,
                utility_std=std,
                utility_ci95_low=low,
                utility_ci95_high=high,
                correct_mean=float(np.mean([r.correct_count for r in batch])),
                cost_mean=float(np.mean([r.total_cost for r in batch])),
            )
        )
    return rows


def significance_tests(
    results: Sequence[RunResult],
    reference: str = "maddm",
    comparators: Sequence[str] = ("fna", "bc", "rv"),
    alpha: float = SIGNIFICANCE_ALPHA,
) -> list[SignificanceRow]:
    """Rank-sum tests of the reference method against each comparator.

    One test per (environment, grid point, variant) where both sides are
    present; significance uses the familywise-corrected threshold.
    """
    rows = []
    # the group key is the row's leading fields
    groups = _group_by(results, lambda r: (r.environment, r.accuracy_mean, r.variant))
    for key, batch in groups.items():
        samples = {
            method: [r.utility for r in runs]
            for method, runs in _group_by(batch, lambda r: r.method).items()
        }
        ref = samples.get(reference)
        if ref is None:
            continue
        for other in comparators:
            sample_b = samples.get(other)
            if sample_b is None:
                continue
            u, p = mann_whitney_u(ref, sample_b)
            rows.append(
                SignificanceRow(
                    *key,
                    method_a=reference,
                    method_b=other,
                    n_a=len(ref),
                    n_b=len(sample_b),
                    u_statistic=u,
                    p_value=p,
                    significant=p < alpha,
                )
            )
    return rows


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _write_rows(path: Path, columns: Sequence[str], rows: Sequence) -> None:
    """One CSV line per row, taking each column's value by attribute name."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(getattr(row, name)) for name in columns])


def write_results_csv(path: Path, results: Sequence[RunResult]) -> None:
    _write_rows(path, RESULT_COLUMNS, results)


def write_summary_csv(path: Path, rows: Sequence[SummaryRow]) -> None:
    _write_rows(path, [f.name for f in fields(SummaryRow)], rows)


def write_significance_csv(path: Path, rows: Sequence[SignificanceRow]) -> None:
    _write_rows(path, [f.name for f in fields(SignificanceRow)], rows)


def read_results_csv(path: str | Path) -> list[RunResult]:
    """The runs of a results.csv, each column parsed as its RunResult field's type."""
    with Path(path).open(newline="") as handle:
        return [_load(RunResult, row) for row in csv.DictReader(handle)]


def _cell_path(out_dir: Path, env_idx: int, grid_idx: int, rep: int) -> Path:
    return out_dir / "cells" / f"cell_{env_idx}_{grid_idx}_{rep}.json"


def _cell_stamps(plan: ExperimentPlan) -> dict[tuple[int, int, int], str]:
    """The stamp of every cell: a hash of the plan and the cell's coordinates.

    The plan enters with every field but its repetition count, which
    changes no cell's world or streams: extending a plan keeps its cached
    cells.
    """
    text = json.dumps(_to_dict(plan, skip=("repetitions",)), sort_keys=True)
    return {
        cell: hashlib.sha256(f"{text}{list(cell)}".encode("utf-8")).hexdigest()
        for cell in plan.cells()
    }


def _load_cell(path: Path, stamp: str) -> list[RunResult] | None:
    """The cached results of a cell, if its file was written for this stamp."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if payload.get("stamp") != stamp:
        return None
    return [_load(RunResult, entry["result"]) for entry in payload["runs"]]


def _store_cell(path: Path, stamp: str, labels: Sequence[str], results: Sequence[RunResult]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "stamp": stamp,
        "runs": [
            # every field but the per-decision trace
            {"label": label, "result": _to_dict(result, skip=("trace",))}
            for label, result in zip(labels, results)
        ],
    }
    # replaced whole, so an interrupted write never leaves half a cell file
    with tempfile.NamedTemporaryFile("w", dir=path.parent, suffix=".tmp", delete=False) as handle:
        handle.write(json.dumps(payload))
    os.replace(handle.name, path)


def execute_plan(
    plan: ExperimentPlan,
    out_dir: str | Path,
    jobs: int = 1,
    force: bool = False,
) -> ComparisonReport:
    """Run every cell of the plan and emit the three CSV artifacts.

    Cached cells are reused unless ``force``; failures are re-raised with
    the identity of the offending cell so a rerun can resume. Output row
    order and float formatting are fixed, so equal plans with equal seeds
    produce byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    labels = [spec.label for spec in plan.methods]
    cells = plan.cells()
    stamps = _cell_stamps(plan)

    cached = {} if force else {cell: _load_cell(_cell_path(out, *cell), stamps[cell]) for cell in cells}
    missing = [cell for cell in cells if cached.get(cell) is None]

    pool_context = nullcontext()
    if jobs > 1:
        # imported only here, so a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool_context = ProcessPoolExecutor(max_workers=jobs)
    with pool_context as pool:
        futures = {cell: pool.submit(run_cell, plan, *cell) for cell in missing} if pool else {}
        for cell in missing:
            try:
                results = futures[cell].result() if pool else run_cell(plan, *cell)
            except Exception as exc:
                raise RuntimeError(f"cell env={cell[0]} grid={cell[1]} rep={cell[2]} failed") from exc
            _store_cell(_cell_path(out, *cell), stamps[cell], labels, results)
            cached[cell] = results

    results = [r for cell in cells for r in cached[cell]]
    summaries = summarize(results)
    tests = significance_tests(results)
    write_results_csv(out / "results.csv", results)
    write_summary_csv(out / "summary.csv", summaries)
    write_significance_csv(out / "significance.csv", tests)
    return ComparisonReport(results=results, summaries=summaries, tests=tests)


def _to_dict(obj, skip: Sequence[str] = ()):
    """A dataclass's fields, but ``skip``, as JSON values; tuples become lists."""
    if isinstance(obj, tuple):
        return [_to_dict(item) for item in obj]
    if not is_dataclass(obj):
        return obj
    return {f.name: _to_dict(getattr(obj, f.name)) for f in fields(obj) if f.name not in skip}


def _load(cls, data: dict, **given):
    """``cls`` from a dict of its fields: a plan section, a cached result or a CSV row.

    ``given`` holds the fields the caller parsed itself; they are not keys
    of ``data``. A value of an int or float field is converted to that type.
    A missing key takes the dataclass default; an unknown key, a missing
    one without a default, or a number :func:`_number` rejects raises
    ValueError.
    """
    types = _field_types(cls)
    try:
        values = {
            k: _number(types[k], v, k) if types.get(k) in (int, float) else v
            for k, v in data.items()
        }
        return cls(**values, **given)
    except TypeError as exc:  # the constructor names the offending key
        raise ValueError(f"bad {cls.__name__} section: {exc}") from exc


def _number(kind: type, value, key: str):
    """``value`` as ``kind`` (int or float), for the field ``key``.

    Numbers arrive loosely typed: 1000.0 in JSON for an int, text in a
    CSV. A bool, or a float with a fraction for an int, raises ValueError
    rather than being cast to 1 or truncated.
    """
    if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    return kind(value)


_field_types = functools.cache(get_type_hints)


def plan_to_dict(plan: ExperimentPlan) -> dict:
    """The plan in the declarative format :func:`plan_from_dict` reads."""
    return {
        **_to_dict(plan, skip=("methods",)),
        "methods": [_method_to_dict(spec) for spec in plan.methods],
    }


def _method_to_dict(spec: MethodSpec) -> dict:
    # a method entry is flat: its method config's knobs sit beside its name
    config = spec.maddm if spec.method == "maddm" else spec.baseline
    return {**_to_dict(spec, skip=("baseline", "maddm")), **_to_dict(config, skip=("method",))}


def _template_from_entry(entry) -> EnvironmentTemplate:
    entry = {"name": entry} if isinstance(entry, str) else entry
    if entry.keys() == {"name"}:
        return EnvironmentTemplate.named(entry["name"])
    return _load(EnvironmentTemplate, entry)


def _method_from_dict(entry: dict) -> MethodSpec:
    knobs = dict(entry)
    spec = _load(
        MethodSpec,
        {key: knobs.pop(key) for key in ("method", "variant") if key in knobs},
        strategy=_load(StrategyConfig, knobs.pop("strategy", {})),
    )
    if spec.method != "maddm":
        return replace(spec, baseline=_load(BaselineConfig, knobs, method=spec.method))
    review = dict(knobs.pop("review", {}))
    # older plan files carry the one remaining review mode explicitly
    mode = review.pop("mode", "rebuild")
    if mode != "rebuild":
        raise ValueError(f"review mode must be 'rebuild', got {mode!r}")
    maddm = _load(MaddmConfig, knobs, review=_load(ReviewConfig, review))
    return replace(spec, maddm=maddm)


def plan_from_dict(data: dict) -> ExperimentPlan:
    """Parse the declarative plan format used by config files."""
    parsers = {
        "environments": _template_from_entry,
        "accuracy_means": lambda mean: _number(float, mean, "accuracy_means"),
        "methods": _method_from_dict,
    }
    given = {key: tuple(map(parse, data[key])) for key, parse in parsers.items() if key in data}
    return _load(ExperimentPlan, {k: v for k, v in data.items() if k not in parsers}, **given)


#: Grid used by the paper-scale sweep (50 points) and the desk default (10).
FULL_GRID = tuple(round(0.51 + 0.01 * k, 2) for k in range(50))
DESK_GRID = tuple(round(0.55 + 0.05 * k, 2) for k in range(10))


def default_plan() -> ExperimentPlan:
    """Desk-scale default: both value templates, 10-point grid, 20 reps."""
    methods = []
    for variant in ("standard", "exploration_first"):
        for method in ("maddm", "fna", "bc", "rv"):
            methods.append(MethodSpec(method=method, variant=variant))
    methods.append(MethodSpec(method="bu"))
    return ExperimentPlan(
        environments=(EnvironmentTemplate.named("env1"), EnvironmentTemplate.named("env2")),
        accuracy_means=DESK_GRID,
        methods=tuple(methods),
    )
