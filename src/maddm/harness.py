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
import os
import tempfile
from contextlib import nullcontext
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Callable, Hashable, Sequence, get_type_hints

import numpy as np

from maddm.answers import AnswerLog, AnswerSet, checked_count
from maddm.baselines import StrategyConfig, run_baseline
from maddm.ensemble import decide_and_update
from maddm.environment import Environment, EnvironmentTemplate
from maddm.results import RunResult, play
from maddm.review import ReviewConfig, review_update
from maddm.selection import select_advisors
from maddm.stats import mann_whitney_u, mean_confidence_interval
from maddm.trust import TrustVector

#: The method every significance test puts first, and the methods it is
#: tested against.
REFERENCE_METHOD = "maddm"
COMPARATORS = ("fna", "bc", "rv")
#: Familywise error budget for the per-grid-point tests, split evenly
#: over the comparators.
SIGNIFICANCE_ALPHA = 0.05 / len(COMPARATORS)

_ENV_STREAM = 0
_METHOD_STREAM = 1

def run_maddm(
    spec: MethodSpec,
    environment: Environment,
    rng: np.random.Generator,
    trace: bool = False,
) -> RunResult:
    """Play the adaptive method of ``spec`` through an entire environment.

    Supplies maddm's steps to :func:`results.play`, which consults the
    whole pool on the first ``spec.warm_up_rounds`` decisions: hire through
    the marginal-utility loop, commit the ensemble answer and feed its
    confidence back into trust, and review the history every
    ``spec.review.frequency`` decisions, empty ones included.
    """
    config = spec.review
    trust = TrustVector.fresh(environment.n_advisors)
    history = AnswerLog()

    def hire(index: int) -> tuple[tuple[int, ...], float, int]:
        return select_advisors(environment, index, trust, rng)

    def decide(answers: AnswerSet) -> float:
        nonlocal trust
        margin, trust = decide_and_update(answers, trust)
        history.append(answers)
        return margin

    def review(index: int) -> None:
        nonlocal trust
        if len(history) and (index + 1) % config.frequency == 0:
            trust = review_update(history, trust, config).trust

    return play(environment, spec, hire, decide, trace, after=review)


#: The plan-entry knobs each method reads, beside ``method`` and ``variant``;
#: ``exploration_first_rounds`` is read only by an ``exploration_first`` spec.
#: A MethodSpec rejects any other knob off its default, and the plan writer
#: leaves it out.
METHOD_KNOBS = {
    "maddm": ("review", "exploration_first_rounds"),
    "fna": ("strategy", "fna_k", "exploration_first_rounds"),
    "bc": ("strategy", "bc_budget_fraction", "exploration_first_rounds"),
    "rv": ("rv_k", "exploration_first_rounds"),
    "bu": (),
}
_KNOBS = frozenset().union(*METHOD_KNOBS.values())


@dataclass(frozen=True)
class MethodSpec:
    """One method entry of a plan: which method, which variant, its knobs.

    The ``exploration_first`` variant consults every advisor on the first
    ``exploration_first_rounds`` decisions. A knob the spec does not read
    (:data:`METHOD_KNOBS`) must be at its default, whether the spec is built
    in Python or loaded from a plan, so specs that run the same way are equal.
    """

    method: str
    variant: str = "standard"
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    review: ReviewConfig = field(default_factory=ReviewConfig)
    fna_k: int = 5
    bc_budget_fraction: float = 0.10
    rv_k: int = 3
    exploration_first_rounds: int = 10

    def __post_init__(self) -> None:
        if self.method not in METHOD_KNOBS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.variant not in ("standard", "exploration_first"):
            raise ValueError(f"unknown variant {self.variant!r}")
        unread = sorted(
            f.name for f in fields(self) if f.name in _KNOBS and f.name not in self.knobs
            and getattr(self, f.name) != (f.default if f.default_factory is MISSING else f.default_factory()))
        if unread:
            raise ValueError(f"{self.label} does not read {unread}; leave them out or at their defaults")
        checked_count(self.exploration_first_rounds, "exploration_first_rounds", 0)
        for name in ("fna_k", "rv_k"):
            checked_count(getattr(self, name), name, 1)
        if isinstance(self.bc_budget_fraction, (bool, np.bool_)) or not (0.0 < self.bc_budget_fraction <= 1.0):
            raise ValueError("budget fraction must lie in (0, 1]")

    @property
    def knobs(self) -> tuple[str, ...]:
        """The plan-entry knobs this spec reads, from :data:`METHOD_KNOBS`."""
        return tuple(
            name for name in METHOD_KNOBS[self.method]
            if name != "exploration_first_rounds" or self.variant == "exploration_first"
        )

    @property
    def warm_up_rounds(self) -> int:
        """The decisions that consult the whole pool: the spec's rounds if it reads them, else 0."""
        return self.exploration_first_rounds if "exploration_first_rounds" in self.knobs else 0

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
        for name, minimum in (("repetitions", 1), ("base_seed", 0), ("n_decisions", 1), ("n_advisors", 1)):
            checked_count(getattr(self, name), name, minimum)
        # a NaN fails the comparison too
        if not all(not isinstance(mean, (bool, np.bool_)) and 0.0 <= mean <= 1.0 for mean in self.accuracy_means):
            raise ValueError("accuracy_means must be finite and lie in [0, 1]")
        # summaries group runs by environment name and accuracy mean, so a
        # repeated coordinate would merge two grid points into one row
        names = [template.name for template in self.environments]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate environments in plan: {names}")
        if len(set(self.accuracy_means)) != len(self.accuracy_means):
            raise ValueError(f"duplicate accuracy_means in plan: {list(self.accuracy_means)}")
        for spec in self.methods:
            # the head counts, where a method hires a fixed number per decision
            for knob in ("fna_k", "rv_k"):
                if knob in spec.knobs and getattr(spec, knob) > self.n_advisors:
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
    return Environment.build(
        plan.environments[env_idx], plan.accuracy_means[grid_idx], plan.n_decisions, plan.n_advisors,
        _environment_rng(plan, env_idx, grid_idx, rep),
    )


def run_method(
    spec: MethodSpec,
    environment: Environment,
    rng: np.random.Generator,
    trace: bool = False,
) -> RunResult:
    """Play ``spec`` on a realized environment through its runner, looked up when called."""
    return (run_maddm if spec.method == "maddm" else run_baseline)(spec, environment, rng, trace)


def run_cell(plan: ExperimentPlan, env_idx: int, grid_idx: int, rep: int, trace: bool = False) -> list[RunResult]:
    """All method results for one cell, stamped with the cell identity.

    The one place a cell's world and its methods' label-keyed streams are derived.
    """
    environment = build_cell_environment(plan, env_idx, grid_idx, rep)
    template, accuracy = plan.environments[env_idx], plan.accuracy_means[grid_idx]
    out: list[RunResult] = []
    for spec in plan.methods:
        result = run_method(spec, environment, _method_rng(plan, env_idx, grid_idx, rep, spec.label), trace)
        out.append(replace(result, environment=template.name, accuracy_mean=accuracy, repetition=rep))
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
    """Everything :func:`write_report` derives from the raw per-run results."""

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


def significance_tests(results: Sequence[RunResult]) -> list[SignificanceRow]:
    """Rank-sum tests of :data:`REFERENCE_METHOD` against each of :data:`COMPARATORS`.

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
        ref = samples.get(REFERENCE_METHOD)
        if ref is None:
            continue
        for other in COMPARATORS:
            sample_b = samples.get(other)
            if sample_b is None:
                continue
            u, p = mann_whitney_u(ref, sample_b)
            rows.append(
                SignificanceRow(
                    *key,
                    method_a=REFERENCE_METHOD,
                    method_b=other,
                    n_a=len(ref),
                    n_b=len(sample_b),
                    u_statistic=u,
                    p_value=p,
                    significant=p < SIGNIFICANCE_ALPHA,
                )
            )
    return rows


def _fmt(value, exact: bool) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and not exact:
        return f"{value:.6g}"
    return str(value)


def _write_rows(path: Path, columns: Sequence[str], rows: Sequence, exact: bool = False) -> None:
    """One CSV line per row by attribute name; ``exact`` writes floats round-trip, not ``.6g``."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(getattr(row, name), exact) for name in columns])


def write_results_csv(path: Path, results: Sequence[RunResult]) -> None:
    """One row per run, one column per :class:`RunResult` field but ``trace``, floats written round-trip."""
    _write_rows(path, [f.name for f in fields(RunResult) if f.name != "trace"], results, exact=True)


def write_summary_csv(path: Path, rows: Sequence[SummaryRow]) -> None:
    _write_rows(path, [f.name for f in fields(SummaryRow)], rows)


def write_significance_csv(path: Path, rows: Sequence[SignificanceRow]) -> None:
    _write_rows(path, [f.name for f in fields(SignificanceRow)], rows)


def write_report(out: Path, results: list[RunResult]) -> ComparisonReport:
    """Summarize and test ``results`` and write summary.csv and significance.csv into ``out``."""
    report = ComparisonReport(results, summarize(results), significance_tests(results))
    write_summary_csv(out / "summary.csv", report.summaries)
    write_significance_csv(out / "significance.csv", report.tests)
    return report


def read_results_csv(path: str | Path) -> list[RunResult]:
    """The runs of a results.csv, each column parsed as its RunResult field's type."""
    with Path(path).open(newline="") as handle:
        return [_load(RunResult, row) for row in csv.DictReader(handle)]


def _cell_path(out_dir: Path, env_idx: int, grid_idx: int, rep: int) -> Path:
    return out_dir / "cells" / f"cell_{env_idx}_{grid_idx}_{rep}.json"


@functools.cache
def _code_digest() -> str:
    """A hash of the bytes of the package's modules, read once per process on first use."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cell_stamps(plan: ExperimentPlan) -> dict[tuple[int, int, int], str]:
    """The stamp of every cell: a hash of the plan, the code and the cell's coordinates.

    The plan enters as :func:`plan_to_dict` writes it, so only the knobs a
    method reads, and without its repetition count, which changes no
    cell's world or streams: extending a plan keeps its cached cells. The
    code enters as :func:`_code_digest`, so a changed module recomputes
    every cell once.
    """
    data = plan_to_dict(plan)
    del data["repetitions"]
    text = json.dumps(data, sort_keys=True) + _code_digest()
    return {
        cell: hashlib.sha256(f"{text}{list(cell)}".encode("utf-8")).hexdigest()
        for cell in plan.cells()
    }


def _load_cell(path: Path, stamp: str, labels: Sequence[str]) -> list[RunResult] | None:
    """The cached results of a cell, if its file was written for this stamp.

    A file that cannot be read, holds JSON of another shape, or does not
    hold one loadable result per label of ``labels``, in order, is a miss.
    """
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    runs = payload.get("runs") if isinstance(payload, dict) else None
    if not (isinstance(runs, list) and payload.get("stamp") == stamp
            and all(isinstance(entry, dict) and isinstance(entry.get("result"), dict) for entry in runs)
            and [entry.get("label") for entry in runs] == list(labels)):
        return None
    try:
        return [_load(RunResult, entry["result"]) for entry in runs]
    except ValueError:
        return None


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
        temp = Path(handle.name)
    try:
        temp.write_text(json.dumps(payload))
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def execute_plan(
    plan: ExperimentPlan,
    out_dir: str | Path,
    jobs: int = 1,
    force: bool = False,
) -> ComparisonReport:
    """Run every cell of the plan and emit the three CSV artifacts.

    Cached cells are reused unless ``force``. Missing cells run in a pool
    of ``min(jobs, missing cells)`` processes, or serially when that is 1;
    ``jobs`` must be an int of at least 1. The first failure in cell order, in
    computing a cell or in storing it (which leaves no temporary file), is
    re-raised with the identity of its cell once every finished cell is stored
    (a pool drops its queued cells), so a rerun resumes. Output row order and
    float formatting are fixed, so equal plans with equal seeds produce byte-identical files.
    """
    checked_count(jobs, "jobs", 1)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    labels = [spec.label for spec in plan.methods]
    cells = plan.cells()
    stamps = _cell_stamps(plan)

    cached = {} if force else {cell: _load_cell(_cell_path(out, *cell), stamps[cell], labels) for cell in cells}
    missing = [cell for cell in cells if cached.get(cell) is None]

    pool_context = nullcontext()
    workers = min(jobs, len(missing))  # a pool forks all its workers at the first submit
    if workers > 1:
        # imported only here, so a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool_context = ProcessPoolExecutor(max_workers=workers)
    failed = None  # the first failed cell and its error
    with pool_context as pool:
        futures = {cell: pool.submit(run_cell, plan, *cell) for cell in missing} if pool else {}
        for cell in missing:
            try:
                results = futures[cell].result() if pool else run_cell(plan, *cell)
                _store_cell(_cell_path(out, *cell), stamps[cell], labels, results)
            except Exception as exc:  # a cancelled cell's result() raises too
                failed = failed or (cell, exc)
                if not pool:
                    break
                pool.shutdown(wait=False, cancel_futures=True)  # a started cell runs on
                continue
            cached[cell] = results
    if failed:
        raise RuntimeError("cell env={} grid={} rep={} failed".format(*failed[0])) from failed[1]

    results = [r for cell in cells for r in cached[cell]]
    write_results_csv(out / "results.csv", results)
    return write_report(out, results)


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
    of ``data``. A value of an int or float field is converted to that type
    by :func:`_number`; every other check is the constructor's. A missing
    key takes the dataclass default; an unknown key, a missing one without
    a default, or a number :func:`_number` rejects raises ValueError.
    """
    types = _field_types(cls)
    converted = {k: _number(types[k], v, k) if types.get(k) in (int, float) else v for k, v in data.items()}
    try:
        return cls(**converted, **given)
    except TypeError as exc:  # the constructor names the offending key
        raise ValueError(f"bad {cls.__name__} section: {exc}") from exc


def _number(kind: type, value, key: str):
    """``value`` as ``kind`` (int or float), for the field ``key``.

    Numbers arrive loosely typed: 1000.0 in JSON for an int, text in a
    CSV. A bool, or a float with a fraction for an int, raises ValueError
    naming ``key`` rather than being cast to 1 or truncated; so does text
    that does not parse, or a value that is neither a number nor text,
    such as null or a list.
    """
    try:
        if (isinstance(value, bool) or not isinstance(value, (int, float, str))
                or (kind is int and isinstance(value, float) and not value.is_integer())):
            raise ValueError
        return kind(value)
    except ValueError:
        raise ValueError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}") from None


_field_types = functools.cache(get_type_hints)


def plan_to_dict(plan: ExperimentPlan) -> dict:
    """The plan in the declarative format :func:`plan_from_dict` reads."""
    return {
        **_to_dict(plan, skip=("methods",)),
        "methods": [_method_to_dict(spec) for spec in plan.methods],
    }


def _method_to_dict(spec: MethodSpec) -> dict:
    # an entry carries only the knobs its spec reads
    return {"method": spec.method, "variant": spec.variant,
            **{name: _to_dict(getattr(spec, name)) for name in spec.knobs}}


def _template_from_entry(entry) -> EnvironmentTemplate:
    # an entry that is not an object names a template, or raises naming itself
    if not isinstance(entry, dict):
        return EnvironmentTemplate.named(entry)
    if entry.keys() == {"name"}:
        return EnvironmentTemplate.named(entry["name"])
    return _load(EnvironmentTemplate, entry)


def _shaped(value, kind: type, section: str):
    """``value`` if it is a ``kind`` (dict or list); else ValueError naming ``section``."""
    if not isinstance(value, kind):
        shape = "an object" if kind is dict else "a list"
        raise ValueError(f"{section} must be {shape}, got {value!r}")
    return value


def _method_from_dict(entry) -> MethodSpec:
    """A :class:`MethodSpec` from a plan's method entry; the spec checks its knobs."""
    knobs = dict(_shaped(entry, dict, "methods entry"))
    review = dict(_shaped(knobs.pop("review", {}), dict, "review"))
    # older plan files carry the one remaining review mode explicitly
    mode = review.pop("mode", "rebuild")
    if mode != "rebuild":
        raise ValueError(f"review mode must be 'rebuild', got {mode!r}")
    strategy = _load(StrategyConfig, _shaped(knobs.pop("strategy", {}), dict, "strategy"))
    return _load(MethodSpec, knobs, strategy=strategy, review=_load(ReviewConfig, review))


def plan_from_dict(data: dict) -> ExperimentPlan:
    """Parse the declarative plan format used by config files.

    Raises ValueError, naming the section, for a section of the wrong shape.
    """
    parsers = {
        "environments": _template_from_entry,
        "accuracy_means": lambda mean: _number(float, mean, "accuracy_means"),
        "methods": _method_from_dict,
    }
    _shaped(data, dict, "plan")
    given = {
        key: tuple(map(parse, _shaped(data[key], (list, tuple), key)))
        for key, parse in parsers.items() if key in data
    }
    return _load(ExperimentPlan, {k: v for k, v in data.items() if k not in parsers}, **given)


#: Grid of the desk default (10 points); plans/paper.json holds the paper's 50.
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
