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
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from maddm.baselines import BaselineConfig, StrategyConfig, run_baseline
from maddm.ensemble import UNIFORM_PRIOR, PriorOdds, decide_and_update
from maddm.environment import ENV_TEMPLATES, Environment, EnvironmentConfig, ErgdParams
from maddm.results import RunLedger, RunResult
from maddm.review import DecisionHistory, ReviewConfig, review_update
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

    prior: PriorOdds = UNIFORM_PRIOR
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
    offers = environment.offers()
    all_ids = list(range(n_advisors))
    ef_rounds = config.exploration_first_rounds if exploration_first else 0

    trust = TrustVector.fresh(n_advisors)
    history = DecisionHistory()
    ledger = RunLedger(trace)

    for index, decision in enumerate(environment.decisions):
        if index < ef_rounds:
            answers = environment.answer_set(decision.id, all_ids)
            paid = math.fsum(offer.cost for offer in offers)
            rounds = 0
            hired: tuple[int, ...] = tuple(all_ids)
        else:
            outcome_sel = select_advisors(
                decision.value, offers, trust, config.prior,
                environment.oracle(decision.id), rng,
            )
            answers = outcome_sel.answers
            paid = outcome_sel.total_cost
            rounds = outcome_sel.rounds
            hired = outcome_sel.hired

        if answers.is_empty:
            answer, confidence, p_positive = -1, 0.0, 0.5
        else:
            outcome, trust = decide_and_update(answers, trust, config.prior)
            answer, confidence, p_positive = outcome.answer, outcome.confidence, outcome.p_positive
            history.append(decision.id, answers)

        if len(history) and (index + 1) % config.review.frequency == 0:
            trust = review_update(history, trust, config.review, config.prior).trust

        ledger.record(decision, answer, paid, hired, rounds, p_positive, confidence)

    return ledger.result("maddm")


@dataclass(frozen=True)
class EnvironmentTemplate:
    """Named value-scale template a plan sweeps the accuracy grid over."""

    name: str
    value_mean: float
    value_std: float

    @classmethod
    def named(cls, name: str) -> "EnvironmentTemplate":
        mean, std = ENV_TEMPLATES[name]
        return cls(name, mean, std)


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

    def baseline_config(self) -> BaselineConfig:
        assert self.baseline is not None
        return self.baseline


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
        accuracy_params=ErgdParams(plan.accuracy_means[grid_idx], 0.3, lower=0.0, upper=1.0),
    )
    return Environment.build(config, _environment_rng(plan, env_idx, grid_idx, rep))


def run_method(
    spec: MethodSpec,
    environment: Environment,
    rng: np.random.Generator,
    trace: bool = False,
) -> RunResult:
    """Dispatch one method spec against a realized environment."""
    exploration_first = spec.variant == "exploration_first"
    if spec.method == "maddm":
        return run_maddm(environment, spec.maddm, rng, exploration_first=exploration_first, trace=trace)
    result = run_baseline(
        spec.baseline_config(), spec.strategy, environment, rng,
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
                variant=spec.variant,
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
        return [
            r.utility
            for r in self.results
            if r.environment == environment
            and r.accuracy_mean == accuracy_mean
            and r.method == method
            and r.variant == variant
        ]

    def summary(self, environment: str, accuracy_mean: float, method: str, variant: str) -> SummaryRow:
        for row in self.summaries:
            if (
                row.environment == environment
                and row.accuracy_mean == accuracy_mean
                and row.method == method
                and row.variant == variant
            ):
                return row
        raise KeyError((environment, accuracy_mean, method, variant))


def summarize(results: Sequence[RunResult]) -> list[SummaryRow]:
    """Per (environment, grid point, method, variant) moments and CIs."""
    groups: dict[tuple, list[RunResult]] = {}
    order: list[tuple] = []
    for r in results:
        key = (r.environment, r.accuracy_mean, r.method, r.variant)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(r)
    rows = []
    for key in order:
        batch = groups[key]
        utilities = [r.utility for r in batch]
        mean, std, low, high = mean_confidence_interval(utilities)
        rows.append(
            SummaryRow(
                environment=key[0],
                accuracy_mean=key[1],
                method=key[2],
                variant=key[3],
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
    samples: dict[tuple, list[float]] = {}
    order: list[tuple] = []
    for r in results:
        key = (r.environment, r.accuracy_mean, r.variant, r.method)
        if key not in samples:
            samples[key] = []
            order.append(key)
        samples[key].append(r.utility)
    rows = []
    seen_groups: list[tuple] = []
    for key in order:
        group = key[:3]
        if group not in seen_groups:
            seen_groups.append(group)
    for group in seen_groups:
        ref_key = (*group, reference)
        if ref_key not in samples:
            continue
        ref = samples[ref_key]
        for other in comparators:
            other_key = (*group, other)
            if other_key not in samples:
                continue
            sample_b = samples[other_key]
            u, p = mann_whitney_u(ref, sample_b)
            rows.append(
                SignificanceRow(
                    environment=group[0],
                    accuracy_mean=group[1],
                    variant=group[2],
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


def _write_csv(path: Path, columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_results_csv(path: Path, results: Sequence[RunResult]) -> None:
    _write_csv(
        path,
        RESULT_COLUMNS,
        [
            (r.environment, r.accuracy_mean, r.repetition, r.method, r.variant,
             r.utility, r.correct_count, r.total_cost, r.n_decisions)
            for r in results
        ],
    )


def write_summary_csv(path: Path, rows: Sequence[SummaryRow]) -> None:
    _write_csv(
        path,
        ("environment", "accuracy_mean", "method", "variant", "runs",
         "utility_mean", "utility_std", "utility_ci95_low", "utility_ci95_high",
         "correct_mean", "cost_mean"),
        [
            (r.environment, r.accuracy_mean, r.method, r.variant, r.runs,
             r.utility_mean, r.utility_std, r.utility_ci95_low, r.utility_ci95_high,
             r.correct_mean, r.cost_mean)
            for r in rows
        ],
    )


def write_significance_csv(path: Path, rows: Sequence[SignificanceRow]) -> None:
    _write_csv(
        path,
        ("environment", "accuracy_mean", "variant", "method_a", "method_b",
         "n_a", "n_b", "u_statistic", "p_value", "significant"),
        [
            (r.environment, r.accuracy_mean, r.variant, r.method_a, r.method_b,
             r.n_a, r.n_b, r.u_statistic, r.p_value, r.significant)
            for r in rows
        ],
    )


def _cell_path(out_dir: Path, env_idx: int, grid_idx: int, rep: int) -> Path:
    return out_dir / "cells" / f"cell_{env_idx}_{grid_idx}_{rep}.json"


#: RunResult fields a cell file stores: all but the per-decision trace.
_CACHED_FIELDS = tuple(f.name for f in fields(RunResult) if f.name != "trace")


def _result_to_dict(r: RunResult) -> dict:
    return {name: getattr(r, name) for name in _CACHED_FIELDS}


def _result_from_dict(d: dict) -> RunResult:
    return RunResult(**{name: d[name] for name in _CACHED_FIELDS})


def _load_cell(path: Path, labels: Sequence[str]) -> list[RunResult] | None:
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    stored = {entry["label"]: entry["result"] for entry in payload.get("runs", [])}
    if set(stored) != set(labels):
        return None
    return [_result_from_dict(stored[label]) for label in labels]


def _store_cell(path: Path, labels: Sequence[str], results: Sequence[RunResult]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "runs": [
            {"label": label, "result": _result_to_dict(result)}
            for label, result in zip(labels, results)
        ]
    }
    path.write_text(json.dumps(payload))


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

    cached: dict[tuple[int, int, int], list[RunResult]] = {}
    missing: list[tuple[int, int, int]] = []
    for cell in cells:
        loaded = None if force else _load_cell(_cell_path(out, *cell), labels)
        if loaded is None:
            missing.append(cell)
        else:
            cached[cell] = loaded

    if missing:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = {
                    pool.submit(run_cell, plan, *cell): cell for cell in missing
                }
                for future, cell in futures.items():
                    try:
                        results = future.result()
                    except Exception as exc:
                        raise RuntimeError(
                            f"cell env={cell[0]} grid={cell[1]} rep={cell[2]} failed"
                        ) from exc
                    _store_cell(_cell_path(out, *cell), labels, results)
                    cached[cell] = results
        else:
            for cell in missing:
                try:
                    results = run_cell(plan, *cell)
                except Exception as exc:
                    raise RuntimeError(
                        f"cell env={cell[0]} grid={cell[1]} rep={cell[2]} failed"
                    ) from exc
                _store_cell(_cell_path(out, *cell), labels, results)
                cached[cell] = results

    results = [r for cell in cells for r in cached[cell]]
    summaries = summarize(results)
    tests = significance_tests(results)
    write_results_csv(out / "results.csv", results)
    write_summary_csv(out / "summary.csv", summaries)
    write_significance_csv(out / "significance.csv", tests)
    return ComparisonReport(results=results, summaries=summaries, tests=tests)


def plan_to_dict(plan: ExperimentPlan) -> dict:
    return {
        "base_seed": plan.base_seed,
        "repetitions": plan.repetitions,
        "n_decisions": plan.n_decisions,
        "n_advisors": plan.n_advisors,
        "environments": [
            {"name": t.name, "value_mean": t.value_mean, "value_std": t.value_std}
            for t in plan.environments
        ],
        "accuracy_means": list(plan.accuracy_means),
        "methods": [_method_to_dict(spec) for spec in plan.methods],
    }


def _method_to_dict(spec: MethodSpec) -> dict:
    d: dict = {"method": spec.method, "variant": spec.variant}
    d["strategy"] = {
        "kind": spec.strategy.kind,
        "epsilon": spec.strategy.epsilon,
        "criterion": spec.strategy.criterion,
    }
    if spec.baseline is not None:
        d.update(
            fna_k=spec.baseline.fna_k,
            bc_budget_fraction=spec.baseline.bc_budget_fraction,
            rv_k=spec.baseline.rv_k,
            exploration_first_rounds=spec.baseline.exploration_first_rounds,
        )
    if spec.method == "maddm":
        d["review"] = {
            "threshold": spec.maddm.review.threshold,
            "max_passes": spec.maddm.review.max_passes,
            "frequency": spec.maddm.review.frequency,
        }
        d["exploration_first_rounds"] = spec.maddm.exploration_first_rounds
    return d


def _template_from_entry(entry) -> EnvironmentTemplate:
    if isinstance(entry, str):
        return EnvironmentTemplate.named(entry)
    if "value_mean" in entry:
        return EnvironmentTemplate(entry["name"], entry["value_mean"], entry["value_std"])
    return EnvironmentTemplate.named(entry["name"])


def _method_from_dict(entry: dict) -> MethodSpec:
    method = entry["method"]
    strategy_cfg = entry.get("strategy", {})
    strategy = StrategyConfig(
        kind=strategy_cfg.get("kind", "epsilon_greedy"),
        epsilon=strategy_cfg.get("epsilon", 0.1),
        criterion=strategy_cfg.get("criterion", "cost_effectiveness"),
    )
    baseline = None
    if method in ("fna", "bc", "rv", "bu"):
        baseline = BaselineConfig(
            method=method,
            fna_k=entry.get("fna_k", 5),
            bc_budget_fraction=entry.get("bc_budget_fraction", 0.10),
            rv_k=entry.get("rv_k", 3),
            exploration_first_rounds=entry.get("exploration_first_rounds", 10),
        )
    maddm_cfg = MaddmConfig()
    if method == "maddm":
        review_cfg = entry.get("review", {})
        # older plan files carry the one remaining review mode explicitly
        mode = review_cfg.get("mode", "rebuild")
        if mode != "rebuild":
            raise ValueError(f"review mode must be 'rebuild', got {mode!r}")
        maddm_cfg = MaddmConfig(
            review=ReviewConfig(
                threshold=review_cfg.get("threshold", 1e-3),
                max_passes=review_cfg.get("max_passes", 100),
                frequency=review_cfg.get("frequency", 1),
            ),
            exploration_first_rounds=entry.get("exploration_first_rounds", 10),
        )
    return MethodSpec(
        method=method,
        variant=entry.get("variant", "standard"),
        strategy=strategy,
        baseline=baseline,
        maddm=maddm_cfg,
    )


def plan_from_dict(data: dict) -> ExperimentPlan:
    """Parse the declarative plan format used by config files."""
    return ExperimentPlan(
        environments=tuple(_template_from_entry(e) for e in data["environments"]),
        accuracy_means=tuple(float(a) for a in data["accuracy_means"]),
        methods=tuple(_method_from_dict(m) for m in data["methods"]),
        repetitions=int(data.get("repetitions", 20)),
        base_seed=int(data.get("base_seed", 0)),
        n_decisions=int(data.get("n_decisions", 1000)),
        n_advisors=int(data.get("n_advisors", 30)),
    )


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
        repetitions=20,
        base_seed=0,
    )
