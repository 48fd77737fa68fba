"""Acceptance suite: one test per release criterion, one printed verdict each.

The heavyweight desk-scale experiment (two value templates, four accuracy
grid points, 20 paired repetitions, exploration-first on) runs once as a
session fixture and backs the directional criteria; run with ``pytest -s``
to see the per-criterion lines.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from maddm.answers import AnswerSet
from maddm.baselines import EmAggregator
from maddm.ensemble import (
    UNIFORM_PRIOR,
    bayesian_probabilities,
    ensemble_decide,
    weighted_voting_probabilities,
)
from maddm.harness import (
    EnvironmentTemplate,
    ExperimentPlan,
    MethodSpec,
    execute_plan,
)
from maddm.selection import DecisionValue, select_advisors
from maddm.stats import mann_whitney_u
from maddm.trust import TrustVector, apply_confidence_update

JOBS = min(2, os.cpu_count() or 1)

DESK_GRID = (0.6, 0.7, 0.8, 0.9)
REPETITIONS = 20


def verdict(ok: bool, name: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)


@dataclass
class PlanRun:
    report: object
    seconds: float


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory) -> PlanRun:
    """Both environments, desk grid, exploration-first on, 20 paired reps."""
    plan = ExperimentPlan(
        environments=(EnvironmentTemplate.named("env1"), EnvironmentTemplate.named("env2")),
        accuracy_means=DESK_GRID,
        methods=(
            MethodSpec(method="maddm", variant="exploration_first"),
            MethodSpec(method="maddm", variant="standard"),
            MethodSpec(method="fna", variant="exploration_first"),
            MethodSpec(method="bc", variant="exploration_first"),
            MethodSpec(method="rv", variant="exploration_first"),
            MethodSpec(method="bu"),
        ),
        repetitions=REPETITIONS,
        base_seed=0,
    )
    start = time.perf_counter()
    report = execute_plan(plan, tmp_path_factory.mktemp("desk"), jobs=JOBS)
    return PlanRun(report, time.perf_counter() - start)


@pytest.fixture(scope="session")
def low_accuracy_run(tmp_path_factory) -> PlanRun:
    """Grid point 0.55, standard variants only, for the robustness check."""
    plan = ExperimentPlan(
        environments=(EnvironmentTemplate.named("env1"), EnvironmentTemplate.named("env2")),
        accuracy_means=(0.55,),
        methods=(
            MethodSpec(method="fna"),
            MethodSpec(method="bc"),
            MethodSpec(method="rv"),
            MethodSpec(method="bu"),
        ),
        repetitions=REPETITIONS,
        base_seed=0,
    )
    start = time.perf_counter()
    report = execute_plan(plan, tmp_path_factory.mktemp("low"), jobs=JOBS)
    return PlanRun(report, time.perf_counter() - start)


def exact_aggregation(
    tau_numerators: tuple[int, ...],
    sides: tuple[int, ...],
    theta_num: int,
    theta_den: int,
) -> tuple:
    """Exact-fraction re-derivation of the three aggregation rules.

    Trust values are carried as integer numerators over the common
    denominator 20, so every quantity stays an exact integer ratio and
    shares nothing with the floating-point implementation. All integers
    stay far below 2**53, so the final float divisions round once.

    Returns (bayes+, bayes-, vote+, vote-, ensemble+, ensemble-,
    confidence) as floats plus the exact ensemble comparison as
    ``(2 * ensemble_plus_num, common_den)``.
    """
    like_plus = like_minus = 1
    mass_plus = mass_minus = 0
    for t, side in zip(tau_numerators, sides):
        if side > 0:
            like_plus *= t
            like_minus *= 20 - t
            mass_plus += t
        else:
            like_plus *= 20 - t
            like_minus *= t
            mass_minus += t
    like_den = like_plus + like_minus
    mass_den = mass_plus + mass_minus
    # ensemble numerators over the common denominator theta_den*like_den*mass_den
    common = theta_den * like_den * mass_den
    ens_plus = (theta_den - theta_num) * like_plus * mass_den + theta_num * mass_plus * like_den
    ens_minus = common - ens_plus
    return (
        like_plus / like_den,
        like_minus / like_den,
        mass_plus / mass_den,
        mass_minus / mass_den,
        ens_plus / common,
        ens_minus / common,
        abs(2 * ens_plus - common) / common,
        2 * ens_plus,
        common,
    )


def test_criterion_unit_oracle_suite():
    """Aggregation ops equal exact-fraction enumeration, |Y| <= 4, < 1 s."""
    tau_over_20 = (2, 5, 10, 15, 18)  # 0.1, 0.25, 0.5, 0.75, 0.9
    start = time.perf_counter()
    cases = 0
    worst = 0.0
    for size in range(1, 5):
        masses = [10 + 2 * position for position in range(size)]
        theta_bar = sum((Fraction(2, m) for m in masses), Fraction(0)) / size
        theta_num, theta_den = theta_bar.numerator, theta_bar.denominator
        side_table = [
            (
                tuple(1 if bits & (1 << k) else -1 for k in range(size)),
                AnswerSet(
                    {k for k in range(size) if bits & (1 << k)},
                    {k for k in range(size) if not bits & (1 << k)},
                ),
            )
            for bits in range(2**size)
        ]
        for tau_numerators in itertools.product(tau_over_20, repeat=size):
            trust = TrustVector(
                [t / 20 * m for t, m in zip(tau_numerators, masses)],
                [m - t / 20 * m for t, m in zip(tau_numerators, masses)],
            )
            for sides, answers in side_table:
                want = exact_aggregation(tau_numerators, sides, theta_num, theta_den)

                got_bayes = bayesian_probabilities(answers, trust)
                got_vote = weighted_voting_probabilities(answers, trust)
                got = ensemble_decide(answers, trust)

                err = max(
                    abs(got_bayes[0] - want[0]),
                    abs(got_bayes[1] - want[1]),
                    abs(got_vote[0] - want[2]),
                    abs(got_vote[1] - want[3]),
                    abs(got.p_positive - want[4]),
                    abs(got.p_negative - want[5]),
                    abs(got.confidence - want[6]),
                )
                if err > worst:
                    worst = err
                assert worst <= 1e-12
                # at an exact rational tie the sign sits below the stated
                # tolerance, so only compare answers outside it
                doubled_plus, common = want[7], want[8]
                if abs(doubled_plus - common) * 10**12 > common:
                    assert got.answer == (1 if doubled_plus > common else -1)
                cases += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    verdict(ok, "unit oracle suite",
            f"{cases} cases, worst abs error {worst:.2e}, {elapsed:.2f}s")
    assert cases == 11110
    assert elapsed < 1.0


def test_criterion_trust_evidence_conservation():
    """alpha+beta stays 2 + sum of applied confidences over 1e4 updates."""
    rng = np.random.default_rng(7)
    n_advisors = 30
    trust = TrustVector.fresh(n_advisors)
    applied: list[list[float]] = [[] for _ in range(n_advisors)]
    for _ in range(10_000):
        members = rng.permutation(n_advisors)[: rng.integers(1, 9)]
        split = int(rng.integers(0, members.size + 1))
        answers = AnswerSet(set(members[:split].tolist()), set(members[split:].tolist()))
        answer = 1 if rng.random() < 0.5 else -1
        confidence = float(rng.random())
        trust = apply_confidence_update(trust, answers, answer, confidence)
        for member in members.tolist():
            applied[member].append(confidence)
    worst = 0.0
    for advisor in range(n_advisors):
        total = float(trust.alpha[advisor] + trust.beta[advisor])
        worst = max(worst, abs(total - 2.0 - math.fsum(applied[advisor])))
    ok = worst <= 1e-9
    verdict(ok, "trust-evidence conservation", f"1e4 updates, worst drift {worst:.2e}")
    assert ok


def test_criterion_selection_termination_and_bound():
    """1e4 randomized selection calls: never over-hire, and an
    unaffordable pool is never hired from. < 10 s."""
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    for trial in range(10_000):
        n = int(rng.integers(1, 13))
        mass = rng.uniform(2.0, 30.0, size=n)
        alpha = 1.0 + rng.random(n) * (mass - 2.0)
        trust = TrustVector(np.maximum(alpha, 1.0), np.maximum(mass - alpha, 1.0))
        value = DecisionValue(float(rng.uniform(0.0, 300.0)), float(rng.uniform(0.0, 300.0)))
        expensive = trial % 2 == 1
        if expensive:
            costs = value.total + rng.uniform(0.01, 10.0, size=n)
        else:
            costs = rng.uniform(0.0, 30.0, size=n)
        row = rng.integers(0, 2, size=n) * 2 - 1
        outcome = select_advisors(
            value, costs, trust, UNIFORM_PRIOR, lambda i: int(row[i]), rng
        )
        assert len(outcome.hired) <= n
        assert len(set(outcome.hired)) == len(outcome.hired)
        if expensive:
            assert outcome.answers.is_empty
            assert outcome.total_cost == 0.0
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    verdict(ok, "selection termination and bound", f"1e4 calls in {elapsed:.1f}s")
    assert ok


def test_criterion_em_properties():
    """Penalized EM objective never decreases; label flip mirrors exactly."""
    rng = np.random.default_rng(13)
    n_advisors, n_decisions = 10, 50
    worst_drop = 0.0
    for _ in range(100):
        matrix = rng.integers(0, 2, size=(n_decisions, n_advisors)) * 2 - 1
        straight = EmAggregator(n_advisors)
        mirrored = EmAggregator(n_advisors)
        for row in matrix:
            pos = {int(i) for i in np.flatnonzero(row == 1)}
            neg = {int(i) for i in np.flatnonzero(row == -1)}
            straight.observe(AnswerSet(pos, neg))
            mirrored.observe(AnswerSet(neg, pos))
        objective = straight.infer(track_objective=True)
        if len(objective) > 1:
            worst_drop = max(worst_drop, float(-np.diff(objective).min()))
        mirrored.infer()
        assert np.array_equal(straight.accuracies, mirrored.accuracies)
        assert np.array_equal(straight.posterior_plus, mirrored.posterior_minus)
        assert np.array_equal(straight.posterior_minus, mirrored.posterior_plus)
    ok = worst_drop <= 1e-9
    verdict(ok, "EM properties",
            f"100 matrices, worst objective drop {worst_drop:.2e}, flip symmetry exact")
    assert ok


def test_criterion_directional_utility_ordering(desk_run, low_accuracy_run):
    """Adaptive method tops fna/bc from accuracy 0.7 up; the
    perfect-information bound strictly dominates every run."""
    report = desk_run.report
    failures = []
    for env in ("env1", "env2"):
        for accuracy in DESK_GRID:
            if accuracy < 0.7:
                continue
            ours = report.summary(env, accuracy, "maddm", "exploration_first").utility_mean
            for method in ("fna", "bc"):
                other = report.summary(env, accuracy, method, "exploration_first").utility_mean
                if not ours >= other:
                    failures.append(f"{env}@{accuracy}: maddm {ours:.0f} < {method} {other:.0f}")

    dominated = 0
    for run_set in (desk_run.report.results, low_accuracy_run.report.results):
        by_cell: dict[tuple, list] = {}
        for r in run_set:
            by_cell.setdefault((r.environment, r.accuracy_mean, r.repetition), []).append(r)
        for rows in by_cell.values():
            bound = next(r for r in rows if r.method == "bu")
            for r in rows:
                if r.method == "bu":
                    continue
                dominated += 1
                if not bound.utility > r.utility:
                    failures.append(
                        f"bu not dominant: {r.method} {r.utility:.0f} vs {bound.utility:.0f}"
                    )

    runtime = desk_run.seconds + low_accuracy_run.seconds
    ok = not failures and runtime < 900.0
    verdict(ok, "directional utility ordering",
            f"12 grid comparisons, {dominated} dominance checks, plans ran {runtime:.0f}s"
            + ("" if not failures else f"; failures: {failures}"))
    assert not failures
    assert runtime < 900.0


def test_criterion_low_accuracy_robustness(low_accuracy_run):
    """At accuracy 0.55 random voting hangs with the trust-based methods."""
    report = low_accuracy_run.report
    details = []
    ok = True
    for env in ("env1", "env2"):
        rv = report.summary(env, 0.55, "rv", "standard").utility_mean
        competitive = False
        for method in ("fna", "bc"):
            row = report.summary(env, 0.55, method, "standard")
            if rv >= row.utility_mean - row.utility_std:
                competitive = True
        details.append(f"{env}: rv {rv:.0f}")
        ok = ok and competitive
    verdict(ok, "low-accuracy robustness", "; ".join(details))
    assert ok


def test_criterion_exploration_first_stabilizes(desk_run):
    """Exploration-first shrinks the utility spread on the same seeds.

    Checked per environment two ways: the spread pooled across the desk
    grid (the aggregate the variance claim is about), and point by point
    with one grid point of slack.
    """
    report = desk_run.report
    details = []
    ok = True
    for env in ("env1", "env2"):
        pooled = {}
        for variant in ("exploration_first", "standard"):
            utilities = [
                u for acc in DESK_GRID
                for u in report.utilities(env, acc, "maddm", variant)
            ]
            pooled[variant] = float(np.std(utilities, ddof=1))
        pooled_ok = pooled["exploration_first"] <= pooled["standard"]
        pointwise = sum(
            report.summary(env, acc, "maddm", "exploration_first").utility_std
            <= report.summary(env, acc, "maddm", "standard").utility_std
            for acc in DESK_GRID
        )
        env_ok = pooled_ok or pointwise >= 3
        ok = ok and env_ok
        details.append(
            f"{env}: pooled std {pooled['exploration_first']:.0f} vs "
            f"{pooled['standard']:.0f} ({'<=' if pooled_ok else '>'}), "
            f"pointwise {pointwise}/4"
        )
    verdict(ok, "exploration-first stabilization", "; ".join(details))
    assert ok


def test_criterion_byte_identical_reruns(tmp_path):
    """The same plan with the same seed writes byte-identical results."""
    plan = ExperimentPlan(
        environments=(EnvironmentTemplate.named("env1"),),
        accuracy_means=(0.8,),
        methods=(
            MethodSpec(method="maddm", variant="exploration_first"),
            MethodSpec(method="fna"),
            MethodSpec(method="rv"),
            MethodSpec(method="bu"),
        ),
        repetitions=2,
        base_seed=42,
        n_decisions=120,
        n_advisors=15,
    )
    execute_plan(plan, tmp_path / "first")
    execute_plan(plan, tmp_path / "second")
    first = (tmp_path / "first" / "results.csv").read_bytes()
    second = (tmp_path / "second" / "results.csv").read_bytes()
    ok = first == second
    verdict(ok, "byte-identical reruns", f"results.csv {len(first)} bytes twice")
    assert ok


def test_criterion_rank_test_exactness():
    """p-values match brute-force enumeration of all 252 arrangements."""
    n = m = 5
    all_ranks = range(1, n + m + 1)
    arrangement_u = [
        sum(subset) - n * (n + 1) / 2.0
        for subset in itertools.combinations(all_ranks, n)
    ]
    total = len(arrangement_u)
    assert total == 252

    def table_p(u_min_obs: float) -> float:
        hits = sum(
            1 for u in arrangement_u if min(u, n * m - u) <= u_min_obs
        )
        return hits / total

    worst = 0.0
    for subset in itertools.combinations(all_ranks, n):
        sample_a = [float(v) for v in subset]
        sample_b = [float(v) for v in all_ranks if v not in subset]
        u, p = mann_whitney_u(sample_a, sample_b)
        expected = table_p(min(u, n * m - u))
        worst = max(worst, abs(p - expected))
    ok = worst <= 1e-9
    verdict(ok, "rank-test exactness", f"252 arrangements, worst |dp| {worst:.2e}")
    assert ok
