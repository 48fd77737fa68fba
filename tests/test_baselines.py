from __future__ import annotations

import math

import numpy as np
import pytest

from maddm.answers import AnswerSet
from maddm.baselines import (
    BaselineConfig,
    EmAggregator,
    StrategyConfig,
    cost_effectiveness,
    run_baseline,
    select_budget_constrained,
    select_fixed_number,
)
from maddm.environment import Environment, env_config
from maddm.trust import TrustVector


class TestConfigs:
    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            StrategyConfig(kind="greedy")
        with pytest.raises(ValueError):
            StrategyConfig(epsilon=1.5)
        with pytest.raises(ValueError):
            StrategyConfig(criterion="fame")

    def test_baseline_validation(self):
        with pytest.raises(ValueError):
            BaselineConfig(method="nope")
        with pytest.raises(ValueError):
            BaselineConfig(method="fna", fna_k=0)
        with pytest.raises(ValueError):
            BaselineConfig(method="bc", bc_budget_fraction=0.0)


class TestCostEffectiveness:
    def test_printed_example(self):
        assert cost_effectiveness(np.array([10.0]), np.array([0.75]))[0] == pytest.approx(40.0)

    def test_coin_flip_is_worthless(self):
        scores = cost_effectiveness(np.array([1.0, 1.0]), np.array([0.5, 0.2]))
        assert scores.tolist() == [math.inf, math.inf]

    def test_free_competent_advisor_is_best(self):
        assert cost_effectiveness(np.array([0.0]), np.array([0.9]))[0] == 0.0


def pool_of(costs: list[float]) -> np.ndarray:
    return np.array(costs, dtype=np.float64)


class TestSelectFixedNumber:
    def test_whole_pool_when_k_equals_size(self, rng):
        pool = pool_of([1.0, 2.0, 3.0])
        trust = TrustVector.fresh(3)
        chosen = select_fixed_number(pool, trust, StrategyConfig(), 3, rng)
        assert sorted(chosen) == [0, 1, 2]

    def test_pure_greedy_trustworthiness_takes_top_k(self, rng):
        pool = pool_of([1.0] * 5)
        trust = TrustVector.fresh(5)
        estimates = np.array([0.6, 0.9, 0.6, 0.8, 0.7])
        strategy = StrategyConfig(kind="epsilon_greedy", epsilon=0.0, criterion="trustworthiness")
        chosen = select_fixed_number(pool, trust, strategy, 3, rng, point_estimates=estimates)
        assert chosen == [1, 3, 4]
        # tie at 0.6 breaks toward the lower id
        chosen = select_fixed_number(pool, trust, strategy, 5, rng, point_estimates=estimates)
        assert chosen == [1, 3, 4, 0, 2]

    def test_full_exploration_is_uniform(self, rng):
        n, k, trials = 10, 3, 10_000
        pool = pool_of([1.0] * n)
        trust = TrustVector.fresh(n)
        strategy = StrategyConfig(kind="epsilon_greedy", epsilon=1.0, criterion="trustworthiness")
        counts = np.zeros(n)
        for _ in range(trials):
            for advisor in select_fixed_number(pool, trust, strategy, k, rng):
                counts[advisor] += 1
        expected = k / n
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert np.all(np.abs(counts / trials - expected) < 3.0 * sigma + 1e-9)

    def test_exactly_k_distinct_for_every_strategy(self, rng):
        pool = pool_of(list(np.linspace(0.0, 5.0, 8)))
        trust = TrustVector(np.linspace(1, 4, 8), np.linspace(4, 1, 8))
        for kind in ("epsilon_greedy", "ucb", "thompson"):
            for criterion in ("trustworthiness", "cost_effectiveness"):
                strategy = StrategyConfig(kind=kind, criterion=criterion)
                for k in (1, 4, 8):
                    chosen = select_fixed_number(
                        pool, trust, strategy, k, rng, decisions_elapsed=5
                    )
                    assert len(chosen) == k
                    assert len(set(chosen)) == k

    def test_oversized_k_rejected(self, rng):
        with pytest.raises(ValueError):
            select_fixed_number(pool_of([1.0]), TrustVector.fresh(1), StrategyConfig(), 2, rng)

    def test_point_estimates_must_cover_the_pool(self, rng):
        # a ranking over more estimates than advisors would hire unknown ids
        strategy = StrategyConfig(kind="epsilon_greedy", epsilon=0.0, criterion="trustworthiness")
        with pytest.raises(ValueError, match="one point estimate per advisor"):
            select_fixed_number(
                pool_of([1.0, 1.0]), TrustVector.fresh(2), strategy, 1, rng,
                point_estimates=np.array([0.1, 0.2, 0.9]),
            )

    def test_ucb_prefers_unexplored(self, rng):
        pool = pool_of([1.0, 1.0, 1.0])
        # advisor 1 has plenty of evidence; 0 and 2 have none
        trust = TrustVector([1.0, 9.0, 1.0], [1.0, 3.0, 1.0])
        strategy = StrategyConfig(kind="ucb", criterion="trustworthiness")
        chosen = select_fixed_number(pool, trust, strategy, 2, rng, decisions_elapsed=10)
        assert set(chosen) == {0, 2}


class TestSelectBudgetConstrained:
    def test_zero_budget_with_costly_pool(self, rng):
        chosen = select_budget_constrained(
            pool_of([2.0, 3.0]), TrustVector.fresh(2), StrategyConfig(), 0.0, rng
        )
        assert chosen == []

    def test_zero_cost_advisors_fit_zero_budget(self, rng):
        strategy = StrategyConfig(kind="epsilon_greedy", epsilon=0.0, criterion="cost_effectiveness")
        estimates = np.array([0.9, 0.8])
        chosen = select_budget_constrained(
            pool_of([0.0, 1.0]), TrustVector.fresh(2), strategy, 0.0, rng,
            point_estimates=estimates,
        )
        assert chosen == [0]

    def test_unbounded_budget_takes_whole_pool(self, rng):
        costs = [1.0, 2.5, 0.5, 4.0]
        chosen = select_budget_constrained(
            pool_of(costs), TrustVector.fresh(4), StrategyConfig(), sum(costs), rng
        )
        assert sorted(chosen) == [0, 1, 2, 3]

    def test_stops_at_first_overshoot_without_skipping(self, rng):
        # preference order is 0 (tau .9, cost 5), 1 (tau .8, cost 10), 2 (tau .7, cost 1);
        # budget 6 hires 0, then stops at 1 even though 2 would still fit
        strategy = StrategyConfig(kind="epsilon_greedy", epsilon=0.0, criterion="trustworthiness")
        estimates = np.array([0.9, 0.8, 0.7])
        chosen = select_budget_constrained(
            pool_of([5.0, 10.0, 1.0]), TrustVector.fresh(3), strategy, 6.0, rng,
            point_estimates=estimates,
        )
        assert chosen == [0]

    def test_never_exceeds_budget(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 9))
            costs = rng.uniform(0.0, 10.0, size=n).tolist()
            budget = float(rng.uniform(0.0, 25.0))
            kind = ("epsilon_greedy", "ucb", "thompson")[int(rng.integers(3))]
            chosen = select_budget_constrained(
                pool_of(costs), TrustVector.fresh(n), StrategyConfig(kind=kind), budget, rng,
                decisions_elapsed=3,
            )
            assert sum(costs[i] for i in chosen) <= budget + 1e-12

    def test_negative_budget_rejected(self, rng):
        with pytest.raises(ValueError):
            select_budget_constrained(
                pool_of([1.0]), TrustVector.fresh(1), StrategyConfig(), -1.0, rng
            )

    def test_nan_budget_rejected(self, rng):
        # every ``spent + cost > nan`` is false, so a NaN budget hired the whole pool
        with pytest.raises(ValueError, match="budget"):
            select_budget_constrained(
                pool_of([1.0] * 4), TrustVector.fresh(4), StrategyConfig(), math.nan, rng
            )


def unanimous_history(n_advisors: int, n_decisions: int) -> list[AnswerSet]:
    return [AnswerSet(set(range(n_advisors)), set()) for _ in range(n_decisions)]


def em_over(answer_sets: list[AnswerSet], n_advisors: int, **kwargs) -> EmAggregator:
    """An aggregator that has observed ``answer_sets`` and converged."""
    aggregator = EmAggregator(n_advisors, **kwargs)
    for answers in answer_sets:
        aggregator.observe(answers)
    aggregator.infer()
    return aggregator


class TestEmAggregate:
    def test_single_advisor_single_decision_stays_uninformative(self):
        em = em_over([AnswerSet({0}, set())], n_advisors=1)
        assert abs(em.posterior_plus[0] - 0.5) < 1e-4
        assert abs(em.accuracies[0] - 0.5) < 1e-4

    def test_unanimous_trio_converges_confident(self):
        em = em_over(unanimous_history(3, 50), n_advisors=3)
        assert np.all(em.accuracies > 0.9)
        assert np.all(em.posterior_plus > 0.99)

    def test_perfectly_opposed_pair_stays_split(self):
        sets = [AnswerSet({0}, {1}) for _ in range(50)]
        em = em_over(sets, n_advisors=2)
        assert np.all(np.abs(em.posterior_plus - 0.5) < 1e-6)

    def test_beliefs_stay_probabilities(self, rng):
        sets = []
        for _ in range(30):
            members = rng.permutation(6)[: rng.integers(1, 6)]
            split = rng.integers(0, members.size + 1)
            sets.append(AnswerSet(set(members[:split].tolist()), set(members[split:].tolist())))
        em = em_over(sets, n_advisors=6)
        assert np.all((em.accuracies > 0.0) & (em.accuracies < 1.0))
        for posteriors in (em.posterior_plus, em.posterior_minus):
            assert np.all((posteriors >= 0.0) & (posteriors <= 1.0))

    def test_explicit_init_state_is_respected(self):
        assert EmAggregator(2, init_accuracy=0.95).accuracies.tolist() == [0.95, 0.95]
        em = em_over([AnswerSet({0}, {1})], n_advisors=2, init_accuracy=0.95)
        assert em.posterior_plus[0] == pytest.approx(0.5, abs=1e-9)

    def test_invalid_init_state_rejected(self):
        for init_accuracy in (1.0, 0.0, -0.3, np.nan):
            with pytest.raises(ValueError, match="initial accuracy"):
                EmAggregator(2, init_accuracy=init_accuracy)

    def test_empty_input_rejected(self):
        aggregator = EmAggregator(3)
        with pytest.raises(ValueError):
            aggregator.infer()
        with pytest.raises(ValueError):
            aggregator.observe(AnswerSet.empty())

    def test_objective_never_decreases(self, rng):
        for _ in range(20):
            aggregator = EmAggregator(n_advisors=8)
            for _ in range(25):
                members = rng.permutation(8)[: rng.integers(1, 8)]
                split = rng.integers(0, members.size + 1)
                aggregator.observe(
                    AnswerSet(set(members[:split].tolist()), set(members[split:].tolist()))
                )
            objective = aggregator.infer(track_objective=True)
            assert len(objective) >= 1
            diffs = np.diff(objective)
            assert np.all(diffs >= -1e-9)

    def test_label_flip_symmetry_is_exact(self, rng):
        # flipping every answer must mirror the beliefs bit for bit:
        # identical accuracies, and the flipped yes-posterior equal to the
        # original no-posterior (not 1 - q, which rounds differently)
        for _ in range(10):
            straight = EmAggregator(n_advisors=7)
            mirrored = EmAggregator(n_advisors=7)
            for _ in range(30):
                members = rng.permutation(7)[: rng.integers(1, 7)]
                split = rng.integers(0, members.size + 1)
                pos = set(members[:split].tolist())
                neg = set(members[split:].tolist())
                straight.observe(AnswerSet(pos, neg))
                mirrored.observe(AnswerSet(neg, pos))
            straight.infer()
            mirrored.infer()
            assert np.array_equal(straight.accuracies, mirrored.accuracies)
            assert np.array_equal(straight.posterior_plus, mirrored.posterior_minus)
            assert np.array_equal(straight.posterior_minus, mirrored.posterior_plus)


@pytest.fixture(scope="module")
def small_env():
    return Environment.build(env_config("env1", 0.8, seed=13, n_decisions=60))


class TestRunBaseline:

    def test_bu_is_the_exact_value_sum(self, small_env):
        result = run_baseline(
            BaselineConfig(method="bu"), StrategyConfig(), small_env, np.random.default_rng(0)
        )
        assert result.utility == math.fsum(d.value.profit for d in small_env.decisions)
        assert result.correct_count == small_env.n_decisions
        assert result.total_cost == 0.0

    def test_rv_hires_three_and_decides_every_decision(self, small_env):
        result = run_baseline(
            BaselineConfig(method="rv"), StrategyConfig(), small_env,
            np.random.default_rng(1), trace=True,
        )
        for row in result.trace:
            assert len(row["hired"]) == 3
            assert row["answer"] in (-1, 1)

    def test_fna_hires_exactly_k(self, small_env):
        result = run_baseline(
            BaselineConfig(method="fna", fna_k=5), StrategyConfig(), small_env,
            np.random.default_rng(2), trace=True,
        )
        for row in result.trace:
            assert len(row["hired"]) == 5

    def test_bc_respects_budget(self, small_env):
        fraction = 0.10
        result = run_baseline(
            BaselineConfig(method="bc", bc_budget_fraction=fraction), StrategyConfig(),
            small_env, np.random.default_rng(3), trace=True,
        )
        for row, decision in zip(result.trace, small_env.decisions):
            assert row["total_cost"] <= fraction * decision.value.total + 1e-9

    def test_exploration_first_hires_everyone_early(self, small_env):
        full_cost = sum(small_env.costs)
        result = run_baseline(
            BaselineConfig(method="fna", exploration_first_rounds=10), StrategyConfig(),
            small_env, np.random.default_rng(4), exploration_first=True, trace=True,
        )
        for row in result.trace[:10]:
            assert len(row["hired"]) == small_env.n_advisors
            assert row["total_cost"] == pytest.approx(full_cost)
        for row in result.trace[10:]:
            assert len(row["hired"]) == 5

    def test_bu_dominates_everything(self, small_env):
        bu = run_baseline(
            BaselineConfig(method="bu"), StrategyConfig(), small_env, np.random.default_rng(5)
        )
        for method in ("fna", "bc", "rv"):
            other = run_baseline(
                BaselineConfig(method=method), StrategyConfig(), small_env,
                np.random.default_rng(6),
            )
            assert bu.utility > other.utility

    def test_accounting_identity(self, small_env):
        result = run_baseline(
            BaselineConfig(method="fna"), StrategyConfig(), small_env,
            np.random.default_rng(7), trace=True,
        )
        won = math.fsum(
            d.value.profit for d, row in zip(small_env.decisions, result.trace) if row["correct"]
        )
        lost = math.fsum(
            d.value.loss for d, row in zip(small_env.decisions, result.trace) if not row["correct"]
        )
        fees = math.fsum(row["total_cost"] for row in result.trace)
        assert result.utility == pytest.approx(won - lost - fees, abs=1e-9)
        assert result.total_cost == pytest.approx(fees, abs=1e-9)
        assert result.correct_count == sum(row["correct"] for row in result.trace)
