from __future__ import annotations

import math

import numpy as np
import pytest

from maddm.answers import AnswerSet
from maddm.baselines import (
    INIT_ACCURACY,
    EmAggregator,
    StrategyConfig,
    cost_effectiveness,
    run_baseline,
    select_budget_constrained,
    select_fixed_number,
)
from maddm.harness import MethodSpec
from maddm.trust import TrustVector


class TestConfigs:
    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            StrategyConfig(kind="greedy")
        with pytest.raises(ValueError):
            StrategyConfig(epsilon=1.5)
        with pytest.raises(ValueError):
            StrategyConfig(criterion="fame")

    def test_baseline_validation(self, template_world):
        with pytest.raises(ValueError):
            run_baseline(
                MethodSpec("maddm"),
                template_world("env1", 0.8, 0, n_decisions=5), np.random.default_rng(0),
            )
        with pytest.raises(ValueError):
            MethodSpec("fna", fna_k=0)
        with pytest.raises(ValueError):
            MethodSpec("bc", bc_budget_fraction=0.0)


class TestCostEffectiveness:
    def test_printed_example(self):
        assert cost_effectiveness(np.array([10.0]), np.array([0.75]))[0] == pytest.approx(40.0)

    def test_coin_flip_is_worthless(self):
        scores = cost_effectiveness(np.array([1.0, 1.0]), np.array([0.5, 0.2]))
        assert scores.tolist() == [math.inf, math.inf]

    def test_free_competent_advisor_is_best(self):
        assert cost_effectiveness(np.array([0.0]), np.array([0.9]))[0] == 0.0


class TestSelectFixedNumber:
    def test_whole_pool_when_k_equals_size(self, rng, one_decision_world):
        world = one_decision_world([1.0, 2.0, 3.0])
        trust = TrustVector.fresh(3)
        chosen = select_fixed_number(
            world, trust, StrategyConfig(), 3, rng,
            point_estimates=trust.trustworthiness(), decisions_elapsed=0,
        )
        assert sorted(chosen) == [0, 1, 2]

    def test_pure_greedy_trustworthiness_takes_top_k(self, rng, one_decision_world):
        world = one_decision_world([1.0] * 5)
        trust = TrustVector.fresh(5)
        estimates = np.array([0.6, 0.9, 0.6, 0.8, 0.7])
        strategy = StrategyConfig(kind="epsilon_greedy", epsilon=0.0, criterion="trustworthiness")
        chosen = select_fixed_number(
            world, trust, strategy, 3, rng, point_estimates=estimates, decisions_elapsed=0
        )
        assert chosen == [1, 3, 4]
        # tie at 0.6 breaks toward the lower id
        chosen = select_fixed_number(
            world, trust, strategy, 5, rng, point_estimates=estimates, decisions_elapsed=0
        )
        assert chosen == [1, 3, 4, 0, 2]

    def test_full_exploration_is_uniform(self, rng, one_decision_world):
        n, k, trials = 10, 3, 10_000
        world = one_decision_world([1.0] * n)
        trust = TrustVector.fresh(n)
        strategy = StrategyConfig(kind="epsilon_greedy", epsilon=1.0, criterion="trustworthiness")
        counts = np.zeros(n)
        for _ in range(trials):
            for advisor in select_fixed_number(
                world, trust, strategy, k, rng,
                point_estimates=trust.trustworthiness(), decisions_elapsed=0,
            ):
                counts[advisor] += 1
        expected = k / n
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert np.all(np.abs(counts / trials - expected) < 3.0 * sigma + 1e-9)

    def test_exactly_k_distinct_for_every_strategy(self, rng, one_decision_world):
        world = one_decision_world(list(np.linspace(0.0, 5.0, 8)))
        trust = TrustVector(np.linspace(1, 4, 8), np.linspace(4, 1, 8))
        for kind in ("epsilon_greedy", "ucb", "thompson"):
            for criterion in ("trustworthiness", "cost_effectiveness"):
                strategy = StrategyConfig(kind=kind, criterion=criterion)
                for k in (1, 4, 8):
                    chosen = select_fixed_number(
                        world, trust, strategy, k, rng,
                        point_estimates=trust.trustworthiness(), decisions_elapsed=5,
                    )
                    assert len(chosen) == k
                    assert len(set(chosen)) == k

    def test_oversized_k_rejected(self, rng, one_decision_world):
        with pytest.raises(ValueError):
            select_fixed_number(
                one_decision_world([1.0]), TrustVector.fresh(1), StrategyConfig(), 2, rng,
                point_estimates=np.array([0.5]), decisions_elapsed=0,
            )

    @pytest.mark.parametrize("k", [-1, True, 2.0, np.int64(2)])
    def test_k_that_is_not_a_count_rejected(self, rng, one_decision_world, k):
        # a slice would take k=-1 as "all but the last" and k=True as 1
        with pytest.raises(ValueError, match="k must be an int"):
            select_fixed_number(
                one_decision_world([1.0] * 5), TrustVector.fresh(5), StrategyConfig(), k, rng,
                point_estimates=np.full(5, 0.5), decisions_elapsed=0,
            )

    def test_point_estimates_must_cover_the_pool(self, rng, one_decision_world):
        # a ranking over more estimates than advisors would hire unknown ids
        strategy = StrategyConfig(kind="epsilon_greedy", epsilon=0.0, criterion="trustworthiness")
        with pytest.raises(ValueError, match="one point estimate per advisor"):
            select_fixed_number(
                one_decision_world([1.0, 1.0]), TrustVector.fresh(2), strategy, 1, rng,
                point_estimates=np.array([0.1, 0.2, 0.9]), decisions_elapsed=0,
            )

    def test_trust_must_cover_the_pool(self, rng, one_decision_world):
        for n in (1, 3):
            with pytest.raises(ValueError, match="trust covers"):
                select_fixed_number(
                    one_decision_world([1.0, 1.0]), TrustVector.fresh(n), StrategyConfig(), 1, rng,
                    point_estimates=np.full(2, 0.5), decisions_elapsed=0,
                )
            with pytest.raises(ValueError, match="trust covers"):
                select_budget_constrained(
                    one_decision_world([1.0, 1.0]), TrustVector.fresh(n), StrategyConfig(), 1.0, rng,
                    point_estimates=np.full(2, 0.5), decisions_elapsed=0,
                )

    def test_ucb_prefers_unexplored(self, rng, one_decision_world):
        world = one_decision_world([1.0, 1.0, 1.0])
        # advisor 1 has plenty of evidence; 0 and 2 have none
        trust = TrustVector([1.0, 9.0, 1.0], [1.0, 3.0, 1.0])
        strategy = StrategyConfig(kind="ucb", criterion="trustworthiness")
        chosen = select_fixed_number(
            world, trust, strategy, 2, rng,
            point_estimates=trust.trustworthiness(), decisions_elapsed=10,
        )
        assert set(chosen) == {0, 2}


class TestSelectBudgetConstrained:
    def test_zero_budget_with_costly_pool(self, rng, one_decision_world):
        chosen = select_budget_constrained(
            one_decision_world([2.0, 3.0]), TrustVector.fresh(2), StrategyConfig(), 0.0, rng,
            point_estimates=np.full(2, 0.5), decisions_elapsed=0,
        )
        assert chosen == []

    def test_zero_cost_advisors_fit_zero_budget(self, rng, one_decision_world):
        strategy = StrategyConfig(kind="epsilon_greedy", epsilon=0.0, criterion="cost_effectiveness")
        estimates = np.array([0.9, 0.8])
        chosen = select_budget_constrained(
            one_decision_world([0.0, 1.0]), TrustVector.fresh(2), strategy, 0.0, rng,
            point_estimates=estimates, decisions_elapsed=0,
        )
        assert chosen == [0]

    def test_unbounded_budget_takes_whole_pool(self, rng, one_decision_world):
        costs = [1.0, 2.5, 0.5, 4.0]
        chosen = select_budget_constrained(
            one_decision_world(costs), TrustVector.fresh(4), StrategyConfig(), sum(costs), rng,
            point_estimates=np.full(4, 0.5), decisions_elapsed=0,
        )
        assert sorted(chosen) == [0, 1, 2, 3]

    def test_stops_at_first_overshoot_without_skipping(self, rng, one_decision_world):
        # preference order is 0 (tau .9, cost 5), 1 (tau .8, cost 10), 2 (tau .7, cost 1);
        # budget 6 hires 0, then stops at 1 even though 2 would still fit
        strategy = StrategyConfig(kind="epsilon_greedy", epsilon=0.0, criterion="trustworthiness")
        estimates = np.array([0.9, 0.8, 0.7])
        chosen = select_budget_constrained(
            one_decision_world([5.0, 10.0, 1.0]), TrustVector.fresh(3), strategy, 6.0, rng,
            point_estimates=estimates, decisions_elapsed=0,
        )
        assert chosen == [0]

    def test_never_exceeds_budget(self, rng, one_decision_world):
        for _ in range(300):
            n = int(rng.integers(1, 9))
            costs = rng.uniform(0.0, 10.0, size=n).tolist()
            budget = float(rng.uniform(0.0, 25.0))
            kind = ("epsilon_greedy", "ucb", "thompson")[int(rng.integers(3))]
            chosen = select_budget_constrained(
                one_decision_world(costs), TrustVector.fresh(n), StrategyConfig(kind=kind), budget, rng,
                point_estimates=np.full(n, 0.5), decisions_elapsed=3,
            )
            assert sum(costs[i] for i in chosen) <= budget + 1e-12

    def test_negative_budget_rejected(self, rng, one_decision_world):
        with pytest.raises(ValueError):
            select_budget_constrained(
                one_decision_world([1.0]), TrustVector.fresh(1), StrategyConfig(), -1.0, rng,
                point_estimates=np.array([0.5]), decisions_elapsed=0,
            )

    def test_nan_budget_rejected(self, rng, one_decision_world):
        # every ``spent + cost > nan`` is false, so a NaN budget hired the whole pool
        with pytest.raises(ValueError, match="budget"):
            select_budget_constrained(
                one_decision_world([1.0] * 4), TrustVector.fresh(4), StrategyConfig(), math.nan, rng,
                point_estimates=np.full(4, 0.5), decisions_elapsed=0,
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
        assert abs(em.posteriors[0, 0] - 0.5) < 1e-4
        assert abs(em.accuracies[0] - 0.5) < 1e-4

    def test_unanimous_trio_converges_confident(self):
        em = em_over(unanimous_history(3, 50), n_advisors=3)
        assert np.all(em.accuracies > 0.9)
        assert np.all(em.posteriors[0] > 0.99)

    def test_perfectly_opposed_pair_stays_split(self):
        sets = [AnswerSet({0}, {1}) for _ in range(50)]
        em = em_over(sets, n_advisors=2)
        assert np.all(np.abs(em.posteriors[0] - 0.5) < 1e-6)

    def test_beliefs_stay_probabilities(self, rng):
        sets = []
        for _ in range(30):
            members = rng.permutation(6)[: rng.integers(1, 6)]
            split = rng.integers(0, members.size + 1)
            sets.append(AnswerSet(set(members[:split].tolist()), set(members[split:].tolist())))
        em = em_over(sets, n_advisors=6)
        assert np.all((em.accuracies > 0.0) & (em.accuracies < 1.0))
        assert np.all((em.posteriors >= 0.0) & (em.posteriors <= 1.0))

    def test_explicit_init_state_is_respected(self):
        assert EmAggregator(2).accuracies.tolist() == [INIT_ACCURACY, INIT_ACCURACY]
        em = em_over([AnswerSet({0}, {1})], n_advisors=2)
        assert em.posteriors[0, 0] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("max_iterations", 0),
            ("max_iterations", 2.5),
            ("max_iterations", True),
            ("tol", math.nan),
            ("tol", -1.0),
            ("tol", 0.0),
            ("tol", math.inf),
        ],
    )
    def test_invalid_convergence_knobs_rejected_when_built(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            EmAggregator(2, **{knob: value})

    def test_empty_input_rejected(self):
        aggregator = EmAggregator(3)
        with pytest.raises(ValueError):
            aggregator.infer()
        with pytest.raises(ValueError):
            aggregator.observe(AnswerSet((), ()))

    @pytest.mark.parametrize("n_advisors", [2.5, True, 0])
    def test_pool_size_must_be_a_positive_int(self, n_advisors):
        with pytest.raises(ValueError, match="n_advisors"):
            EmAggregator(n_advisors)

    def test_rejected_set_is_not_logged(self):
        aggregator = EmAggregator(3)
        aggregator.observe(AnswerSet({0}, {1}))
        for answers, match in ((AnswerSet((), ()), "empty"), (AnswerSet({0}, {3}), "advisor id 3")):
            with pytest.raises(ValueError, match=match):
                aggregator.observe(answers)
            assert aggregator.n_decisions == 1

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
            assert np.array_equal(straight.posteriors[0], mirrored.posteriors[1])
            assert np.array_equal(straight.posteriors[1], mirrored.posteriors[0])


@pytest.fixture(scope="module")
def small_env(template_world):
    return template_world("env1", 0.8, 13, n_decisions=60)


class TestRunBaseline:

    def test_bu_is_the_exact_value_sum(self, small_env):
        result = run_baseline(
            MethodSpec("bu"), small_env, np.random.default_rng(0)
        )
        assert result.utility == math.fsum(small_env.profits)
        assert result.correct_count == small_env.n_decisions
        assert result.total_cost == 0.0

    def test_rv_hires_three_and_decides_every_decision(self, small_env):
        result = run_baseline(
            MethodSpec("rv"), small_env,
            np.random.default_rng(1), trace=True,
        )
        for row in result.trace:
            assert len(row["hired"]) == 3
            assert row["answer"] in (-1, 1)

    def test_rv_answers_a_tied_vote_no_with_no_confidence(self, template_world):
        # a tie is margin 0, as for a tied ensemble or an empty decision: the
        # answer no at even odds; an untied vote is certain
        world = template_world("env1", 0.6, 0, n_decisions=200)
        result = run_baseline(MethodSpec("rv", rv_k=2), world, np.random.default_rng(0), trace=True)
        tied = 0
        for row in result.trace:
            if world.answers[row["decision_id"], row["hired"]].sum() == 0:
                tied += 1
                assert (row["answer"], row["confidence"], row["p_positive"]) == (-1, 0.0, 0.5)
            else:
                assert (row["confidence"], row["p_positive"]) == (1.0, float(row["answer"] == 1))
        assert tied == 88
        # rv updates no trust, so only the trace moved with the tie rule
        assert result.correct_count == 80
        assert result.utility == -9545.608412805614

    def test_fna_hires_exactly_k(self, small_env):
        result = run_baseline(
            MethodSpec("fna", fna_k=5), small_env,
            np.random.default_rng(2), trace=True,
        )
        for row in result.trace:
            assert len(row["hired"]) == 5

    def test_bc_respects_budget(self, small_env):
        fraction = 0.10
        result = run_baseline(
            MethodSpec("bc", bc_budget_fraction=fraction), small_env, np.random.default_rng(3), trace=True,
        )
        for row, profit, loss in zip(result.trace, small_env.profits, small_env.losses):
            assert row["total_cost"] <= fraction * (profit + loss) + 1e-9

    def test_exploration_first_hires_everyone_early(self, small_env):
        full_cost = sum(small_env.costs)
        result = run_baseline(
            MethodSpec("fna"), small_env, np.random.default_rng(4), warm_up_rounds=10, trace=True,
        )
        for row in result.trace[:10]:
            assert len(row["hired"]) == small_env.n_advisors
            assert row["total_cost"] == pytest.approx(full_cost)
            assert row["rounds"] == 0
        for row in result.trace[10:]:
            assert len(row["hired"]) == 5
            assert row["rounds"] == 1

    def test_bu_dominates_everything(self, small_env):
        bu = run_baseline(
            MethodSpec("bu"), small_env, np.random.default_rng(5)
        )
        for method in ("fna", "bc", "rv"):
            other = run_baseline(
                MethodSpec(method), small_env,
                np.random.default_rng(6),
            )
            assert bu.utility > other.utility

    def test_accounting_identity(self, small_env):
        result = run_baseline(
            MethodSpec("fna"), small_env,
            np.random.default_rng(7), trace=True,
        )
        won = math.fsum(
            profit for profit, row in zip(small_env.profits, result.trace) if row["correct"]
        )
        lost = math.fsum(
            loss for loss, row in zip(small_env.losses, result.trace) if not row["correct"]
        )
        fees = math.fsum(row["total_cost"] for row in result.trace)
        assert result.utility == pytest.approx(won - lost - fees, abs=1e-9)
        assert result.total_cost == pytest.approx(fees, abs=1e-9)
        assert result.correct_count == sum(row["correct"] for row in result.trace)
