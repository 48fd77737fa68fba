from __future__ import annotations

import math

import numpy as np
import pytest

from maddm.answers import AnswerSet
from maddm.ensemble import UNIFORM_PRIOR, EnsembleSums, PriorOdds, ensemble_decide
from maddm.environment import Environment, env_config
from maddm.harness import MaddmConfig, run_maddm
from maddm.review import ReviewConfig
from maddm.selection import DecisionValue, _hypothetical_gain, select_advisors
from maddm.trust import TrustVector


class TestValueTypes:
    def test_decision_value_validation(self):
        with pytest.raises(ValueError):
            DecisionValue(-1.0, 0.0)
        with pytest.raises(ValueError):
            DecisionValue(1.0, math.inf)
        assert DecisionValue(30.0, 70.0).total == 100.0

    def test_offer_validation(self, rng):
        # one finite, non-negative price per advisor the trust vector covers
        trust = TrustVector.fresh(2)
        for costs in ([0.0, -0.5], [1.0, math.nan], [math.inf, 1.0], [1.0], [1.0, 2.0, 3.0]):
            with pytest.raises(ValueError):
                select_advisors(DecisionValue(1, 1), np.array(costs), trust, UNIFORM_PRIOR,
                                lambda i: 1, rng)


def hiring_gain(
    candidate: int,
    sampled: float,
    current: AnswerSet,
    trust: TrustVector,
    value: DecisionValue,
    prior: PriorOdds = UNIFORM_PRIOR,
) -> float:
    """The hiring loop's expected contribution of ``candidate`` joining ``current``.

    ``sampled`` is the candidate's Thompson draw; the loop scores a whole
    sweep at once, so this passes it as a one-element draw array.
    """
    sums = EnsembleSums.of(current, trust)
    pe_plus, pe_minus = sums.probabilities(prior)
    draws = np.array([sampled])
    theta = trust.uncertainty()[candidate]
    return float(_hypothetical_gain(draws, theta, sums, pe_plus, pe_minus, value, prior)[0])


class TestMarginalContribution:
    def test_coin_flip_draw_contributes_nothing(self):
        trust = TrustVector.fresh(3)
        value = DecisionValue(100.0, 100.0)
        for current in (AnswerSet.empty(), AnswerSet({1}, {2})):
            assert hiring_gain(0, 0.5, current, trust, value) == 0.0

    def test_fresh_candidate_on_empty_set(self):
        # single-member hypothetical vote is one-sided, so each side's swing
        # is 0.5 * |1 - 0.5| * 200 = 50 and the draw scales it by 2*0.9-1
        trust = TrustVector.fresh(1)
        value = DecisionValue(100.0, 100.0)
        got = hiring_gain(0, 0.9, AnswerSet.empty(), trust, value)
        assert got == pytest.approx(80.0, rel=1e-12)

    def test_low_draw_prices_negative(self):
        trust = TrustVector.fresh(1)
        value = DecisionValue(100.0, 100.0)
        got = hiring_gain(0, 0.2, AnswerSet.empty(), trust, value)
        assert got < 0.0

    def test_matches_public_ensemble_hypotheticals(self, rng):
        # Independent route: encode the candidate's sampled trust into a
        # synthetic record with the same evidence mass (same uncertainty),
        # then price the swing through ensemble_decide directly.
        for _ in range(200):
            n = int(rng.integers(2, 7))
            # mass floor keeps both raw and substituted records above the prior
            totals = rng.uniform(10.5, 24.0, size=n)
            taus = rng.uniform(0.1, 0.9, size=n)
            alphas = np.maximum(taus * totals, 1.0)
            betas = np.maximum(totals - alphas, 1.0)
            trust = TrustVector(alphas, betas)

            members = list(rng.permutation(n))
            candidate_id = members.pop()
            split = int(rng.integers(0, len(members) + 1))
            current = AnswerSet(set(members[:split]), set(members[split:]))
            sampled = float(rng.uniform(0.15, 0.85))
            value = DecisionValue(float(rng.uniform(0, 300)), float(rng.uniform(0, 300)))
            prior = UNIFORM_PRIOR

            if current.is_empty:
                pe_plus, pe_minus = 0.5, 0.5
            else:
                base = ensemble_decide(current, trust, prior)
                pe_plus, pe_minus = base.p_positive, base.p_negative

            total_cand = float(alphas[candidate_id] + betas[candidate_id])
            synth_alpha = alphas.copy()
            synth_beta = betas.copy()
            synth_alpha[candidate_id] = sampled * total_cand
            synth_beta[candidate_id] = total_cand - synth_alpha[candidate_id]
            synth = TrustVector(synth_alpha, synth_beta)

            as_yes = AnswerSet(current.positives | {candidate_id}, current.negatives)
            as_no = AnswerSet(current.positives, current.negatives | {candidate_id})
            hyp_plus = ensemble_decide(as_yes, synth, prior).p_positive
            hyp_minus = ensemble_decide(as_no, synth, prior).p_negative
            swing_plus = prior.p_plus * abs(hyp_plus - pe_plus) * value.total
            swing_minus = prior.p_minus * abs(hyp_minus - pe_minus) * value.total
            expected = (2.0 * sampled - 1.0) * (swing_plus + swing_minus)

            got = hiring_gain(candidate_id, sampled, current, trust, value, prior)
            assert got == pytest.approx(expected, abs=1e-12 * max(1.0, value.total))


class TestSelectAdvisors:
    def oracle_always(self, answer):
        return lambda advisor_id: answer

    def test_unaffordable_pool_hires_nobody(self, rng):
        value = DecisionValue(50.0, 50.0)
        costs = np.full(5, 101.0)
        trust = TrustVector.fresh(5)
        outcome = select_advisors(value, costs, trust, UNIFORM_PRIOR, self.oracle_always(1), rng)
        assert outcome.answers.is_empty
        assert outcome.total_cost == 0.0
        assert outcome.hired == ()
        assert outcome.rounds == 1

    def test_free_confident_advisor_is_hired(self, rng):
        # an advisor with overwhelming evidence draws near 1, clearing cost 0
        trust = TrustVector([1000.0], [1.0])
        outcome = select_advisors(
            DecisionValue(100.0, 100.0), np.zeros(1), trust, UNIFORM_PRIOR, self.oracle_always(1), rng
        )
        assert outcome.hired == (0,)
        assert outcome.answers.positives == frozenset({0})
        assert outcome.rounds == 1  # pool exhausted right after the hire

    def test_no_advisor_hired_twice_and_cost_exact(self, rng):
        n = 12
        trust = TrustVector.fresh(n)
        costs = rng.uniform(0.0, 8.0, size=n)
        answers = {i: 1 if rng.random() < 0.7 else -1 for i in range(n)}
        outcome = select_advisors(
            DecisionValue(200.0, 200.0), costs, trust, UNIFORM_PRIOR,
            lambda i: answers[i], rng,
        )
        assert len(outcome.hired) == len(set(outcome.hired))
        assert frozenset(outcome.hired) == outcome.answers.members
        assert outcome.total_cost == pytest.approx(
            sum(costs[i] for i in outcome.hired), abs=1e-12
        )
        assert len(outcome.hired) <= n
        for advisor in outcome.answers.positives:
            assert answers[advisor] == 1
        for advisor in outcome.answers.negatives:
            assert answers[advisor] == -1

    def test_deterministic_under_fixed_seed(self):
        n = 10
        trust = TrustVector.fresh(n)
        costs = 2.0 + 0.3 * np.arange(n)
        value = DecisionValue(120.0, 80.0)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            runs.append(
                select_advisors(value, costs, trust, UNIFORM_PRIOR, self.oracle_always(-1), rng)
            )
        assert runs[0] == runs[1]

    def test_empty_pool_rejected(self, rng):
        with pytest.raises(ValueError, match="non-empty"):
            select_advisors(
                DecisionValue(1, 1), [], TrustVector.fresh(0), UNIFORM_PRIOR,
                self.oracle_always(1), rng,
            )


class TestPoolSizeTracksStakes:
    def test_bigger_values_hire_more_advisors(self):
        # same advisor pools, tenfold decision values: the marginal-value
        # bar clears more often when the stakes are higher
        hires = {}
        for name in ("env1", "env2"):
            env = Environment.build(env_config(name, 0.8, seed=5, n_decisions=250))
            result = run_maddm(
                env,
                MaddmConfig(review=ReviewConfig(frequency=5)),
                np.random.default_rng(11),
                trace=True,
            )
            hires[name] = np.mean([len(row["hired"]) for row in result.trace])
        assert hires["env2"] > hires["env1"]
