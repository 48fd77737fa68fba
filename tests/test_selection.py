from __future__ import annotations

import numpy as np
import pytest

from maddm.answers import AnswerSet
from maddm.ensemble import EnsembleSums, ensemble_decide
from maddm.harness import MethodSpec, run_maddm
from maddm.review import ReviewConfig
from maddm.selection import _hypothetical_gain, select_advisors
from maddm.trust import TrustVector


def hiring_gain(
    candidate: int,
    sampled: float,
    current: AnswerSet,
    trust: TrustVector,
    stakes: float,
) -> float:
    """The hiring loop's expected contribution of ``candidate`` joining ``current``.

    ``sampled`` is the candidate's Thompson draw; the loop scores a whole
    sweep at once, so this passes it as a one-element draw array.
    """
    sums = EnsembleSums.of(current, trust)
    draws = np.array([sampled])
    theta = trust.theta[candidate]
    return float(_hypothetical_gain(draws, theta, sums, stakes)[0])


class TestMarginalContribution:
    def test_coin_flip_draw_contributes_nothing(self):
        trust = TrustVector.fresh(3)
        for current in (AnswerSet((), ()), AnswerSet({1}, {2})):
            assert hiring_gain(0, 0.5, current, trust, 200.0) == 0.0

    def test_fresh_candidate_on_empty_set(self):
        # single-member hypothetical vote is one-sided, so each side's swing
        # is 0.5 * |1 - 0.5| * 200 = 50 and the draw scales it by 2*0.9-1
        trust = TrustVector.fresh(1)
        got = hiring_gain(0, 0.9, AnswerSet((), ()), trust, 200.0)
        assert got == pytest.approx(80.0, rel=1e-12)

    def test_low_draw_prices_negative(self):
        trust = TrustVector.fresh(1)
        got = hiring_gain(0, 0.2, AnswerSet((), ()), trust, 200.0)
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
            yes, no = set(members[:split]), set(members[split:])
            current = AnswerSet(yes, no)
            sampled = float(rng.uniform(0.15, 0.85))
            stakes = float(rng.uniform(0, 300)) + float(rng.uniform(0, 300))

            if current.is_empty:
                pe_plus, pe_minus = 0.5, 0.5
            else:
                base = ensemble_decide(current, trust)
                pe_plus, pe_minus = base.p_positive, base.p_negative

            total_cand = float(alphas[candidate_id] + betas[candidate_id])
            synth_alpha = alphas.copy()
            synth_beta = betas.copy()
            synth_alpha[candidate_id] = sampled * total_cand
            synth_beta[candidate_id] = total_cand - synth_alpha[candidate_id]
            synth = TrustVector(synth_alpha, synth_beta)

            as_yes = AnswerSet(yes | {candidate_id}, no)
            as_no = AnswerSet(yes, no | {candidate_id})
            hyp_plus = ensemble_decide(as_yes, synth).p_positive
            hyp_minus = ensemble_decide(as_no, synth).p_negative
            swing_plus = 0.5 * abs(hyp_plus - pe_plus) * stakes
            swing_minus = 0.5 * abs(hyp_minus - pe_minus) * stakes
            expected = (2.0 * sampled - 1.0) * (swing_plus + swing_minus)

            got = hiring_gain(candidate_id, sampled, current, trust, stakes)
            assert got == pytest.approx(expected, abs=1e-12 * max(1.0, stakes))


class TestSelectAdvisors:
    def test_unaffordable_pool_hires_nobody(self, rng, one_decision_world):
        trust = TrustVector.fresh(5)
        outcome = select_advisors(one_decision_world(np.full(5, 101.0), stakes=100.0), 0, trust, rng)
        assert outcome.total_cost == 0.0
        assert outcome.hired == ()
        assert outcome.rounds == 1

    def test_free_confident_advisor_is_hired(self, rng, one_decision_world):
        # an advisor with overwhelming evidence draws near 1, clearing cost 0
        trust = TrustVector([1000.0], [1.0])
        env = one_decision_world(np.zeros(1), [1])
        outcome = select_advisors(env, 0, trust, rng)
        assert outcome.hired == (0,)
        assert env.answer_set(0, outcome.hired) == AnswerSet({0}, ())
        assert outcome.rounds == 1  # pool exhausted right after the hire
        # the record reads in the order results.play books it
        assert tuple(outcome) == (outcome.hired, outcome.total_cost, outcome.rounds) == ((0,), 0.0, 1)

    def test_trust_must_cover_the_pool(self, rng, one_decision_world):
        env = one_decision_world(np.zeros(3))
        for n in (2, 4):
            with pytest.raises(ValueError, match="trust covers"):
                select_advisors(env, 0, TrustVector.fresh(n), rng)

    @pytest.mark.parametrize("decision_id", [-1, 1, 0.0, True])
    def test_decision_id_must_name_a_decision(self, rng, one_decision_world, decision_id):
        with pytest.raises(ValueError, match="decision id"):
            select_advisors(one_decision_world(np.zeros(3)), decision_id, TrustVector.fresh(3), rng)

    def test_no_advisor_hired_twice_and_cost_exact(self, rng, one_decision_world):
        n = 12
        trust = TrustVector.fresh(n)
        costs = rng.uniform(0.0, 8.0, size=n)
        answers = {i: 1 if rng.random() < 0.7 else -1 for i in range(n)}
        env = one_decision_world(costs, [answers[i] for i in range(n)], stakes=400.0)
        outcome = select_advisors(env, 0, trust, rng)
        hired_answers = env.answer_set(0, outcome.hired)
        assert len(outcome.hired) == len(set(outcome.hired))
        assert hired_answers.ids == tuple(sorted(outcome.hired))
        assert outcome.total_cost == pytest.approx(
            sum(costs[i] for i in outcome.hired), abs=1e-12
        )
        assert len(outcome.hired) <= n
        for advisor, sign in zip(hired_answers.ids, hired_answers.signs):
            assert answers[advisor] == sign

    def test_deterministic_under_fixed_seed(self, one_decision_world):
        n = 10
        trust = TrustVector.fresh(n)
        env = one_decision_world(2.0 + 0.3 * np.arange(n), np.full(n, -1))
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            runs.append(select_advisors(env, 0, trust, rng))
        assert runs[0] == runs[1]


class TestPoolSizeTracksStakes:
    def test_bigger_values_hire_more_advisors(self, template_world):
        # same advisor pools, tenfold decision values: the marginal-value
        # bar clears more often when the stakes are higher
        hires = {}
        for name in ("env1", "env2"):
            env = template_world(name, 0.8, 5, n_decisions=250)
            result = run_maddm(
                MethodSpec("maddm", review=ReviewConfig(frequency=5)),
                env,
                np.random.default_rng(11),
                trace=True,
            )
            hires[name] = np.mean([len(row["hired"]) for row in result.trace])
        assert hires["env2"] > hires["env1"]
