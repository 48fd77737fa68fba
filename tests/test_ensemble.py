from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maddm.answers import AnswerSet
from maddm.ensemble import (
    average_uncertainty,
    bayesian_probabilities,
    decide_and_update,
    ensemble_decide,
    margin,
    weighted_voting_probabilities,
)
from maddm.results import answer_for
from maddm.trust import TrustVector, apply_confidence_update


def vector_for(taus: list[float], total: float = 10.0) -> TrustVector:
    """Records with the requested trustworthiness at fixed evidence mass."""
    alphas = [max(tau * total, 1.0) for tau in taus]
    # exact complement, nudged off the floor
    return TrustVector(alphas, [max(total - alpha, 1.0) for alpha in alphas])


class TestAnswerSet:
    def test_sides_must_be_disjoint(self):
        with pytest.raises(ValueError, match="both sides"):
            AnswerSet({1, 2}, {2, 3})

    def test_members_and_len(self):
        answers = AnswerSet({0, 2}, {1})
        assert answers.ids == (0, 1, 2)
        assert answers.signs == (1, -1, 1)
        assert len(answers) == 3
        assert not answers.is_empty
        assert AnswerSet((), ()).is_empty

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            AnswerSet({-1}, set())

    @pytest.mark.parametrize("bad", [True, 2.0, -1])
    def test_ids_must_be_non_negative_ints(self, bad):
        # the same rule as Environment.answer_set, without its pool bound
        with pytest.raises(ValueError, match=f"advisor id {bad!r} is not a non-negative int"):
            AnswerSet({bad}, ())
        with pytest.raises(ValueError, match="is not a non-negative int"):
            AnswerSet((), [bad])

    def test_numpy_int_ids_accepted_as_ints(self):
        answers = AnswerSet({np.int64(2)}, [np.int32(0)])
        assert answers.ids == (0, 2)
        assert answers.signs == (-1, 1)
        assert all(type(i) is int for i in answers.ids)


def bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


class TestMargin:
    @pytest.fixture
    def stats(self, rng):
        """Half log-odds, mixing weights, signed masses and masses, zeros and saturation included."""
        half_log_odds = np.r_[0.0, -0.0, 40.0, -40.0, rng.normal(0.0, 3.0, 200)]
        mass = rng.uniform(0.05, 20.0, half_log_odds.size)
        signed_mass = mass * np.r_[0.0, 1.0, -1.0, 0.5, rng.uniform(-1.0, 1.0, 200)]
        theta_bar = rng.uniform(0.0, 1.0, half_log_odds.size)
        return half_log_odds, theta_bar, signed_mass, mass

    def test_exact_ends_and_odd_symmetry_on_arrays(self, stats):
        h, theta_bar, s, m = stats
        # equal values: the ends may differ from the pure rule in the sign of a zero
        assert np.array_equal(margin(h, 0.0, s, m), np.tanh(h))
        assert np.array_equal(margin(h, 1.0, s, m), s / m)
        assert bits(margin(-h, theta_bar, -s, m)) == bits(-margin(h, theta_bar, s, m))

    def test_exact_ends_and_odd_symmetry_on_floats(self, stats):
        for h, theta_bar, s, m in zip(*(column.tolist() for column in stats)):
            got = margin(h, theta_bar, s, m)
            assert type(got) is float
            assert margin(h, 0.0, s, m) == math.tanh(h)
            assert margin(h, 1.0, s, m) == s / m
            assert bits(margin(-h, theta_bar, -s, m)) == bits(-got)


class TestBayesian:
    def test_single_positive_advisor(self):
        trust = vector_for([0.8])
        p_plus, p_minus = bayesian_probabilities(AnswerSet({0}, set()), trust)
        assert p_plus == pytest.approx(0.8, abs=1e-12)
        assert p_minus == pytest.approx(0.2, abs=1e-12)

    def test_symmetric_split_cancels(self):
        trust = vector_for([0.5, 0.5])
        p_plus, p_minus = bayesian_probabilities(AnswerSet({0}, {1}), trust)
        assert p_plus == pytest.approx(0.5, abs=1e-12)
        assert p_minus == pytest.approx(0.5, abs=1e-12)

    def test_two_against_one(self):
        # likelihoods 0.9*0.9*0.1 versus 0.1*0.1*0.9 normalize to 0.9 / 0.1
        trust = vector_for([0.9, 0.9, 0.9])
        p_plus, p_minus = bayesian_probabilities(AnswerSet({0, 1}, {2}), trust)
        assert p_plus == pytest.approx(0.9, abs=1e-12)
        assert p_minus == pytest.approx(0.1, abs=1e-12)

    def test_no_underflow_with_many_extreme_advisors(self):
        trust = vector_for([0.99] * 30, total=200.0)
        p_plus, p_minus = bayesian_probabilities(
            AnswerSet(set(range(30)), set()), trust
        )
        assert p_plus > 0.999
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            bayesian_probabilities(AnswerSet((), ()), TrustVector.fresh(2))

    def test_unknown_advisor_rejected(self):
        with pytest.raises(ValueError, match="advisor id 7 is not"):
            bayesian_probabilities(AnswerSet({7}, set()), TrustVector.fresh(2))


class TestWeightedVoting:
    def test_two_thirds_split(self):
        trust = vector_for([0.8, 0.4])
        p_plus, p_minus = weighted_voting_probabilities(AnswerSet({0}, {1}), trust)
        assert p_plus == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert p_minus == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_one_sided_set_takes_all_mass(self):
        trust = vector_for([0.5])
        assert weighted_voting_probabilities(AnswerSet({0}, set()), trust) == (1.0, 0.0)

    def test_equal_sums_tie(self):
        trust = vector_for([0.6, 0.6, 0.6, 0.6])
        p_plus, p_minus = weighted_voting_probabilities(AnswerSet({0, 1}, {2, 3}), trust)
        assert p_plus == pytest.approx(0.5, abs=1e-12)
        assert p_minus == pytest.approx(0.5, abs=1e-12)


class TestAverageUncertainty:
    def test_fresh_advisors_max_out(self):
        trust = TrustVector.fresh(2)
        assert average_uncertainty(AnswerSet({0}, {1}), trust) == 1.0

    def test_mixed_mean(self):
        trust = TrustVector([9.0, 2.0], [1.0, 3.0])
        # uncertainties 0.2 and 0.4
        assert average_uncertainty(AnswerSet({0}, {1}), trust) == pytest.approx(0.3, abs=1e-12)

    def test_single_member(self):
        trust = TrustVector([9.0], [1.0])
        assert average_uncertainty(AnswerSet({0}, set()), trust) == pytest.approx(0.2, abs=1e-12)


class TestEnsembleDecide:
    def test_fresh_pool_equals_weighted_voting_exactly(self):
        trust = TrustVector.fresh(3)
        answers = AnswerSet({0, 1}, {2})
        outcome = ensemble_decide(answers, trust)
        vote = weighted_voting_probabilities(answers, trust)
        assert (outcome.p_positive, outcome.p_negative) == vote

    def test_single_strong_advisor(self):
        trust = vector_for([0.8])  # uncertainty 0.2
        outcome = ensemble_decide(AnswerSet({0}, set()), trust)
        assert outcome.p_positive == pytest.approx(0.84, abs=1e-12)
        assert outcome.answer == 1
        assert outcome.confidence == pytest.approx(0.68, abs=1e-12)

    def test_tie_answers_negative(self):
        trust = TrustVector.fresh(2)
        outcome = ensemble_decide(AnswerSet({0}, {1}), trust)
        assert outcome.p_positive == pytest.approx(0.5, abs=1e-12)
        assert outcome.answer == -1
        assert outcome.confidence == pytest.approx(0.0, abs=1e-12)


class TestDecideAndUpdate:
    def test_unanimous_fresh_pool_gains_alpha(self):
        trust = TrustVector.fresh(2)
        m, updated = decide_and_update(AnswerSet({0, 1}, set()), trust)
        assert m == pytest.approx(1.0)
        for advisor in (0, 1):
            assert updated.alpha[advisor] == pytest.approx(1.0 + m)
            assert updated.beta[advisor] == 1.0

    def test_balanced_split_changes_nothing(self):
        trust = TrustVector.fresh(2)
        m, updated = decide_and_update(AnswerSet({0}, {1}), trust)
        assert m == pytest.approx(0.0, abs=1e-12)
        assert updated.alpha[0] == pytest.approx(1.0, abs=1e-12)
        assert updated.beta[0] == pytest.approx(1.0, abs=1e-12)

    def test_confidence_flows_into_evidence(self):
        trust = vector_for([0.8])
        m, updated = decide_and_update(AnswerSet({0}, set()), trust)
        assert m == pytest.approx(0.68, abs=1e-12)
        assert updated.alpha[0] == pytest.approx(8.0 + 0.68, abs=1e-12)
        assert updated.beta[0] == pytest.approx(2.0, abs=1e-12)


tau_values = st.floats(min_value=0.1, max_value=0.9, allow_nan=False)


def camps(answers: AnswerSet) -> tuple[frozenset[int], frozenset[int]]:
    """The advisors that voted yes and those that voted no."""
    yes = frozenset(i for i, sign in zip(answers.ids, answers.signs) if sign == 1)
    return yes, frozenset(answers.ids) - yes


@st.composite
def answer_cases(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    taus = draw(st.lists(tau_values, min_size=n, max_size=n))
    split = draw(st.integers(min_value=0, max_value=n))
    positives = frozenset(range(split))
    negatives = frozenset(range(split, n))
    return AnswerSet(positives, negatives), vector_for(taus)


class TestProperties:
    @given(answer_cases())
    def test_probability_pairs_normalize(self, case):
        answers, trust = case
        for p_plus, p_minus in (
            bayesian_probabilities(answers, trust),
            weighted_voting_probabilities(answers, trust),
        ):
            assert abs(p_plus + p_minus - 1.0) < 1e-12
        outcome = ensemble_decide(answers, trust)
        assert abs(outcome.p_positive + outcome.p_negative - 1.0) < 1e-12
        assert 0.0 <= outcome.confidence <= 1.0

    @given(answer_cases())
    def test_decide_and_update_returns_the_decisions_margin(self, case):
        answers, trust = case
        m, updated = decide_and_update(answers, trust)
        outcome = ensemble_decide(answers, trust)
        assert (0.5 + 0.5 * m, 0.5 - 0.5 * m) == (outcome.p_positive, outcome.p_negative)
        assert (answer_for(m), abs(m)) == (outcome.answer, outcome.confidence)
        assert updated == apply_confidence_update(trust, answers, m)

    @given(answer_cases())
    def test_swapping_sides_swaps_probabilities(self, case):
        answers, trust = case
        yes, no = camps(answers)
        swapped = AnswerSet(no, yes)
        for op in (bayesian_probabilities, weighted_voting_probabilities):
            p_plus, p_minus = op(answers, trust)
            s_plus, s_minus = op(swapped, trust)
            assert p_plus == pytest.approx(s_minus, abs=1e-12)
            assert p_minus == pytest.approx(s_plus, abs=1e-12)
        assert average_uncertainty(answers, trust) == average_uncertainty(swapped, trust)

    @given(answer_cases(), st.floats(min_value=0.51, max_value=0.9))
    def test_adding_trusted_supporter_never_hurts(self, case, tau_extra):
        answers, trust = case
        extra = len(trust)
        taus = [float(t) for t in trust.trustworthiness()] + [tau_extra]
        grown_trust = vector_for(taus)
        yes, no = camps(answers)
        grown = AnswerSet(yes | {extra}, no)
        before, _ = bayesian_probabilities(answers, grown_trust)
        after, _ = bayesian_probabilities(grown, grown_trust)
        assert after >= before - 1e-12
