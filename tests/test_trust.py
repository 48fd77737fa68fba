from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maddm.answers import AnswerSet
from maddm.trust import (
    TAU_EPS,
    TrustVector,
    apply_confidence_update,
    clamp_trust,
)


def single(alpha: float, beta: float) -> TrustVector:
    """A one-advisor vector holding the given evidence."""
    return TrustVector([alpha], [beta])


class TestRecordBasics:
    def test_new_record_is_uninformative_prior(self):
        vec = TrustVector.fresh(1)
        assert vec.alpha.tolist() == [1.0]
        assert vec.beta.tolist() == [1.0]
        assert vec.trustworthiness().tolist() == [0.5]
        assert vec.uncertainty().tolist() == [1.0]

    @pytest.mark.parametrize(
        "alpha, beta, expected",
        [(9.0, 1.0, 0.9), (1.0, 1.0, 0.5), (2.4, 1.6, 0.6)],
    )
    def test_trustworthiness_values(self, alpha, beta, expected):
        assert single(alpha, beta).trustworthiness()[0] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "alpha, beta, expected",
        [(1.0, 1.0, 1.0), (9.0, 1.0, 0.2), (99.0, 101.0, 0.01)],
    )
    def test_uncertainty_values(self, alpha, beta, expected):
        assert single(alpha, beta).uncertainty()[0] == pytest.approx(expected, abs=1e-12)

    def test_evidence_below_prior_rejected(self):
        with pytest.raises(ValueError):
            single(0.5, 1.0)
        with pytest.raises(ValueError):
            single(1.0, 0.0)
        with pytest.raises(ValueError):
            single(math.inf, 1.0)

    def test_derived_quantities_are_pure(self):
        vec = single(3.7, 2.2)
        assert vec.trustworthiness()[0] == single(3.7, 2.2).trustworthiness()[0]
        assert vec.uncertainty()[0] == single(3.7, 2.2).uncertainty()[0]
        assert vec == single(3.7, 2.2)

    def test_clamp_trust_bounds(self):
        assert clamp_trust(0.0) == TAU_EPS
        assert clamp_trust(1.0) == 1.0 - TAU_EPS
        assert clamp_trust(0.3) == 0.3


class TestThompsonSampling:
    """The hiring loop's Thompson draws are ``rng.beta(alpha, beta)``."""

    def test_uniform_prior_mean(self, rng):
        vec = TrustVector.fresh(1)
        draws = rng.beta(vec.alpha[0], vec.beta[0], size=100_000)
        assert abs(draws.mean() - 0.5) < 0.01

    def test_symmetric_record_variance_matches_formula(self, rng):
        # Beta variance: a b / ((a+b)^2 (a+b+1))
        a, b = 50.0, 50.0
        expected = a * b / ((a + b) ** 2 * (a + b + 1.0))
        draws = rng.beta(a, b, size=100_000)
        assert abs(draws.var() - expected) < 0.1 * expected

    def test_lopsided_record_rarely_draws_low(self, rng):
        # Beta(a, 1) has cdf x**a, so P(draw > 0.9) = 1 - 0.9**1000 ~ 1
        vec = single(1000.0, 1.0)
        assert 1.0 - 0.9**1000 > 0.9999
        draws = rng.beta(vec.alpha[0], vec.beta[0], size=100_000)
        assert (draws > 0.9).mean() > 0.99

    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (8.0, 2.0), (2.5, 7.5)])
    def test_empirical_mean_tracks_trustworthiness(self, alpha, beta, rng):
        vec = single(alpha, beta)
        n = 50_000
        draws = rng.beta(alpha, beta, size=n)
        sigma = math.sqrt(alpha * beta / ((alpha + beta) ** 2 * (alpha + beta + 1.0)))
        assert abs(draws.mean() - vec.trustworthiness()[0]) < 3.0 * sigma / math.sqrt(n)


class TestTrustVector:
    def test_fresh_vector(self):
        vec = TrustVector.fresh(4)
        assert len(vec) == 4
        assert np.all(vec.trustworthiness() == 0.5)
        assert np.all(vec.uncertainty() == 1.0)

    def test_constructor_keeps_evidence(self):
        vec = TrustVector([2.0, 1], (1.5, 9.0))
        assert vec.alpha.dtype == vec.beta.dtype == np.float64
        assert vec.alpha.tolist() == [2.0, 1.0]
        assert vec.beta.tolist() == [1.5, 9.0]
        assert len(vec) == 2

    def test_invalid_evidence_rejected(self):
        with pytest.raises(ValueError):
            TrustVector([0.5], [1.0])
        with pytest.raises(ValueError):
            TrustVector([1.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            TrustVector([[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            TrustVector([1.0, math.nan], [1.0, 1.0])


class TestConfidenceUpdate:
    def test_positive_answer_credits_positive_side(self):
        vec = TrustVector.fresh(2)
        updated = apply_confidence_update(vec, AnswerSet({0}, set()), 1, 0.4)
        assert updated == TrustVector([1.4, 1.0], [1.0, 1.0])

    def test_negative_answer_mirrors(self):
        vec = TrustVector.fresh(2)
        updated = apply_confidence_update(vec, AnswerSet({0}, set()), -1, 0.4)
        assert updated == TrustVector([1.0, 1.0], [1.4, 1.0])

    def test_zero_confidence_changes_nothing(self):
        vec = TrustVector.fresh(3)
        updated = apply_confidence_update(vec, AnswerSet({0}, {1}), 1, 0.0)
        assert updated == vec

    def test_original_vector_untouched(self):
        vec = TrustVector.fresh(2)
        apply_confidence_update(vec, AnswerSet({0}, {1}), 1, 0.9)
        assert vec == TrustVector.fresh(2)

    def test_both_sides_updated(self):
        vec = TrustVector.fresh(3)
        updated = apply_confidence_update(vec, AnswerSet({0}, {2}), 1, 0.25)
        assert updated == TrustVector([1.25, 1.0, 1.0], [1.0, 1.0, 1.25])

    def test_unknown_advisor_rejected(self):
        vec = TrustVector.fresh(2)
        with pytest.raises(ValueError, match="unknown advisor"):
            apply_confidence_update(vec, AnswerSet({5}, set()), 1, 0.5)

    def test_invalid_arguments_rejected(self):
        vec = TrustVector.fresh(1)
        with pytest.raises(ValueError):
            apply_confidence_update(vec, AnswerSet({0}, set()), 0, 0.5)
        with pytest.raises(ValueError):
            apply_confidence_update(vec, AnswerSet({0}, set()), 1, 1.5)


@st.composite
def update_sequences(draw):
    n_advisors = draw(st.integers(min_value=1, max_value=6))
    n_updates = draw(st.integers(min_value=0, max_value=25))
    updates = []
    for _ in range(n_updates):
        members = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_advisors - 1),
                min_size=1,
                max_size=n_advisors,
                unique=True,
            )
        )
        split = draw(st.integers(min_value=0, max_value=len(members)))
        answer = draw(st.sampled_from([-1, 1]))
        confidence = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        updates.append((AnswerSet(set(members[:split]), set(members[split:])), answer, confidence))
    return n_advisors, updates


class TestEvidenceConservation:
    @given(update_sequences())
    def test_total_evidence_equals_prior_plus_applied_confidence(self, case):
        n_advisors, updates = case
        vec = TrustVector.fresh(n_advisors)
        applied = [[] for _ in range(n_advisors)]
        for answers, answer, confidence in updates:
            vec = apply_confidence_update(vec, answers, answer, confidence)
            for member in answers.members:
                applied[member].append(confidence)
        for advisor in range(n_advisors):
            total = float(vec.alpha[advisor] + vec.beta[advisor])
            assert total == pytest.approx(2.0 + math.fsum(applied[advisor]), abs=1e-9)
            assert vec.alpha[advisor] >= 1.0
            assert vec.beta[advisor] >= 1.0
