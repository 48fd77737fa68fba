from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maddm import ensemble
from maddm.answers import AnswerLog, AnswerSet
from maddm.baselines import EmAggregator
from maddm.ensemble import EnsembleSums, bayesian_probabilities, decide_and_update, ensemble_decide
from maddm.review import _review_pass, review_update
from maddm.trust import (
    TAU_EPS,
    TrustVector,
    apply_confidence_update,
    clamp_trust,
    credited,
    log_odds,
)


def single(alpha: float, beta: float) -> TrustVector:
    """A one-advisor vector holding the given evidence."""
    return TrustVector([alpha], [beta])


class TestRecordBasics:
    def test_new_record_is_uninformative_prior(self):
        vec = TrustVector.fresh(1)
        assert vec.alpha.tolist() == [1.0]
        assert vec.beta.tolist() == [1.0]
        assert vec.tau.tolist() == [0.5]
        assert vec.theta.tolist() == [1.0]

    @pytest.mark.parametrize(
        "alpha, beta, expected",
        [(9.0, 1.0, 0.9), (1.0, 1.0, 0.5), (2.4, 1.6, 0.6)],
    )
    def test_trustworthiness_values(self, alpha, beta, expected):
        assert single(alpha, beta).tau[0] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "alpha, beta, expected",
        [(1.0, 1.0, 1.0), (9.0, 1.0, 0.2), (99.0, 101.0, 0.01)],
    )
    def test_uncertainty_values(self, alpha, beta, expected):
        assert single(alpha, beta).theta[0] == pytest.approx(expected, abs=1e-12)

    def test_evidence_below_prior_rejected(self):
        with pytest.raises(ValueError):
            single(0.5, 1.0)
        with pytest.raises(ValueError):
            single(1.0, 0.0)
        with pytest.raises(ValueError):
            single(math.inf, 1.0)

    def test_derived_quantities_are_pure(self):
        vec = single(3.7, 2.2)
        assert vec.tau[0] == single(3.7, 2.2).tau[0]
        assert vec.theta[0] == single(3.7, 2.2).theta[0]
        assert vec == single(3.7, 2.2)

    def test_clamp_trust_bounds(self):
        assert clamp_trust(0.0) == TAU_EPS
        assert clamp_trust(1.0) == 1.0 - TAU_EPS
        assert clamp_trust(0.3) == 0.3


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestLikelihoodClamp:
    """``clamp_trust`` and ``log_odds`` keep every bit of the expressions they replaced."""

    @staticmethod
    def taus(rng) -> np.ndarray:
        edges = [0.0, TAU_EPS, 0.5, 1.0 - TAU_EPS, 1.0]
        return np.r_[edges, rng.uniform(0.0, 1.0, 200), rng.uniform(0.0, 2e-9, 20), 1.0 - rng.uniform(0.0, 2e-9, 20)]

    def test_floats_match_the_scalar_expressions(self, rng):
        for tau in self.taus(rng).tolist():
            clamped = min(max(tau, TAU_EPS), 1.0 - TAU_EPS)
            got = clamp_trust(tau)
            assert type(got) is float and bits(got) == bits(clamped)
            got = log_odds(clamped)
            assert type(got) is float and bits(got) == bits(math.log(clamped / (1.0 - clamped)))

    def test_arrays_match_the_numpy_expressions(self, rng):
        taus = self.taus(rng)
        clamped = np.minimum(np.maximum(taus, TAU_EPS), 1.0 - TAU_EPS)
        assert clamp_trust(taus).tobytes() == clamped.tobytes()
        assert log_odds(clamped).tobytes() == np.log(clamped / (1.0 - clamped)).tobytes()


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
        assert abs(draws.mean() - vec.tau[0]) < 3.0 * sigma / math.sqrt(n)


#: A vector made by each public way of making one: the constructor, the prior and every update.
made_every_way = pytest.mark.parametrize("make", [
    lambda: TrustVector([1.0, 2.7, 7.1, 1e12], [3.3, 1.0, 1.1, 1.0]),
    lambda: TrustVector.fresh(3),
    lambda: apply_confidence_update(TrustVector([1.3, 2.7, 7.1], [3.3, 1.1, 1.7]), AnswerSet({0, 2}, {1}), 0.37),
    lambda: credited(np.array([1.0, 2.1]), np.array([1.3, 1.0]), np.array([0, 3, 2]), 0.29, np.ones(3)),
    lambda: review_update(logged(AnswerSet({0, 2}, {1})), TrustVector([4.1, 1.0, 2.3], [1.2, 5.9, 1.0])).trust,
], ids=["TrustVector", "fresh", "apply_confidence_update", "credited", "review_update"])


class TestTrustVector:
    def test_fresh_vector(self):
        vec = TrustVector.fresh(4)
        assert len(vec) == 4
        assert np.all(vec.tau == 0.5)
        assert np.all(vec.theta == 1.0)

    @pytest.mark.parametrize("n_advisors", [2.5, True, -1])
    def test_fresh_pool_size_must_be_an_int(self, n_advisors):
        with pytest.raises(ValueError, match="n_advisors"):
            TrustVector.fresh(n_advisors)

    def test_constructor_keeps_evidence(self):
        vec = TrustVector([2.0, 1], (1.5, 9.0))
        assert vec.alpha.dtype == vec.beta.dtype == np.float64
        assert vec.alpha.tolist() == [2.0, 1.0]
        assert vec.beta.tolist() == [1.5, 9.0]
        assert len(vec) == 2

    def test_later_writes_to_the_constructors_arrays_leave_the_vector_alone(self):
        alpha, beta = np.array([2.0, 1.0]), np.array([1.0, 3.0])
        vec = TrustVector(alpha, beta)
        alpha[0] = beta[1] = 9.0
        assert vec == TrustVector([2.0, 1.0], [1.0, 3.0])
        assert vec.tau.tolist() == [2.0 / 3.0, 0.25]

    @made_every_way
    def test_tau_and_theta_are_the_evidence_read_two_ways(self, make):
        vec = make()
        total = vec.alpha + vec.beta
        assert vec.tau.tobytes() == (vec.alpha / total).tobytes()
        assert vec.theta.tobytes() == (2.0 / total).tobytes()

    @made_every_way
    @pytest.mark.parametrize("name", ["alpha", "beta", "tau", "theta"])
    def test_arrays_are_read_only(self, make, name):
        # a write to the evidence would leave tau and theta stale
        vec = make()
        before = getattr(vec, name).copy()
        with pytest.raises(ValueError, match="read-only"):
            getattr(vec, name)[0] = 9.0
        assert getattr(vec, name).tobytes() == before.tobytes()

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
        updated = apply_confidence_update(vec, AnswerSet({0}, set()), 0.4)
        assert updated == TrustVector([1.4, 1.0], [1.0, 1.0])

    def test_negative_answer_mirrors(self):
        vec = TrustVector.fresh(2)
        updated = apply_confidence_update(vec, AnswerSet({0}, set()), -0.4)
        assert updated == TrustVector([1.0, 1.0], [1.4, 1.0])

    def test_zero_confidence_changes_nothing(self):
        vec = TrustVector.fresh(3)
        updated = apply_confidence_update(vec, AnswerSet({0}, {1}), 0.0)
        assert updated == vec

    def test_original_vector_untouched(self):
        vec = TrustVector.fresh(2)
        apply_confidence_update(vec, AnswerSet({0}, {1}), 0.9)
        assert vec == TrustVector.fresh(2)

    def test_both_sides_updated(self):
        vec = TrustVector.fresh(3)
        updated = apply_confidence_update(vec, AnswerSet({0}, {2}), 0.25)
        assert updated == TrustVector([1.25, 1.0, 1.0], [1.0, 1.0, 1.25])

    def test_unknown_advisor_rejected(self):
        vec = TrustVector.fresh(2)
        with pytest.raises(ValueError, match="advisor id 5 is not"):
            apply_confidence_update(vec, AnswerSet({5}, set()), 0.5)

    def test_invalid_arguments_rejected(self):
        vec = TrustVector.fresh(1)
        for margin in (1.5, -1.5, math.nan):
            with pytest.raises(ValueError, match="margin"):
                apply_confidence_update(vec, AnswerSet({0}, set()), margin)


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
            vec = apply_confidence_update(vec, answers, answer * confidence)
            for member in answers.ids:
                applied[member].append(confidence)
        for advisor in range(n_advisors):
            total = float(vec.alpha[advisor] + vec.beta[advisor])
            assert total == pytest.approx(2.0 + math.fsum(applied[advisor]), abs=1e-9)
            assert vec.alpha[advisor] >= 1.0
            assert vec.beta[advisor] >= 1.0


def logged(answers: AnswerSet) -> AnswerLog:
    log = AnswerLog()
    log.append(answers)
    return log


#: Every public entry that reads trust records for an answer set's members.
COVERAGE_ENTRIES = {
    "apply_confidence_update": lambda trust, answers: apply_confidence_update(trust, answers, 0.5),
    "decide_and_update": lambda trust, answers: decide_and_update(answers, trust),
    "ensemble_decide": lambda trust, answers: ensemble_decide(answers, trust),
    "bayesian_probabilities": lambda trust, answers: bayesian_probabilities(answers, trust),
    "EnsembleSums.of": lambda trust, answers: EnsembleSums.of(answers, trust),
    "EmAggregator.observe": lambda trust, answers: EmAggregator(len(trust)).observe(answers),
    "review_update": lambda trust, answers: review_update(logged(answers), trust),
}


class TestPoolCoverage:
    @pytest.mark.parametrize("entry", sorted(COVERAGE_ENTRIES))
    @pytest.mark.parametrize("yes, no, unknown", [({0, 3}, {1}, 3), ({0}, {4, 7}, 7), ({5}, (), 5)])
    def test_entry_rejects_an_advisor_outside_the_pool(self, entry, yes, no, unknown):
        with pytest.raises(ValueError, match=f"advisor id {unknown} is not an int in 0..2"):
            COVERAGE_ENTRIES[entry](TrustVector.fresh(3), AnswerSet(yes, no))

    @pytest.mark.parametrize("entry", sorted(COVERAGE_ENTRIES))
    def test_entry_accepts_the_largest_id_of_the_pool(self, entry):
        COVERAGE_ENTRIES[entry](TrustVector.fresh(3), AnswerSet({2}, {0}))

    @pytest.mark.parametrize("entry", sorted(set(COVERAGE_ENTRIES) - {"EmAggregator.observe"}))
    def test_an_empty_pool_is_named_as_empty(self, entry):
        # EmAggregator rejects a pool of 0 advisors when it is made
        with pytest.raises(ValueError, match="^advisor id 0 is not valid: there are no advisors$"):
            COVERAGE_ENTRIES[entry](TrustVector.fresh(0), AnswerSet({0}, ()))


def reviewed_once(trust: TrustVector, answers: AnswerSet) -> tuple[TrustVector, np.ndarray]:
    """One review pass at ``trust`` over a log holding ``answers`` once."""
    history = logged(answers)
    _, columns, starts, counts, owner = history.distinct_arrays()
    return _review_pass(history, np.diff(starts), columns, counts, owner, trust)


def evidence_bits(trust: TrustVector) -> tuple[bytes, bytes]:
    return trust.alpha.tobytes(), trust.beta.tobytes()


class TestOneCreditRule:
    """The live update and a review pass credit a decided set by one rule, bit for bit."""

    def test_a_review_of_one_set_is_the_live_update_from_the_prior(self, rng):
        cases = [(TrustVector.fresh(2), AnswerSet({0}, {1}))]  # a tie at the prior
        for _ in range(300):
            n = int(rng.integers(1, 13))
            members = rng.permutation(n)[: rng.integers(1, n + 1)]
            yes = rng.random(members.size) < 0.5
            trust = TrustVector(1.0 + rng.exponential(8.0, n), 1.0 + rng.exponential(8.0, n))
            cases.append((trust, AnswerSet(members[yes], members[~yes])))
        for trust, answers in cases:
            reviewed, margin = reviewed_once(trust, answers)
            live = apply_confidence_update(TrustVector.fresh(len(trust)), answers, float(margin[0]))
            assert margin.shape == (1,) and evidence_bits(reviewed) == evidence_bits(live)
        reviewed, margin = reviewed_once(*cases[0])
        assert margin.tolist() == [0.0] and reviewed == TrustVector.fresh(2)

    @pytest.mark.parametrize("forced", [0.0, -0.0, 1.0, -1.0, 1e-12, -1e-12, 3e-13, -5e-324])
    def test_a_forced_margin_credits_alike(self, monkeypatch, forced):
        monkeypatch.setattr(ensemble, "margin", lambda *sums: np.array([forced]))
        answers = AnswerSet({0, 3}, {1})
        reviewed, margin = reviewed_once(TrustVector.fresh(5), answers)
        live = apply_confidence_update(TrustVector.fresh(5), answers, forced)
        assert margin.tolist() == [forced]
        assert evidence_bits(reviewed) == evidence_bits(live)
        # a tie answers no with no confidence, and 5e-324 is lost on the prior's 1
        assert (live == TrustVector.fresh(5)) == (abs(forced) < 1e-300)
