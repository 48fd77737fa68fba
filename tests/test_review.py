from __future__ import annotations

import numpy as np
import pytest

from maddm.answers import AnswerLog, AnswerSet
from maddm.ensemble import UNIFORM_PRIOR, ensemble_decide
from maddm.review import ReviewConfig, review_update, _decide_all
from maddm.trust import TrustVector


def history_of(*sets: AnswerSet) -> AnswerLog:
    history = AnswerLog()
    for answers in sets:
        history.append(answers)
    return history


class TestDecisionHistory:
    """The run's decision history is an AnswerLog: one set per answered decision."""

    def test_append_and_entries(self):
        history = history_of(AnswerSet({0}, {1}), AnswerSet({2}, set()))
        assert len(history) == 2
        assert history[0] == AnswerSet({0}, {1})
        assert history.max_advisor_id == 2

    def test_empty_answer_set_rejected(self):
        history = AnswerLog()
        with pytest.raises(ValueError, match="empty"):
            history.append(AnswerSet.empty())

    def test_flat_arrays_layout(self):
        history = history_of(AnswerSet({3, 1}, {2}), AnswerSet({0}, set()))
        ids, signs, starts = history.flat_arrays()
        assert ids.tolist() == [1, 2, 3, 0]
        assert signs.tolist() == [1, -1, 1, 1]
        assert starts.tolist() == [0, 3, 4]

    def test_growth_beyond_initial_capacity(self):
        history = AnswerLog()
        for _ in range(100):
            history.append(AnswerSet({0, 1, 2}, {3, 4}))
        ids, signs, starts = history.flat_arrays()
        assert ids.size == 500
        assert starts.tolist() == list(range(0, 501, 5))
        assert history[99] == AnswerSet({0, 1, 2}, {3, 4})


class TestAnswerLogInterning:
    def test_equal_sets_built_in_different_orders_share_one_index(self):
        log = AnswerLog()
        log.append(AnswerSet({3, 1}, {2}))
        log.append(AnswerSet({0}, set()))
        log.append(AnswerSet([3, 1], [2]))
        ids, signs, starts, member = log.distinct_arrays()
        assert ids.tolist() == [1, 2, 3, 0]
        assert signs.tolist() == [1, -1, 1, 1]
        assert starts.tolist() == [0, 3, 4]
        assert member.tolist() == [0, 0, 0, 1, 0, 0, 0]

    def test_distinct_count_and_member_index(self, rng):
        log = AnswerLog()
        sets = []
        for _ in range(200):
            members = rng.permutation(5)[: rng.integers(1, 4)]
            split = rng.integers(0, members.size + 1)
            sets.append(AnswerSet(set(members[:split].tolist()), set(members[split:].tolist())))
            log.append(sets[-1])
        ids, signs, starts, member = log.distinct_arrays()
        flat_ids, flat_signs, flat_starts = log.flat_arrays()
        assert starts.size - 1 == len(set(sets))
        assert member.size == flat_ids.size
        # every logged member reads its own id and sign through its distinct set
        offset = np.arange(flat_ids.size) - np.repeat(flat_starts[:-1], np.diff(flat_starts))
        assert np.array_equal(ids[starts[member] + offset], flat_ids)
        assert np.array_equal(signs[starts[member] + offset], flat_signs)

    def test_interning_survives_growth_beyond_initial_capacity(self):
        log = AnswerLog()
        sets = [AnswerSet(set(range(k % 7)), {7 + k}) for k in range(150)]
        for answers in sets + sets[::-1]:
            log.append(answers)
        ids, signs, starts, member = log.distinct_arrays()
        assert starts.size - 1 == 150
        assert member.size == log.flat_arrays()[0].size
        segment_index = member[log.flat_arrays()[2][:-1]]
        assert segment_index.tolist() == list(range(150)) + list(range(149, -1, -1))
        last = slice(starts[149], starts[150])
        assert ids[last].tolist() == [0, 1, 156]  # sets[149] is ({0, 1}, {156})
        assert signs[last].tolist() == [1, 1, -1]


class TestReviewConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReviewConfig(threshold=0.0)
        with pytest.raises(ValueError):
            ReviewConfig(max_passes=0)
        with pytest.raises(ValueError):
            ReviewConfig(frequency=0)


class TestReviewUpdate:
    def test_empty_history_is_a_no_op(self):
        trust = TrustVector.fresh(3)
        outcome = review_update(AnswerLog(), trust)
        assert outcome.trust is trust
        assert outcome.passes == 0
        assert outcome.delta_tau == 0.0

    def test_unanimous_pair_converges_quickly(self):
        history = history_of(AnswerSet({0, 1}, set()))
        outcome = review_update(history, TrustVector.fresh(2))
        assert outcome.passes <= 3
        assert outcome.delta_tau <= 1e-3
        for advisor in (0, 1):
            assert outcome.trust.alpha[advisor] > outcome.trust.beta[advisor]

    def test_balanced_split_stops_at_prior_immediately(self):
        history = history_of(AnswerSet({0}, {1}))
        outcome = review_update(history, TrustVector.fresh(2))
        assert outcome.passes == 1
        assert outcome.delta_tau == 0.0
        assert outcome.trust == TrustVector.fresh(2)

    def test_fixed_point_is_reproduced_exactly(self):
        history = history_of(AnswerSet({0}, {1}), AnswerSet({1}, {0}))
        first = review_update(history, TrustVector.fresh(2))
        second = review_update(history, first.trust)
        assert second.trust == first.trust
        assert second.delta_tau == 0.0

    def test_never_exceeds_max_passes(self):
        history = history_of(AnswerSet({0, 1}, {2}), AnswerSet({0}, {1, 2}))
        config = ReviewConfig(threshold=1e-300, max_passes=7)
        outcome = review_update(history, TrustVector.fresh(3), config)
        assert outcome.passes <= 7
        assert np.isfinite(outcome.delta_tau)

    def test_records_stay_valid_and_history_untouched(self):
        history = history_of(
            AnswerSet({0, 2}, {1}), AnswerSet({1}, {0}), AnswerSet({2}, set())
        )
        before = list(history)
        outcome = review_update(history, TrustVector.fresh(3))
        assert np.all(outcome.trust.alpha >= 1.0)
        assert np.all(outcome.trust.beta >= 1.0)
        assert list(history) == before

    def test_unknown_advisor_rejected(self):
        history = history_of(AnswerSet({5}, set()))
        with pytest.raises(ValueError, match="outside the trust vector"):
            review_update(history, TrustVector.fresh(2))

    def test_unconsulted_advisors_rebuild_to_prior(self):
        history = history_of(AnswerSet({0, 1}, set()))
        trust = TrustVector([1.0, 1.0, 4.0], [1.0, 1.0, 2.0])
        outcome = review_update(history, trust)
        # advisor 2 never appears in the history, so a rebuild pass owns
        # no evidence about it beyond the prior
        assert outcome.trust.alpha[2] == 1.0
        assert outcome.trust.beta[2] == 1.0

    def test_evidence_stays_bounded_by_history(self):
        # every pass rebuilds the records from the prior, so however many
        # passes run, an advisor holds at most one unit of evidence per
        # decision it answered
        history = history_of(AnswerSet({0, 1}, set()), AnswerSet({0}, {1}))
        config = ReviewConfig(threshold=1e-300, max_passes=50)
        outcome = review_update(history, TrustVector.fresh(2), config)
        mass = outcome.trust.alpha + outcome.trust.beta
        assert outcome.passes > 2
        assert np.all(mass <= 2.0 + 2.0)

    def test_pass_ignores_history_order(self):
        sets = (AnswerSet({0, 1}, {2}), AnswerSet({0}, {1, 2}), AnswerSet({2}, {0}))
        config = ReviewConfig(max_passes=1, threshold=1e-12)
        forward = review_update(history_of(*sets), TrustVector.fresh(3), config)
        backward = review_update(history_of(*reversed(sets)), TrustVector.fresh(3), config)
        np.testing.assert_allclose(forward.trust.alpha, backward.trust.alpha, rtol=1e-12)
        np.testing.assert_allclose(forward.trust.beta, backward.trust.beta, rtol=1e-12)


class TestVectorizedDecisionsMatchScalar:
    def test_decide_all_agrees_with_ensemble_decide(self, rng):
        n_advisors = 8
        alphas = rng.uniform(1.0, 12.0, size=n_advisors)
        betas = rng.uniform(1.0, 12.0, size=n_advisors)
        trust = TrustVector(alphas, betas)
        history = AnswerLog()
        expected = []
        for d in range(40):
            members = rng.permutation(n_advisors)[: rng.integers(1, 6)]
            split = rng.integers(0, members.size + 1)
            answers = AnswerSet(set(members[:split].tolist()), set(members[split:].tolist()))
            history.append(answers)
            outcome = ensemble_decide(answers, trust, UNIFORM_PRIOR)
            expected.append((outcome.answer, outcome.confidence))
        ids, signs, starts = history.flat_arrays()
        answers_vec, confidence_vec = _decide_all(
            ids, signs, starts, np.diff(starts), trust.alpha, trust.beta, UNIFORM_PRIOR
        )
        for d in range(40):
            assert answers_vec[d] == expected[d][0]
            assert confidence_vec[d] == pytest.approx(expected[d][1], abs=1e-12)
