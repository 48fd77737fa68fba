from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from maddm.answers import AnswerLog, AnswerSet
from maddm.review import ReviewConfig, _review_pass, review_update
from maddm.selection import select_advisors
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
        ids, signs, starts = history.flat_arrays()
        assert (ids.tolist(), signs.tolist(), starts.tolist()) == ([0, 1, 2], [1, -1, 1], [0, 2, 3])
        assert history.distinct_arrays()[0].max() == 2

    def test_empty_answer_set_rejected(self):
        history = AnswerLog()
        with pytest.raises(ValueError, match="empty"):
            history.append(AnswerSet((), ()))

    def test_flat_arrays_layout(self):
        history = history_of(AnswerSet({3, 1}, {2}), AnswerSet({0}, set()))
        ids, signs, starts = history.flat_arrays()
        assert ids.tolist() == [1, 2, 3, 0]
        assert signs.tolist() == [1, -1, 1, 1]
        assert starts.tolist() == [0, 3, 4]

    def test_growth_beyond_initial_capacity(self):
        history = AnswerLog()
        indices = [history.append(AnswerSet({0, 1, 2}, {3, 4})) for _ in range(100)]
        ids, signs, starts = history.flat_arrays()
        assert ids.size == 500
        assert starts.tolist() == list(range(0, 501, 5))
        assert ids[495:].tolist() == [0, 1, 2, 3, 4]
        assert signs[495:].tolist() == [1, 1, 1, -1, -1]
        d_ids, d_columns, d_starts, counts, owner = history.distinct_arrays()
        assert d_ids.tolist() == [0, 1, 2, 3, 4]
        assert (d_columns.tolist(), d_starts.tolist()) == ([0, 2, 4, 7, 9], [0, 5])
        assert (counts.tolist(), owner.tolist()) == ([100], [0] * 5)
        assert indices == [0] * 100

    def test_flat_arrays_rebuild_the_log_in_order(self, rng):
        # each new set followed by a repeat of an earlier one, well past the
        # 64 entries every buffer starts with
        pool = [AnswerSet(set(range(k % 5)), {5 + k}) for k in range(80)]
        logged = [answers for k in range(80) for answers in (pool[k], pool[rng.integers(0, k + 1)])]
        history = history_of(*logged)
        ids, signs, starts = history.flat_arrays()
        assert ids.tolist() == [i for answers in logged for i in answers.ids]
        assert signs.tolist() == [s for answers in logged for s in answers.signs]
        assert starts.tolist() == np.cumsum([0] + [len(answers) for answers in logged]).tolist()


class TestAnswerLogInterning:
    def test_equal_sets_built_in_different_orders_share_one_index(self):
        log = AnswerLog()
        logged = (AnswerSet({3, 1}, {2}), AnswerSet({0}, set()), AnswerSet([3, 1], [2]))
        indices = [log.append(answers) for answers in logged]
        ids, columns, starts, counts, owner = log.distinct_arrays()
        assert ids.tolist() == [1, 2, 3, 0]
        assert columns.tolist() == [2, 5, 6, 0]  # 2 id + [vote is no]
        assert starts.tolist() == [0, 3, 4]
        assert (counts.tolist(), owner.tolist()) == ([2, 1], [0, 0, 0, 1])
        assert indices == [0, 1, 0]

    def test_distinct_count_and_set_index(self, rng):
        log = AnswerLog()
        sets, indices = [], []
        for _ in range(200):
            members = rng.permutation(5)[: rng.integers(1, 4)]
            split = rng.integers(0, members.size + 1)
            sets.append(AnswerSet(set(members[:split].tolist()), set(members[split:].tolist())))
            indices.append(log.append(sets[-1]))
        ids, columns, starts = log.distinct_arrays()[:3]
        assert starts.size - 1 == len(set(sets))
        # every logged set reads its own ids and votes through its distinct set
        for answers, index in zip(sets, indices, strict=True):
            segment = slice(starts[index], starts[index + 1])
            votes = tuple(2 * i + (s < 0) for i, s in zip(answers.ids, answers.signs))
            assert (tuple(ids[segment]), tuple(columns[segment])) == (answers.ids, votes)

    def test_interning_survives_growth_beyond_initial_capacity(self):
        log = AnswerLog()
        sets = [AnswerSet(set(range(k % 7)), {7 + k}) for k in range(150)]
        indices = [log.append(answers) for answers in sets + sets[::-1]]
        ids, columns, starts = log.distinct_arrays()[:3]
        assert starts.size - 1 == 150
        assert indices == list(range(150)) + list(range(149, -1, -1))
        last = slice(starts[149], starts[150])
        assert ids[last].tolist() == [0, 1, 156]  # sets[149] is ({0, 1}, {156})
        assert columns[last].tolist() == [0, 2, 313]

    def test_counts_and_owners_past_the_initial_capacity(self, rng):
        # 90 distinct sets of 2 members each: both arrays grow past 64 entries
        log = AnswerLog()
        pool = [AnswerSet({k}, {100 + k % 3}) for k in range(90)]
        logged = [pool[i] for i in rng.integers(0, len(pool), size=600)]
        for answers in logged:
            log.append(answers)
        ids, columns, starts, counts, owner = log.distinct_arrays()
        assert counts.sum() == len(log) == 600
        # distinct sets are indexed in order of first appearance
        first_seen = list(dict.fromkeys(logged))
        assert counts.tolist() == [Counter(logged)[answers] for answers in first_seen]
        assert owner.tolist() == np.repeat(np.arange(len(first_seen)), np.diff(starts)).tolist()
        signs = 1 - 2 * (columns & 1)
        rebuilt = [AnswerSet._of(tuple(ids[owner == k]), tuple(signs[owner == k])) for k in range(len(first_seen))]
        assert rebuilt == first_seen


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
        before = [a.copy() for a in (*history.flat_arrays(), *history.distinct_arrays())]
        outcome = review_update(history, TrustVector.fresh(3))
        assert np.all(outcome.trust.alpha >= 1.0)
        assert np.all(outcome.trust.beta >= 1.0)
        after = [*history.flat_arrays(), *history.distinct_arrays()]
        assert len(history) == 3
        assert all(np.array_equal(x, y) for x, y in zip(before, after, strict=True))
        # the distinct sets' vote columns, 2 id + [vote is no], as logged
        assert history.distinct_arrays()[1].tolist() == [0, 3, 4, 1, 2, 4]

    def test_unknown_advisor_rejected(self):
        history = history_of(AnswerSet({5}, set()))
        with pytest.raises(ValueError, match="advisor id 5 is not"):
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


class TestSaturatedPool:
    @pytest.mark.parametrize("vote", [1, -1])
    def test_64_saturated_advisors_raise_no_float_error(self, vote, one_decision_world):
        # 64 log-odds of about 20.7 each sum to about 1326: e**1326 overflows
        n = 64
        trust = TrustVector(np.full(n, 1e12), np.ones(n))
        everyone = range(n)
        answers = AnswerSet(everyone, ()) if vote == 1 else AnswerSet((), everyone)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            outcome = review_update(history_of(answers), trust, ReviewConfig(max_passes=3))
            world = one_decision_world(np.zeros(n), np.full(n, vote), stakes=1e6)
            hiring = select_advisors(world, 0, trust, np.random.default_rng(0))
        assert np.all(outcome.trust.alpha > outcome.trust.beta)
        assert len(hiring.hired) == n


def review_margins(history: AnswerLog, trust: TrustVector) -> np.ndarray:
    """Each distinct set's p+ - p- from one review pass."""
    _, columns, starts, counts, owner = history.distinct_arrays()
    tau, theta = trust.trustworthiness(), trust.uncertainty()
    return _review_pass(history, np.diff(starts), columns, counts, owner, tau, theta)[1]


class TestVectorizedDecisionsMatchScalar:
    def test_review_pass_decisions_agree_with_exact_ensemble(self, rng, exact_ensemble):
        n_advisors = 8
        alphas = rng.uniform(1.0, 12.0, size=n_advisors)
        betas = rng.uniform(1.0, 12.0, size=n_advisors)
        trust = TrustVector(alphas, betas)
        tau = [Fraction(a) / (Fraction(a) + Fraction(b)) for a, b in zip(alphas.tolist(), betas.tolist())]
        theta = [2 / (Fraction(a) + Fraction(b)) for a, b in zip(alphas.tolist(), betas.tolist())]
        history = AnswerLog()
        expected, distinct_set = [], []
        for d in range(40):
            members = rng.permutation(n_advisors)[: rng.integers(1, 6)]
            split = rng.integers(0, members.size + 1)
            answers = AnswerSet(set(members[:split].tolist()), set(members[split:].tolist()))
            distinct_set.append(history.append(answers))
            p_plus, p_minus = exact_ensemble(
                [(tau[i], tau[i], theta[i], sign) for i, sign in zip(answers.ids, answers.signs)]
            )
            expected.append((1 if p_plus > p_minus else -1, abs(p_plus - p_minus)))
        margin = review_margins(history, trust)
        for d in range(40):
            got = margin[distinct_set[d]]
            # a near-tie may be decided either way in floats
            if expected[d][1] >= 1e-12:
                assert (1 if got > 0.0 else -1) == expected[d][0]
            assert abs(got) == pytest.approx(float(expected[d][1]), abs=1e-12)
