"""Bit-exactness of the fast paths against full-log reference formulas.

The review pass and the EM E-step work once per distinct answer set, and
the hiring round scores both camps in one stacked call. Each reference
below is the straightforward formula over every logged set (or one call
per camp); the fast path must equal it bit for bit, not within a
tolerance, because results.csv is required to stay byte-identical.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, strategies as st

from maddm.answers import AnswerSet, segment_log_likelihoods
from maddm.baselines import EmAggregator
from maddm.ensemble import EnsembleSums, PriorOdds, p_side
from maddm.harness import EnvironmentTemplate, ExperimentPlan, MethodSpec, run_cell
from maddm.review import DecisionHistory, ReviewConfig, _decide_all, review_update
from maddm.selection import DecisionValue, _hypothetical_gain
from maddm.trust import TAU_EPS, TrustVector

N_ADVISORS = 6


@st.composite
def answer_sets(draw, n_advisors: int = N_ADVISORS) -> AnswerSet:
    members = draw(st.lists(st.integers(0, n_advisors - 1), min_size=1, max_size=n_advisors, unique=True))
    split = draw(st.integers(0, len(members)))
    return AnswerSet(frozenset(members[:split]), frozenset(members[split:]))


@st.composite
def histories(draw) -> list[AnswerSet]:
    """A few distinct sets, each logged many times, in random order."""
    pool = draw(st.lists(answer_sets(), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=60))
    return [pool[i] for i in picks]


evidence = st.lists(st.floats(1.0, 40.0), min_size=N_ADVISORS, max_size=N_ADVISORS)
priors = st.floats(0.05, 0.95).map(lambda p: PriorOdds(p, 1.0 - p))


def reference_review(history, trust, config, prior):
    """Every pass re-decides every logged set; two masked bincounts."""
    ids, signs, starts = history.flat_arrays()
    sizes = np.diff(starts)
    alpha, beta = trust.alpha.copy(), trust.beta.copy()
    tau_before = alpha / (alpha + beta)
    passes, delta = 0, math.inf
    while passes < config.max_passes:
        answers, confidence = _decide_all(ids, signs, starts, sizes, alpha, beta, prior)
        per_member_answer = np.repeat(answers, sizes)
        per_member_conf = np.repeat(confidence, sizes)
        agree = signs == per_member_answer
        n = alpha.size
        alpha = 1.0 + np.bincount(ids[agree], weights=per_member_conf[agree], minlength=n)
        beta = 1.0 + np.bincount(ids[~agree], weights=per_member_conf[~agree], minlength=n)
        passes += 1
        tau_after = alpha / (alpha + beta)
        delta = float(np.abs(tau_after - tau_before).sum())
        if delta <= config.threshold:
            break
        tau_before = tau_after
    return alpha, beta, passes, delta


def reference_em(sets, accuracies, tol, max_iterations):
    """The EM loop with its E-step over every logged set."""
    history = DecisionHistory()
    for index, answers in enumerate(sets):
        history.append(index, answers)
    ids, signs, starts = history.flat_arrays()
    sizes = np.diff(starts)
    positive = signs > 0
    counts = np.bincount(ids, minlength=N_ADVISORS)
    consulted = counts > 0
    acc = accuracies
    q_plus = q_minus = None
    objective = []
    for _ in range(max_iterations):
        log_plus, log_minus = segment_log_likelihoods(acc[ids], positive, starts)
        log_plus += math.log(0.5)
        log_minus += math.log(0.5)
        shift = np.maximum(log_plus, log_minus)
        e_plus = np.exp(log_plus - shift)
        e_minus = np.exp(log_minus - shift)
        total = e_plus + e_minus
        new_q_plus, new_q_minus = e_plus / total, e_minus / total
        penalty = float(np.sum(np.log(acc[consulted]) + np.log1p(-acc[consulted])))
        objective.append(float(np.sum(shift + np.log(total))) + penalty)
        if q_plus is not None:
            delta = max(
                float(np.abs(new_q_plus - q_plus).max()),
                float(np.abs(new_q_minus - q_minus).max()),
            )
            if delta < tol:
                q_plus, q_minus = new_q_plus, new_q_minus
                break
        q_plus, q_minus = new_q_plus, new_q_minus
        member_credit = np.where(positive, np.repeat(q_plus, sizes), np.repeat(q_minus, sizes))
        credit = np.bincount(ids, weights=member_credit, minlength=N_ADVISORS)
        acc = np.where(consulted, (credit + 1.0) / (counts + 2.0), acc)
    return acc, q_plus, q_minus, objective


@given(
    sets=histories(),
    alpha=evidence,
    beta=evidence,
    prior=priors,
    threshold=st.sampled_from([1e-12, 1e-3, 0.5]),
    max_passes=st.integers(1, 8),
)
def test_review_update_equals_full_log_reference(sets, alpha, beta, prior, threshold, max_passes):
    history = DecisionHistory()
    for index, answers in enumerate(sets):
        history.append(index, answers)
    trust = TrustVector(alpha, beta)
    config = ReviewConfig(threshold=threshold, max_passes=max_passes)
    outcome = review_update(history, trust, config, prior)
    ref_alpha, ref_beta, passes, delta = reference_review(history, trust, config, prior)
    assert np.array_equal(outcome.trust.alpha, ref_alpha)
    assert np.array_equal(outcome.trust.beta, ref_beta)
    assert (outcome.passes, outcome.delta_tau) == (passes, delta)


@given(
    sets=histories(),
    accuracies=st.lists(st.floats(0.05, 0.95), min_size=N_ADVISORS, max_size=N_ADVISORS),
    tol=st.sampled_from([1e-12, 1e-6, 1e-2]),
    max_iterations=st.integers(1, 30),
)
def test_em_infer_equals_full_log_reference(sets, accuracies, tol, max_iterations):
    aggregator = EmAggregator(N_ADVISORS, tol=tol, max_iterations=max_iterations)
    aggregator.accuracies = np.array(accuracies)
    for answers in sets:
        aggregator.observe(answers)
    objective = aggregator.infer(track_objective=True)
    acc, q_plus, q_minus, ref_objective = reference_em(
        sets, np.array(accuracies), tol, max_iterations
    )
    assert np.array_equal(aggregator.accuracies, acc)
    assert np.array_equal(aggregator.posterior_plus, q_plus)
    assert np.array_equal(aggregator.posterior_minus, q_minus)
    assert objective == ref_objective


@given(
    hired=st.lists(
        st.tuples(st.floats(0.02, 0.98), st.floats(0.01, 1.0), st.sampled_from([-1, 1])), max_size=6
    ),
    draws=st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)), min_size=1, max_size=8),
    thetas=st.floats(0.01, 1.0),
    profit=st.floats(0.0, 500.0),
    loss=st.floats(0.0, 500.0),
    prior=priors,
)
def test_hypothetical_gain_equals_per_camp_calls(hired, draws, thetas, profit, loss, prior):
    sums = EnsembleSums()
    for tau, theta, answer in hired:
        sums.add(tau, theta, answer)
    pe_plus, pe_minus = sums.probabilities(prior)
    value = DecisionValue(profit, loss)
    draws = np.array(draws)
    candidate_theta = np.full(draws.size, thetas)
    got = _hypothetical_gain(draws, candidate_theta, sums, pe_plus, pe_minus, value, prior)

    clamped = np.clip(draws, TAU_EPS, 1.0 - TAU_EPS)
    log_tau, log_one_minus = np.log(clamped), np.log1p(-clamped)
    theta_bar = (sums.theta + candidate_theta) / (sums.count + 1.0)
    log_plus, log_minus = sums.log_joint(prior)
    hyp_plus = p_side(
        log_plus + log_tau, log_minus + log_one_minus, sums.tau_pos + clamped, sums.tau_neg, theta_bar
    )
    hyp_minus = p_side(
        log_minus + log_tau, log_plus + log_one_minus, sums.tau_neg + clamped, sums.tau_pos, theta_bar
    )
    gain_plus = prior.p_plus * np.abs(hyp_plus - pe_plus) * value.total
    gain_minus = prior.p_minus * np.abs(hyp_minus - pe_minus) * value.total
    assert np.array_equal(got, (2.0 * draws - 1.0) * (gain_plus + gain_minus))


# (environment, method, variant) -> repr of (utility, total_cost), correct_count;
# recorded from the code before answer sets were interned, 300 decisions,
# accuracy 0.8, base_seed 0, repetition 0.
PINNED = {
    ("env1", "maddm", "standard"): ("25783.730066846743", "8208.580059850812", 295),
    ("env1", "maddm", "exploration_first"): ("19700.94911861245", "14291.361008085109", 295),
    ("env2", "maddm", "standard"): ("128822.76831086726", "22226.35413234342", 293),
    ("env2", "maddm", "exploration_first"): ("126638.73875565067", "24410.383687560003", 293),
    ("env1", "fna", "standard"): ("22802.46239927806", "10906.794458508177", 299),
}


def test_pinned_results_are_unchanged():
    def plan(environments, methods):
        return ExperimentPlan(
            environments=tuple(EnvironmentTemplate.named(name) for name in environments),
            accuracy_means=(0.8,),
            methods=methods,
            repetitions=1,
            n_decisions=300,
        )

    maddm = plan(("env1", "env2"), (MethodSpec("maddm"), MethodSpec("maddm", "exploration_first")))
    fna = plan(("env1",), (MethodSpec("fna"),))
    results = run_cell(maddm, 0, 0, 0) + run_cell(maddm, 1, 0, 0) + run_cell(fna, 0, 0, 0)
    got = {
        (r.environment, r.method, r.variant): (repr(r.utility), repr(r.total_cost), r.correct_count)
        for r in results
    }
    assert got == PINNED
