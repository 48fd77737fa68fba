"""Bit-exactness of the fast paths against full-log reference formulas.

The review pass and the EM E-step work once per distinct answer set
through one stacked yes/no kernel, the hiring round scores both camps in
one stacked call, and the baselines score and rank the whole pool as
arrays. Each reference below is the straightforward formula over every
logged set, with per-member logs and one masked sum per answer (or one
call per camp, or one advisor at a time, or the slot-by-slot ranking
loop); the fast path must equal it bit for bit, not within a tolerance,
and leave the rng stream where the reference does, because results.csv
is required to stay byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, strategies as st

from maddm.answers import AnswerLog, AnswerSet, segment_log_likelihoods
from maddm.baselines import (
    BaselineConfig,
    EmAggregator,
    StrategyConfig,
    cost_effectiveness,
    run_baseline,
    select_budget_constrained,
    select_fixed_number,
)
from maddm.ensemble import EnsembleSums, p_side
from maddm.environment import Environment, EnvironmentConfig
from maddm.harness import EnvironmentTemplate, ExperimentPlan, MaddmConfig, MethodSpec, run_cell, run_maddm
from maddm.review import ReviewConfig, review_update
from maddm.selection import _hypothetical_gain
from maddm.trust import TAU_EPS, TrustVector, apply_confidence_update

# Pools of up to 30 advisors, as in the benchmark worlds, where an
# exploration-first round logs all 30: long segments are where the order in
# which numpy adds a segment's members shows in the last bits.
MAX_ADVISORS = 30


@st.composite
def answer_sets(draw, n_advisors: int) -> AnswerSet:
    members = draw(st.lists(st.integers(0, n_advisors - 1), min_size=1, max_size=n_advisors, unique=True))
    split = draw(st.integers(0, len(members)))
    return AnswerSet(frozenset(members[:split]), frozenset(members[split:]))


@st.composite
def histories(draw) -> tuple[int, list[AnswerSet]]:
    """A pool size and a few distinct sets, each logged many times, in random order."""
    n_advisors = draw(st.integers(1, MAX_ADVISORS))
    pool = draw(st.lists(answer_sets(n_advisors), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=60))
    return n_advisors, [pool[i] for i in picks]


def per_advisor(values: st.SearchStrategy, n_advisors: int) -> st.SearchStrategy:
    return st.lists(values, min_size=n_advisors, max_size=n_advisors)


def reference_log_likelihoods(p, ids, positive, starts):
    """Per member: log p for a vote matching the answer, log(1 - p) otherwise."""
    log_p, log_q = np.log(p[ids]), np.log1p(-p[ids])
    seg = starts[:-1]
    log_plus = np.add.reduceat(np.where(positive, log_p, log_q), seg)
    log_minus = np.add.reduceat(np.where(positive, log_q, log_p), seg)
    return log_plus, log_minus


def reference_decide_all(ids, signs, starts, alpha, beta):
    """The ensemble decision of every logged set, one statistic at a time."""
    sizes = np.diff(starts)
    seg = starts[:-1]
    tau = alpha / (alpha + beta)
    theta = 2.0 / (alpha + beta)
    positive = signs > 0
    log_plus, log_minus = reference_log_likelihoods(
        np.clip(tau, TAU_EPS, 1.0 - TAU_EPS), ids, positive, starts
    )
    log_plus += math.log(0.5)
    log_minus += math.log(0.5)
    theta_bar = np.add.reduceat(theta[ids], seg) / sizes
    mass_plus = np.add.reduceat(np.where(positive, tau[ids], 0.0), seg)
    mass_minus = np.add.reduceat(np.where(positive, 0.0, tau[ids]), seg)
    p_plus = p_side(log_plus, log_minus, mass_plus, mass_minus, theta_bar)
    p_minus = p_side(log_minus, log_plus, mass_minus, mass_plus, theta_bar)
    return np.where(p_plus > p_minus, 1, -1), np.abs(p_plus - p_minus)


def reference_review(history, trust, config):
    """Every pass re-decides every logged set; two masked bincounts."""
    ids, signs, starts = history.flat_arrays()
    sizes = np.diff(starts)
    alpha, beta = trust.alpha.copy(), trust.beta.copy()
    tau_before = alpha / (alpha + beta)
    passes, delta = 0, math.inf
    while passes < config.max_passes:
        answers, confidence = reference_decide_all(ids, signs, starts, alpha, beta)
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
    """The EM loop with its E-step over every logged set, yes and no kept apart."""
    history = AnswerLog()
    for answers in sets:
        history.append(answers)
    ids, signs, starts = history.flat_arrays()
    sizes = np.diff(starts)
    positive = signs > 0
    counts = np.bincount(ids, minlength=accuracies.size)
    consulted = counts > 0
    acc = accuracies
    q_plus = q_minus = None
    objective = []
    for _ in range(max_iterations):
        log_plus, log_minus = reference_log_likelihoods(acc, ids, positive, starts)
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
        credit = np.bincount(ids, weights=member_credit, minlength=accuracies.size)
        acc = np.where(consulted, (credit + 1.0) / (counts + 2.0), acc)
    return acc, q_plus, q_minus, objective


@given(
    world=histories(),
    data=st.data(),
    threshold=st.sampled_from([1e-12, 1e-3, 0.5]),
    max_passes=st.integers(1, 8),
)
def test_review_update_equals_full_log_reference(world, data, threshold, max_passes):
    n_advisors, sets = world
    alpha = data.draw(per_advisor(st.floats(1.0, 40.0), n_advisors))
    beta = data.draw(per_advisor(st.floats(1.0, 40.0), n_advisors))
    history = AnswerLog()
    for answers in sets:
        history.append(answers)
    trust = TrustVector(alpha, beta)
    config = ReviewConfig(threshold=threshold, max_passes=max_passes)
    outcome = review_update(history, trust, config)
    ref_alpha, ref_beta, passes, delta = reference_review(history, trust, config)
    assert np.array_equal(outcome.trust.alpha, ref_alpha)
    assert np.array_equal(outcome.trust.beta, ref_beta)
    assert (outcome.passes, outcome.delta_tau) == (passes, delta)


@given(
    world=histories(),
    data=st.data(),
    tol=st.sampled_from([1e-12, 1e-6, 1e-2]),
    max_iterations=st.integers(1, 30),
)
def test_em_infer_equals_full_log_reference(world, data, tol, max_iterations):
    n_advisors, sets = world
    accuracies = np.array(data.draw(per_advisor(st.floats(0.05, 0.95), n_advisors)))
    aggregator = EmAggregator(n_advisors, tol=tol, max_iterations=max_iterations)
    aggregator.accuracies = accuracies
    for answers in sets:
        aggregator.observe(answers)
    objective = aggregator.infer(track_objective=True)
    acc, q_plus, q_minus, ref_objective = reference_em(sets, accuracies, tol, max_iterations)
    assert np.array_equal(aggregator.accuracies, acc)
    assert np.array_equal(aggregator.posterior_plus, q_plus)
    assert np.array_equal(aggregator.posterior_minus, q_minus)
    assert objective == ref_objective


def test_segment_kernel_sums_long_segments_like_a_1d_reduce():
    # segments of 1 to 30 members: the stacked kernel must add each row in
    # the order a 1-d reduce over that row does
    rng = np.random.default_rng(7)
    p = rng.uniform(0.01, 0.99, MAX_ADVISORS)
    sizes = np.array([30, 1, 8, 7, 9, 16, 17, 29, 2, 30])
    starts = np.r_[0, np.cumsum(sizes)]
    ids = np.concatenate([np.sort(rng.permutation(MAX_ADVISORS)[:k]) for k in sizes])
    positive = rng.random(ids.size) < 0.5
    got = segment_log_likelihoods(p, ids, positive, starts)
    log_plus, log_minus = reference_log_likelihoods(p, ids, positive, starts)
    assert got.shape == (2, sizes.size)
    assert np.array_equal(got[0], log_plus)
    assert np.array_equal(got[1], log_minus)


@given(
    hired=st.lists(
        st.tuples(st.floats(0.02, 0.98), st.floats(0.01, 1.0), st.sampled_from([-1, 1])), max_size=6
    ),
    draws=st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)), min_size=1, max_size=8),
    thetas=st.floats(0.01, 1.0),
    profit=st.floats(0.0, 500.0),
    loss=st.floats(0.0, 500.0),
)
def test_hypothetical_gain_equals_per_camp_calls(hired, draws, thetas, profit, loss):
    sums = EnsembleSums()
    for tau, theta, answer in hired:
        sums.add(tau, theta, answer)
    pe_plus, pe_minus = sums.probabilities()
    stakes = profit + loss
    draws = np.array(draws)
    candidate_theta = np.full(draws.size, thetas)
    got = _hypothetical_gain(draws, candidate_theta, sums, pe_plus, pe_minus, stakes)

    clamped = np.clip(draws, TAU_EPS, 1.0 - TAU_EPS)
    log_tau, log_one_minus = np.log(clamped), np.log1p(-clamped)
    theta_bar = (sums.theta + candidate_theta) / (sums.count + 1.0)
    log_plus, log_minus = math.log(0.5) + sums.log_pos, math.log(0.5) + sums.log_neg
    hyp_plus = p_side(
        log_plus + log_tau, log_minus + log_one_minus, sums.tau_pos + clamped, sums.tau_neg, theta_bar
    )
    hyp_minus = p_side(
        log_minus + log_tau, log_plus + log_one_minus, sums.tau_neg + clamped, sums.tau_pos, theta_bar
    )
    gain_plus = 0.5 * np.abs(hyp_plus - pe_plus) * stakes
    gain_minus = 0.5 * np.abs(hyp_minus - pe_minus) * stakes
    assert np.array_equal(got, (2.0 * draws - 1.0) * (gain_plus + gain_minus))


@given(
    data=st.data(),
    n_advisors=st.integers(1, MAX_ADVISORS),
    answer=st.sampled_from([-1, 1]),
    confidence=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
)
def test_confidence_update_equals_per_camp_formula(data, n_advisors, answer, confidence):
    evidence = per_advisor(st.floats(1.0, 50.0), n_advisors)
    alpha, beta = np.array(data.draw(evidence)), np.array(data.draw(evidence))
    members = data.draw(st.lists(st.integers(0, n_advisors - 1), max_size=n_advisors, unique=True))
    split = data.draw(st.integers(0, len(members)))
    yes, no = members[:split], members[split:]
    got = apply_confidence_update(TrustVector(alpha, beta), AnswerSet(yes, no), answer, confidence)

    agree, disagree = (sorted(yes), sorted(no)) if answer == 1 else (sorted(no), sorted(yes))
    ref_alpha, ref_beta = alpha.copy(), beta.copy()
    ref_alpha[agree] += confidence
    ref_beta[disagree] += confidence
    assert np.array_equal(got.alpha, ref_alpha)
    assert np.array_equal(got.beta, ref_beta)


def reference_cost_effectiveness(costs, estimates) -> np.ndarray:
    """One advisor at a time, in plain float maths."""
    pairs = zip(costs.tolist(), estimates.tolist())
    return np.array([math.inf if est <= 0.5 else cost / (est - 0.5) for cost, est in pairs])


# zero prices, coin-flip, below-chance and infinite (UCB's unexplored) estimates
prices = st.one_of(st.just(0.0), st.floats(0.0, 50.0))
estimates = st.one_of(
    st.sampled_from([0.5, 0.2, 0.75, math.inf]), st.floats(0.0, 1.0), st.floats(0.5, 0.5000001)
)


@given(pool=st.lists(st.tuples(prices, estimates), min_size=1, max_size=12))
def test_cost_effectiveness_equals_scalar_formula(pool):
    costs = np.array([cost for cost, _ in pool])
    est = np.array([e for _, e in pool])
    assert np.array_equal(cost_effectiveness(costs, est), reference_cost_effectiveness(costs, est))


@given(
    pool=st.lists(
        st.tuples(st.sampled_from([0.0, 1.0, 2.5]), st.sampled_from([0.2, 0.5, 0.7, 0.9])),
        min_size=1,
        max_size=12,
    ),
    criterion=st.sampled_from(["trustworthiness", "cost_effectiveness"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_hire_order_is_lexsort_by_score_then_id(pool, criterion, seed):
    # tie-heavy prices and estimates, so the id tie-break decides most slots
    costs = np.array([cost for cost, _ in pool])
    est = np.array([e for _, e in pool])
    n = costs.size
    ids = np.arange(n)
    trust = TrustVector(np.full(n, 3.0), np.full(n, 2.0))

    def reference(values):
        if criterion == "trustworthiness":
            return np.lexsort((ids, -values)).tolist()
        return np.lexsort((ids, reference_cost_effectiveness(costs, values))).tolist()

    greedy = StrategyConfig(kind="epsilon_greedy", epsilon=0.0, criterion=criterion)
    rng = np.random.default_rng(seed)
    got = select_fixed_number(costs, trust, greedy, n, rng, point_estimates=est, decisions_elapsed=0)
    assert got == reference(est)
    # under cost effectiveness every below-chance Thompson draw scores inf, a tie
    thompson = StrategyConfig(kind="thompson", criterion=criterion)
    draws = np.random.default_rng(seed).beta(trust.alpha, trust.beta)
    got = select_fixed_number(
        costs, trust, thompson, n, np.random.default_rng(seed),
        point_estimates=trust.trustworthiness(), decisions_elapsed=0,
    )
    assert got == reference(draws)


def reference_epsilon_greedy(costs, estimates, strategy, rng) -> list[int]:
    """Fill every slot: a queue scan per greedy pick, a sorted copy per epsilon pick."""
    ids = np.arange(costs.size)
    if strategy.criterion == "trustworthiness":
        greedy_queue = np.lexsort((ids, -estimates)).tolist()
    else:
        greedy_queue = np.lexsort((ids, reference_cost_effectiveness(costs, estimates))).tolist()
    remaining = set(greedy_queue)
    order = []
    for _ in range(costs.size):
        if strategy.epsilon > 0.0 and rng.random() < strategy.epsilon:
            pick = sorted(remaining)[rng.integers(len(remaining))]
        else:
            pick = next(pos for pos in greedy_queue if pos in remaining)
        order.append(pick)
        remaining.remove(pick)
    return order


@given(
    pool=st.lists(
        st.tuples(st.sampled_from([0.0, 1.0, 2.5]), st.sampled_from([0.2, 0.5, 0.7, 0.9])),
        min_size=1,
        max_size=MAX_ADVISORS,
    ),
    epsilon=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    criterion=st.sampled_from(["trustworthiness", "cost_effectiveness"]),
    k=st.integers(1, MAX_ADVISORS),
    budget=st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_epsilon_greedy_ranking_keeps_the_reference_stream(pool, epsilon, criterion, k, budget, seed):
    # tie-heavy pools; each selection must leave the rng where the slot loop does
    costs = np.array([cost for cost, _ in pool])
    est = np.array([e for _, e in pool])
    n = costs.size
    k = min(k, n)
    trust = TrustVector(np.full(n, 3.0), np.full(n, 2.0))
    strategy = StrategyConfig(kind="epsilon_greedy", epsilon=epsilon, criterion=criterion)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)

    got = select_fixed_number(costs, trust, strategy, k, rng, point_estimates=est, decisions_elapsed=0)
    assert got == reference_epsilon_greedy(costs, est, strategy, ref_rng)[:k]
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    got = select_budget_constrained(
        costs, trust, strategy, budget, rng, point_estimates=est, decisions_elapsed=0
    )
    want, spent = [], 0.0
    for advisor_id in reference_epsilon_greedy(costs, est, strategy, ref_rng):
        if spent + costs[advisor_id] > budget:
            break
        want.append(advisor_id)
        spent += costs[advisor_id]
    assert got == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# (environment, method, variant, strategy) -> repr of (utility, total_cost),
# correct_count; recorded from the code before answer sets were interned
# (the bc and the ucb and thompson fna entries: before the advisor pool
# became a cost array; the fna, bc and rv exploration-first and the rv and
# bu standard entries: before every method shared one decision loop),
# 300 decisions, accuracy 0.8, base_seed 0, repetition 0.
PINNED = {
    ("env1", "maddm", "standard", "epsilon_greedy"): ("25783.730066846743", "8208.580059850812", 295),
    ("env1", "maddm", "exploration_first", "epsilon_greedy"): ("19700.94911861245", "14291.361008085109", 295),
    ("env2", "maddm", "standard", "epsilon_greedy"): ("128822.76831086726", "22226.35413234342", 293),
    ("env2", "maddm", "exploration_first", "epsilon_greedy"): ("126638.73875565067", "24410.383687560003", 293),
    ("env1", "fna", "standard", "epsilon_greedy"): ("22802.46239927806", "10906.794458508177", 299),
    ("env1", "bc", "standard", "epsilon_greedy"): ("26307.97164828453", "4456.250759033804", 276),
    ("env1", "fna", "standard", "ucb"): ("26275.57145586322", "6320.8607002490235", 295),
    ("env1", "fna", "standard", "thompson"): ("25766.075546951986", "8226.234579745573", 300),
    ("env1", "fna", "exploration_first", "epsilon_greedy"): ("19304.67685927855", "14687.633267419009", 300),
    ("env1", "bc", "exploration_first", "epsilon_greedy"): ("20942.2017436195", "9744.653589090325", 278),
    ("env1", "rv", "standard", "epsilon_greedy"): ("10730.241054945336", "15939.10126831653", 270),
    ("env1", "rv", "exploration_first", "epsilon_greedy"): ("8320.508523837256", "20951.906044828353", 280),
    ("env1", "bu", "standard", "epsilon_greedy"): ("33992.31012669756", "0.0", 300),
}


def test_pinned_results_are_unchanged():
    def run(environments, methods):
        plan = ExperimentPlan(
            environments=tuple(EnvironmentTemplate.named(name) for name in environments),
            accuracy_means=(0.8,),
            methods=methods,
            repetitions=1,
            n_decisions=300,
        )
        return [
            (result, spec.strategy.kind)
            for env_idx in range(len(environments))
            for spec, result in zip(methods, run_cell(plan, env_idx, 0, 0))
        ]

    maddm = (MethodSpec("maddm"), MethodSpec("maddm", "exploration_first"))
    results = (
        run(("env1", "env2"), maddm)
        + run(("env1",), (MethodSpec("fna"), MethodSpec("bc")))
        + run(("env1",), (MethodSpec("fna", strategy=StrategyConfig(kind="ucb")),))
        + run(("env1",), (MethodSpec("fna", strategy=StrategyConfig(kind="thompson")),))
        + run(("env1",), tuple(MethodSpec(m, "exploration_first") for m in ("fna", "bc", "rv")))
        + run(("env1",), (MethodSpec("rv"), MethodSpec("bu")))
    )
    got = {
        (r.environment, r.method, r.variant, kind): (repr(r.utility), repr(r.total_cost), r.correct_count)
        for r, kind in results
    }
    assert got == PINNED


def test_warm_up_fee_is_each_methods_own_sum():
    # 30 advisors at 0.1 each: math.fsum books exactly 3.0 and numpy's
    # pairwise sum 3.000000000000001; maddm pays the first, the baselines
    # the second, and a tolerance could not tell them apart
    env = Environment.build(EnvironmentConfig(n_decisions=12), np.random.default_rng(0))
    env = replace(env, costs=np.full(env.n_advisors, 0.1))
    fsum, numpy_sum = math.fsum(env.costs), float(env.costs.sum())
    assert fsum == 3.0 and numpy_sum != fsum

    config = MaddmConfig(exploration_first_rounds=10)
    maddm = run_maddm(env, config, np.random.default_rng(1), exploration_first=True, trace=True)
    fna = run_baseline(
        BaselineConfig("fna", exploration_first_rounds=10), StrategyConfig(), env,
        np.random.default_rng(1), exploration_first=True, trace=True,
    )
    assert [row["total_cost"] for row in maddm.trace[:10]] == [fsum] * 10
    assert [row["total_cost"] for row in fna.trace[:10]] == [numpy_sum] * 10
