"""The fast paths against reference formulas: exact rationals or bit for bit.

The review pass and the hiring round compute the ensemble rule with the
posterior in log-odds form, and the review and the EM weight each
distinct answer set by its count. Their references are the rule in exact
fractions, as a ratio of likelihood products with no log or exp (the
``exact_ensemble`` fixture): the review re-decides every logged set and
credits every logged member, the hiring gain prices each camp's
hypothetical apart. Each float result must lie within a stated bound of
the exact one. One EM iteration is checked the same way, and a whole EM
call must repeat its single iterations bit for bit.

The answer log sums a per-vote table over its distinct sets, and the
baselines score and rank the whole pool as arrays. Their references are
per-member values with one masked 1-d sum per row, one advisor at a
time, or the slot-by-slot ranking loop; there the fast path must equal
the reference bit for bit and leave the rng stream where the reference
does. The pinned results guard every path's output to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
from hypothesis import given, strategies as st

from maddm.answers import AnswerLog, AnswerSet
from maddm.baselines import (
    EmAggregator,
    StrategyConfig,
    cost_effectiveness,
    run_baseline,
    select_budget_constrained,
    select_fixed_number,
)
from maddm.ensemble import EnsembleSums
from maddm.harness import EnvironmentTemplate, ExperimentPlan, MethodSpec, run_cell, run_maddm
from maddm.review import ReviewConfig, review_update
from maddm.selection import _hypothetical_gain
from maddm.trust import TAU_EPS, TrustVector, apply_confidence_update

# Pools of up to 30 advisors, as in the benchmark worlds, where an
# exploration-first round logs all 30: long segments are where the order in
# which numpy adds a segment's members shows in the last bits.
MAX_ADVISORS = 30

# Relative bounds of the float review pass and EM iteration against their
# exact references. On 300 random histories of this shape the review read
# at most 1.4e-14 as a decision-by-decision pass and 7.3e-15 in its
# count-weighted log-odds form, and the EM posteriors 8.3e-15.
REVIEW_BOUND = 1e-13
EM_BOUND = 1e-13


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


def assert_within(got, exact, rel):
    """Each float of ``got`` lies within ``rel`` times its exact value of it."""
    for value, want in zip(np.asarray(got).tolist(), exact, strict=True):
        assert abs(Fraction(value) - want) <= rel * abs(want), (value, float(want))


def exact_decisions(ensemble, sets, alpha, beta):
    """Exact (p_yes, p_no) of each distinct set under the float evidence."""
    tau = [Fraction(a) / (Fraction(a) + Fraction(b)) for a, b in zip(alpha.tolist(), beta.tolist())]
    theta = [2 / (Fraction(a) + Fraction(b)) for a, b in zip(alpha.tolist(), beta.tolist())]
    return {
        answers: ensemble([(tau[i], tau[i], theta[i], sign) for i, sign in zip(answers.ids, answers.signs)])
        for answers in set(sets)
    }


def exact_review_pass(ensemble, sets, alpha, beta):
    """One review pass in exact fractions: every logged set re-decided, every member credited."""
    decisions = exact_decisions(ensemble, sets, alpha, beta)
    new_alpha, new_beta = [Fraction(1)] * alpha.size, [Fraction(1)] * alpha.size
    for answers in sets:
        p_plus, p_minus = decisions[answers]
        answer = 1 if p_plus > p_minus else -1
        for i, sign in zip(answers.ids, answers.signs):
            if sign == answer:
                new_alpha[i] += abs(p_plus - p_minus)
            else:
                new_beta[i] += abs(p_plus - p_minus)
    return new_alpha, new_beta


def exact_em_iteration(sets, accuracies):
    """One EM iteration in exact fractions: each logged set's posterior, then (credit + 1) / (count + 2)."""
    acc = [Fraction(a) for a in accuracies.tolist()]
    credit, counts = [Fraction(0)] * len(acc), [0] * len(acc)
    q_plus, q_minus = [], []
    for answers in sets:
        likelihood = {1: Fraction(1), -1: Fraction(1)}
        for i, sign in zip(answers.ids, answers.signs):
            likelihood[sign] *= acc[i]
            likelihood[-sign] *= 1 - acc[i]
        q = {side: likelihood[side] / (likelihood[1] + likelihood[-1]) for side in (1, -1)}
        q_plus.append(q[1])
        q_minus.append(q[-1])
        for i, sign in zip(answers.ids, answers.signs):
            credit[i] += q[sign]
            counts[i] += 1
    new_acc = [(c + 1) / (k + 2) if k else a for a, c, k in zip(acc, credit, counts)]
    return new_acc, q_plus, q_minus


@given(
    world=histories(),
    data=st.data(),
    threshold=st.sampled_from([1e-12, 1e-3, 0.5]),
    max_passes=st.integers(1, 8),
)
def test_review_update_equals_full_log_reference(world, data, threshold, max_passes, exact_ensemble):
    n_advisors, sets = world
    alpha = data.draw(per_advisor(st.floats(1.0, 40.0), n_advisors))
    beta = data.draw(per_advisor(st.floats(1.0, 40.0), n_advisors))
    history = AnswerLog()
    for answers in sets:
        history.append(answers)
    trust = TrustVector(alpha, beta)
    outcome = review_update(history, trust, ReviewConfig(threshold=threshold, max_passes=max_passes))

    # the loop one pass at a time, each pass within REVIEW_BOUND of the exact
    # pass from the same evidence; the loop itself must repeat it bit for bit
    step, passes, delta = trust, 0, math.inf
    while passes < max_passes:
        single = review_update(history, step, ReviewConfig(threshold=threshold, max_passes=1))
        exact_alpha, exact_beta = exact_review_pass(exact_ensemble, sets, step.alpha, step.beta)
        assert_within(single.trust.alpha, exact_alpha, REVIEW_BOUND)
        assert_within(single.trust.beta, exact_beta, REVIEW_BOUND)
        step, passes, delta = single.trust, passes + 1, single.delta_tau
        if delta <= threshold:
            break
    assert outcome.trust == step
    assert (outcome.passes, outcome.delta_tau) == (passes, delta)


@given(world=histories(), data=st.data())
def test_em_iteration_equals_exact_reference(world, data):
    n_advisors, sets = world
    accuracies = np.array(data.draw(per_advisor(st.floats(0.05, 0.95), n_advisors)))
    aggregator = EmAggregator(n_advisors, max_iterations=1)
    aggregator.accuracies = accuracies
    indices = [aggregator.observe(answers) for answers in sets]
    aggregator.infer()
    acc, q_plus, q_minus = exact_em_iteration(sets, accuracies)
    assert_within(aggregator.accuracies, acc, EM_BOUND)
    assert_within(aggregator.posteriors[0, indices], q_plus, EM_BOUND)
    assert_within(aggregator.posteriors[1, indices], q_minus, EM_BOUND)


@given(
    world=histories(),
    data=st.data(),
    tol=st.sampled_from([1e-12, 1e-6, 1e-2]),
    max_iterations=st.integers(1, 30),
)
def test_em_infer_equals_repeated_single_iterations(world, data, tol, max_iterations):
    n_advisors, sets = world
    accuracies = np.array(data.draw(per_advisor(st.floats(0.05, 0.95), n_advisors)))

    def aggregator(iterations: int) -> tuple[EmAggregator, list[int]]:
        em = EmAggregator(n_advisors, tol=tol, max_iterations=iterations)
        em.accuracies = accuracies
        return em, [em.observe(answers) for answers in sets]

    full, indices = aggregator(max_iterations)
    objective = full.infer(track_objective=True)
    # the same iterations one call each, up to the one that stopped the loop
    step, _ = aggregator(1)
    stepped, posteriors, seen = [], [], [accuracies]
    for _ in objective:
        stepped += step.infer(track_objective=True)
        posteriors.append(step.posteriors[:, indices])
        seen.append(step.accuracies)
    assert stepped == objective
    assert np.array_equal(full.posteriors[:, indices], posteriors[-1])
    # an iteration whose posteriors moved less than tol stops before its M-step
    converged = len(posteriors) > 1 and float(np.abs(posteriors[-1] - posteriors[-2]).max()) < tol
    assert converged or len(objective) == max_iterations
    assert np.array_equal(full.accuracies, seen[-2] if converged else seen[-1])


def test_segment_kernel_sums_long_segments_like_a_1d_reduce():
    # sets of 1 to 30 members: the log must add each row of a table in the
    # order a 1-d reduce over that row does
    rng = np.random.default_rng(7)
    p = rng.uniform(0.01, 0.99, MAX_ADVISORS)
    sizes = np.array([30, 1, 8, 7, 9, 16, 17, 29, 2, 30])
    starts = np.r_[0, np.cumsum(sizes)]
    ids = np.concatenate([np.sort(rng.permutation(MAX_ADVISORS)[:k]) for k in sizes])
    positive = rng.random(ids.size) < 0.5
    log = AnswerLog()
    for segment in np.split(np.arange(ids.size), starts[1:-1]):
        log.append(AnswerSet(ids[segment][positive[segment]].tolist(), ids[segment][~positive[segment]].tolist()))
    assert len(log) == log.distinct_arrays()[2].size - 1 == sizes.size

    # the EM's table: a yes adds log p to the yes row and log(1 - p) to the no row
    em = np.empty((2, MAX_ADVISORS, 2))
    em[0, :, 0], em[0, :, 1] = np.log(p), np.log1p(-p)
    em[1] = em[0, :, ::-1]
    got = log.segment_sums(em)
    log_plus, log_minus = reference_log_likelihoods(p, ids, positive, starts)
    assert got.shape == (2, sizes.size)
    assert np.array_equal(got[0], log_plus)
    assert np.array_equal(got[1], log_minus)

    # a review-shaped table: four rows, two of them flipped in sign by a no vote
    review = np.empty((4, MAX_ADVISORS, 2))
    review[:, :, 0] = rng.normal(size=(4, MAX_ADVISORS))
    review[:, :, 1] = review[:, :, 0] * np.array([[-1.0], [1.0], [1.0], [-1.0]])
    got = log.segment_sums(review)
    assert got.shape == (4, sizes.size)
    for row, sums in zip(review, got, strict=True):
        assert np.array_equal(sums, np.add.reduceat(np.where(positive, row[ids, 0], row[ids, 1]), starts[:-1]))


@given(
    hired=st.lists(
        st.tuples(st.floats(0.02, 0.98), st.floats(0.01, 1.0), st.sampled_from([-1, 1])), max_size=6
    ),
    draws=st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)), min_size=1, max_size=8),
    thetas=st.floats(0.01, 1.0),
    profit=st.floats(0.0, 500.0),
    loss=st.floats(0.0, 500.0),
)
def test_hypothetical_gain_equals_per_camp_calls(hired, draws, thetas, profit, loss, exact_ensemble):
    sums = EnsembleSums()
    for tau, theta, answer in hired:
        sums.add(tau, theta, answer)
    stakes = profit + loss
    draws = np.array(draws)
    candidate_theta = np.full(draws.size, thetas)
    got = _hypothetical_gain(draws, candidate_theta, sums, stakes)

    members = [(tau, tau, theta, answer) for tau, theta, answer in hired]
    pe = exact_ensemble(members) if members else (Fraction(1, 2), Fraction(1, 2))
    low, high = Fraction(TAU_EPS), Fraction(1.0 - TAU_EPS)
    for draw, gain in zip(draws.tolist(), got.tolist()):
        # the candidate votes and weighs with its clamped draw
        clamped = min(max(Fraction(draw), low), high)
        joins_yes = exact_ensemble(members + [(clamped, clamped, thetas, 1)])[0]
        joins_no = exact_ensemble(members + [(clamped, clamped, thetas, -1)])[1]
        swing = abs(joins_yes - pe[0]) + abs(joins_no - pe[1])
        exact = (2 * Fraction(draw) - 1) * Fraction(stakes) / 2 * swing
        assert abs(Fraction(gain) - exact) <= Fraction(1e-12) * max(1.0, stakes)


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
    got = apply_confidence_update(TrustVector(alpha, beta), AnswerSet(yes, no), answer * confidence)

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
def test_hire_order_is_lexsort_by_score_then_id(pool, criterion, seed, one_decision_world):
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
    world = one_decision_world(costs)
    got = select_fixed_number(world, trust, greedy, n, rng, point_estimates=est, decisions_elapsed=0)
    assert got == reference(est)
    # under cost effectiveness every below-chance Thompson draw scores inf, a tie
    thompson = StrategyConfig(kind="thompson", criterion=criterion)
    draws = np.random.default_rng(seed).beta(trust.alpha, trust.beta)
    got = select_fixed_number(
        world, trust, thompson, n, np.random.default_rng(seed),
        point_estimates=trust.tau, decisions_elapsed=0,
    )
    assert got == reference(draws)
    # UCB after a few decisions; one advisor at the Beta(1, 1) prior has no
    # pulls, so its index is +inf
    alpha, beta = 2.0 + ids, np.full(n, 2.0)
    alpha[seed % n] = beta[seed % n] = 1.0
    elapsed = 2 + seed % 50
    with np.errstate(divide="ignore"):
        pulls = alpha + beta - 2.0
        index = np.where(pulls > 0.0, est + np.sqrt(2.0 * math.log(elapsed) / pulls), math.inf)
    ucb = StrategyConfig(kind="ucb", criterion=criterion)
    got = select_fixed_number(
        world, TrustVector(alpha, beta), ucb, n, np.random.default_rng(seed),
        point_estimates=est, decisions_elapsed=elapsed,
    )
    assert got == reference(index)


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
def test_epsilon_greedy_ranking_keeps_the_reference_stream(
    pool, epsilon, criterion, k, budget, seed, one_decision_world
):
    # tie-heavy pools; each selection must leave the rng where the slot loop does
    costs = np.array([cost for cost, _ in pool])
    est = np.array([e for _, e in pool])
    n = costs.size
    k = min(k, n)
    trust = TrustVector(np.full(n, 3.0), np.full(n, 2.0))
    strategy = StrategyConfig(kind="epsilon_greedy", epsilon=epsilon, criterion=criterion)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    world = one_decision_world(costs)

    got = select_fixed_number(world, trust, strategy, k, rng, point_estimates=est, decisions_elapsed=0)
    assert got == reference_epsilon_greedy(costs, est, strategy, ref_rng)[:k]
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    got = select_budget_constrained(
        world, trust, strategy, budget, rng, point_estimates=est, decisions_elapsed=0
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


def test_every_methods_warm_up_books_the_fsum_of_the_prices(template_world):
    # 30 advisors at 0.1 each: math.fsum books exactly 3.0 and numpy's
    # pairwise sum 3.000000000000001, and a tolerance could not tell them apart
    env = template_world("env1", 0.8, 0, n_decisions=12)
    env = replace(env, costs=np.full(env.n_advisors, 0.1))
    fsum, numpy_sum = math.fsum(env.costs), float(env.costs.sum())
    assert fsum == 3.0 and numpy_sum != fsum

    runs = [run_maddm(MethodSpec("maddm", "exploration_first"), env, np.random.default_rng(1), trace=True)]
    runs += [
        run_baseline(MethodSpec(method, "exploration_first"), env, np.random.default_rng(1), trace=True)
        for method in ("fna", "bc", "rv")
    ]
    for result in runs:
        assert [row["total_cost"] for row in result.trace[:10]] == [fsum] * 10, result.method
