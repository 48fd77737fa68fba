"""One-by-one advisor hiring driven by expected marginal value.

Every round draws a plausible accuracy for each unhired advisor from its
Beta record, prices the swing that advisor could cause in the running
answer probabilities, and hires the best candidate only while that
expected contribution exceeds the asking price. Hiring stops as soon as
nobody clears the bar, so cheap decisions get few (possibly zero)
advisors and valuable ones get many.

The contribution of a candidate is evaluated hypothetically on both
sides: once as if it joined the yes camp and once the no camp, each
weighted by that answer's prior probability, a fixed 1/2. Inside the
hypothetical the candidate contributes its sampled accuracy while
already-hired advisors contribute their stored trustworthiness; real
decisions after hiring always use stored trustworthiness only. The
running set's margin p+ - p- and both hypothetical ones come from the
one ensemble rule, :func:`maddm.ensemble.margin`; a swing in a
probability is half the swing in the margin.

An advisor is an id into the world's pool: the price of advisor ``i`` is
``environment.costs[i]`` and its evidence is ``trust[i]``, so the pool is
the dense range ``0..n-1`` that the trust vector covers. A hired
advisor's answer is read from the decision's row of the world's answer
matrix, which the simulated environment realises, and checks, when it is
made.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from maddm.answers import checked_id
from maddm.ensemble import EnsembleSums, margin
from maddm.environment import Environment
from maddm.trust import TrustVector, clamp_trust, log_odds


class SelectionOutcome(NamedTuple):
    """Result of the hiring loop for one decision, in the order :func:`results.play` books it.

    ``hired`` preserves hire order. ``rounds`` counts utility sweeps over
    the remaining pool, i.e. the number of hires plus the final sweep that
    failed to clear the bar (unless the pool was exhausted first).
    """

    hired: tuple[int, ...]
    total_cost: float
    rounds: int


# The candidate's vote in each hypothetical: row 0 joins the yes camp, row 1 the no camp.
_SIDES = np.array([[1.0], [-1.0]])


def _hypothetical_gain(draws: np.ndarray, candidate_theta, sums: EnsembleSums, stakes: float):
    """Expected contribution of candidates with the given sampled accuracies.

    ``draws`` is a 1-d array with one sampled accuracy per candidate, and
    ``candidate_theta`` their stored uncertainties, so one call scores a
    whole pool sweep. The candidate's sampled accuracy enters both the
    likelihood and the vote mass; its stored uncertainty enters the mixing
    weight. Each camp's swing is the distance of its hypothetical margin
    from the running set's, ``sums.margin()``.
    """
    # Clamped everywhere it is used so a saturated draw cannot produce
    # log(0) or an empty 0/0 vote. Draws are finite, so this equals np.clip.
    clamped = clamp_trust(draws)
    joined = margin(
        0.5 * (sums.log_odds + _SIDES * log_odds(clamped)),
        (sums.theta + candidate_theta) / (sums.count + 1.0),
        sums.signed_mass + _SIDES * clamped,
        sums.mass + clamped,
    )
    # a probability's swing is half its margin's; each camp is weighted by
    # its answer's uniform prior probability, 1/2
    swing = np.abs(joined - sums.margin())
    return (draws - 0.5) * (0.5 * stakes) * (swing[0] + swing[1])


def select_advisors(
    environment: Environment,
    decision_id: int,
    trust: TrustVector,
    rng: np.random.Generator,
) -> SelectionOutcome:
    """Hire advisors one at a time for ``decision_id`` while somebody's utility stays positive.

    The decision's stakes are its profit plus its loss, what swings
    between answering it right and wrong; its two answers are equally
    likely a priori (a fixed prior of 1/2). Advisors are priced at
    ``environment.costs`` and answer with the decision's row of
    ``environment.answers``. ``trust`` holds one record per advisor and
    supplies both the Thompson posteriors and the stored trustworthiness
    the hired advisors vote with; ``rng`` gives fresh draws every round.
    Returns the (possibly empty) hire order, the exact cost paid and the
    sweep count.
    """
    decision_id = checked_id(decision_id, "decision", environment.n_decisions)
    trust.check_pool(environment.n_advisors)
    stakes = float(environment.profits[decision_id] + environment.losses[decision_id])
    costs, votes = environment.costs, environment.answers[decision_id]
    alpha, beta, stored_tau, theta = trust.alpha, trust.beta, trust.tau, trust.theta

    remaining = list(range(costs.size))  # advisor ids not hired yet
    sums = EnsembleSums()
    hired: list[int] = []
    total_cost = 0.0
    rounds = 0

    while remaining:
        rounds += 1
        live = np.asarray(remaining, dtype=np.intp)
        draws = rng.beta(alpha[live], beta[live])
        contribution = _hypothetical_gain(draws, theta[live], sums, stakes)
        utilities = contribution - costs[live]
        best = int(utilities.argmax())
        if not utilities[best] > 0.0:
            break
        advisor_id = remaining.pop(best)
        total_cost += float(costs[advisor_id])
        hired.append(advisor_id)
        sums.add(float(stored_tau[advisor_id]), float(theta[advisor_id]), int(votes[advisor_id]))

    return SelectionOutcome(tuple(hired), total_cost, rounds)
