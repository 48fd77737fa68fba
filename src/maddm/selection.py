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

An advisor is an id into the pool's arrays: the price of advisor ``i``
is ``costs[i]`` and its evidence is ``trust[i]``, so the pool is the
dense range ``0..n-1`` that the trust vector covers. A hired advisor's
answer is read from the decision's row of the world's answer matrix,
which the simulated environment realises up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from maddm.ensemble import EnsembleSums, margin
from maddm.trust import TAU_EPS, TrustVector


def pool_costs(costs, trust: TrustVector) -> np.ndarray:
    """``costs`` as a float array after checking it prices ``trust``'s pool.

    Raises ValueError unless there is exactly one finite, non-negative
    price per advisor the trust vector covers, and at least one advisor.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.shape != (len(trust),):
        raise ValueError(f"need one cost per advisor ({len(trust)}), got shape {costs.shape}")
    if not costs.size:
        raise ValueError("advisor pool must be non-empty")
    # a NaN price makes min() NaN, which fails the comparison
    if not (costs.min() >= 0.0 and costs.max() < math.inf):
        raise ValueError("advisor costs must be finite and non-negative")
    return costs


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of the hiring loop for one decision.

    ``rounds`` counts utility sweeps over the remaining pool, i.e. the
    number of hires plus the final sweep that failed to clear the bar
    (unless the pool was exhausted first). ``hired`` preserves hire order.
    """

    total_cost: float
    rounds: int
    hired: tuple[int, ...]


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
    clamped = np.minimum(np.maximum(draws, TAU_EPS), 1.0 - TAU_EPS)
    joined = margin(
        0.5 * (sums.log_odds + _SIDES * np.log(clamped / (1.0 - clamped))),
        (sums.theta + candidate_theta) / (sums.count + 1.0),
        sums.signed_mass + _SIDES * clamped,
        sums.mass + clamped,
    )
    # a probability's swing is half its margin's; each camp is weighted by
    # its answer's uniform prior probability, 1/2
    swing = np.abs(joined - sums.margin())
    return (draws - 0.5) * (0.5 * stakes) * (swing[0] + swing[1])


def select_advisors(
    stakes: float,
    costs: np.ndarray,
    trust: TrustVector,
    votes: np.ndarray,
    rng: np.random.Generator,
) -> SelectionOutcome:
    """Hire advisors one at a time while somebody's utility stays positive.

    Parameters
    ----------
    stakes : float
        Profit plus loss of the decision being answered: what swings
        between answering it right and wrong. Finite and non-negative.
        Its two answers are equally likely a priori (a fixed prior of 1/2).
    costs : array of float
        Price of each advisor, indexed by advisor id; one finite,
        non-negative entry per advisor ``trust`` covers.
    trust : TrustVector
        Current evidence; supplies both the Thompson posteriors and the
        stored trustworthiness the hired advisors vote with.
    votes : array of int
        The decision's answer by advisor id, one entry per advisor; an
        entry is read only on hire and must then be -1 or 1.
    rng : numpy Generator
        Source for the Thompson draws; fresh draws every round.

    Returns
    -------
    SelectionOutcome
        The exact cost paid, sweep count, and the (possibly empty) hire
        order.
    """
    # a NaN fails the comparison too
    if not 0.0 <= stakes < math.inf:
        raise ValueError(f"decision stakes must be finite and non-negative, got {stakes!r}")
    costs = pool_costs(costs, trust)
    if len(votes) != costs.size:
        raise ValueError(f"need one vote per advisor ({costs.size}), got {len(votes)}")
    alpha, beta = trust.alpha, trust.beta
    totals = alpha + beta
    stored_tau = alpha / totals
    theta = 2.0 / totals

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
        answer = int(votes[advisor_id])
        if answer not in (-1, 1):
            raise ValueError(f"advisor {advisor_id} voted {answer!r}, not -1 or 1")
        hired.append(advisor_id)
        sums.add(float(stored_tau[advisor_id]), float(theta[advisor_id]), answer)

    return SelectionOutcome(total_cost=total_cost, rounds=rounds, hired=tuple(hired))
