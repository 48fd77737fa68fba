"""One-by-one advisor hiring driven by expected marginal value.

Every round draws a plausible accuracy for each unhired advisor from its
Beta record, prices the swing that advisor could cause in the running
answer probabilities, and hires the best candidate only while that
expected contribution exceeds the asking price. Hiring stops as soon as
nobody clears the bar, so cheap decisions get few (possibly zero)
advisors and valuable ones get many.

The contribution of a candidate is evaluated hypothetically on both
sides: once as if it joined the yes camp and once the no camp, each
weighted by the prior odds of that answer. Inside the hypothetical the
candidate contributes its sampled accuracy while already-hired advisors
contribute their stored trustworthiness; real decisions after hiring
always use stored trustworthiness only. Both the running probabilities
and the hypotheticals go through the ensemble rule of maddm.ensemble.

An advisor is an id into the pool's arrays: the price of advisor ``i``
is ``costs[i]`` and its evidence is ``trust[i]``, so the pool is the
dense range ``0..n-1`` that the trust vector covers. A hired advisor's
answer comes from a per-decision oracle; the simulated environment
realises every answer up front and serves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from maddm.answers import AnswerSet
from maddm.ensemble import UNIFORM_PRIOR, EnsembleSums, PriorOdds, p_side
from maddm.trust import TAU_EPS, TrustVector

# Per-decision oracle: advisor id -> answer in {-1, 1}. The answer is only
# requested once the advisor has been hired.
AnswerOracle = Callable[[int], int]


@dataclass(frozen=True)
class DecisionValue:
    """What one decision is worth: profit if right, loss paid if wrong."""

    profit: float
    loss: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.profit) and math.isfinite(self.loss)):
            raise ValueError("decision values must be finite")
        if self.profit < 0.0 or self.loss < 0.0:
            raise ValueError("decision values must be non-negative")

    @property
    def total(self) -> float:
        return self.profit + self.loss


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

    answers: AnswerSet
    total_cost: float
    rounds: int
    hired: tuple[int, ...]


def _hypothetical_gain(
    draws: np.ndarray,
    candidate_theta,
    sums: EnsembleSums,
    pe_plus: float,
    pe_minus: float,
    value: DecisionValue,
    prior: PriorOdds,
):
    """Expected contribution of candidates with the given sampled accuracies.

    ``draws`` is a 1-d array with one sampled accuracy per candidate, and
    ``candidate_theta`` their stored uncertainties, so one call scores a
    whole pool sweep. The candidate's sampled accuracy enters both the
    likelihood and the vote mass; its stored uncertainty enters the mixing
    weight.
    """
    # Clamped everywhere it is used so a saturated draw cannot produce
    # log(0) or an empty 0/0 vote. Draws are finite, so this equals np.clip.
    clamped = np.minimum(np.maximum(draws, TAU_EPS), 1.0 - TAU_EPS)
    log_tau = np.log(clamped)
    log_one_minus = np.log1p(-clamped)
    theta_bar = (sums.theta + candidate_theta) / (sums.count + 1.0)
    log_plus, log_minus = sums.log_joint(prior)

    # Row 0: the candidate joins the yes camp; row 1: the no camp. Each row
    # takes the same elementwise steps as a separate per-camp call would.
    camp_log = np.array([[log_plus], [log_minus]])
    camp_mass = np.array([[sums.tau_pos], [sums.tau_neg]])
    hyp = p_side(
        camp_log + log_tau, camp_log[::-1] + log_one_minus,
        camp_mass + clamped, camp_mass[::-1], theta_bar,
    )
    swing = np.abs(hyp - np.array([[pe_plus], [pe_minus]]))
    gain = np.array([[prior.p_plus], [prior.p_minus]]) * swing * value.total
    return (2.0 * draws - 1.0) * (gain[0] + gain[1])


def select_advisors(
    value: DecisionValue,
    costs: np.ndarray,
    trust: TrustVector,
    prior: PriorOdds = UNIFORM_PRIOR,
    oracle: AnswerOracle | None = None,
    rng: np.random.Generator | None = None,
) -> SelectionOutcome:
    """Hire advisors one at a time while somebody's utility stays positive.

    Parameters
    ----------
    value : DecisionValue
        Stakes of the decision being answered.
    costs : array of float
        Price of each advisor, indexed by advisor id; one finite,
        non-negative entry per advisor ``trust`` covers.
    trust : TrustVector
        Current evidence; supplies both the Thompson posteriors and the
        stored trustworthiness used for the realized answer set.
    prior : PriorOdds
        Prior odds of the two answers.
    oracle : callable
        Maps advisor id to its answer; consulted only on hire.
    rng : numpy Generator
        Source for the Thompson draws; fresh draws every round.

    Returns
    -------
    SelectionOutcome
        Possibly-empty answer set, the exact cost paid, sweep count, and
        the hire order.
    """
    costs = pool_costs(costs, trust)
    if oracle is None or rng is None:
        raise ValueError("select_advisors requires an answer oracle and an rng")
    alpha, beta = trust.alpha, trust.beta
    totals = alpha + beta
    stored_tau = alpha / totals
    theta = 2.0 / totals

    remaining = list(range(costs.size))  # advisor ids not hired yet
    sums = EnsembleSums()
    pe_plus, pe_minus = 0.5, 0.5
    positives: list[int] = []
    negatives: list[int] = []
    hired: list[int] = []
    total_cost = 0.0
    rounds = 0

    while remaining:
        rounds += 1
        live = np.asarray(remaining, dtype=np.intp)
        draws = rng.beta(alpha[live], beta[live])
        contribution = _hypothetical_gain(
            draws, theta[live], sums, pe_plus, pe_minus, value, prior
        )
        utilities = contribution - costs[live]
        best = int(utilities.argmax())
        if not utilities[best] > 0.0:
            break
        advisor_id = remaining.pop(best)
        total_cost += float(costs[advisor_id])
        answer = int(oracle(advisor_id))
        if answer not in (-1, 1):
            raise ValueError(f"oracle returned {answer!r} for advisor {advisor_id}")
        hired.append(advisor_id)
        (positives if answer == 1 else negatives).append(advisor_id)
        sums.add(float(stored_tau[advisor_id]), float(theta[advisor_id]), answer)
        pe_plus, pe_minus = sums.probabilities(prior)

    return SelectionOutcome(
        answers=AnswerSet(frozenset(positives), frozenset(negatives)),
        total_cost=total_cost,
        rounds=rounds,
        hired=tuple(hired),
    )
