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

A hired advisor's answer comes from a per-decision oracle; the
simulated environment realises every answer up front and serves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from maddm.answers import AnswerSet
from maddm.ensemble import UNIFORM_PRIOR, EnsembleSums, PriorOdds, p_side
from maddm.trust import TAU_EPS, TrustVector, uncertainty

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


@dataclass(frozen=True)
class AdvisorOffer:
    """An advisor available for hire at a fixed price."""

    id: int
    cost: float

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError("advisor ids must be non-negative")
        if not math.isfinite(self.cost) or self.cost < 0.0:
            raise ValueError("advisor cost must be finite and non-negative")


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


def marginal_contribution(
    candidate: AdvisorOffer,
    sampled_trust: float,
    current: AnswerSet,
    trust: TrustVector,
    value: DecisionValue,
    prior: PriorOdds = UNIFORM_PRIOR,
) -> float:
    """Expected value swing if ``candidate`` joined the current answer set.

    ``sampled_trust`` is the candidate's Thompson draw for this round. A
    candidate with a draw of exactly 0.5 contributes nothing; draws below
    0.5 price the contribution negative. May exceed neither
    ``value.total`` nor be meaningful for an advisor already consulted.
    """
    if candidate.id in current.members:
        raise ValueError(f"advisor {candidate.id} is already part of the answer set")
    if candidate.id >= len(trust):
        raise ValueError(f"advisor {candidate.id} is not covered by the trust vector")
    sums = EnsembleSums.of(current, trust)
    pe_plus, pe_minus = sums.probabilities(prior)
    theta_cand = uncertainty(trust[candidate.id])
    draws = np.array([sampled_trust], dtype=np.float64)
    return float(_hypothetical_gain(draws, theta_cand, sums, pe_plus, pe_minus, value, prior)[0])


def select_advisors(
    value: DecisionValue,
    pool: Sequence[AdvisorOffer],
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
    pool : sequence of AdvisorOffer
        Available advisors with their prices; ids must be unique and
        covered by ``trust``.
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
    offers = list(pool)
    if not offers:
        raise ValueError("advisor pool must be non-empty")
    if oracle is None or rng is None:
        raise ValueError("select_advisors requires an answer oracle and an rng")
    ids = np.array([offer.id for offer in offers], dtype=np.intp)
    if len(set(ids.tolist())) != len(offers):
        raise ValueError("advisor pool contains duplicate ids")
    if int(ids.max()) >= len(trust):
        raise ValueError("pool references advisors outside the trust vector")
    costs = np.array([offer.cost for offer in offers], dtype=np.float64)
    alpha = trust.alpha[ids]
    beta = trust.beta[ids]
    totals = alpha + beta
    stored_tau = alpha / totals
    theta = 2.0 / totals

    remaining = list(range(len(offers)))
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
        best = int(np.argmax(utilities))
        if not utilities[best] > 0.0:
            break
        position = remaining.pop(best)
        advisor_id = int(ids[position])
        total_cost += float(costs[position])
        answer = int(oracle(advisor_id))
        if answer not in (-1, 1):
            raise ValueError(f"oracle returned {answer!r} for advisor {advisor_id}")
        hired.append(advisor_id)
        (positives if answer == 1 else negatives).append(advisor_id)
        sums.add(float(stored_tau[position]), float(theta[position]), answer)
        pe_plus, pe_minus = sums.probabilities(prior)

    return SelectionOutcome(
        answers=AnswerSet(frozenset(positives), frozenset(negatives)),
        total_cost=total_cost,
        rounds=rounds,
        hired=tuple(hired),
    )
