"""Fuse a set of binary advisor answers into one decision.

Two aggregators run side by side. The Bayesian route treats each
advisor's trustworthiness as the probability it answered correctly and
multiplies the implied likelihoods into a posterior over the two
answers. The weighted-voting route simply splits the advisors' summed
trustworthiness between the two camps. Their convex combination is
controlled by the answer set's average uncertainty: a fresh pool leans
entirely on the vote, a well-evidenced pool almost entirely on the
posterior.

The gap between the two final probabilities doubles as the confidence
weight that is fed back into the trust records, which is what lets the
whole loop run without ever observing ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from maddm.answers import AnswerSet
from maddm.trust import TrustVector, apply_confidence_update, clamp_trust


@dataclass(frozen=True)
class PriorOdds:
    """Prior probability that a decision's true answer is yes / no."""

    p_plus: float = 0.5
    p_minus: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 < self.p_plus < 1.0 and 0.0 < self.p_minus < 1.0):
            raise ValueError("prior probabilities must lie strictly inside (0, 1)")
        if abs(self.p_plus + self.p_minus - 1.0) > 1e-12:
            raise ValueError("prior probabilities must sum to 1")


UNIFORM_PRIOR = PriorOdds()


@dataclass(frozen=True)
class EnsembleOutcome:
    """Final answer probabilities, the chosen answer, and its confidence."""

    p_positive: float
    p_negative: float
    answer: int
    confidence: float


def p_side(log_side, log_other, mass_side, mass_other, theta_bar):
    """Ensemble probability of one answer from the sufficient statistics.

    ``log_side`` and ``log_other`` are the log prior plus the summed
    log-likelihoods of this answer and of the other one; ``mass_side`` and
    ``mass_other`` are the summed trust of the two camps; ``theta_bar`` is
    the vote's mixing weight. The posterior is normalized with the usual
    max-shift so that thirty near-0 or near-1 factors cannot underflow.
    Broadcasts over numpy arrays. The other answer's probability is the
    same call with both pairs swapped, which is bit-exact because ``max``
    and ``+`` commute.
    """
    # numpy calls cost about a microsecond each on plain floats
    if isinstance(log_side, np.ndarray):
        shift, exp = np.maximum(log_side, log_other), np.exp
    else:
        shift, exp = max(log_side, log_other), math.exp
    e_side = exp(log_side - shift)
    e_other = exp(log_other - shift)
    bayes = e_side / (e_side + e_other)
    vote = mass_side / (mass_side + mass_other)
    return (1.0 - theta_bar) * bayes + theta_bar * vote


class EnsembleSums:
    """Running sufficient statistics of an answer set's ensemble.

    Keeps the log-likelihood sums (prior not included), the trust mass of
    each camp and the summed uncertainty, so adding an advisor is O(1).
    Likelihood factors use the clamped trust, vote masses the stored one.
    """

    __slots__ = ("log_pos", "log_neg", "tau_pos", "tau_neg", "theta", "count")

    def __init__(self) -> None:
        self.log_pos = 0.0  # sum of log-likelihood factors given answer yes
        self.log_neg = 0.0  # ... given answer no
        self.tau_pos = 0.0
        self.tau_neg = 0.0
        self.theta = 0.0
        self.count = 0

    @classmethod
    def of(cls, answers: AnswerSet, trust: TrustVector) -> "EnsembleSums":
        """Statistics of a whole answer set, summed in advisor-id order."""
        trust.check_covers(answers)
        sums = cls()
        alpha, beta = trust.alpha.tolist(), trust.beta.tolist()
        for i in sorted(answers.members):
            total = alpha[i] + beta[i]
            sums.add(alpha[i] / total, 2.0 / total, 1 if i in answers.positives else -1)
        return sums

    def add(self, tau: float, theta: float, answer: int) -> None:
        clamped = clamp_trust(tau)
        if answer == 1:
            self.log_pos += math.log(clamped)
            self.log_neg += math.log1p(-clamped)
            self.tau_pos += tau
        else:
            self.log_pos += math.log1p(-clamped)
            self.log_neg += math.log(clamped)
            self.tau_neg += tau
        self.theta += theta
        self.count += 1

    def log_joint(self, prior: PriorOdds) -> tuple[float, float]:
        """(log prior + log-likelihood) of the answers yes and no."""
        return math.log(prior.p_plus) + self.log_pos, math.log(prior.p_minus) + self.log_neg

    def probabilities(self, prior: PriorOdds, theta_bar: float | None = None) -> tuple[float, float]:
        """Ensemble (p_yes, p_no); (0.5, 0.5) for an empty set.

        ``theta_bar`` defaults to the average uncertainty; 0 gives the
        pure posterior and 1 the pure vote, both exactly.
        """
        if self.count == 0:
            return 0.5, 0.5
        if theta_bar is None:
            theta_bar = self.theta / self.count
        log_plus, log_minus = self.log_joint(prior)
        return (
            p_side(log_plus, log_minus, self.tau_pos, self.tau_neg, theta_bar),
            p_side(log_minus, log_plus, self.tau_neg, self.tau_pos, theta_bar),
        )


def _sums(answers: AnswerSet, trust: TrustVector, op: str) -> EnsembleSums:
    if answers.is_empty:
        raise ValueError(f"{op} requires a non-empty answer set")
    return EnsembleSums.of(answers, trust)


def bayesian_probabilities(
    answers: AnswerSet,
    trust: TrustVector,
    prior: PriorOdds = UNIFORM_PRIOR,
) -> tuple[float, float]:
    """Posterior (p_yes, p_no) from independent per-advisor likelihoods.

    The yes-likelihood multiplies tau over the yes camp and (1 - tau)
    over the no camp; the no-likelihood mirrors it.
    """
    return _sums(answers, trust, "bayesian_probabilities").probabilities(prior, theta_bar=0.0)


def weighted_voting_probabilities(
    answers: AnswerSet,
    trust: TrustVector,
) -> tuple[float, float]:
    """(p_yes, p_no) as each camp's share of the summed trustworthiness."""
    sums = _sums(answers, trust, "weighted_voting_probabilities")
    return sums.probabilities(UNIFORM_PRIOR, theta_bar=1.0)


def average_uncertainty(answers: AnswerSet, trust: TrustVector) -> float:
    """Mean epistemic uncertainty over the consulted advisors."""
    sums = _sums(answers, trust, "average_uncertainty")
    return sums.theta / sums.count


def ensemble_decide(
    answers: AnswerSet,
    trust: TrustVector,
    prior: PriorOdds = UNIFORM_PRIOR,
) -> EnsembleOutcome:
    """Mix the Bayesian posterior and the weighted vote into a decision.

    The mixing weight is the answer set's average uncertainty: the vote
    gets that weight, the posterior the remainder. A tie resolves to the
    negative answer with zero confidence.
    """
    p_plus, p_minus = _sums(answers, trust, "ensemble_decide").probabilities(prior)
    answer = 1 if p_plus > p_minus else -1
    return EnsembleOutcome(
        p_positive=p_plus,
        p_negative=p_minus,
        answer=answer,
        confidence=abs(p_plus - p_minus),
    )


def decide_and_update(
    answers: AnswerSet,
    trust: TrustVector,
    prior: PriorOdds = UNIFORM_PRIOR,
) -> tuple[EnsembleOutcome, TrustVector]:
    """Decide, then feed the decision's confidence back into the records."""
    outcome = ensemble_decide(answers, trust, prior)
    updated = apply_confidence_update(trust, answers, outcome.answer, outcome.confidence)
    return outcome, updated
