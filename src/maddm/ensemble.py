"""Fuse a set of binary advisor answers into one decision.

Two aggregators run side by side. The Bayesian route treats each
advisor's trustworthiness as the probability it answered correctly and
multiplies the implied likelihoods into a posterior over the two
answers. The weighted-voting route simply splits the advisors' summed
trustworthiness between the two camps. Their convex combination is
controlled by the answer set's average uncertainty: a fresh pool leans
entirely on the vote, a well-evidenced pool almost entirely on the
posterior.

The rule is written once, as the margin p+ - p- (:func:`margin`): its
sign is the answer and its magnitude the confidence weight that is fed
back into the trust records, which is what lets the whole loop run
without ever observing ground truth. The live decision, the hiring
loop's hypotheticals and the review's re-decisions all call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from maddm.answers import AnswerSet, checked_id
from maddm.results import answer_for
from maddm.trust import TrustVector, apply_confidence_update, clamp_trust, log_odds


@dataclass(frozen=True)
class EnsembleOutcome:
    """Final answer probabilities, the chosen answer, and its confidence."""

    p_positive: float
    p_negative: float
    answer: int
    confidence: float


def margin(half_log_odds, theta_bar, signed_mass, mass):
    """The ensemble's p+ - p- from the sufficient statistics of an answer set.

    ``half_log_odds`` is half the summed log-odds of the answer yes, each
    member's clamped trust entering as ``±log(tau / (1 - tau))``; the
    answers' uniform prior cancels. ``signed_mass`` and ``mass`` are the
    yes camp's trust minus the no camp's and their sum, and ``theta_bar``
    is the vote's mixing weight. The posterior's margin is the tanh of the
    half log-odds, which cannot overflow. The convex mix is exact at
    ``theta_bar`` 0 and 1, and negating ``half_log_odds`` and
    ``signed_mass`` negates the result bit for bit. The sign is the answer
    (0 answers no) and the magnitude the confidence. Broadcasts over numpy
    arrays.
    """
    # numpy calls cost about a microsecond each on plain floats
    tanh = np.tanh if isinstance(half_log_odds, np.ndarray) else math.tanh
    return (1.0 - theta_bar) * tanh(half_log_odds) + theta_bar * (signed_mass / mass)


class EnsembleSums:
    """Running sufficient statistics of an answer set's ensemble.

    Keeps the summed log-odds of the answer yes, the signed and total
    trust mass of the camps and the summed uncertainty, so adding an
    advisor is O(1). Log-odds use the clamped trust, vote masses the
    stored one.
    """

    __slots__ = ("log_odds", "signed_mass", "mass", "theta", "count")

    def __init__(self) -> None:
        self.log_odds = 0.0
        self.signed_mass = 0.0
        self.mass = 0.0
        self.theta = 0.0
        self.count = 0

    @classmethod
    def of(cls, answers: AnswerSet, trust: TrustVector) -> "EnsembleSums":
        """Statistics of a whole answer set, summed in advisor-id order."""
        if answers.ids:  # increasing, so the last is the largest
            checked_id(answers.ids[-1], "advisor", len(trust))
        sums = cls()
        tau, theta = trust.tau.tolist(), trust.theta.tolist()
        for i, sign in zip(answers.ids, answers.signs):
            sums.add(tau[i], theta[i], sign)
        return sums

    def add(self, tau: float, theta: float, answer: int) -> None:
        self.log_odds += answer * log_odds(clamp_trust(tau))
        self.signed_mass += answer * tau
        self.mass += tau
        self.theta += theta
        self.count += 1

    def margin(self, theta_bar: float | None = None) -> float:
        """The ensemble's p+ - p-; 0.0 for an empty set.

        ``theta_bar`` defaults to the average uncertainty; 0 gives the
        pure posterior and 1 the pure vote, both exactly.
        """
        if self.count == 0:
            return 0.0
        if theta_bar is None:
            theta_bar = self.theta / self.count
        return margin(0.5 * self.log_odds, theta_bar, self.signed_mass, self.mass)


def _sums(answers: AnswerSet, trust: TrustVector, op: str) -> EnsembleSums:
    if answers.is_empty:
        raise ValueError(f"{op} requires a non-empty answer set")
    return EnsembleSums.of(answers, trust)


def _probabilities(m: float) -> tuple[float, float]:
    """(p_yes, p_no) of the margin ``m`` = p_yes - p_no."""
    return 0.5 + 0.5 * m, 0.5 - 0.5 * m


def bayesian_probabilities(answers: AnswerSet, trust: TrustVector) -> tuple[float, float]:
    """Posterior (p_yes, p_no) from independent per-advisor likelihoods.

    The yes-likelihood multiplies tau over the yes camp and (1 - tau)
    over the no camp; the no-likelihood mirrors it.
    """
    return _probabilities(_sums(answers, trust, "bayesian_probabilities").margin(theta_bar=0.0))


def weighted_voting_probabilities(
    answers: AnswerSet,
    trust: TrustVector,
) -> tuple[float, float]:
    """(p_yes, p_no) as each camp's share of the summed trustworthiness."""
    return _probabilities(_sums(answers, trust, "weighted_voting_probabilities").margin(theta_bar=1.0))


def average_uncertainty(answers: AnswerSet, trust: TrustVector) -> float:
    """Mean epistemic uncertainty over the consulted advisors."""
    sums = _sums(answers, trust, "average_uncertainty")
    return sums.theta / sums.count


def ensemble_decide(answers: AnswerSet, trust: TrustVector) -> EnsembleOutcome:
    """Mix the Bayesian posterior and the weighted vote into a decision.

    The mixing weight is the answer set's average uncertainty: the vote
    gets that weight, the posterior the remainder. A tie resolves to the
    negative answer with zero confidence.
    """
    m = _sums(answers, trust, "ensemble_decide").margin()
    return EnsembleOutcome(*_probabilities(m), answer=answer_for(m), confidence=abs(m))


def decide_and_update(answers: AnswerSet, trust: TrustVector) -> tuple[float, TrustVector]:
    """The ensemble's margin p+ - p-, and the records its confidence was fed back into."""
    m = _sums(answers, trust, "decide_and_update").margin()
    return m, apply_confidence_update(trust, answers, m)
