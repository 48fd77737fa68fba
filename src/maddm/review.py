"""Retrospective recalibration of the trust records.

Early trust estimates are built from early, unreliable decisions. Once
more evidence exists, re-deciding every stored answer set with the
current trustworthiness yields better confidence weights, and better
weights yield better trust. The review loop iterates that feedback until
the trust vector stops moving.

The history is the run's :class:`maddm.answers.AnswerLog`, one answer
set per decision that hired anyone. Every pass re-decides the whole
history with the trust vector as of the pass start, through the same
ensemble rule as a live decision, and rebuilds each record as prior +
that pass's evidence. Evidence mass stays proportional to the history
length, so the loop contracts to a fixed point.

The same trusted advisors are hired again and again, so a long history
holds few distinct answer sets. A pass decides each distinct set once,
summing its members' log-odds, uncertainty and trust mass through
:meth:`AnswerLog.segment_sums` and passing them to
:func:`maddm.ensemble.margin`, and credits its members with its
confidence times the number of times it was logged. The sums run in a
different order than a decision-by-decision pass would add them, so the
records agree with that pass to rounding, not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from maddm import ensemble
from maddm.answers import AnswerLog, checked_count
from maddm.trust import TAU_EPS, TrustVector


@dataclass(frozen=True)
class ReviewConfig:
    """Stopping rule and cadence of the review loop.

    ``threshold`` bounds the L1 movement of the trustworthiness vector
    per pass; ``frequency`` is how many decisions pass between reviews
    when a run drives the loop.
    """

    threshold: float = 1e-3
    max_passes: int = 100
    frequency: int = 1

    def __post_init__(self) -> None:
        if not (self.threshold > 0.0):
            raise ValueError("threshold must be positive")
        for name in ("max_passes", "frequency"):
            checked_count(getattr(self, name), name, 1)


@dataclass(frozen=True)
class ReviewOutcome:
    """Recalibrated trust plus how the review loop stopped."""

    trust: TrustVector
    passes: int
    delta_tau: float


# A no vote flips the sign of an advisor's logit and of its signed trust.
_NO_VOTE = np.array([[-1.0], [1.0], [1.0], [-1.0]])


def _review_pass(
    history: AnswerLog, sizes: np.ndarray, columns: np.ndarray, counts: np.ndarray,
    owner: np.ndarray, tau: np.ndarray, totals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass: prior + evidence from deciding each distinct set of ``history`` once.

    ``sizes`` holds each distinct set's size and ``columns``, ``counts`` and
    ``owner`` are as :meth:`AnswerLog.distinct_arrays` gives them; ``tau``
    and ``totals`` hold each advisor's trustworthiness and evidence mass. Returns the new
    alpha and beta and each set's p+ - p-: its sign is the answer (a tie
    answers no) and its magnitude the confidence.
    """
    clamped = np.minimum(np.maximum(tau, TAU_EPS), 1.0 - TAU_EPS)
    # rows: logit of the clamped tau, theta, tau and signed tau, per vote
    table = np.empty((4, tau.size, 2))
    np.log(clamped / (1.0 - clamped), out=table[0, :, 0])
    np.divide(2.0, totals, out=table[1, :, 0])
    table[2:, :, 0] = tau
    np.multiply(table[:, :, 0], _NO_VOTE, out=table[:, :, 1])
    logit, theta, mass, signed_mass = history.segment_sums(table)
    margin = ensemble.margin(0.5 * logit, theta / sizes, signed_mass, mass)
    # a vote that agrees with its set's answer (results.answer_for: a tie
    # answers no) credits alpha (even columns), else beta
    agreed = columns ^ (margin <= 0.0)[owner]
    evidence = np.bincount(agreed, weights=(np.abs(margin) * counts)[owner], minlength=2 * tau.size)
    return 1.0 + evidence[::2], 1.0 + evidence[1::2], margin


def review_update(
    history: AnswerLog,
    trust: TrustVector,
    config: ReviewConfig = ReviewConfig(),
) -> ReviewOutcome:
    """Re-decide the past until the trust vector settles.

    Each pass re-evaluates every stored answer set and derives new
    evidence from the resulting confidences; the loop stops once the L1
    change of the trustworthiness vector over a full pass drops to the
    configured threshold, or after ``max_passes``. The stored answer
    sets themselves are never modified.
    """
    if len(history) == 0:
        return ReviewOutcome(trust=trust, passes=0, delta_tau=0.0)
    _, columns, starts, counts, owner = history.distinct_arrays()
    if columns.max() >> 1 >= len(trust):
        raise ValueError(f"history references advisor {columns.max() >> 1} outside the trust vector")

    sizes = starts[1:] - starts[:-1]
    totals = trust.alpha + trust.beta
    tau = trust.alpha / totals
    passes = 0
    delta = math.inf
    while passes < config.max_passes:
        alpha, beta, _ = _review_pass(history, sizes, columns, counts, owner, tau, totals)
        passes += 1
        totals = alpha + beta
        tau_after = alpha / totals
        delta = float(np.add.reduce(np.abs(tau_after - tau)))
        tau = tau_after
        if delta <= config.threshold:
            break
    # both arrays are 1 + bincount of confidences in [0, 1]: valid by construction
    return ReviewOutcome(trust=TrustVector._of(alpha, beta), passes=passes, delta_tau=delta)
