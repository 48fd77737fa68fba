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
:func:`maddm.ensemble.margin`, and returns the prior credited by
:func:`maddm.trust.credited`, the live update's kernel, with each set's
confidence times its count, plus each set's margin. The sums run in a
different order than a decision-by-decision pass would add them, so the
records agree with that pass to rounding, not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from maddm import ensemble
from maddm.answers import AnswerLog, checked_count, checked_id
from maddm.trust import TrustVector, clamp_trust, credited, log_odds


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
        if isinstance(self.threshold, (bool, np.bool_)) or not (self.threshold > 0.0):
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
    owner: np.ndarray, trust: TrustVector,
) -> tuple[TrustVector, np.ndarray]:
    """One pass: prior + evidence from deciding each distinct set of ``history`` at ``trust``.

    ``sizes`` holds each distinct set's size and ``columns``, ``counts`` and
    ``owner`` are as :meth:`AnswerLog.distinct_arrays` gives them.
    Returns ``(trust, margin)``: the Beta(1, 1) prior credited by
    :func:`maddm.trust.credited` with each set's confidence times its count,
    and each set's p+ - p-, its sign the answer (a tie answers no).
    """
    # rows: logit of the clamped tau, theta, tau and signed tau, per vote
    table = np.empty((4, len(trust), 2))
    table[0, :, 0] = log_odds(clamp_trust(trust.tau))
    table[1, :, 0] = trust.theta
    table[2:, :, 0] = trust.tau
    np.multiply(table[:, :, 0], _NO_VOTE, out=table[:, :, 1])
    logit, theta_sum, mass, signed_mass = history.segment_sums(table)
    margin = ensemble.margin(0.5 * logit, theta_sum / sizes, signed_mass, mass)
    prior = np.ones(len(trust))
    return credited(prior, prior, columns, margin[owner], counts[owner]), margin


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
    checked_id(int(columns.max()) >> 1, "advisor", len(trust))

    sizes = starts[1:] - starts[:-1]
    passes = 0
    delta = math.inf
    while passes < config.max_passes:
        reviewed, _ = _review_pass(history, sizes, columns, counts, owner, trust)
        passes += 1
        delta = float(np.add.reduce(np.abs(reviewed.tau - trust.tau)))
        trust = reviewed
        if delta <= config.threshold:
            break
    return ReviewOutcome(trust=trust, passes=passes, delta_tau=delta)
