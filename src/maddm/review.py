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
holds few distinct answer sets. A pass decides each distinct set once and
reads every logged decision's answer and confidence through the log's
member index; each advisor's evidence is still summed in log order, so
the result is bit-identical to deciding every logged set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from maddm.answers import AnswerLog, segment_log_likelihoods
from maddm.ensemble import UNIFORM_PRIOR, PriorOdds, p_side
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
        if self.max_passes < 1:
            raise ValueError("max_passes must be at least 1")
        if self.frequency < 1:
            raise ValueError("frequency must be at least 1")


@dataclass(frozen=True)
class ReviewOutcome:
    """Recalibrated trust plus how the review loop stopped."""

    trust: TrustVector
    passes: int
    delta_tau: float


def _decide_all(
    ids: np.ndarray,
    signs: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    prior: PriorOdds,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ensemble decision over every stored answer set.

    Returns the per-decision answers and confidences under the given
    evidence arrays, from the same statistics and rule as
    maddm.ensemble.EnsembleSums. ``sizes`` is ``np.diff(starts)``.
    """
    totals = alpha + beta
    tau = alpha / totals
    theta = 2.0 / totals
    clamped = np.clip(tau, TAU_EPS, 1.0 - TAU_EPS)

    member_tau = tau[ids]
    positive = signs > 0
    seg = starts[:-1]
    log_plus, log_minus = segment_log_likelihoods(clamped, ids, positive, starts)
    log_plus += math.log(prior.p_plus)
    log_minus += math.log(prior.p_minus)
    theta_bar = np.add.reduceat(theta[ids], seg) / sizes
    mass_plus = np.add.reduceat(np.where(positive, member_tau, 0.0), seg)
    mass_minus = np.add.reduceat(np.where(positive, 0.0, member_tau), seg)
    p_plus = p_side(log_plus, log_minus, mass_plus, mass_minus, theta_bar)
    p_minus = p_side(log_minus, log_plus, mass_minus, mass_plus, theta_bar)

    answers = np.where(p_plus > p_minus, 1, -1).astype(np.int8)
    confidence = np.abs(p_plus - p_minus)
    return answers, confidence


def _rebuild_pass(
    ids: np.ndarray,
    signs: np.ndarray,
    distinct: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    alpha: np.ndarray,
    beta: np.ndarray,
    prior: PriorOdds,
) -> tuple[np.ndarray, np.ndarray]:
    """One pass: prior + evidence from re-deciding the history.

    ``ids`` and ``signs`` are the logged members; ``distinct`` is the
    distinct sets' (ids, signs, starts, sizes) plus the member index.
    """
    d_ids, d_signs, d_starts, d_sizes, member = distinct
    answers, confidence = _decide_all(d_ids, d_signs, d_starts, d_sizes, alpha, beta, prior)
    n = alpha.size
    # bin id for agreeing votes, n + id for disagreeing ones; bincount
    # adds each bin's weights in log order, as two masked bincounts would
    key = ids + n * (signs != answers[member])
    evidence = np.bincount(key, weights=confidence[member], minlength=2 * n)
    return 1.0 + evidence[:n], 1.0 + evidence[n:]


def review_update(
    history: AnswerLog,
    trust: TrustVector,
    config: ReviewConfig = ReviewConfig(),
    prior: PriorOdds = UNIFORM_PRIOR,
) -> ReviewOutcome:
    """Re-decide the past until the trust vector settles.

    Each pass re-evaluates every stored answer set and derives new
    evidence from the resulting confidences; the loop stops once the L1
    change of the trustworthiness vector over a full pass drops to the
    configured threshold, or after ``max_passes``. The stored answer
    sets themselves are never modified.
    """
    if history.max_advisor_id >= len(trust):
        raise ValueError(
            f"history references advisor {history.max_advisor_id} outside the trust vector"
        )
    if len(history) == 0:
        return ReviewOutcome(trust=trust, passes=0, delta_tau=0.0)

    ids, signs, _ = history.flat_arrays()
    d_ids, d_signs, d_starts, member = history.distinct_arrays()
    distinct = (d_ids, d_signs, d_starts, np.diff(d_starts), member)
    alpha, beta = trust.alpha, trust.beta  # never written: each pass builds new arrays
    tau_before = alpha / (alpha + beta)
    passes = 0
    delta = math.inf
    while passes < config.max_passes:
        alpha, beta = _rebuild_pass(ids, signs, distinct, alpha, beta, prior)
        passes += 1
        tau_after = alpha / (alpha + beta)
        delta = float(np.abs(tau_after - tau_before).sum())
        if delta <= config.threshold:
            break
        tau_before = tau_after
    # both arrays are 1 + bincount of confidences in [0, 1]: valid by construction
    return ReviewOutcome(trust=TrustVector._of(alpha, beta), passes=passes, delta_tau=delta)
