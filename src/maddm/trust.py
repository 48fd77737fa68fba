"""Beta-evidence bookkeeping for advisor trustworthiness.

Each advisor carries two pseudo-counts: ``alpha`` accumulates evidence
that its past advice was correct, ``beta`` evidence that it was wrong.
Both start at 1, the uninformative Beta(1, 1) prior, and only ever grow.
Because the true answer is never observed, the decision loop adds
fractional confidence weights instead of hard 0/1 outcomes, so the
counts are real-valued.

Derived quantities (a :class:`TrustVector` holds the first two as fields,
computed once from one ``alpha + beta`` when the vector is made, in read-only
arrays beside the evidence, so no write can leave them stale):

* ``tau``, the trustworthiness: the Beta mean ``alpha / (alpha + beta)``
* ``theta``, the uncertainty: the epistemic mass ``2 / (alpha + beta)``,
  exactly 1 at the prior and shrinking toward 0 as evidence accumulates
* log-odds: ``log(c / (1 - c))`` of the trust ``c`` clamped away from 0
  and 1, how an advisor's vote enters the ensemble's posterior
* Thompson draws from ``Beta(alpha, beta)``, used to score candidates
  while still exploring advisors with little evidence
* credit: :func:`credited` adds a decided set's confidence ``|p+ - p-|`` to
  alpha for each vote that agrees with its answer (a tie answers no), to
  beta for the others; the live update and every review pass use it
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from maddm.answers import AnswerSet, checked_count, checked_id

# Trust values are clamped only at the point where they enter likelihood
# products, never in storage, so a value of exactly 0 or 1 can neither
# zero out nor saturate a product downstream.
TAU_EPS = 1e-9


def clamp_trust(tau):
    """Clamp trust, a float or an array, into [TAU_EPS, 1 - TAU_EPS] for likelihood use."""
    if isinstance(tau, np.ndarray):
        return np.minimum(np.maximum(tau, TAU_EPS), 1.0 - TAU_EPS)
    return min(max(tau, TAU_EPS), 1.0 - TAU_EPS)


def log_odds(clamped):
    """``log(c / (1 - c))`` of trust ``clamped`` by :func:`clamp_trust`, a float or an array."""
    # numpy calls cost about a microsecond each on plain floats, and
    # np.log and math.log may differ in the last bit
    log = np.log if isinstance(clamped, np.ndarray) else math.log
    return log(clamped / (1.0 - clamped))


class TrustVector:
    """Trust records for a dense advisor pool, indexed by advisor id.

    An immutable value: updates return a new vector, and a vector is owned
    by exactly one run. The evidence and each advisor's ``tau`` and ``theta``
    live in parallel read-only float arrays, read without boxing.
    """

    __slots__ = ("alpha", "beta", "tau", "theta")

    def __init__(self, alpha: Sequence[float] | np.ndarray, beta: Sequence[float] | np.ndarray):
        # copies, so a later write to the caller's arrays leaves the vector alone
        a = np.array(alpha, dtype=np.float64)
        b = np.array(beta, dtype=np.float64)
        if a.ndim != 1 or a.shape != b.shape:
            raise ValueError("alpha and beta must be 1-d arrays of equal length")
        if a.size and (not np.all(np.isfinite(a)) or not np.all(np.isfinite(b))):
            raise ValueError("evidence counts must be finite")
        if a.size and (a.min() < 1.0 or b.min() < 1.0):
            raise ValueError("evidence counts sit on top of the Beta(1, 1) prior")
        self._hold(a, b)

    @classmethod
    def _of(cls, alpha: np.ndarray, beta: np.ndarray) -> "TrustVector":
        """Wrap float64 arrays built from valid evidence by adding non-negative weights; no checks."""
        vector = cls.__new__(cls)
        vector._hold(alpha, beta)
        return vector

    def _hold(self, alpha: np.ndarray, beta: np.ndarray) -> None:
        """Store the evidence with its ``tau`` and ``theta``, derived from one ``alpha + beta``, read-only."""
        total = alpha + beta
        self.alpha, self.beta, self.tau, self.theta = alpha, beta, alpha / total, 2.0 / total
        for array in (alpha, beta, self.tau, self.theta):
            array.setflags(write=False)  # so a write cannot leave tau and theta stale

    @classmethod
    def fresh(cls, n_advisors: int) -> "TrustVector":
        """All-prior vector for a pool of ``n_advisors``."""
        checked_count(n_advisors, "n_advisors", 0)
        return cls(np.ones(n_advisors), np.ones(n_advisors))

    def __len__(self) -> int:
        return int(self.alpha.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrustVector):
            return NotImplemented
        return np.array_equal(self.alpha, other.alpha) and np.array_equal(self.beta, other.beta)

    def __repr__(self) -> str:
        return f"TrustVector(n={len(self)})"

    def check_pool(self, n_advisors: int) -> None:
        """Raise ValueError unless there is one record per advisor of a pool of ``n_advisors``."""
        if len(self) != n_advisors:
            raise ValueError(f"trust covers {len(self)} advisors, the pool has {n_advisors}")


def credited(alpha: np.ndarray, beta: np.ndarray, columns: np.ndarray, margins, weights) -> TrustVector:
    """``alpha`` and ``beta`` plus each vote's ``weight * |margin|``, as a new vector; no checks.

    ``columns`` holds each vote as ``2 id + [vote is no]`` (ids below ``alpha.size``), and
    ``margins`` and ``weights`` its set's p+ - p- and weight (non-negative), aligned or broadcast.
    A vote that agrees with the margin's sign (a tie answers no) credits alpha, any other beta.
    """
    # columns ^ [answer is no] is even exactly where the vote agrees
    evidence = np.bincount(columns ^ (margins <= 0.0), weights=np.abs(margins) * weights, minlength=2 * alpha.size)
    return TrustVector._of(alpha + evidence[::2], beta + evidence[1::2])


def apply_confidence_update(trust: TrustVector, answers: AnswerSet, margin: float) -> TrustVector:
    """Credit each member of ``answers`` with its decision's ``margin``, p+ - p-, by :func:`credited`.

    Rejects a margin outside [-1, 1] and a member outside the pool; returns a new vector.
    """
    if not (-1.0 <= margin <= 1.0):  # NaN fails this too
        raise ValueError(f"margin must lie in [-1, 1], got {margin!r}")
    if answers.ids:  # increasing, so the last is the largest
        checked_id(answers.ids[-1], "advisor", len(trust))
    columns = np.array(answers.columns(), dtype=np.intp)
    return credited(trust.alpha, trust.beta, columns, margin, np.ones(columns.size))
