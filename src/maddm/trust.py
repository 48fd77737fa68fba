"""Beta-evidence bookkeeping for advisor trustworthiness.

Each advisor carries two pseudo-counts: ``alpha`` accumulates evidence
that its past advice was correct, ``beta`` evidence that it was wrong.
Both start at 1, the uninformative Beta(1, 1) prior, and only ever grow.
Because the true answer is never observed, the decision loop adds
fractional confidence weights instead of hard 0/1 outcomes, so the
counts are real-valued.

Derived quantities:

* trustworthiness: the Beta mean ``alpha / (alpha + beta)``
* uncertainty: the epistemic mass ``2 / (alpha + beta)``, exactly 1 at
  the prior and shrinking toward 0 as evidence accumulates
* Thompson draws from ``Beta(alpha, beta)``, used to score candidates
  while still exploring advisors with little evidence
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from maddm.answers import AnswerSet
from maddm.results import answer_for

# Trust values are clamped only at the point where they enter likelihood
# products, never in storage, so a value of exactly 0 or 1 can neither
# zero out nor saturate a product downstream.
TAU_EPS = 1e-9


def clamp_trust(tau: float) -> float:
    """Clamp a trust value into [TAU_EPS, 1 - TAU_EPS] for likelihood use."""
    return min(max(tau, TAU_EPS), 1.0 - TAU_EPS)


class TrustVector:
    """Trust records for a dense advisor pool, indexed by advisor id.

    Treated as an immutable value: updates return a new vector, and a
    vector is owned by exactly one run. The evidence lives in two parallel
    float arrays so the hot loops can operate on it without boxing.
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: Sequence[float] | np.ndarray, beta: Sequence[float] | np.ndarray):
        a = np.ascontiguousarray(alpha, dtype=np.float64)
        b = np.ascontiguousarray(beta, dtype=np.float64)
        if a.ndim != 1 or a.shape != b.shape:
            raise ValueError("alpha and beta must be 1-d arrays of equal length")
        if a.size and (not np.all(np.isfinite(a)) or not np.all(np.isfinite(b))):
            raise ValueError("evidence counts must be finite")
        if a.size and (a.min() < 1.0 or b.min() < 1.0):
            raise ValueError("evidence counts sit on top of the Beta(1, 1) prior")
        self.alpha = a
        self.beta = b

    @classmethod
    def _of(cls, alpha: np.ndarray, beta: np.ndarray) -> "TrustVector":
        """Wrap float64 arrays the caller built from valid evidence; no checks.

        Only for arrays derived from a valid vector by adding non-negative
        weights, or from ``1 + bincount`` of non-negative weights.
        """
        vector = cls.__new__(cls)
        vector.alpha = alpha
        vector.beta = beta
        return vector

    @classmethod
    def fresh(cls, n_advisors: int) -> "TrustVector":
        """All-prior vector for a pool of ``n_advisors``."""
        if n_advisors < 0:
            raise ValueError("pool size must be non-negative")
        return cls(np.ones(n_advisors), np.ones(n_advisors))

    def __len__(self) -> int:
        return int(self.alpha.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrustVector):
            return NotImplemented
        return np.array_equal(self.alpha, other.alpha) and np.array_equal(self.beta, other.beta)

    def __repr__(self) -> str:
        return f"TrustVector(n={len(self)})"

    def trustworthiness(self) -> np.ndarray:
        """Per-advisor accuracy point estimates."""
        return self.alpha / (self.alpha + self.beta)

    def uncertainty(self) -> np.ndarray:
        """Per-advisor epistemic uncertainty."""
        return 2.0 / (self.alpha + self.beta)

    def check_pool(self, n_advisors: int) -> None:
        """Raise ValueError unless there is one record per advisor of a pool of ``n_advisors``."""
        if len(self) != n_advisors:
            raise ValueError(f"trust covers {len(self)} advisors, the pool has {n_advisors}")

    def check_covers(self, answers: AnswerSet) -> None:
        """Raise ValueError unless every advisor in ``answers`` has a record."""
        n = len(self)
        # the ids increase, so the last one is the largest
        if answers.ids and answers.ids[-1] >= n:
            unknown = [i for i in answers.ids if i >= n]
            raise ValueError(
                f"answer set references unknown advisor ids {unknown}; "
                f"trust vector covers [0, {n})"
            )


def apply_confidence_update(trust: TrustVector, answers: AnswerSet, margin: float) -> TrustVector:
    """Credit every consulted advisor with the confidence of a decision's ``margin``, p+ - p-.

    The margin's sign picks the answer (:func:`results.answer_for`) and its
    magnitude is the confidence: advisors who voted that answer gain it on
    their correct side, the others on their wrong side; advisors outside the
    answer set are untouched. Returns a new vector.
    """
    if not (-1.0 <= margin <= 1.0):  # NaN fails this too
        raise ValueError(f"margin must lie in [-1, 1], got {margin!r}")
    trust.check_covers(answers)
    alpha = trust.alpha.copy()
    beta = trust.beta.copy()
    ids = np.array(answers.ids, dtype=np.intp)
    agree = np.array(answers.signs) == answer_for(margin)
    alpha[ids[agree]] += abs(margin)
    beta[ids[~agree]] += abs(margin)
    return TrustVector._of(alpha, beta)
