"""Synthetic worlds for the decision experiments.

A world is a batch of decisions with values drawn from a rectified
Gaussian, plus an advisor pool whose hidden accuracies come from the
same family and whose prices correlate with accuracy (better advice
costs more, which is what makes the selection trade-off interesting).
Decisions are the ids ``0..N-1`` and advisors the ids ``0..n-1``: a
world is float arrays indexed by id (each decision's profit and loss,
each advisor's hidden accuracy and price) plus the answer matrix, and
the prices alone are what a decision method sees of the pool. Ground
truth is :data:`TRUTH` for every decision; the decision methods never
see it, only the scoring ledger does.

All randomness flows through one generator, so a seed pins the entire
world including every advisor's answer to every decision. That is what
lets paired experiment designs feed the identical world to each method.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from maddm.answers import AnswerSet, checked_count, checked_id

#: The ground truth of every decision.
TRUTH = 1
#: An advisor's price is a normal draw with mean COST_MEAN_FACTOR times
#: its accuracy and spread COST_STD, clamped at zero.
COST_MEAN_FACTOR = 20.0
COST_STD = 10.0


@dataclass(frozen=True)
class ErgdParams:
    """Rectified Gaussian: a normal draw clamped into [lower, upper].

    Clamping piles point mass onto the touched bound instead of
    resampling, so the tails fold onto the boundary values.
    """

    mean: float
    std: float
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self) -> None:
        if any(isinstance(x, (bool, np.bool_)) or not math.isfinite(x) for x in (self.mean, self.std)):
            raise ValueError("mean and std must be finite")
        if self.std < 0.0:
            raise ValueError("std must be non-negative")
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")


def accuracy_spread(mean: float) -> ErgdParams:
    """Advisor accuracies spread around ``mean``, clamped into [0, 1]."""
    return ErgdParams(mean, 0.3, lower=0.0, upper=1.0)


def ergd_sample(params: ErgdParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` values from the rectified Gaussian."""
    return np.clip(rng.normal(params.mean, params.std, size), params.lower, params.upper)


@dataclass(frozen=True)
class EnvironmentConfig:
    """Knobs of the synthetic world.

    Decision profits and losses are sampled independently from
    ``value_params``; advisor accuracy from ``accuracy_params`` (clamped
    to [0, 1] so genuinely bad advisors exist); each advisor's price from
    a rectified Gaussian centered at ``accuracy * COST_MEAN_FACTOR``.
    """

    n_decisions: int = 1000
    n_advisors: int = 30
    value_params: ErgdParams = field(default=ErgdParams(100.0, 100.0, lower=0.0))
    accuracy_params: ErgdParams = field(default=accuracy_spread(0.8))

    def __post_init__(self) -> None:
        for name in ("n_decisions", "n_advisors"):
            checked_count(getattr(self, name), name, 1)


#: Value-distribution templates: (mean, std) of decision profits and losses.
ENV_TEMPLATES: dict[str, tuple[float, float]] = {
    "env1": (100.0, 100.0),
    "env2": (500.0, 500.0),
}


def _checked_column(values, name: str, upper: float = math.inf, size: int | None = None) -> np.ndarray:
    """``values`` as a non-empty 1-d float64 array, of ``size`` entries if given, finite and in [0, upper]."""
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1 or not array.size or (size is not None and array.size != size):
        length = "" if size is None else f" of {size} entries"
        raise ValueError(f"{name} must be a non-empty 1-d array{length}, got shape {array.shape}")
    if not (np.isfinite(array).all() and array.min() >= 0.0 and array.max() <= upper):
        bound = "non-negative" if upper == math.inf else f"in [0, {upper:g}]"
        raise ValueError(f"{name} must be finite and {bound}")
    return array


@dataclass(frozen=True, eq=False)
class Environment:
    """A fully realized world: decision values, the advisor pool, and every answer.

    Decision ``i`` is worth ``profits[i]`` if answered right and costs
    ``losses[i]`` if answered wrong. The answer matrix is drawn up front
    from the same stream, one entry per (decision, advisor): the truth
    with the advisor's hidden accuracy and the flipped answer otherwise.
    Realizing answers as part of the world keeps them identical no matter
    which method asks, and asking twice trivially returns the same answer.

    A world checks itself when it is made (by :meth:`build`, directly, or
    by ``dataclasses.replace``) and raises ValueError unless it has N >= 1
    decisions and n >= 1 advisors, profits, losses and costs are finite and
    non-negative, accuracies lie in [0, 1], and every answer is -1 or 1.
    It holds read-only views of its arrays.
    """

    profits: np.ndarray  # float, profit per decision id
    losses: np.ndarray  # float, loss per decision id
    accuracies: np.ndarray  # float, hidden accuracy per advisor id
    costs: np.ndarray  # float, price per advisor id
    answers: np.ndarray  # int8, shape (n_decisions, n_advisors), entries in {-1, 1}

    def __post_init__(self) -> None:
        profits = _checked_column(self.profits, "profits")
        losses = _checked_column(self.losses, "losses", size=profits.size)
        accuracies = _checked_column(self.accuracies, "accuracies", upper=1.0)
        costs = _checked_column(self.costs, "costs", size=accuracies.size)
        answers = np.asarray(self.answers)
        shape = (profits.size, costs.size)
        if answers.shape != shape:
            raise ValueError(
                f"answers need one vote per advisor on each decision, shape {shape}, got {answers.shape}"
            )
        bad = np.argwhere((answers != 1) & (answers != -1))
        if bad.size:
            i, j = bad[0].tolist()
            raise ValueError(f"advisor {j} voted {answers[i, j].item()!r} on decision {i}, not -1 or 1")
        columns = (profits, losses, accuracies, costs, answers.astype(np.int8, copy=False))
        for f, value in zip(fields(self), columns):
            view = value.view()
            view.flags.writeable = False  # checked once, so the world never changes after
            object.__setattr__(self, f.name, view)

    @classmethod
    def build(cls, config: EnvironmentConfig, rng: np.random.Generator) -> "Environment":
        """Realize the world ``config`` describes from ``rng``.

        Draw order is pinned (profits, losses, accuracies, costs, then
        answers) so a seeded generator reproduces the world bit for bit.
        Raises ValueError, as any world does, if a value drawn is negative.
        """
        profits = ergd_sample(config.value_params, rng, config.n_decisions)
        losses = ergd_sample(config.value_params, rng, config.n_decisions)
        accuracies = ergd_sample(config.accuracy_params, rng, config.n_advisors)
        costs = np.clip(rng.normal(accuracies * COST_MEAN_FACTOR, COST_STD), 0.0, None)
        correct = rng.random((profits.size, accuracies.size)) < accuracies[None, :]
        answers = np.where(correct, TRUTH, -TRUTH).astype(np.int8)
        return cls(profits=profits, losses=losses, accuracies=accuracies, costs=costs, answers=answers)

    @property
    def n_decisions(self) -> int:
        return self.profits.size

    @property
    def n_advisors(self) -> int:
        return len(self.costs)

    def answer_set(self, decision_id: int, advisor_ids) -> AnswerSet:
        """The given advisors' realized answers to one decision; repeated ids merge."""
        row = self.answers[checked_id(decision_id, "decision", self.n_decisions)]
        ids = sorted({checked_id(i, "advisor", self.n_advisors) for i in advisor_ids})
        return AnswerSet._of(tuple(ids), tuple(row[ids].tolist()))

    def to_json(self) -> str:
        """Audit dump: the advisor table and the decision table."""
        advisors = enumerate(zip(self.accuracies.tolist(), self.costs.tolist()))
        decisions = enumerate(zip(self.profits.tolist(), self.losses.tolist()))
        tables = {
            "advisors": [{"id": i, "hidden_accuracy": a, "cost": c} for i, (a, c) in advisors],
            "decisions": [{"id": i, "profit": p, "loss": q} for i, (p, q) in decisions],
        }
        return json.dumps(tables, indent=2)

    def digest(self) -> str:
        """Stable fingerprint of the whole world, answers included."""
        payload = hashlib.sha256()
        payload.update(self.to_json().encode("utf-8"))
        payload.update(self.answers.tobytes())
        return payload.hexdigest()
