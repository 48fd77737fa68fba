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
from dataclasses import dataclass, field

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
        if not (math.isfinite(self.mean) and math.isfinite(self.std)):
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


@dataclass(frozen=True, eq=False)
class Environment:
    """A fully realized world: decision values, the advisor pool, and every answer.

    Decision ``i`` is worth ``profits[i]`` if answered right and costs
    ``losses[i]`` if answered wrong. The answer matrix is drawn up front
    from the same stream, one entry per (decision, advisor): the truth
    with the advisor's hidden accuracy and the flipped answer otherwise.
    Realizing answers as part of the world keeps them identical no matter
    which method asks, and asking twice trivially returns the same answer.
    """

    profits: np.ndarray  # float, profit per decision id
    losses: np.ndarray  # float, loss per decision id
    accuracies: np.ndarray  # float, hidden accuracy per advisor id
    costs: np.ndarray  # float, price per advisor id
    answers: np.ndarray  # int8, shape (n_decisions, n_advisors), entries in {-1, 1}

    @classmethod
    def build(cls, config: EnvironmentConfig, rng: np.random.Generator) -> "Environment":
        """Realize the world ``config`` describes from ``rng``.

        Draw order is pinned (profits, losses, accuracies, costs, then
        answers) so a seeded generator reproduces the world bit for bit.
        Raises ValueError if a drawn profit or loss is negative.
        """
        profits = ergd_sample(config.value_params, rng, config.n_decisions)
        losses = ergd_sample(config.value_params, rng, config.n_decisions)
        if not (profits.min() >= 0.0 and losses.min() >= 0.0):
            raise ValueError("decision values must be non-negative")
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
        return json.dumps(
            {
                "advisors": [
                    {"id": i, "hidden_accuracy": accuracy, "cost": cost}
                    for i, (accuracy, cost) in enumerate(
                        zip(self.accuracies.tolist(), self.costs.tolist())
                    )
                ],
                "decisions": [
                    {"id": i, "profit": profit, "loss": loss}
                    for i, (profit, loss) in enumerate(
                        zip(self.profits.tolist(), self.losses.tolist())
                    )
                ],
            },
            indent=2,
        )

    def digest(self) -> str:
        """Stable fingerprint of the whole world, answers included."""
        payload = hashlib.sha256()
        payload.update(self.to_json().encode("utf-8"))
        payload.update(self.answers.tobytes())
        return payload.hexdigest()
