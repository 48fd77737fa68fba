"""Synthetic worlds for the decision experiments.

A world is a batch of decisions with values drawn from a rectified
Gaussian, plus an advisor pool whose hidden accuracies come from the
same family and whose prices correlate with accuracy (better advice
costs more, which is what makes the selection trade-off interesting).
Advisors are the ids ``0..n-1``: the pool is two float arrays indexed
by id, hidden accuracies and prices, and the prices alone are what a
decision method sees. Ground truth is fixed to the positive answer for
every decision; the decision methods never see it, only the scoring
ledger does.

All randomness flows through one generator, so a seed pins the entire
world including every advisor's answer to every decision. That is what
lets paired experiment designs feed the identical world to each method.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from maddm.answers import AnswerSet
from maddm.selection import DecisionValue


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


def ergd_sample(params: ErgdParams, rng: np.random.Generator, size: int | None = None):
    """Draw from the rectified Gaussian; scalar when ``size`` is None."""
    draws = rng.normal(params.mean, params.std, size)
    clipped = np.clip(draws, params.lower, params.upper)
    return float(clipped) if size is None else clipped


@dataclass(frozen=True)
class EnvironmentConfig:
    """Knobs of the synthetic world.

    Decision profits and losses are sampled independently from
    ``value_params``; advisor accuracy from ``accuracy_params`` (clamped
    to [0, 1] so genuinely bad advisors exist); each advisor's price from
    a rectified Gaussian centered at ``accuracy * cost_mean_factor``.
    """

    n_decisions: int = 1000
    n_advisors: int = 30
    value_params: ErgdParams = field(default=ErgdParams(100.0, 100.0, lower=0.0))
    accuracy_params: ErgdParams = field(default=accuracy_spread(0.8))
    cost_mean_factor: float = 20.0
    cost_std: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_decisions <= 0 or self.n_advisors <= 0:
            raise ValueError("world sizes must be positive")
        if self.cost_mean_factor < 0.0 or self.cost_std < 0.0:
            raise ValueError("cost parameters must be non-negative")


#: Value-distribution templates: (mean, std) of decision profits and losses.
ENV_TEMPLATES: dict[str, tuple[float, float]] = {
    "env1": (100.0, 100.0),
    "env2": (500.0, 500.0),
}


def env_config(
    name: str,
    accuracy_mean: float,
    seed: int = 0,
    n_decisions: int = 1000,
    n_advisors: int = 30,
) -> EnvironmentConfig:
    """Config for one of the named value templates at a given accuracy mean."""
    if name not in ENV_TEMPLATES:
        raise ValueError(f"unknown environment template {name!r}; choose from {sorted(ENV_TEMPLATES)}")
    mean, std = ENV_TEMPLATES[name]
    return EnvironmentConfig(
        n_decisions=n_decisions,
        n_advisors=n_advisors,
        value_params=ErgdParams(mean, std, lower=0.0),
        accuracy_params=accuracy_spread(accuracy_mean),
        seed=seed,
    )


@dataclass(frozen=True)
class SimulatedDecision:
    """A task with stakes and a hidden ground truth (always positive)."""

    id: int
    value: DecisionValue
    truth: int = 1


def generate_environment(
    config: EnvironmentConfig,
    rng: np.random.Generator | None = None,
) -> tuple[tuple[SimulatedDecision, ...], np.ndarray, np.ndarray]:
    """Sample the decision batch and the advisor pool.

    Returns the decisions, then each advisor's hidden accuracy and price
    as float arrays indexed by advisor id. Draw order is pinned (profits,
    losses, accuracies, costs) so a seeded generator reproduces the world
    bit for bit.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    profits = ergd_sample(config.value_params, rng, config.n_decisions)
    losses = ergd_sample(config.value_params, rng, config.n_decisions)
    accuracies = ergd_sample(config.accuracy_params, rng, config.n_advisors)
    raw_costs = rng.normal(accuracies * config.cost_mean_factor, config.cost_std)
    costs = np.clip(raw_costs, 0.0, None)
    decisions = tuple(
        SimulatedDecision(i, DecisionValue(float(profits[i]), float(losses[i])))
        for i in range(config.n_decisions)
    )
    return decisions, accuracies, costs


@dataclass(frozen=True, eq=False)
class Environment:
    """A fully realized world: decisions, the advisor pool, and every answer.

    The answer matrix is drawn up front from the same stream, one entry
    per (decision, advisor): the truth with the advisor's hidden accuracy
    and the flipped answer otherwise. Realizing answers as part of the
    world keeps them identical no matter which method asks, and asking
    twice trivially returns the same answer.
    """

    decisions: tuple[SimulatedDecision, ...]
    accuracies: np.ndarray  # float, hidden accuracy per advisor id
    costs: np.ndarray  # float, price per advisor id
    answers: np.ndarray  # int8, shape (n_decisions, n_advisors), entries in {-1, 1}

    @classmethod
    def build(cls, config: EnvironmentConfig, rng: np.random.Generator | None = None) -> "Environment":
        if rng is None:
            rng = np.random.default_rng(config.seed)
        decisions, accuracies, costs = generate_environment(config, rng)
        truths = np.array([d.truth for d in decisions], dtype=np.int8)
        correct = rng.random((len(decisions), accuracies.size)) < accuracies[None, :]
        answers = np.where(correct, truths[:, None], -truths[:, None]).astype(np.int8)
        return cls(decisions=decisions, accuracies=accuracies, costs=costs, answers=answers)

    @property
    def n_decisions(self) -> int:
        return len(self.decisions)

    @property
    def n_advisors(self) -> int:
        return len(self.costs)

    def oracle(self, decision_id: int) -> Callable[[int], int]:
        """Per-decision answer oracle for the selection loop."""
        row = self.answers[decision_id]
        return lambda advisor_id: int(row[advisor_id])

    def answer_set(self, decision_id: int, advisor_ids) -> AnswerSet:
        """Partition the given advisors by their realized answers."""
        row = self.answers[decision_id]
        pos = frozenset(int(i) for i in advisor_ids if row[i] == 1)
        neg = frozenset(int(i) for i in advisor_ids if row[i] == -1)
        return AnswerSet(pos, neg)

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
                    {"id": d.id, "profit": d.value.profit, "loss": d.value.loss}
                    for d in self.decisions
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
