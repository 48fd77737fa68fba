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
from dataclasses import dataclass, fields

import numpy as np

from maddm.answers import AnswerSet, checked_count, checked_id

#: The ground truth of every decision.
TRUTH = 1
#: An advisor's price is a normal draw with mean COST_MEAN_FACTOR times
#: its accuracy and spread COST_STD, clamped at zero.
COST_MEAN_FACTOR = 20.0
COST_STD = 10.0
#: Advisor accuracies are normal draws around a world's accuracy mean with
#: this spread, clamped into [0, 1] so genuinely bad advisors exist.
ACCURACY_STD = 0.3


@dataclass(frozen=True)
class EnvironmentTemplate:
    """A named value scale, which a plan sweeps its accuracy grid over.

    A world's profits and losses are normal draws of ``value_mean`` and
    ``value_std``, clamped at 0.
    """

    name: str
    value_mean: float
    value_std: float

    def __post_init__(self) -> None:
        # a name keys the summary rows, so it must be text
        if not isinstance(self.name, str):
            raise ValueError(f"environment name must be a string, got {self.name!r}")
        for name in ("value_mean", "value_std"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.value_std < 0.0:
            raise ValueError(f"value_std must be non-negative, got {self.value_std!r}")

    @classmethod
    def named(cls, name: str) -> "EnvironmentTemplate":
        if not isinstance(name, str) or name not in ENV_TEMPLATES:
            raise ValueError(f"unknown environment template {name!r}; choose from {list(ENV_TEMPLATES)}")
        return ENV_TEMPLATES[name]


#: The named value templates.
ENV_TEMPLATES: dict[str, EnvironmentTemplate] = {
    template.name: template
    for template in (EnvironmentTemplate("env1", 100.0, 100.0), EnvironmentTemplate("env2", 500.0, 500.0))
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
    def build(
        cls,
        template: EnvironmentTemplate,
        accuracy_mean: float,
        n_decisions: int,
        n_advisors: int,
        rng: np.random.Generator,
    ) -> "Environment":
        """Realize a world of ``template``'s stakes and advisors around ``accuracy_mean`` from ``rng``.

        Profits and losses are normal draws of the template clamped at 0,
        accuracies normal draws of ``accuracy_mean`` and :data:`ACCURACY_STD`
        clamped into [0, 1], and each price a normal draw of
        :data:`COST_MEAN_FACTOR` times its accuracy and :data:`COST_STD`
        clamped at 0. Draw order is pinned (profits, losses, accuracies,
        costs, then answers) so a seeded generator reproduces the world bit
        for bit.
        """
        checked_count(n_decisions, "n_decisions", 1)
        checked_count(n_advisors, "n_advisors", 1)
        profits, losses = np.clip(rng.normal(template.value_mean, template.value_std, (2, n_decisions)), 0.0, None)
        accuracies = np.clip(rng.normal(accuracy_mean, ACCURACY_STD, n_advisors), 0.0, 1.0)
        costs = np.clip(rng.normal(accuracies * COST_MEAN_FACTOR, COST_STD), 0.0, None)
        correct = rng.random((n_decisions, n_advisors)) < accuracies[None, :]
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
