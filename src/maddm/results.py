"""The decision loop and the per-run accounting shared by every decision method."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from maddm.answers import AnswerSet
from maddm.environment import TRUTH, Environment

#: (answer, confidence, p_positive) of a decision nobody was hired for:
#: the negative answer, held with no confidence, at even odds.
EMPTY_DECISION = (-1, 0.0, 0.5)


def answer_for(margin: float) -> int:
    """The answer a margin for yes commits to: yes when positive; a tie answers no."""
    return 1 if margin > 0.0 else -1


@dataclass
class RunResult:
    """Utility ledger of one method over one realized environment.

    ``utility`` is the summed per-decision value (profit when the
    committed answer was right, minus the loss when it was wrong) minus
    every advisor fee paid. ``trace`` optionally holds one dict per
    decision for debugging and audits.
    """

    method: str
    utility: float
    correct_count: int
    total_cost: float
    n_decisions: int
    variant: str = "standard"
    environment: str = ""
    accuracy_mean: float = float("nan")
    repetition: int = 0
    trace: list[dict] | None = field(default=None, repr=False)


class RunLedger:
    """Per-decision value, fees, hits and trace rows of one method's run."""

    def __init__(self, environment: Environment, trace: bool = False) -> None:
        self.profits = environment.profits.tolist()
        self.losses = environment.losses.tolist()
        self.values: list[float] = []
        self.fees: list[float] = []
        self.correct_count = 0
        self.rows: list[dict] | None = [] if trace else None

    def record(
        self, decision_id: int, answer: int, paid: float, hired: Sequence[int],
        rounds: int, p_positive: float, confidence: float,
    ) -> None:
        """Score ``answer`` to decision ``decision_id`` against the truth and book the fees."""
        correct = answer == TRUTH
        self.correct_count += int(correct)
        self.values.append(self.profits[decision_id] if correct else -self.losses[decision_id])
        self.fees.append(paid)
        if self.rows is not None:
            self.rows.append(
                {"decision_id": decision_id, "rounds": rounds, "hired": list(hired),
                 "advisors_polled": len(hired), "total_cost": paid,
                 "p_positive": p_positive, "answer": answer,
                 "confidence": confidence, "correct": correct}
            )

    def result(self, method: str) -> RunResult:
        return RunResult(
            method=method,
            utility=math.fsum(self.values) - math.fsum(self.fees),
            correct_count=self.correct_count,
            total_cost=math.fsum(self.fees),
            n_decisions=len(self.values),
            trace=self.rows,
        )


def play(
    environment: Environment,
    method: str,
    hire: Callable[[int], tuple[Sequence[int], float, int]],
    decide: Callable[[AnswerSet], tuple[int, float, float]],
    warm_up_rounds: int,
    trace: bool = False,
    after: Callable[[int], None] | None = None,
) -> RunResult:
    """Play one method through every decision of ``environment``.

    The first ``warm_up_rounds`` decisions hire the whole pool in 0 rounds
    for the one warm-up fee, ``math.fsum`` of the prices, and each later
    one hires ``hire(index)``, an (ids, fee, rounds) triple. ``decide``
    learns from a non-empty answer set and gives (answer, confidence,
    p_positive); an empty one is answered :data:`EMPTY_DECISION`.
    ``after(index)`` runs after every decision, empty ones included.
    """
    everyone = tuple(range(environment.n_advisors))
    warm_up_fee = math.fsum(environment.costs)
    ledger = RunLedger(environment, trace)
    for index in range(environment.n_decisions):
        if index < warm_up_rounds:
            hired, paid, rounds = everyone, warm_up_fee, 0
        else:
            hired, paid, rounds = hire(index)
        answers = environment.answer_set(index, hired)
        answer, confidence, p_positive = EMPTY_DECISION if answers.is_empty else decide(answers)
        if after is not None:
            after(index)
        ledger.record(index, answer, paid, hired, rounds, p_positive, confidence)
    return ledger.result(method)
