"""The decision loop and the per-run accounting shared by every decision method."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from maddm.answers import AnswerSet
from maddm.environment import TRUTH, Environment

if TYPE_CHECKING:
    from maddm.harness import MethodSpec


def answer_for(margin: float) -> int:
    """The answer a margin for yes commits to: yes when positive; a tie answers no."""
    return 1 if margin > 0.0 else -1


@dataclass(kw_only=True)
class RunResult:
    """Utility ledger of one method over one realized environment.

    ``utility`` is the summed per-decision value (profit when the
    committed answer was right, minus the loss when it was wrong) minus
    every advisor fee paid. ``trace`` optionally holds one dict per
    decision for debugging and audits. The fields but ``trace`` are the
    columns of results.csv, in order.
    """

    environment: str = ""
    accuracy_mean: float = float("nan")
    repetition: int = 0
    method: str
    variant: str = "standard"
    utility: float
    correct_count: int
    total_cost: float
    n_decisions: int
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

    def record(self, decision_id: int, margin: float, paid: float, hired: Sequence[int], rounds: int) -> None:
        """Score the answer of ``margin`` (p+ - p-) to decision ``decision_id`` and book the fees.

        The margin's sign is the answer (:func:`answer_for`), its magnitude
        the confidence, and ``0.5 + 0.5 * margin`` the probability of yes.
        """
        answer = answer_for(margin)
        correct = answer == TRUTH
        self.correct_count += int(correct)
        self.values.append(self.profits[decision_id] if correct else -self.losses[decision_id])
        self.fees.append(paid)
        if self.rows is not None:
            self.rows.append(
                {"decision_id": decision_id, "rounds": rounds, "hired": list(hired),
                 "advisors_polled": len(hired), "total_cost": paid,
                 "p_positive": 0.5 + 0.5 * margin, "answer": answer,
                 "confidence": abs(margin), "correct": correct}
            )

    def result(self, spec: MethodSpec) -> RunResult:
        """The run's totals, stamped with ``spec``'s method and variant."""
        fees = math.fsum(self.fees)
        return RunResult(
            method=spec.method,
            utility=math.fsum(self.values) - fees,
            correct_count=self.correct_count,
            total_cost=fees,
            n_decisions=len(self.values),
            variant=spec.variant,
            trace=self.rows,
        )


def play(
    environment: Environment,
    spec: MethodSpec,
    hire: Callable[[int], tuple[Sequence[int], float, int]],
    decide: Callable[[AnswerSet], float],
    trace: bool = False,
    after: Callable[[int], None] | None = None,
) -> RunResult:
    """Play the method of ``spec`` through every decision of ``environment``.

    The first ``spec.warm_up_rounds`` decisions hire the whole pool in 0
    rounds for the one warm-up fee, ``math.fsum`` of the prices, and each
    later one hires ``hire(index)``, an (ids, fee, rounds) triple.
    ``decide`` learns from a non-empty answer set and gives its margin
    p+ - p- in [-1, 1]; an empty one has margin 0: the answer no, with no
    confidence. ``after(index)`` runs after every decision, empty ones
    included. The result carries the spec's method and variant.
    """
    everyone = tuple(range(environment.n_advisors))
    warm_up_fee = math.fsum(environment.costs)
    warm_up_rounds = spec.warm_up_rounds
    ledger = RunLedger(environment, trace)
    for index in range(environment.n_decisions):
        if index < warm_up_rounds:
            hired, paid, rounds = everyone, warm_up_fee, 0
        else:
            hired, paid, rounds = hire(index)
        answers = environment.answer_set(index, hired)
        margin = 0.0 if answers.is_empty else decide(answers)
        if after is not None:
            after(index)
        ledger.record(index, margin, paid, hired, rounds)
    return ledger.result(spec)
