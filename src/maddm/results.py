"""Per-run accounting shared by every decision method."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence


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

    def __init__(self, trace: bool = False) -> None:
        self.values: list[float] = []
        self.fees: list[float] = []
        self.correct_count = 0
        self.rows: list[dict] | None = [] if trace else None

    def record(
        self,
        decision,
        answer: int,
        paid: float,
        hired: Sequence[int],
        rounds: int,
        p_positive: float,
        confidence: float,
    ) -> None:
        """Score ``answer`` against the decision's truth and book the fees."""
        correct = answer == decision.truth
        self.correct_count += int(correct)
        self.values.append(decision.value.profit if correct else -decision.value.loss)
        self.fees.append(paid)
        if self.rows is not None:
            self.rows.append(
                {"decision_id": decision.id, "rounds": rounds, "hired": list(hired),
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
