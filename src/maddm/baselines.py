"""Comparison decision methods and the aggregation machinery they share.

Four methods:

* ``fna``: hire a fixed number of advisors per decision.
* ``bc``: hire greedily under a per-decision budget, a fixed fraction of
  the decision's stakes.
* ``rv``: hire a few advisors uniformly at random and take the majority.
* ``bu``: the perfect-information bound (every answer right, no fees).

``fna`` and ``bc`` rank candidates with a bandit strategy (epsilon-greedy,
UCB, or Thompson sampling) applied through one of two criteria: raw
estimated trustworthiness, or cost effectiveness, the price paid per unit
of above-chance accuracy. Their answers are aggregated by a two-class EM
that jointly re-estimates advisor accuracies and per-decision posteriors
from the whole answer history, since no ground truth ever arrives.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from maddm.answers import AnswerLog, AnswerSet, checked_count, checked_id
from maddm.environment import TRUTH, Environment
from maddm.results import RunLedger, RunResult, play
from maddm.trust import TrustVector, apply_confidence_update

if TYPE_CHECKING:
    from maddm.harness import MethodSpec

#: Log prior probability of either answer in the EM: yes and no
#: are equally likely before any advisor speaks.
LOG_PRIOR = math.log(0.5)
#: Every advisor's accuracy when the EM starts: slightly above one half,
#: since the perfectly symmetric value is a fixed point of the updates.
INIT_ACCURACY = 0.6

_STRATEGIES = ("epsilon_greedy", "ucb", "thompson")
_CRITERIA = ("trustworthiness", "cost_effectiveness")


@dataclass(frozen=True)
class StrategyConfig:
    """How fna/bc explore advisors and rank them for hire."""

    kind: str = "epsilon_greedy"
    epsilon: float = 0.1
    criterion: str = "cost_effectiveness"

    def __post_init__(self) -> None:
        if self.kind not in _STRATEGIES:
            raise ValueError(f"strategy kind must be one of {_STRATEGIES}, got {self.kind!r}")
        if self.criterion not in _CRITERIA:
            raise ValueError(f"criterion must be one of {_CRITERIA}, got {self.criterion!r}")
        if isinstance(self.epsilon, (bool, np.bool_)) or not (0.0 <= self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in [0, 1]")


def cost_effectiveness(costs: np.ndarray, estimates: np.ndarray) -> np.ndarray:
    """Price per unit of above-chance accuracy, per advisor; lower is better.

    An advisor at or below coin-flip accuracy buys nothing, so its score
    is positive infinity (never preferred).
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(estimates <= 0.5, math.inf, costs / (estimates - 0.5))


def _selection_order(
    environment: Environment,
    trust: TrustVector,
    strategy: StrategyConfig,
    rng: np.random.Generator,
    point_estimates: np.ndarray,
    decisions_elapsed: int,
) -> list[int]:
    """Advisor ids in hire-preference order for one decision.

    UCB and Thompson replace the point estimates with their optimistic
    index or posterior draw; the criterion then scores the estimates and
    a stable sort ranks them, so score ties break toward the lower
    advisor id. epsilon-greedy walks that ranking but replaces each slot
    with a uniform pick at rate epsilon.
    """
    costs = environment.costs
    trust.check_pool(costs.size)
    estimates = np.asarray(point_estimates, dtype=np.float64)
    if estimates.shape != costs.shape:
        raise ValueError(
            f"need one point estimate per advisor ({costs.size}), got shape {estimates.shape}"
        )

    if strategy.kind == "ucb":
        pulls = trust.alpha + trust.beta - 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            bonus = np.sqrt(2.0 * math.log(max(decisions_elapsed, 1)) / pulls)
        estimates = np.where(pulls > 0.0, estimates + bonus, math.inf)
    elif strategy.kind == "thompson":
        estimates = rng.beta(trust.alpha, trust.beta)
    if strategy.criterion == "trustworthiness":
        scores = -estimates
    else:
        scores = cost_effectiveness(costs, estimates)
    greedy_queue = np.argsort(scores, kind="stable").tolist()
    if strategy.kind != "epsilon_greedy" or strategy.epsilon == 0.0:
        return greedy_queue  # every slot takes the next greedy id and draws nothing
    remaining = list(range(costs.size))  # ids not placed yet, ascending
    placed = [False] * costs.size
    head = 0  # every greedy_queue entry before head is placed
    order: list[int] = []
    for _ in range(costs.size):
        if rng.random() < strategy.epsilon:
            pick = remaining[rng.integers(len(remaining))]
        else:
            while placed[greedy_queue[head]]:
                head += 1
            pick = greedy_queue[head]
        order.append(pick)
        placed[pick] = True
        del remaining[bisect_left(remaining, pick)]
    return order


def select_fixed_number(
    environment: Environment,
    trust: TrustVector,
    strategy: StrategyConfig,
    k: int,
    rng: np.random.Generator,
    point_estimates: np.ndarray,
    decisions_elapsed: int,
) -> list[int]:
    """Ids of exactly ``k`` distinct advisors of ``environment``'s pool, in hire-preference order.

    ``trust`` and ``point_estimates`` hold one entry per advisor of the pool.
    """
    checked_count(k, "k", 0)
    if k > environment.n_advisors:
        raise ValueError(f"cannot select {k} advisors from a pool of {environment.n_advisors}")
    return _selection_order(environment, trust, strategy, rng, point_estimates, decisions_elapsed)[:k]


def select_budget_constrained(
    environment: Environment,
    trust: TrustVector,
    strategy: StrategyConfig,
    budget: float,
    rng: np.random.Generator,
    point_estimates: np.ndarray,
    decisions_elapsed: int,
) -> list[int]:
    """Walk the preference order, hiring while the next pick still fits.

    Stops at the first advisor that would overshoot the budget; it does
    not skip ahead to cheaper, lower-ranked candidates. Advisors are
    priced at ``environment.costs``; the other arguments are as in
    :func:`select_fixed_number`.
    """
    if not budget >= 0.0:  # NaN fails this too
        raise ValueError(f"budget must be non-negative, got {budget!r}")
    order = _selection_order(environment, trust, strategy, rng, point_estimates, decisions_elapsed)
    costs = environment.costs
    chosen: list[int] = []
    spent = 0.0
    for advisor_id in order:
        cost = float(costs[advisor_id])
        if spent + cost > budget:
            break
        chosen.append(advisor_id)
        spent += cost
    return chosen


class EmAggregator:
    """Two-class EM over the growing answer history.

    E step: per-decision posterior of the positive answer under
    independent advisor errors and a uniform answer prior. M step:
    per-advisor accuracy as the smoothed expected fraction of matching
    answers (add-one on both sides, so estimates stay inside (0, 1));
    advisors with no recorded answers keep their current estimate.

    Every accuracy starts at :data:`INIT_ACCURACY`.

    The instance is incremental: observe answer sets as decisions
    happen, call :meth:`infer` to re-converge; accuracies warm-start
    from the previous call. ``posteriors`` holds the last call's yes (row
    0) and no (row 1) posteriors per distinct answer set, in the column
    :meth:`observe` returned.
    """

    def __init__(self, n_advisors: int, tol: float = 1e-6, max_iterations: int = 100) -> None:
        checked_count(n_advisors, "n_advisors", 1)
        if isinstance(tol, (bool, np.bool_)) or not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"tol must be finite and positive, got {tol!r}")
        checked_count(max_iterations, "max_iterations", 1)
        self.n_advisors = n_advisors
        self.tol = tol
        self.max_iterations = max_iterations
        self.accuracies = np.full(n_advisors, INIT_ACCURACY)
        self._log = AnswerLog()
        self.posteriors = np.empty((2, 0))

    @property
    def n_decisions(self) -> int:
        return len(self._log)

    def observe(self, answers: AnswerSet) -> int:
        """Log ``answers``, a non-empty set of the pool; returns its column in :attr:`posteriors`."""
        if answers.ids:  # increasing, so the last is the largest; the log rejects an empty set
            checked_id(answers.ids[-1], "advisor", self.n_advisors)
        return self._log.append(answers)

    def infer(self, track_objective: bool = False) -> list[float]:
        """Run EM to convergence; returns the tracked objective if asked.

        The tracked objective is the smoothing-penalized observed-data
        log likelihood, which every full EM cycle is guaranteed not to
        decrease.
        """
        if not len(self._log):
            raise ValueError("nothing observed yet")
        ids, columns, starts, counts, owner = self._log.distinct_arrays()
        # Both steps run once per distinct answer set (equal sets get equal
        # posteriors), with the yes and no answers stacked as rows 0 and 1;
        # the M-step and the objective weight each set by its count.
        # flat index into the (2, distinct) posteriors of each member's vote
        credit_index = owner + (starts.size - 1) * (columns & 1)
        weight = counts[owner].astype(np.float64)
        answered = np.bincount(ids, weights=weight, minlength=self.n_advisors)
        consulted = answered > 0.0
        smoothed_counts = answered + 2.0

        acc = self.accuracies
        q = None
        objective: list[float] = []
        # per vote: a yes adds log p to the yes row and log(1 - p) to the no row
        table = np.empty((2, acc.size, 2))
        for _ in range(self.max_iterations):
            table[0, :, 0] = np.log(acc)
            table[0, :, 1] = np.log1p(-acc)
            table[1] = table[0, :, ::-1]
            log_joint = self._log.segment_sums(table)
            log_joint += LOG_PRIOR
            shift = np.maximum(log_joint[0], log_joint[1])
            e = np.exp(log_joint - shift)
            total = e[0] + e[1]
            new_q = e / total
            if track_objective:
                penalty = float(np.sum(np.log(acc[consulted]) + np.log1p(-acc[consulted])))
                objective.append(float(np.sum(counts * (shift + np.log(total)))) + penalty)

            # a max over the distinct sets and both rows is the max over all
            # decisions of the larger of the two answers' deltas
            converged = q is not None and float(np.abs(new_q - q).max()) < self.tol
            q = new_q
            if converged:
                break

            credit = np.bincount(ids, weights=q.ravel()[credit_index] * weight, minlength=self.n_advisors)
            acc = np.where(consulted, (credit + 1.0) / smoothed_counts, acc)

        self.accuracies = acc
        self.posteriors = q
        return objective


def run_baseline(
    spec: MethodSpec,
    environment: Environment,
    rng: np.random.Generator,
    trace: bool = False,
) -> RunResult:
    """Play the comparison method of ``spec`` (fna, bc, rv or bu) through an entire environment.

    Reads ``spec.method``, ``spec.strategy``, ``spec.fna_k``,
    ``spec.bc_budget_fraction`` and ``spec.rv_k``, and supplies the
    method's steps to :func:`results.play`, which consults the whole pool
    on the first ``spec.warm_up_rounds`` decisions: rv hires at random and
    answers by the sign of the vote sum; fna and bc hire by their ranking,
    answer by EM and credit the hires' trust. ``bu`` ignores advisors. The
    result carries the spec's method and variant.
    """
    method, strategy = spec.method, spec.strategy
    if method not in ("fna", "bc", "rv", "bu"):
        raise ValueError(f"unknown comparison method {method!r}")
    if method == "bu":
        ledger = RunLedger(environment, trace)
        for index in range(environment.n_decisions):
            ledger.record(index, float(TRUTH), 0.0, (), 0)
        return ledger.result(spec)

    costs, n_advisors = environment.costs, environment.n_advisors
    stakes = (environment.profits + environment.losses).tolist()
    trust = TrustVector.fresh(n_advisors)
    aggregator = EmAggregator(n_advisors)

    def hire(index: int) -> tuple[list[int], float, int]:
        if method == "rv":
            chosen = [int(i) for i in rng.choice(n_advisors, size=spec.rv_k, replace=False)]
        elif method == "fna":
            chosen = select_fixed_number(
                environment, trust, strategy, spec.fna_k, rng,
                point_estimates=aggregator.accuracies, decisions_elapsed=index,
            )
        else:  # bc
            budget = spec.bc_budget_fraction * stakes[index]
            chosen = select_budget_constrained(
                environment, trust, strategy, budget, rng,
                point_estimates=aggregator.accuracies, decisions_elapsed=index,
            )
        return chosen, float(costs[chosen].sum()) if chosen else 0.0, 1

    def majority(answers: AnswerSet) -> float:
        # a tie is margin 0: the answer no, with no confidence
        return float(np.sign(sum(answers.signs)))

    def em(answers: AnswerSet) -> float:
        nonlocal trust
        index = aggregator.observe(answers)
        aggregator.infer()
        q_plus, q_minus = aggregator.posteriors[:, index].tolist()
        margin = q_plus - q_minus
        trust = apply_confidence_update(trust, answers, margin)
        return margin

    decide = majority if method == "rv" else em
    return play(environment, spec, hire, decide, trace)
