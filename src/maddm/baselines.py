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

import numpy as np

from maddm.answers import AnswerLog, AnswerSet, segment_log_likelihoods
from maddm.environment import Environment
from maddm.results import RunLedger, RunResult
from maddm.selection import pool_costs
from maddm.trust import TrustVector, apply_confidence_update

_STRATEGIES = ("epsilon_greedy", "ucb", "thompson")
_CRITERIA = ("trustworthiness", "cost_effectiveness")
_METHODS = ("fna", "bc", "rv", "bu")


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
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in [0, 1]")


@dataclass(frozen=True)
class BaselineConfig:
    """Method choice plus its hiring hyper-parameters."""

    method: str
    fna_k: int = 5
    bc_budget_fraction: float = 0.10
    rv_k: int = 3
    exploration_first_rounds: int = 10

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.fna_k < 1 or self.rv_k < 1:
            raise ValueError("advisor counts must be at least 1")
        if not (0.0 < self.bc_budget_fraction <= 1.0):
            raise ValueError("budget fraction must lie in (0, 1]")
        if self.exploration_first_rounds < 0:
            raise ValueError("exploration-first round count must be non-negative")


def cost_effectiveness(costs: np.ndarray, estimates: np.ndarray) -> np.ndarray:
    """Price per unit of above-chance accuracy, per advisor; lower is better.

    An advisor at or below coin-flip accuracy buys nothing, so its score
    is positive infinity (never preferred).
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(estimates <= 0.5, math.inf, costs / (estimates - 0.5))


def _criterion_scores(costs: np.ndarray, estimates: np.ndarray, criterion: str) -> np.ndarray:
    """Lower-is-better hire scores, indexed by advisor id."""
    if criterion == "trustworthiness":
        return -estimates
    return cost_effectiveness(costs, estimates)


def _selection_order(
    costs: np.ndarray,
    trust: TrustVector,
    strategy: StrategyConfig,
    rng: np.random.Generator,
    point_estimates: np.ndarray | None,
    decisions_elapsed: int,
) -> list[int]:
    """Advisor ids in hire-preference order for one decision.

    epsilon-greedy walks the criterion ranking but replaces each slot
    with a uniform pick at rate epsilon. UCB and Thompson rank once per
    decision, feeding their optimistic index or posterior draw through
    the criterion in place of the point estimate. Score ties break
    toward the lower advisor id (a stable sort).
    """
    if point_estimates is None:
        estimates = trust.trustworthiness()
    else:
        estimates = np.asarray(point_estimates, dtype=np.float64)
        if estimates.shape != costs.shape:
            raise ValueError(
                f"need one point estimate per advisor ({costs.size}), got shape {estimates.shape}"
            )

    if strategy.kind == "ucb":
        pulls = trust.alpha + trust.beta - 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            bonus = np.sqrt(2.0 * math.log(max(decisions_elapsed, 1)) / pulls)
        ranked_estimates = np.where(pulls > 0.0, estimates + bonus, math.inf)
        scores = _criterion_scores(costs, ranked_estimates, strategy.criterion)
        return np.argsort(scores, kind="stable").tolist()
    if strategy.kind == "thompson":
        draws = rng.beta(trust.alpha, trust.beta)
        scores = _criterion_scores(costs, draws, strategy.criterion)
        return np.argsort(scores, kind="stable").tolist()

    # epsilon-greedy: precompute the greedy queue, then fill slots
    scores = _criterion_scores(costs, estimates, strategy.criterion)
    greedy_queue = np.argsort(scores, kind="stable").tolist()
    if strategy.epsilon == 0.0:
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
    costs: np.ndarray,
    trust: TrustVector,
    strategy: StrategyConfig,
    k: int,
    rng: np.random.Generator,
    point_estimates: np.ndarray | None = None,
    decisions_elapsed: int = 0,
) -> list[int]:
    """Ids of exactly ``k`` distinct advisors, in hire-preference order.

    ``costs`` prices each advisor by id, one entry per advisor ``trust``
    covers.
    """
    costs = pool_costs(costs, trust)
    if k > costs.size:
        raise ValueError(f"cannot select {k} advisors from a pool of {costs.size}")
    return _selection_order(costs, trust, strategy, rng, point_estimates, decisions_elapsed)[:k]


def select_budget_constrained(
    costs: np.ndarray,
    trust: TrustVector,
    strategy: StrategyConfig,
    budget: float,
    rng: np.random.Generator,
    point_estimates: np.ndarray | None = None,
    decisions_elapsed: int = 0,
) -> list[int]:
    """Walk the preference order, hiring while the next pick still fits.

    Stops at the first advisor that would overshoot the budget; it does
    not skip ahead to cheaper, lower-ranked candidates. ``costs`` is as
    in :func:`select_fixed_number`.
    """
    costs = pool_costs(costs, trust)
    if not budget >= 0.0:  # NaN fails this too
        raise ValueError(f"budget must be non-negative, got {budget!r}")
    order = _selection_order(costs, trust, strategy, rng, point_estimates, decisions_elapsed)
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

    Starting accuracies sit slightly above one half: the perfectly
    symmetric value is a fixed point of the updates and would never move.

    The instance is incremental: observe answer sets as decisions
    happen, call :meth:`infer` to re-converge; accuracies warm-start
    from the previous call.
    """

    def __init__(
        self,
        n_advisors: int,
        init_accuracy: float = 0.6,
        tol: float = 1e-6,
        max_iterations: int = 100,
    ) -> None:
        if not (0.0 < init_accuracy < 1.0):
            raise ValueError("initial accuracy must lie strictly inside (0, 1)")
        if n_advisors < 1:
            raise ValueError("need at least one advisor")
        self.n_advisors = n_advisors
        self.tol = tol
        self.max_iterations = max_iterations
        self.accuracies = np.full(n_advisors, float(init_accuracy))
        self._log = AnswerLog()
        self.posterior_plus = np.empty(0)
        self.posterior_minus = np.empty(0)

    @property
    def n_decisions(self) -> int:
        return len(self._log)

    def observe(self, answers: AnswerSet) -> None:
        if answers.is_empty:
            raise ValueError("cannot observe an empty answer set")
        if max(answers.members) >= self.n_advisors:
            raise ValueError("answer set references advisors outside the pool")
        self._log.append(answers)

    def infer(self, track_objective: bool = False) -> list[float]:
        """Run EM to convergence; returns the tracked objective if asked.

        The tracked objective is the smoothing-penalized observed-data
        log likelihood, which every full EM cycle is guaranteed not to
        decrease.
        """
        if not len(self._log):
            raise ValueError("nothing observed yet")
        ids, signs, starts = self._log.flat_arrays()
        d_ids, d_signs, d_starts, member = self._log.distinct_arrays()
        # The E-step runs once per distinct answer set (equal sets get equal
        # posteriors), with the yes and no answers stacked as rows 0 and 1;
        # the M-step credits every logged member in log order.
        decision_set = member[starts[:-1]]
        d_positive = d_signs > 0
        # flat index into the (2, distinct) posteriors of each member's vote
        credit_index = member + (d_starts.size - 1) * (signs < 0)
        counts = np.bincount(ids, minlength=self.n_advisors)
        consulted = counts > 0
        smoothed_counts = counts + 2.0
        log_half = math.log(0.5)

        acc = self.accuracies
        q = None
        objective: list[float] = []
        for _ in range(self.max_iterations):
            log_joint = segment_log_likelihoods(acc, d_ids, d_positive, d_starts)
            log_joint += log_half
            shift = np.maximum(log_joint[0], log_joint[1])
            e = np.exp(log_joint - shift)
            total = e[0] + e[1]
            new_q = e / total
            if track_objective:
                penalty = float(np.sum(np.log(acc[consulted]) + np.log1p(-acc[consulted])))
                log_evidence = (shift + np.log(total))[decision_set]
                objective.append(float(np.sum(log_evidence)) + penalty)

            # a max over the distinct sets and both rows is the max over all
            # decisions of the larger of the two answers' deltas
            converged = q is not None and float(np.abs(new_q - q).max()) < self.tol
            q = new_q
            if converged:
                break

            credit = np.bincount(ids, weights=q.ravel()[credit_index], minlength=self.n_advisors)
            acc = np.where(consulted, (credit + 1.0) / smoothed_counts, acc)

        self.accuracies = acc
        self.posterior_plus = q[0][decision_set]
        self.posterior_minus = q[1][decision_set]
        return objective


def run_baseline(
    config: BaselineConfig,
    strategy: StrategyConfig,
    environment: Environment,
    rng: np.random.Generator,
    exploration_first: bool = False,
    trace: bool = False,
) -> RunResult:
    """Play one baseline method through an entire environment.

    With ``exploration_first`` the whole pool is hired for the first
    ``config.exploration_first_rounds`` decisions to bootstrap the
    accuracy estimates before the method's own selection takes over.
    The perfect-information bound ``bu`` ignores advisors entirely.
    """
    decisions = environment.decisions
    n_advisors = environment.n_advisors

    ledger = RunLedger(trace)
    if config.method == "bu":
        for decision in decisions:
            ledger.record(decision, decision.truth, 0.0, (), 0, 1.0, 1.0)
        return ledger.result("bu")

    costs = environment.costs
    all_ids = list(range(n_advisors))
    ef_rounds = config.exploration_first_rounds if exploration_first else 0

    trust = TrustVector.fresh(n_advisors)
    aggregator = EmAggregator(n_advisors)

    for index, decision in enumerate(decisions):
        if index < ef_rounds:
            chosen = all_ids
        elif config.method == "rv":
            chosen = [int(i) for i in rng.choice(n_advisors, size=config.rv_k, replace=False)]
        elif config.method == "fna":
            chosen = select_fixed_number(
                costs, trust, strategy, config.fna_k, rng,
                point_estimates=aggregator.accuracies, decisions_elapsed=index,
            )
        else:  # bc
            budget = config.bc_budget_fraction * decision.value.total
            chosen = select_budget_constrained(
                costs, trust, strategy, budget, rng,
                point_estimates=aggregator.accuracies, decisions_elapsed=index,
            )

        paid = float(costs[chosen].sum()) if chosen else 0.0
        answers = environment.answer_set(decision.id, chosen)

        if config.method == "rv":
            vote = len(answers.positives) - len(answers.negatives)
            answer = 1 if vote > 0 else -1
            confidence = 1.0
            p_positive = float(answer == 1)
        elif answers.is_empty:
            # nobody affordable: commit to the default answer, learn nothing
            answer, confidence, p_positive = -1, 0.0, 0.5
        else:
            aggregator.observe(answers)
            aggregator.infer()
            q_plus = float(aggregator.posterior_plus[-1])
            q_minus = float(aggregator.posterior_minus[-1])
            answer = 1 if q_plus > q_minus else -1
            confidence = abs(q_plus - q_minus)
            p_positive = q_plus
            trust = apply_confidence_update(trust, answers, answer, confidence)

        ledger.record(decision, answer, paid, chosen, 1, p_positive, confidence)

    return ledger.result(config.method)
