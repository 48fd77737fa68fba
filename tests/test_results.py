"""The one decision loop every method plays through, with fake steps."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from maddm.harness import MethodSpec
from maddm.results import answer_for, play


def test_play_owns_the_warm_up_the_empty_rule_and_the_after_hook(template_world):
    env = template_world("env1", 0.8, 0, n_decisions=8, n_advisors=4)
    env = replace(env, costs=np.full(4, 2.25))  # a warm-up fee of 9.0
    decided, after = [], []

    def hire(index):
        # even decisions hire one advisor in 2 rounds; odd ones hire nobody
        return ((index % 4,), 1.5, 2) if index % 2 == 0 else ((), 0.0, 3)

    def decide(answers):
        assert not answers.is_empty
        decided.append(answers)
        return 0.5

    spec = MethodSpec("rv", "exploration_first", exploration_first_rounds=2)
    result = play(env, spec, hire, decide, trace=True, after=after.append)

    assert after == list(range(8))  # empty decisions included
    hired = [tuple(range(4)), tuple(range(4)), (2,), (), (0,), (), (2,), ()]
    assert [tuple(row["hired"]) for row in result.trace] == hired
    assert decided == [env.answer_set(i, ids) for i, ids in enumerate(hired) if ids]
    assert [row["rounds"] for row in result.trace] == [0, 0, 2, 3, 2, 3, 2, 3]
    assert [row["total_cost"] for row in result.trace] == [9.0, 9.0, 1.5, 0.0, 1.5, 0.0, 1.5, 0.0]
    for row in result.trace:
        outcome = (row["answer"], row["confidence"], row["p_positive"])
        # the empty decision is margin 0: the answer no, with no confidence, at even odds
        assert outcome == ((-1, 0.0, 0.5) if not row["hired"] else (1, 0.5, 0.75))
    values = [env.profits[i] for i in (0, 1, 2, 4, 6)] + [-env.losses[i] for i in (3, 5, 7)]
    assert (result.method, result.variant) == ("rv", "exploration_first")
    assert result.correct_count == 5
    assert result.total_cost == 22.5
    assert result.utility == math.fsum(values) - 22.5


def test_play_without_hooks_or_trace(template_world):
    env = template_world("env1", 0.8, 1, n_decisions=5, n_advisors=3)
    result = play(env, MethodSpec("rv"), lambda index: ((), 0.0, 1), lambda answers: 1.0)
    assert (result.method, result.variant) == ("rv", "standard")
    assert result.trace is None
    assert result.correct_count == 0
    assert result.n_decisions == 5


def test_a_positive_margin_answers_yes_and_a_tie_answers_no():
    # the one tie rule, by which the ledger reads every margin, the empty
    # decision's 0 included
    assert [answer_for(m) for m in (5e-324, 2, 0.0, -0.0, 0, -5e-324)] == [1, 1, -1, -1, -1, -1]
