"""Run-level invariants: relations between runs that any correct method keeps.

No oracle says what a method should answer on a given world, but some
changes of the world must change a run in a known way (metamorphic
testing). Every spec of ``default_plan()`` plays a few 300-decision cells
with its plan stream, and each relation compares that run with a run on a
transformed copy of the same world.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from maddm.harness import _method_rng, build_cell_environment, default_plan, run_method
from maddm.results import answer_for

PLAN = replace(default_plan(), n_decisions=300, accuracy_means=(0.55, 0.85))
#: (environment index, grid index) of each cell, repetition 0
CELLS = ((0, 1), (1, 0))
SPECS = {spec.label: spec for spec in PLAN.methods}
#: The label flip's cells: both templates at both grid points, repetition 0
FLIP_CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))
#: The specs that answer by EM or by majority, whose answers a flip mirrors
FLIP_LABELS = [label for label, spec in SPECS.items() if spec.method in ("fna", "bc", "rv")]
#: Where the causality relation cuts the world: not a round number, so no
#: review cadence or warm-up boundary lines up with it.
CUT = 173


def play(label: str, cell: tuple[int, int], transform=lambda world: world):
    world = transform(build_cell_environment(PLAN, *cell, 0))
    return run_method(SPECS[label], world, _method_rng(PLAN, *cell, 0, label), trace=True)


@pytest.fixture(scope="module")
def straight():
    """The untransformed run of every spec on every cell."""
    return {(label, cell): play(label, cell) for label in SPECS for cell in CELLS}


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("label", SPECS)
def test_value_scaling_by_a_power_of_two_scales_the_ledger_exactly(straight, label, cell):
    # x4 is exact in floating point, and every rule compares values only with
    # each other (the hiring gain with the price, bc's budget with its spend,
    # cost effectiveness by rank), so no hire or answer may move
    def scaled(world):
        return replace(world, profits=4 * world.profits, losses=4 * world.losses, costs=4 * world.costs)

    run, big = straight[label, cell], play(label, cell, scaled)
    for row, big_row in zip(run.trace, big.trace, strict=True):
        for key in ("hired", "rounds", "answer", "confidence", "p_positive"):
            assert big_row[key] == row[key], (row["decision_id"], key)
        assert big_row["total_cost"] == 4 * row["total_cost"]
    assert big.correct_count == run.correct_count
    assert big.utility == 4 * run.utility
    assert big.total_cost == 4 * run.total_cost


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("label", SPECS)
def test_a_run_never_reads_ahead(straight, label, cell):
    # the world cut to its first decisions must give the same first rows,
    # floats included: no decision may depend on a later one
    def cut(world):
        return replace(world, profits=world.profits[:CUT], losses=world.losses[:CUT],
                       answers=world.answers[:CUT])

    assert play(label, cell, cut).trace == straight[label, cell].trace[:CUT]


@pytest.mark.parametrize("cell", FLIP_CELLS)
@pytest.mark.parametrize("label", FLIP_LABELS)
def test_flipping_every_answer_flips_every_untied_decision(straight, label, cell):
    # the EM's beliefs mirror exactly under a flip and a majority's count
    # changes sign, so the hires stay and every answer flips with a
    # bit-equal confidence; a tie answers -1 on both sides by rule
    def flipped(world):
        return replace(world, answers=-world.answers)

    run = straight[label, cell] if cell in CELLS else play(label, cell)
    mirror = play(label, cell, flipped)
    for row, flip_row in zip(run.trace, mirror.trace, strict=True):
        decision = row["decision_id"]
        assert flip_row["hired"] == row["hired"], decision
        assert flip_row["confidence"] == row["confidence"], decision
        tie = row["confidence"] == 0.0
        assert flip_row["answer"] == (-1 if tie else -row["answer"]), decision
        assert not tie or row["answer"] == -1, decision


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("label", SPECS)
def test_every_row_reads_one_margin(straight, label, cell):
    # every method decides by one margin m = p+ - p-: the answer is its sign,
    # the confidence its magnitude and p_positive 0.5 + 0.5 m, bit for bit
    for row in straight[label, cell].trace:
        m = row["answer"] * row["confidence"]
        assert row["p_positive"] == 0.5 + 0.5 * m, row["decision_id"]
        assert row["answer"] == answer_for(m), row["decision_id"]
