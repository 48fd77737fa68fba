from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from maddm.answers import AnswerLog, AnswerSet
from maddm.environment import ACCURACY_STD, ENV_TEMPLATES, TRUTH, Environment, EnvironmentTemplate
from maddm.harness import build_cell_environment, default_plan


def rectified_gaussian_mean(mean: float, std: float, lower: float, upper: float) -> float:
    """Numerical-integration oracle for the clamped-normal mean."""
    xs = np.linspace(lower, upper, 200_001)
    pdf = np.exp(-0.5 * ((xs - mean) / std) ** 2) / (std * math.sqrt(2.0 * math.pi))
    integrand = xs * pdf
    step = xs[1] - xs[0]
    interior = float(np.sum((integrand[:-1] + integrand[1:]) * step / 2.0))
    cdf_low = 0.5 * (1.0 + math.erf((lower - mean) / (std * math.sqrt(2.0))))
    cdf_high = 0.5 * (1.0 + math.erf((upper - mean) / (std * math.sqrt(2.0))))
    return interior + lower * cdf_low + upper * (1.0 - cdf_high)


class TestErgd:
    def test_validation(self):
        with pytest.raises(ValueError, match="value_std must be non-negative"):
            EnvironmentTemplate("x", 0.0, -1.0)
        for mean in (math.nan, math.inf):
            with pytest.raises(ValueError, match="value_mean must be a finite number"):
                EnvironmentTemplate("x", mean, 1.0)

    def test_degenerate_std_returns_mean(self, rng):
        world = Environment.build(EnvironmentTemplate("flat", 100.0, 0.0), 0.8, 5, 1, rng)
        assert np.array_equal(world.profits, np.full(5, 100.0))
        assert np.array_equal(world.losses, np.full(5, 100.0))

    def test_point_mass_accumulates_at_bound(self, rng):
        draws = Environment.build(EnvironmentTemplate("zero", 0.0, 1.0), 0.8, 100_000, 1, rng).profits
        assert abs((draws == 0.0).mean() - 0.5) < 0.01
        assert draws.min() == 0.0

    def test_clamped_unit_interval_mean_matches_quadrature(self, rng):
        n = 100_000
        draws = Environment.build(ENV_TEMPLATES["env1"], 0.8, 1, n, rng).accuracies
        assert draws.min() >= 0.0 and draws.max() <= 1.0
        oracle = rectified_gaussian_mean(0.8, ACCURACY_STD, 0.0, 1.0)
        assert 0.74 <= oracle <= 0.80
        assert abs(draws.mean() - oracle) < 3.0 * draws.std() / math.sqrt(n)


class TestGenerateEnvironment:
    def test_named_templates(self):
        assert ENV_TEMPLATES["env1"] == EnvironmentTemplate("env1", 100.0, 100.0)
        assert ENV_TEMPLATES["env2"] == EnvironmentTemplate("env2", 500.0, 500.0)
        assert ACCURACY_STD == 0.3

    def test_sizes_and_bounds(self, template_world):
        env = template_world("env1", 0.6, 3, n_decisions=200, n_advisors=25)
        accuracies, costs = env.accuracies, env.costs
        assert env.profits.shape == env.losses.shape == (200,)
        assert accuracies.shape == costs.shape == (25,)
        assert np.all(env.profits >= 0.0)
        assert np.all(env.losses >= 0.0)
        assert TRUTH == 1
        assert np.all((accuracies >= 0.0) & (accuracies <= 1.0))
        assert np.all(costs >= 0.0)

    def test_seed_reproduces_world_exactly(self, template_world):
        first = template_world("env1", 0.8, 11, n_decisions=50)
        second = template_world("env1", 0.8, 11, n_decisions=50)
        assert first.digest() == second.digest()
        assert np.array_equal(first.answers, second.answers)
        different = template_world("env1", 0.8, 12, n_decisions=50)
        assert different.digest() != first.digest()

    def test_pinned_world_digests(self, template_world):
        # a world's bytes, answers included, are fixed by its generator
        world = template_world("env1", 0.8, 11, n_decisions=50)
        assert world.digest() == "b96cba878fec31efc7192cd96341d9f8eb266675ef60c7f481f30a723b6de6d9"
        cell = build_cell_environment(default_plan(), 1, 5, 0)
        assert cell.digest() == "6c097c0885184abc5cdaec1c3498eb41ce6c0cbbc28e0589d234a148efb0ed21"

    def test_cost_tracks_accuracy(self):
        env = Environment.build(ENV_TEMPLATES["env1"], 0.75, 1, 10_000, np.random.default_rng(21))
        assert np.corrcoef(env.accuracies, env.costs)[0, 1] > 0.2

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            Environment.build(ENV_TEMPLATES["env1"], 0.8, 0, 30, np.random.default_rng(0))


class TestEnvironment:
    def test_answers_are_symmetric_binary(self, template_world):
        env = template_world("env1", 0.8, 4, n_decisions=40)
        assert set(np.unique(env.answers).tolist()) <= {-1, 1}
        assert env.answers.shape == (40, 30)

    def test_answer_set_partition(self, template_world):
        env = template_world("env1", 0.8, 4, n_decisions=10)
        chosen = [0, 5, 7, 12]
        answers = env.answer_set(2, chosen)
        assert answers.ids == tuple(chosen)
        for advisor, sign in zip(answers.ids, answers.signs):
            assert env.answers[2, advisor] == sign

    def test_answer_set_in_hire_order_equals_the_constructor_set(self, template_world):
        env = template_world("env1", 0.8, 4, n_decisions=10)
        hired = (7, 3, 12)
        from_run = env.answer_set(5, hired)
        row = env.answers[5]
        from_camps = AnswerSet([i for i in hired if row[i] == 1], [i for i in hired if row[i] == -1])
        assert from_run == from_camps
        assert hash(from_run) == hash(from_camps)
        assert all(type(i) is int for i in from_run.ids)
        assert from_run.ids == (3, 7, 12)
        assert list(from_run.signs) == env.answers[5, list(from_run.ids)].tolist()
        log = AnswerLog()
        assert [log.append(from_run), log.append(from_camps)] == [0, 0]
        # repeated ids merge, numpy ints included
        assert env.answer_set(5, hired + (3, np.int64(7))) == from_run

    @pytest.mark.parametrize(
        "decision_id, advisor_ids, message",
        [
            (-1, [0], "decision id -1 is not an int in 0..9"),
            (10, [0], "decision id 10 is not an int in 0..9"),
            (1.0, [0], "decision id 1.0 is not an int in 0..9"),
            (True, [0], "decision id True is not an int in 0..9"),
            (0, [0, -1], "advisor id -1 is not an int in 0..29"),
            (0, [30], "advisor id 30 is not an int in 0..29"),
            (0, [1.0], "advisor id 1.0 is not an int in 0..29"),
            (0, [True], "advisor id True is not an int in 0..29"),
            # a numpy id is named as its value, not its repr
            (0, np.array([1, 30]), "advisor id 30 is not an int in 0..29"),
            (np.int64(10), [0], "decision id 10 is not an int in 0..9"),
        ],
    )
    def test_answer_set_rejects_ids_outside_the_world(self, template_world, decision_id, advisor_ids, message):
        env = template_world("env1", 0.8, 4, n_decisions=10)
        with pytest.raises(ValueError) as error:
            env.answer_set(decision_id, advisor_ids)
        assert str(error.value) == message

    def test_accuracy_governs_answer_frequency(self):
        env = Environment.build(ENV_TEMPLATES["env1"], 0.9, 4000, 2, np.random.default_rng(8))
        freq = (env.answers == 1).mean(axis=0)
        accuracies = env.accuracies
        assert np.all(np.abs(freq - accuracies) <= 3.0 * np.sqrt(accuracies * (1.0 - accuracies) / 4000))

    def test_json_audit_tables(self, template_world):
        env = template_world("env2", 0.7, 1, n_decisions=5, n_advisors=4)
        payload = json.loads(env.to_json())
        assert len(payload["advisors"]) == 4
        assert len(payload["decisions"]) == 5
        assert set(payload["advisors"][0]) == {"id", "hidden_accuracy", "cost"}
        assert set(payload["decisions"][0]) == {"id", "profit", "loss"}
        assert payload["advisors"][2]["id"] == 2


def spoiled(values: np.ndarray, value, index=0) -> np.ndarray:
    """A copy of ``values`` with the entry at ``index`` set to ``value``."""
    out = values.copy()
    out[index] = value
    return out


class TestWorldChecks:
    """A world is checked when it is made, so no method can run on a bad one."""

    BAD_WORLDS = {
        "zero vote": (
            lambda w: {"answers": spoiled(w.answers, 0, (1, 2))}, "advisor 2 voted 0 on decision 1",
        ),
        "vote 3": (
            lambda w: {"answers": spoiled(w.answers, 3, (2, 0))}, "advisor 0 voted 3 on decision 2",
        ),
        "negative profit": (
            lambda w: {"profits": spoiled(w.profits, -1.0)}, "profits must be finite and non-negative",
        ),
        "NaN loss": (
            lambda w: {"losses": spoiled(w.losses, math.nan, 2)}, "losses must be finite and non-negative",
        ),
        "short losses": (
            lambda w: {"losses": w.losses[:2]}, "losses must be a non-empty 1-d array of 3 entries",
        ),
        "answers of the wrong shape": (lambda w: {"answers": w.answers.T}, "one vote per advisor"),
        "negative cost": (
            lambda w: {"costs": spoiled(w.costs, -0.5, 3)}, "costs must be finite and non-negative",
        ),
        "empty pool": (
            lambda w: {"accuracies": w.accuracies[:0], "costs": w.costs[:0], "answers": w.answers[:, :0]},
            "non-empty",
        ),
    }

    @pytest.mark.parametrize("made_by", ["constructor", "replace"])
    @pytest.mark.parametrize("bad", list(BAD_WORLDS))
    def test_bad_world_rejected_when_made(self, template_world, bad, made_by):
        world = template_world("env1", 0.8, 0, n_decisions=3, n_advisors=4)
        spoil, message = self.BAD_WORLDS[bad]
        with pytest.raises(ValueError, match=message):
            if made_by == "replace":
                replace(world, **spoil(world))
            else:
                Environment(**{**vars(world), **spoil(world)})

    def test_decision_value_validation(self, one_decision_world):
        # a decision's profit and loss are finite and non-negative
        world = one_decision_world(np.ones(2))
        for value in (-1.0, math.inf, math.nan):
            for name in ("profits", "losses"):
                with pytest.raises(ValueError, match="finite and non-negative"):
                    replace(world, **{name: np.array([value])})

    def test_offer_validation(self, one_decision_world):
        # one finite, non-negative price per advisor of the pool
        world = one_decision_world(np.ones(2))
        for costs in ([0.0, -0.5], [1.0, math.nan], [math.inf, 1.0], [1.0], [1.0, 2.0, 3.0]):
            with pytest.raises(ValueError, match="costs"):
                replace(world, costs=np.array(costs))

    def test_votes_row_must_cover_the_pool(self, one_decision_world):
        for votes in (np.ones(2), np.ones(4)):
            with pytest.raises(ValueError, match="one vote per advisor"):
                replace(one_decision_world(np.zeros(3)), answers=votes.reshape(1, -1))

    def test_hired_vote_must_be_a_sign(self, one_decision_world):
        # every vote is checked, hired or not
        with pytest.raises(ValueError, match="voted 0"):
            one_decision_world(np.zeros(1), np.zeros(1, dtype=np.int8))

    def test_empty_pool_rejected(self, one_decision_world):
        with pytest.raises(ValueError, match="non-empty"):
            one_decision_world([], np.full(0, 1))

    def test_world_rebuilt_from_its_columns_keeps_them(self, template_world):
        world = template_world("env1", 0.8, 0, n_decisions=3, n_advisors=4)
        rebuilt = Environment(**{**vars(world), "answers": world.answers.astype(np.int64)})
        assert rebuilt.answers.dtype == np.int8
        assert rebuilt.digest() == world.digest()
        for name in ("profits", "losses", "costs"):
            assert np.shares_memory(getattr(rebuilt, name), getattr(world, name))

    @pytest.mark.parametrize("name, value", [("answers", 0), ("losses", math.nan), ("costs", -1.0)])
    def test_checked_world_cannot_be_spoiled_later(self, template_world, name, value):
        # an entry written after the check would reach every method unchecked
        world = template_world("env1", 0.8, 0, n_decisions=3, n_advisors=4)
        with pytest.raises(ValueError, match="read-only"):
            getattr(world, name)[0] = value
