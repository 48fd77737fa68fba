from __future__ import annotations

import json
import math

import numpy as np
import pytest

from maddm.environment import (
    ENV_TEMPLATES,
    Environment,
    EnvironmentConfig,
    ErgdParams,
    env_config,
    ergd_sample,
    generate_environment,
)


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
        with pytest.raises(ValueError):
            ErgdParams(0.0, -1.0)
        with pytest.raises(ValueError):
            ErgdParams(0.0, 1.0, lower=2.0, upper=1.0)
        with pytest.raises(ValueError):
            ErgdParams(math.nan, 1.0)

    def test_degenerate_std_returns_mean(self, rng):
        assert ergd_sample(ErgdParams(100.0, 0.0), rng) == 100.0

    def test_point_mass_accumulates_at_bound(self, rng):
        draws = ergd_sample(ErgdParams(0.0, 1.0, lower=0.0), rng, size=100_000)
        assert abs((draws == 0.0).mean() - 0.5) < 0.01
        assert draws.min() == 0.0

    def test_clamped_unit_interval_mean_matches_quadrature(self, rng):
        params = ErgdParams(0.8, 0.3, lower=0.0, upper=1.0)
        n = 100_000
        draws = ergd_sample(params, rng, size=n)
        assert draws.min() >= 0.0 and draws.max() <= 1.0
        oracle = rectified_gaussian_mean(0.8, 0.3, 0.0, 1.0)
        assert 0.74 <= oracle <= 0.80
        assert abs(draws.mean() - oracle) < 3.0 * draws.std() / math.sqrt(n)


class TestGenerateEnvironment:
    def test_named_templates(self):
        assert ENV_TEMPLATES["env1"] == (100.0, 100.0)
        assert ENV_TEMPLATES["env2"] == (500.0, 500.0)
        config = env_config("env2", 0.7)
        assert config.value_params.mean == 500.0
        assert config.value_params.std == 500.0
        assert config.accuracy_params.mean == 0.7
        assert config.accuracy_params.std == 0.3
        with pytest.raises(ValueError, match="unknown environment"):
            env_config("env3", 0.7)

    def test_sizes_and_bounds(self):
        config = env_config("env1", 0.6, seed=3, n_decisions=200, n_advisors=25)
        decisions, accuracies, costs = generate_environment(config)
        assert len(decisions) == 200
        assert accuracies.shape == costs.shape == (25,)
        for d in decisions:
            assert d.value.profit >= 0.0
            assert d.value.loss >= 0.0
            assert d.truth == 1
        assert np.all((accuracies >= 0.0) & (accuracies <= 1.0))
        assert np.all(costs >= 0.0)

    def test_seed_reproduces_world_exactly(self):
        config = env_config("env1", 0.8, seed=11, n_decisions=50)
        first = Environment.build(config)
        second = Environment.build(config)
        assert first.digest() == second.digest()
        assert np.array_equal(first.answers, second.answers)
        different = Environment.build(env_config("env1", 0.8, seed=12, n_decisions=50))
        assert different.digest() != first.digest()

    def test_cost_tracks_accuracy(self):
        config = EnvironmentConfig(
            n_decisions=1,
            n_advisors=10_000,
            accuracy_params=ErgdParams(0.75, 0.3, lower=0.0, upper=1.0),
            seed=21,
        )
        _, accuracy, cost = generate_environment(config)
        assert np.corrcoef(accuracy, cost)[0, 1] > 0.2

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            EnvironmentConfig(n_decisions=0)
        with pytest.raises(ValueError):
            EnvironmentConfig(cost_std=-1.0)


class TestEnvironment:
    def test_answers_are_symmetric_binary(self):
        env = Environment.build(env_config("env1", 0.8, seed=4, n_decisions=40))
        assert set(np.unique(env.answers).tolist()) <= {-1, 1}
        assert env.answers.shape == (40, 30)

    def test_oracle_matches_matrix(self):
        env = Environment.build(env_config("env1", 0.8, seed=4, n_decisions=10))
        oracle = env.oracle(3)
        for advisor in range(env.n_advisors):
            assert oracle(advisor) == env.answers[3, advisor]

    def test_answer_set_partition(self):
        env = Environment.build(env_config("env1", 0.8, seed=4, n_decisions=10))
        chosen = [0, 5, 7, 12]
        answers = env.answer_set(2, chosen)
        assert answers.members == frozenset(chosen)
        for advisor in answers.positives:
            assert env.answers[2, advisor] == 1
        for advisor in answers.negatives:
            assert env.answers[2, advisor] == -1

    def test_accuracy_governs_answer_frequency(self):
        config = EnvironmentConfig(
            n_decisions=4000,
            n_advisors=2,
            accuracy_params=ErgdParams(0.9, 0.0, lower=0.0, upper=1.0),
            seed=8,
        )
        env = Environment.build(config)
        freq = (env.answers == 1).mean(axis=0)
        assert np.all(np.abs(freq - 0.9) < 3.0 * math.sqrt(0.9 * 0.1 / 4000))

    def test_json_audit_tables(self):
        env = Environment.build(env_config("env2", 0.7, seed=1, n_decisions=5, n_advisors=4))
        payload = json.loads(env.to_json())
        assert len(payload["advisors"]) == 4
        assert len(payload["decisions"]) == 5
        assert set(payload["advisors"][0]) == {"id", "hidden_accuracy", "cost"}
        assert set(payload["decisions"][0]) == {"id", "profit", "loss"}
        assert payload["advisors"][2]["id"] == 2
