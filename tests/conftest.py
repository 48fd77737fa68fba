from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from maddm.environment import ENV_TEMPLATES, Environment, EnvironmentConfig, ErgdParams, accuracy_spread

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def template_world():
    """Build a named template's world at an accuracy mean from ``default_rng(seed)``."""

    def build(name: str, accuracy_mean: float, seed: int, **sizes) -> Environment:
        config = EnvironmentConfig(
            value_params=ErgdParams(*ENV_TEMPLATES[name], lower=0.0),
            accuracy_params=accuracy_spread(accuracy_mean),
            **sizes,
        )
        return Environment.build(config, np.random.default_rng(seed))

    return build
