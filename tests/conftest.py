from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from maddm.environment import ENV_TEMPLATES, Environment
from maddm.trust import TAU_EPS

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

    def build(name: str, accuracy_mean: float, seed: int, n_decisions: int = 1000, n_advisors: int = 30) -> Environment:
        return Environment.build(
            ENV_TEMPLATES[name], accuracy_mean, n_decisions, n_advisors, np.random.default_rng(seed),
        )

    return build


@pytest.fixture(scope="session")
def exact_ensemble():
    """The ensemble rule in exact fractions, its posterior a ratio of likelihood products.

    The returned function takes one (tau, vote mass, theta, vote) tuple per
    member, each number a float or a Fraction, and returns (p_yes, p_no).
    As in the float rule, tau is clamped to [TAU_EPS, 1 - TAU_EPS] for the
    likelihoods only, and the uniform prior cancels. No log or exp is taken.
    """
    low, high = Fraction(TAU_EPS), Fraction(1.0 - TAU_EPS)

    def ensemble(members: list) -> tuple[Fraction, Fraction]:
        likelihood = {1: Fraction(1), -1: Fraction(1)}
        mass = {1: Fraction(0), -1: Fraction(0)}
        theta_sum = Fraction(0)
        for tau, vote_mass, theta, vote in members:
            clamped = min(max(Fraction(tau), low), high)
            likelihood[vote] *= clamped
            likelihood[-vote] *= 1 - clamped
            mass[vote] += Fraction(vote_mass)
            theta_sum += Fraction(theta)
        theta_bar = theta_sum / len(members)

        def p(side: int) -> Fraction:
            bayes = likelihood[side] / (likelihood[1] + likelihood[-1])
            return (1 - theta_bar) * bayes + theta_bar * mass[side] / (mass[1] + mass[-1])

        return p(1), p(-1)

    return ensemble


@pytest.fixture(scope="session")
def one_decision_world():
    """Build a world of one decision with the given advisor prices.

    The decision is worth ``stakes``, half profit and half loss, and each
    advisor answers it with its entry of ``votes``, yes by default.
    """

    def build(costs, votes=None, stakes: float = 200.0) -> Environment:
        costs = np.asarray(costs, dtype=np.float64)
        return Environment(
            profits=np.array([stakes / 2]), losses=np.array([stakes / 2]),
            accuracies=np.full(costs.size, 0.5), costs=costs,
            answers=np.reshape(np.ones(costs.size) if votes is None else votes, (1, -1)),
        )

    return build
