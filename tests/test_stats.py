from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maddm.stats import _average_ranks, _u_counts, mann_whitney_u, mean_confidence_interval


def brute_force_two_sided_p(a: list[float], b: list[float]) -> float:
    """Enumerate every rank arrangement of the pooled sample.

    Counts arrangements whose smaller U statistic is at most the observed
    one; valid only without ties.
    """
    n, m = len(a), len(b)
    pooled = sorted(a + b)
    rank_of = {v: i + 1 for i, v in enumerate(pooled)}
    ranks_a = [rank_of[v] for v in a]
    u_obs = sum(ranks_a) - n * (n + 1) / 2.0
    u_min_obs = min(u_obs, n * m - u_obs)
    count = 0
    total = 0
    for subset in itertools.combinations(range(1, n + m + 1), n):
        u = sum(subset) - n * (n + 1) / 2.0
        if min(u, n * m - u) <= u_min_obs:
            count += 1
        total += 1
    return count / total


@given(st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=40))
def test_rank_runs_are_the_tie_sizes_in_sorted_order(values):
    x = np.asarray(values)
    ranks, runs = _average_ranks(x)
    assert np.array_equal(runs, np.unique(x, return_counts=True)[1])
    assert ranks.sum() == x.size * (x.size + 1) / 2


class TestUDistribution:
    @pytest.mark.parametrize("n, m", [(1, 1), (3, 4), (5, 5), (7, 2)])
    def test_counts_total_and_symmetry(self, n, m):
        counts = _u_counts(n, m)
        assert len(counts) == n * m + 1
        assert sum(counts) == math.comb(n + m, n)
        assert counts == counts[::-1]


class TestMannWhitney:
    def test_identical_samples_are_not_evidence(self):
        u, p = mann_whitney_u([3.0, 3.0, 3.0], [3.0, 3.0, 3.0])
        assert p == 1.0

    def test_disjoint_ranges_are_overwhelming(self):
        a = list(range(1, 51))
        b = list(range(51, 101))
        u, p = mann_whitney_u(a, b)
        assert u == 0.0  # no a value ever beats a b value
        assert p < 1e-9

    def test_shuffled_copy_gives_central_u(self, rng):
        a = rng.normal(size=30).tolist()
        b = list(a)
        rng.shuffle(b)
        u, p = mann_whitney_u(a, b)
        assert u == 30 * 30 / 2.0
        assert p == 1.0

    def test_exact_path_matches_brute_force_enumeration(self, rng):
        for _ in range(25):
            a = rng.normal(size=5).tolist()
            b = rng.normal(size=6).tolist()
            _, p = mann_whitney_u(a, b)
            assert p == pytest.approx(brute_force_two_sided_p(a, b), abs=1e-12)

    def test_normal_approximation_close_to_exact_on_midsize_samples(self, rng):
        for _ in range(10):
            a = rng.normal(size=15)
            b = rng.normal(size=15)
            u, p_exact = mann_whitney_u(a, b)  # untied n=15 takes the exact path
            sd = math.sqrt(15 * 15 * 31 / 12.0)
            z = (max(u, 225 - u) - 225 / 2.0 - 0.5) / sd
            p_normal = min(1.0, math.erfc(z / math.sqrt(2.0)))
            assert abs(p_exact - p_normal) < 0.02

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])
        with pytest.raises(ValueError):
            mann_whitney_u([1.0], [])

    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=12),
        st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=12),
    )
    def test_p_in_range_and_u_pair_sums(self, a, b):
        u_a, p = mann_whitney_u(a, b)
        u_b, p_swapped = mann_whitney_u(b, a)
        assert 0.0 <= p <= 1.0
        assert u_a + u_b == pytest.approx(len(a) * len(b), abs=1e-9)
        assert p == pytest.approx(p_swapped, abs=1e-12)

    def test_location_shift_is_detected(self, rng):
        a = rng.normal(0.0, 1.0, size=40)
        b = rng.normal(2.0, 1.0, size=40)
        _, p = mann_whitney_u(a, b)
        assert p < 1e-6


class TestMeanConfidenceInterval:
    def test_single_value(self):
        mean, std, low, high = mean_confidence_interval([5.0])
        assert (mean, std, low, high) == (5.0, 0.0, 5.0, 5.0)

    def test_interval_brackets_mean(self, rng):
        values = rng.normal(10.0, 2.0, size=50)
        mean, std, low, high = mean_confidence_interval(values)
        assert low < mean < high
        assert std == pytest.approx(values.std(ddof=1))
        assert high - mean == pytest.approx(1.96 * std / math.sqrt(50))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])
