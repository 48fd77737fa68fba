"""Rank statistics for comparing method utilities across paired runs."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

# While the larger of the two samples is below this size (and absent ties)
# the exact null distribution of U is used; otherwise the tie-corrected
# normal approximation is accurate enough.
_EXACT_LIMIT = 20


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks, ties receiving the mean of their rank run."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    new_run = np.r_[True, ordered[1:] != ordered[:-1]]
    run_index = np.cumsum(new_run) - 1
    run_sizes = np.bincount(run_index)
    run_ends = np.cumsum(run_sizes)
    # average rank of a run ending at position e with c members: e - (c - 1) / 2
    run_rank = run_ends - (run_sizes - 1) / 2.0
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = run_rank[run_index]
    return ranks


@lru_cache(maxsize=None)
def _u_counts(n: int, m: int) -> tuple[int, ...]:
    """Null distribution of U as arrangement counts for u = 0 .. n*m.

    Conditioning on whether the largest observation belongs to the first
    sample gives counts(u; n, m) = counts(u - m; n - 1, m)
    + counts(u; n, m - 1). Exact integers, so tail sums are exact.
    """
    grid: list[list[list[int]]] = [[[1] for _ in range(m + 1)]]
    for i in range(1, n + 1):
        row: list[list[int]] = [[1]]
        for j in range(1, m + 1):
            size = i * j + 1
            shifted = grid[i - 1][j]
            smaller = row[j - 1]
            counts = [0] * size
            for u in range(size):
                total = 0
                if 0 <= u - j < len(shifted):
                    total += shifted[u - j]
                if u < len(smaller):
                    total += smaller[u]
                counts[u] = total
            row.append(counts)
        grid.append(row)
    return tuple(grid[n][m])


def _exact_two_sided_p(u_min: int, n: int, m: int) -> float:
    counts = _u_counts(n, m)
    total = sum(counts)
    tail = sum(counts[: u_min + 1])
    return min(1.0, 2 * tail / total)


def mann_whitney_u(sample_a: Sequence[float], sample_b: Sequence[float]) -> tuple[float, float]:
    """Two-sided rank-sum test of whether two samples differ in location.

    Returns ``(u, p)`` where ``u`` is the U statistic of ``sample_a``
    (the count of pairs in which an ``a`` value beats a ``b`` value,
    ties counting half). Small untied samples get the exact null
    distribution; larger or tied samples the tie-corrected normal
    approximation with continuity correction. Two samples whose values
    are all identical carry no evidence and yield p = 1.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    n1, n2 = int(a.size), int(b.size)
    combined = np.concatenate([a, b])
    ranks = _average_ranks(combined)
    rank_sum_a = float(ranks[:n1].sum())
    u_a = rank_sum_a - n1 * (n1 + 1) / 2.0
    u_b = n1 * n2 - u_a

    _, tie_sizes = np.unique(combined, return_counts=True)
    has_ties = bool(np.any(tie_sizes > 1))

    if not has_ties and max(n1, n2) < _EXACT_LIMIT:
        u_min = int(round(min(u_a, u_b)))
        return u_a, _exact_two_sided_p(u_min, n1, n2)

    n = n1 + n2
    tie_term = float(np.sum(tie_sizes**3 - tie_sizes))
    correction = 1.0 - tie_term / (n**3 - n)
    if correction <= 0.0:
        # every value identical: the test is degenerate
        return u_a, 1.0
    sd = math.sqrt(correction * n1 * n2 * (n + 1) / 12.0)
    z = (max(u_a, u_b) - n1 * n2 / 2.0 - 0.5) / sd
    return u_a, min(1.0, math.erfc(z / math.sqrt(2.0)))


def mean_confidence_interval(values: Sequence[float]) -> tuple[float, float, float, float]:
    """(mean, sample std, ci95 low, ci95 high) under the normal approximation."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("need at least one value")
    mean = float(x.mean())
    std = float(x.std(ddof=1)) if x.size > 1 else 0.0
    half = 1.96 * std / math.sqrt(x.size)
    return mean, std, mean - half, mean + half
