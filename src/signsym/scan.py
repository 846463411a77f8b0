"""Exhaustive statistics scans over the signed and plain permutation groups.

Each scan aggregates a statistic over every element of the rank-n
signed permutation group (or the plain symmetric group) straight from
the windows, without building element objects.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator

from .signed_perm import window_fmaj, window_inverse

#: Name of the scan implementation.  Benchmark results record it and
#: refuse to compare runs that differ in it, so it stays even though
#: there is only one implementation.
BACKEND = "python"


def windows(n: int) -> Iterator[tuple[int, ...]]:
    """Every window of the rank-n signed group, each exactly once."""
    for perm in permutations(range(1, n + 1)):
        for mask in range(1 << n):
            yield tuple(-v if (mask >> i) & 1 else v for i, v in enumerate(perm))


def fmaj_pair_counts(n: int) -> dict[tuple[int, int], int]:
    """Counts of (fmaj of inverse, fmaj) over the whole rank-n signed group."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    counts: dict[tuple[int, int], int] = {}
    for w in windows(n):
        key = (window_fmaj(window_inverse(w)), window_fmaj(w))
        counts[key] = counts.get(key, 0) + 1
    return counts


def maj_counts(n: int) -> dict[int, int]:
    """Distribution of the major index over plain permutations of 1..n."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    counts: dict[int, int] = {}
    for perm in permutations(range(1, n + 1)):
        maj = sum(i for i in range(1, n) if perm[i - 1] > perm[i])
        counts[maj] = counts.get(maj, 0) + 1
    return counts


def inv_counts(n: int) -> dict[int, int]:
    """Distribution of the inversion number over plain permutations of 1..n."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    counts: dict[int, int] = {}
    for perm in permutations(range(1, n + 1)):
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        )
        counts[inv] = counts.get(inv, 0) + 1
    return counts
