"""Bigraded dimension counting for the diagonally invariant ring.

The bigraded Hilbert series of the invariant ring is the flag-major
pair-generating function of the group divided by the product of
(1 - s^(2i)) (1 - t^(2i)) for i = 1..n.  This module computes the series
by truncated formal expansion, counts the dimensions it predicts as
ordered monomials, and verifies degreewise that the averaged descent
monomials together with monomial symmetric functions in the squared
variables span each bidegree slice with exactly the right cardinality.
Verification works in orbit coordinates: an invariant is fixed by its
coefficients at the ordered monomials, so each candidate is built only
there and the rank is taken over those columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping

from . import scan
from .descent_basis import (
    diagonal_signed_descent_monomial,
    ordered_monomials,
    partitions_fixed_length,
)
from .poly import Polynomial, rho
from .signed_perm import (
    ENUMERATION_GUARD,
    RankGuardError,
    SignedPermutation,
    enumerate_group,
    group_order,
)

#: Rank cap for the plain-permutation equidistribution check.
MAJ_INV_GUARD = 7


@dataclass(frozen=True)
class BiSeries:
    """Truncated bivariate series with non-negative integer coefficients.

    Only strictly positive coefficients are stored; keys never exceed the
    truncation bound in total degree.
    """

    coefficients: Mapping[tuple[int, int], int]
    truncation: int

    def __post_init__(self) -> None:
        for (a, b), c in self.coefficients.items():
            if c <= 0:
                raise ValueError(f"stored coefficient at ({a},{b}) must be positive")
            if a < 0 or b < 0 or a + b > self.truncation:
                raise ValueError(f"key ({a},{b}) outside truncation {self.truncation}")

    def coefficient(self, a: int, b: int) -> int:
        return self.coefficients.get((a, b), 0)

    def total_mass(self) -> int:
        return sum(self.coefficients.values())


def _check_rank(n: int, guard: int) -> None:
    if n < 1:
        raise ValueError("rank must be at least 1")
    if n > guard:
        raise RankGuardError(
            f"rank {n} exceeds the guard {guard}: the group has {group_order(n)} elements"
        )


def fmaj_numerator(n: int, guard: int = ENUMERATION_GUARD) -> BiSeries:
    """Generating function counting elements by (fmaj of inverse, fmaj).

    The total mass is the group order and the coefficient table is
    symmetric under swapping the two degrees, since inversion is an
    involution.
    """
    _check_rank(n, guard)
    counts = scan.fmaj_pair_counts(n)
    return BiSeries(counts, truncation=2 * n * n)


def fmaj_distribution(n: int, guard: int = ENUMERATION_GUARD) -> dict[int, int]:
    """Distribution of fmaj alone, the column marginal of the numerator."""
    numerator = fmaj_numerator(n, guard)
    out: dict[int, int] = {}
    for (_, b), c in numerator.coefficients.items():
        out[b] = out.get(b, 0) + c
    return out


@lru_cache(maxsize=None)
def _series_table(n: int, max_total: int) -> tuple[tuple[int, ...], ...]:
    # Dense table of series coefficients for a + b <= max_total (indices
    # run to max_total in each axis; entries beyond the diagonal are
    # still exact).  Division by (1 - s^(2i)) is an in-place prefix sum
    # with stride 2i, and likewise for t.
    size = max_total + 1
    table = [[0] * size for _ in range(size)]
    # series_coefficient has already checked the rank against its guard.
    for (a, b), c in fmaj_numerator(n, guard=n).coefficients.items():
        if a < size and b < size:
            table[a][b] = c
    for i in range(1, n + 1):
        stride = 2 * i
        for a in range(stride, size):
            source = table[a - stride]
            row = table[a]
            for b in range(size):
                row[b] += source[b]
        for a in range(size):
            row = table[a]
            for b in range(stride, size):
                row[b] += row[b - stride]
    return tuple(tuple(row) for row in table)


def series_coefficient(n: int, a: int, b: int, guard: int = ENUMERATION_GUARD) -> int:
    """Coefficient of s^a t^b in the bigraded Hilbert series.

    The numerator behind the series scans the whole group, so ranks
    above ``guard`` are refused as in ``fmaj_numerator``.
    """
    _check_rank(n, guard)
    if a < 0 or b < 0:
        raise ValueError("degrees must be non-negative")
    return _series_table(n, a + b)[a][b]


def invariant_dimension(n: int, a: int, b: int, guard: int = ENUMERATION_GUARD) -> int:
    """Dimension of the bidegree-(a, b) slice of the invariant ring.

    Counts the ordered monomials of the bidegree.  A monomial with an odd
    slot averages to 0, and the averages of the remaining monomials span
    the slice; ordered monomials have every slot even and meet each such
    orbit exactly once, and averages of distinct orbits have disjoint
    supports, so they form a basis.
    """
    _check_rank(n, guard)
    if a < 0 or b < 0:
        raise ValueError("degrees must be non-negative")
    return sum(1 for _ in ordered_monomials(n, a, b))


def _integer_rank(matrix: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination.

    Bareiss pivoting: every division is exact, so the arithmetic stays
    in arbitrary-precision integers throughout.
    """
    m = [row[:] for row in matrix]
    rows = len(m)
    if rows == 0:
        return 0
    cols = len(m[0])
    rank = 0
    prev = 1
    for col in range(cols):
        pivot_row = next((r for r in range(rank, rows) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank]
        for r in range(rank + 1, rows):
            row = m[r]
            factor = row[col]
            for c in range(col, cols):
                row[c] = (row[c] * pivot[col] - factor * pivot[c]) // prev
        prev = pivot[col]
        rank += 1
        if rank == rows:
            break
    return rank


def basis_candidates(
    n: int, a: int, b: int, guard: int = ENUMERATION_GUARD
) -> Iterator[tuple[SignedPermutation, tuple[int, ...], tuple[int, ...], Polynomial]]:
    """Degree-(a, b) products m_nu(x^2) m_mu(y^2) rho(c_sigma) in orbit coordinates.

    Runs over every sigma whose flag bidegree fits inside (a, b) with
    even slack, and every partition pair filling the slack.  Each product
    is invariant, so it is fixed by its coefficients at the ordered
    monomials, and only those are computed: the yielded polynomial is
    the restriction of the product to ``ordered_monomials(n, a, b)``.
    With O the support of rho(c_sigma), where every coefficient is
    1/|O|, the coefficient at an ordered w is count/|O|, counting the
    u in O with w.p - u.p a rearrangement of 2*nu and w.q - u.q a
    rearrangement of 2*mu.
    """
    _check_rank(n, guard)
    columns = list(ordered_monomials(n, a, b))
    for sigma in enumerate_group(n, guard):
        fb = scan.window_fmaj(sigma.window)
        if fb > b or (b - fb) % 2:
            continue
        fa = scan.window_fmaj(scan.window_inverse(sigma.window))
        if fa > a or (a - fa) % 2:
            continue
        base = rho(Polynomial.from_monomial(diagonal_signed_descent_monomial(sigma)), guard)
        orbit = list(base.monomials())
        # Per column, how many u in O leave each pair of sorted
        # differences; a (nu, mu) candidate reads its own pair.
        tallies = []
        for w in columns:
            tally: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
            for u in orbit:
                dp = [x - y for x, y in zip(w.p, u.p)]
                if min(dp) < 0:
                    continue
                dq = [x - y for x, y in zip(w.q, u.q)]
                if min(dq) < 0:
                    continue
                dp.sort(reverse=True)
                dq.sort(reverse=True)
                key = (tuple(dp), tuple(dq))
                tally[key] = tally.get(key, 0) + 1
            tallies.append(tally)
        for nu in partitions_fixed_length((a - fa) // 2, n):
            twice_nu = tuple(2 * v for v in nu)
            for mu in partitions_fixed_length((b - fb) // 2, n):
                key = (twice_nu, tuple(2 * v for v in mu))
                terms = {
                    w: Fraction(tally[key], len(orbit))
                    for w, tally in zip(columns, tallies)
                    if key in tally
                }
                yield sigma, nu, mu, Polynomial(n, terms)


@dataclass(frozen=True)
class CellReport:
    """Result of the degreewise freeness check at one bidegree cell."""

    n: int
    a: int
    b: int
    rank: int
    dim: int
    series: int
    generators: int

    @property
    def passed(self) -> bool:
        return self.rank == self.dim == self.series and self.generators == self.dim

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "a": self.a,
            "b": self.b,
            "rank": self.rank,
            "dim": self.dim,
            "series": self.series,
            "generators": self.generators,
            "pass": self.passed,
        }


def verify_basis_rank(n: int, a: int, b: int, guard: int = ENUMERATION_GUARD) -> CellReport:
    """Check rank = dimension = series coefficient at one bidegree cell.

    Builds every candidate product of monomial symmetric functions in
    the squared variables with an averaged descent monomial in orbit
    coordinates, computes the exact rank of the integer matrix whose
    columns are the ordered monomials by fraction-free elimination, and
    compares against the ordered-monomial dimension and the series
    coefficient.  Restricting an invariant to its ordered coefficients
    is injective, since every orbit meets one ordered monomial, so this
    rank equals the rank over the full support.  Equality of all three
    together with the candidate count is degreewise freeness.
    """
    candidates = [poly for _, _, _, poly in basis_candidates(n, a, b, guard)]
    columns = list({m for poly in candidates for m in poly.monomials()})
    rows = []
    for poly in candidates:
        coefficients = [poly.coefficient(w) for w in columns]
        scale = math.lcm(*(c.denominator for c in coefficients))
        rows.append([c.numerator * (scale // c.denominator) for c in coefficients])
    rank = _integer_rank(rows)
    return CellReport(
        n=n,
        a=a,
        b=b,
        rank=rank,
        dim=invariant_dimension(n, a, b, guard),
        series=series_coefficient(n, a, b, guard),
        generators=len(candidates),
    )


def maj_inv_equidistribution(n: int, guard: int = MAJ_INV_GUARD) -> bool:
    """Whether major index and inversion number are equidistributed on
    plain permutations of 1..n."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    if n > guard:
        raise RankGuardError(
            f"rank {n} exceeds the guard {guard}: {math.factorial(n)} permutations"
        )
    return scan.maj_counts(n) == scan.inv_counts(n)
