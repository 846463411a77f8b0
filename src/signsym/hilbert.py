"""Bigraded dimension counting for the diagonally invariant ring.

The bigraded Hilbert series of the invariant ring is the flag-major
pair-generating function of the group divided by the product of
(1 - s^(2i)) (1 - t^(2i)) for i = 1..n.  This module computes the series
by truncated formal expansion, counts the dimensions it predicts as
ordered monomials, and verifies degreewise that the averaged descent
monomials together with monomial symmetric functions in the squared
variables span each bidegree slice with exactly the right cardinality.
Verification follows the paper's bijection: each ordered monomial of a
cell decomposes as x^(2 nu) y^(2 mu) c_sigma, and the candidate it names
is built only at the ordered monomials, which fix an invariant, by the
kernel that straightening uses.  Each candidate is one integer row: its
orbit sums, the kernel's term counts, at the positions of the cell's
columns, numbered in decreasing order.  On invariants the orbit sum at
w is the orbit size times the coefficient at w, which is injective, so
the rank of the rows is the rank of the candidates.  It is taken by
echelon form with each row's lead at its smallest position, the
triangularity of the paper's freeness proof.  Only the series
numerator scans the group: ``series_table`` hands out the widest table
of a rank built so far, which holds every smaller total, and builds a
wider one, with one scan, only for a total beyond it.  A caller that
reads its cells from one ``series_table`` at its largest total scans
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from . import descent_basis, scan
from .descent_basis import cell_columns, decompose, ordered_monomials, product_coefficients
from .poly import Monomial
from .signed_perm import ENUMERATION_GUARD, RankGuardError, check_rank, group_order

#: Rank cap for the plain-permutation equidistribution check.
MAJ_INV_GUARD = 7

#: Cap on the entries of one dense series table, (total + 1)^2 for the
#: largest total asked for, so total degree 499 at most.  At the cap the
#: table takes about 0.04 s per unit of rank on top of the numerator
#: scan (0.2 s besides the scan's 0.03 s at rank 6 on a 2-vCPU Xeon)
#: and raises the peak RSS of a rank-6 build from 16 to 27 MB; four
#: times the cap took 0.32 s and 46 MB at rank 2.
SERIES_TABLE_GUARD = 250_000


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


def _check_rank(n: int) -> None:
    check_rank(n)
    if n > ENUMERATION_GUARD:
        raise RankGuardError(f"rank {n} exceeds the guard {ENUMERATION_GUARD}: the group has {group_order(n)} elements")


def fmaj_numerator(n: int) -> BiSeries:
    """Generating function counting elements by (fmaj of inverse, fmaj).

    The total mass is the group order and the coefficient table is
    symmetric under swapping the two degrees, since inversion is an
    involution.
    """
    _check_rank(n)
    counts = scan.fmaj_pair_counts(n)
    return BiSeries(counts, truncation=2 * n * n)


def fmaj_distribution(n: int) -> dict[int, int]:
    """Distribution of fmaj alone, the column marginal of the numerator."""
    numerator = fmaj_numerator(n)
    out: dict[int, int] = {}
    for (_, b), c in numerator.coefficients.items():
        out[b] = out.get(b, 0) + c
    return out


def _series_table(n: int, max_total: int) -> tuple[tuple[int, ...], ...]:
    # Dense table of series coefficients for a + b <= max_total (indices
    # run to max_total in each axis; entries beyond the diagonal are
    # still exact).  Division by (1 - s^(2i)) is an in-place prefix sum
    # with stride 2i, and likewise for t.
    size = max_total + 1
    table = [[0] * size for _ in range(size)]
    for (a, b), c in fmaj_numerator(n).coefficients.items():
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


@lru_cache(maxsize=None)
def _widest_table(n: int) -> list[tuple[tuple[int, ...], ...]]:
    # One slot per rank holding the widest table built so far; a cache
    # clear drops it with the other caches.
    return [()]


def series_table(n: int, max_total: int) -> tuple[tuple[int, ...], ...]:
    """Series coefficients of rank n: entry [a][b] is that of s^a t^b, for every a + b <= max_total.

    The numerator behind the series scans the whole group, so ranks above
    ``ENUMERATION_GUARD`` are refused.  A total whose dense table would
    exceed ``SERIES_TABLE_GUARD`` entries is refused before anything is
    built, and so is a total that is not a non-negative integer.  The
    widest table of the rank is handed out while it holds ``max_total``;
    a larger total builds one table at that total, which replaces it.
    """
    _check_rank(n)
    if type(max_total) is not int or max_total < 0:
        raise ValueError(f"total degree {max_total!r} is not a non-negative integer")
    entries = (max_total + 1) ** 2
    if entries > SERIES_TABLE_GUARD:
        raise ValueError(
            f"total degree {max_total} needs a series table of {entries} entries, "
            f"above the cap of {SERIES_TABLE_GUARD}"
        )
    held = _widest_table(n)
    if len(held[0]) <= max_total:
        held[0] = _series_table(n, max_total)
    return held[0]


def _check_degrees(a: int, b: int) -> None:
    if type(a) is not int or type(b) is not int or a < 0 or b < 0:
        raise ValueError(f"degrees ({a!r}, {b!r}) are not non-negative integers")


def series_coefficient(n: int, a: int, b: int) -> int:
    """Coefficient of s^a t^b in the bigraded Hilbert series, read from ``series_table(n, a + b)``."""
    _check_degrees(a, b)
    return series_table(n, a + b)[a][b]


def invariant_dimension(n: int, a: int, b: int) -> int:
    """Dimension of the bidegree-(a, b) slice of the invariant ring.

    Counts the ordered monomials of the bidegree.  A monomial with an odd
    slot averages to 0, and the averages of the remaining monomials span
    the slice; ordered monomials have every slot even and meet each such
    orbit exactly once, and averages of distinct orbits have disjoint
    supports, so they form a basis.  Degrees are checked as in
    ``series_coefficient``; ``ordered_monomials`` checks the rank.
    """
    _check_degrees(a, b)
    return sum(1 for _ in ordered_monomials(n, a, b))


def _leading_column_rank(rows: Iterable[Mapping[int, int | Fraction]]) -> int:
    """Exact rank of sparse rows, each mapping column positions to nonzero entries.

    Echelon form by leading columns: a row's lead is its smallest
    position.  While the lead belongs to a pivot, the matching multiple
    of that pivot row is subtracted, which only leaves larger positions;
    a row that empties is dependent, and otherwise it becomes the pivot
    of its lead.  Integer entries stay exact: each factor is a Fraction.
    """
    pivots: dict[int, dict[int, int | Fraction]] = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            factor = Fraction(row[lead], pivot[lead])
            for j, c in pivot.items():
                value = row.get(j, 0) - factor * c
                if value:
                    row[j] = value
                else:
                    del row[j]
    return len(pivots)


def candidate_rows(n: int, a: int, b: int) -> tuple[list[Monomial], Iterator[dict[int, int]]]:
    """The ordered columns of cell (a, b) in decreasing order, and one row per column.

    Row j is lazy: ``decompose`` splits column j as x^(2 nu) y^(2 mu)
    c_sigma, and ``product_coefficients`` gives the orbit sums, as term
    counts, of m_nu(x^2) m_mu(y^2) rho(c_sigma) at the column positions
    of the cell that ``cell_columns`` numbers.  The product is zero at every
    larger column, so row j is nonzero at j and at larger positions only.
    Rows and rank for every cell up to total degree 16 take about
    1.2 s at rank 8 (5,448 columns), and up to degree 20 about 1.2 s
    at rank 4 (13,238 columns), on a 2-vCPU Xeon.  A bad rank or degree
    is refused by ``ordered_monomials``, which ``cell_columns`` draws at once.
    """
    columns, index = cell_columns(n, a, b, descent_basis.COLUMN_GUARD)
    return columns, (product_coefficients(dec, index) for dec in map(decompose, columns))


@dataclass(frozen=True)
class CellReport:
    """Result of the degreewise freeness check at one bidegree cell."""

    n: int
    a: int
    b: int
    rank: int
    dim: int
    series: int

    @property
    def generators(self) -> int:
        """One candidate is built per column, so this is ``dim``."""
        return self.dim

    @property
    def passed(self) -> bool:
        return self.rank == self.dim == self.series

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


def verify_basis_rank(n: int, a: int, b: int) -> CellReport:
    """Check rank = dimension = series coefficient at one bidegree cell.

    Builds one candidate m_nu(x^2) m_mu(y^2) rho(c_sigma) per ordered
    monomial, as the integer row of ``candidate_rows``, and takes their
    exact rank by echelon form on leading columns.  A row holds the
    candidate's orbit sums at the ordered monomials, one per orbit.  On
    invariants the orbit sum at w is the orbit size times the coefficient
    at w, which is injective, so this is the rank over the full support.

    The check is complete.  Let C be the paper's candidates: each sigma
    whose (fmaj sigma^-1, fmaj sigma) fits inside (a, b) with even slack,
    with each partition pair (nu, mu) filling the slack.  The series
    coefficient is |C|: its numerator counts sigma by that pair, and its
    denominator counts nu and mu.  Let D be the candidates built from the
    columns: ``decompose`` puts each in C, and |D| = dim.  rank = dim
    forces the elements of D to be distinct, and dim = series then gives
    D = C, a basis of the cell.  There is one candidate per column, so
    ``dim`` and ``generators`` both count the columns.  The series is
    read first, so that its guards, and a series above
    ``descent_basis.COLUMN_GUARD`` columns, refuse a cell before any
    candidate is built.
    """
    series = series_coefficient(n, a, b)
    if series > descent_basis.COLUMN_GUARD:
        raise ValueError(f"cell ({a}, {b}) has {series} ordered columns, above the cap of {descent_basis.COLUMN_GUARD}")
    columns, rows = candidate_rows(n, a, b)
    return CellReport(n=n, a=a, b=b, rank=_leading_column_rank(rows), dim=len(columns), series=series)


def maj_inv_equidistribution(n: int) -> bool:
    """Whether major index and inversion number are equidistributed on
    plain permutations of 1..n; ranks above ``MAJ_INV_GUARD`` are refused."""
    check_rank(n)
    if n > MAJ_INV_GUARD:
        raise RankGuardError(f"rank {n} exceeds the guard {MAJ_INV_GUARD}: {math.factorial(n)} permutations")
    return scan.maj_counts(n) == scan.inv_counts(n)
