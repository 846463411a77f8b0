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
orbit sums, the kernel's term counts keyed by orbit, moved to the
positions of the cell's columns, numbered in decreasing order.  On
invariants the orbit sum at w is the orbit size times the coefficient at
w, which is injective, so the rank of the rows is the rank of the
candidates.  It is taken by
echelon form with each row's lead at its smallest position, the
triangularity of the paper's freeness proof.  Only the series
numerator scans the group: ``series_table`` hands out the widest table
of a rank built so far, which holds every smaller total, and builds a
wider one, with one scan, only for a total beyond it.  A caller that
reads its cells from one ``series_table`` at its largest total scans
once.  The scan runs at the stable rank, not at n: the invariant ring
is Sym^n(W), W spanned by the monomials x^i y^j with i + j even, and
every non-constant element of W has degree at least 2, so up to total
degree D the series of rank n is that of rank max(1, min(n, D // 2)).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from . import scan
from .descent_basis import _check, _decompose, cell_columns, check_columns, ordered_monomials, product_coefficients
from .poly import Monomial
from .signed_perm import ENUMERATION_GUARD, Value, check_degree, check_rank, check_walk

#: Cap on the entries of one dense series table, (total + 1)^2 for the
#: largest total asked for, so total degree 499 at most.  At the cap the
#: table takes about 0.04 s per unit of rank on top of the numerator
#: scan (0.2 s besides the scan's 0.003 s at rank 6 on a 2-vCPU Xeon)
#: and raises the peak RSS of a rank-6 build from 16 to 27 MB; four
#: times the cap took 0.32 s and 46 MB at rank 2.
SERIES_TABLE_GUARD = 250_000


class BiSeries(Value, namedtuple("BiSeries", "coefficients truncation")):
    """Truncated bivariate series with non-negative integer coefficients.

    ``coefficients`` maps (a, b) to the coefficient of s^a t^b.  Only
    strictly positive coefficients are stored; keys never exceed the
    truncation bound in total degree.  Key entries and coefficients must
    be ints; a bool or a Fraction is refused.
    """

    __slots__ = ()

    def __new__(cls, coefficients: Mapping[tuple[int, int], int], truncation: int) -> BiSeries:
        for (a, b), c in coefficients.items():
            if not type(a) is type(b) is type(c) is int:
                raise ValueError(f"key ({a!r}, {b!r}) and coefficient {c!r} must be integers")
            if c <= 0:
                raise ValueError(f"stored coefficient at ({a},{b}) must be positive")
            if a < 0 or b < 0 or a + b > truncation:
                raise ValueError(f"key ({a},{b}) outside truncation {truncation}")
        return tuple.__new__(cls, (coefficients, truncation))

    def coefficient(self, a: int, b: int) -> int:
        return self.coefficients.get((a, b), 0)

    def total_mass(self) -> int:
        return sum(self.coefficients.values())


def fmaj_numerator(n: int) -> BiSeries:
    """Generating function counting elements by (fmaj of inverse, fmaj).

    The total mass is the group order.  The coefficient table is
    symmetric under swapping the two degrees, since inversion is an
    involution, and palindromic, the coefficient at (a, b) equal to the
    one at (n^2 - a, n^2 - b), since negation sigma -> -sigma sends fmaj
    to n^2 - fmaj on both sides; the scan walks a quarter of the group
    and puts both folds back.
    """
    check_walk(n)
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

    A monomial of total degree at most ``max_total`` in the invariant ring
    Sym^n(W) has at most ``max_total // 2`` factors of positive degree, so
    the table is built at the stable rank m = max(1, min(n, max_total //
    2)); entries past the diagonal are those of rank m.  ``check_rank``
    refuses n and ``check_degree`` the total.  A total whose dense table
    would exceed ``SERIES_TABLE_GUARD`` entries is refused before anything
    is built.  The widest table of rank n is handed out while it holds
    ``max_total``; a larger total builds one table at that total, which
    replaces it.  The numerator behind it scans the whole group of rank
    m, so ``check_walk`` refuses m first.
    """
    check_rank(n)
    check_degree(max_total)
    entries = (max_total + 1) ** 2
    if entries > SERIES_TABLE_GUARD:
        raise ValueError(
            f"total degree {max_total} needs a series table of {entries} entries, "
            f"above the cap of {SERIES_TABLE_GUARD}"
        )
    held = _widest_table(n)
    if len(held[0]) <= max_total:
        rank = max(1, min(n, max_total // 2))
        check_walk(rank)
        held[0] = _series_table(rank, max_total)
    return held[0]


def series_coefficient(n: int, a: int, b: int) -> int:
    """Coefficient of s^a t^b in the bigraded Hilbert series, read from ``series_table(n, a + b)``."""
    check_degree(a)
    check_degree(b)
    return series_table(n, a + b)[a][b]


def invariant_dimension(n: int, a: int, b: int) -> int:
    """Dimension of the bidegree-(a, b) slice of the invariant ring.

    Counts the ordered monomials of the bidegree.  A monomial with an odd
    slot averages to 0, and the averages of the remaining monomials span
    the slice; ordered monomials have every slot even and meet each such
    orbit exactly once, and averages of distinct orbits have disjoint
    supports, so they form a basis.  ``ordered_monomials`` checks the
    rank and the degrees.
    """
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
    c_sigma, with every check but ``is_ordered``, which the columns pass
    by construction, and ``product_coefficients`` gives the orbit sums,
    as term counts, of m_nu(x^2) m_mu(y^2) rho(c_sigma), keyed by orbit;
    the row holds them at the column positions of the cell that
    ``cell_columns`` numbers, one class table serving the cell.  A term
    outside the cell raises RuntimeError.  The product is zero at every
    larger column, so row j is nonzero at j and at larger positions only.
    Rows and rank for every cell up to total degree 16 take about
    0.45-0.53 s at rank 8 (5,448 columns), and up to degree 20 about
    0.34-0.41 s at rank 4 (13,238 columns), from cold caches on a 2-vCPU
    Xeon.  A bad rank or degree is refused by ``ordered_monomials``,
    which ``cell_columns`` draws at once; every column of the cell is
    drawn, so ``verify_basis_rank`` checks the cell against
    ``COLUMN_GUARD`` first.
    """
    columns, index = cell_columns(n, a, b)
    classes: dict = {}
    return columns, (_row(product_coefficients(dec, b + 1, classes), index, b + 1) for dec in map(_decompose, columns))


def _row(counts: dict[tuple[int, ...], int], index: dict[tuple[int, ...], int], base: int) -> dict[int, int]:
    # The kernel's counts moved from orbit codes to column positions.
    try:
        return dict(zip(map(index.__getitem__, counts), counts.values()))
    except KeyError as missing:
        _check(False, "a product term has the orbit {}, which is not a column", tuple(divmod(c, base) for c in missing.args[0]))


class CellReport(Value, namedtuple("CellReport", "n a b rank dim series")):
    """Result of the degreewise freeness check at one bidegree cell, all ints."""

    __slots__ = ()

    @property
    def generators(self) -> int:
        """One candidate is built per column, so this is ``dim``."""
        return self.dim

    @property
    def passed(self) -> bool:
        return self.rank == self.dim == self.series

    def to_json(self) -> dict:
        return {**self._asdict(), "generators": self.generators, "pass": self.passed}


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
    read first, so that its guards, and ``check_columns`` on the series,
    refuse a cell before any candidate is built.

    The rows are built at rank min(n, ``ENUMERATION_GUARD``).  The ring is
    Sym^n(W), so a cell of total a + b has the same rank and dim at every
    rank r with (a + b) // 2 <= r <= n: its columns at two such ranks
    match one to one, and the rows at the smaller rank are those at the
    larger with rows and columns scaled by orbit-size ratios.  Past the
    cap the series refuses every cell with (a + b) // 2 above it, so the
    clamped build stays inside that range.  The tests check it against
    the full rank-n build for n = 9, 10 to total 10, n = 12 to total 8 and
    three cells of total 16 at n = 9, and every rank from (a + b) // 2 to
    8 against rank 8 for every cell to total 12.
    """
    series = series_coefficient(n, a, b)
    check_columns(series, "cell ({}, {}) has {count} ordered columns, above", a, b)
    columns, rows = candidate_rows(min(n, ENUMERATION_GUARD), a, b)
    return CellReport(n=n, a=a, b=b, rank=_leading_column_rank(rows), dim=len(columns), series=series)


def _maj_inv_counts(n: int) -> tuple[Counter[int], Counter[int]]:
    # The major index and the inversion number counted over the plain
    # permutations of 1..n, in one walk, which ``check_walk`` refuses past
    # its cap.
    check_walk(n)
    maj: Counter[int] = Counter()
    inv: Counter[int] = Counter()
    for perm in permutations(range(1, n + 1)):
        maj[sum(i for i in range(1, n) if perm[i - 1] > perm[i])] += 1
        inv[sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))] += 1
    return maj, inv


def maj_inv_equidistribution(n: int) -> bool:
    """Whether major index and inversion number are equidistributed on
    plain permutations of 1..n; ``check_walk`` refuses the rank."""
    maj, inv = _maj_inv_counts(n)
    return maj == inv
