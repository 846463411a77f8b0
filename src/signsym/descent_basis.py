"""Descent monomial families, ordered monomials, and exponent decomposition.

Four monomial constructors are provided: the plain descent monomial and
its signed variant in the x family alone, and the diagonal versions that
pair statistics of an element with statistics of its inverse across the
two variable families.  The ordered monomials form a transversal of the
averaging orbits; every ordered monomial decomposes as an even part
times a diagonal signed descent monomial.  ``product_coefficients``
builds the basis product named by such a decomposition at the ordered
monomials of one bidegree, the one kernel behind straightening and the
freeness check.  m_nu(x^2) m_mu(y^2) is invariant, so the product is
the average of m_nu(x^2) m_mu(y^2) c_sigma, whose terms all have
coefficient 1: its orbit sum at a column, as ``poly.orbit_sums`` keys
it, is the number of terms in the column's orbit.  The kernel returns
those term counts as plain integers at column positions;
``cell_columns`` draws the columns of a bidegree, under
``COLUMN_GUARD``, numbers them in decreasing order and keys them by
orbit, each exponent pair coded as one int by ``pair_codes``, so each
term is one sort of ints and one lookup.  The rearrangements of 2*nu
are scaled by the code's base once per (nu, base) and merged into
classes once per (nu, sigma) and bidegree.  What depends on sigma
alone, c_sigma, the slot order it reads the y side along and the slot
pairs its ties compare, is built once per sigma, and a column finds it
by one lookup of its y exponents, which fix sigma.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache, reduce
from itertools import groupby, islice
from operator import add, ge, or_, sub

from .poly import Monomial, distinct_permutations
from .signed_perm import (
    SignedPermutation,
    Value,
    check_degree,
    check_rank,
    statistics,
    window_descent_counts,
    window_inverse,
)

#: Cap on the ordered columns, one basis product each, of a ``straighten``
#: call or a ``verify`` run: ``verify --n 1 --max-degree 499`` builds 62,500
#: in 2.3 s and 57 MB, ``--n 3 --max-degree 34`` 90,465 in 2.6-3.2 s and
#: 17 MB (2-vCPU Xeon).
COLUMN_GUARD = 100_000


def check_columns(count: int, what: str, *args: object) -> None:
    """Refuse ``count`` ordered columns past ``COLUMN_GUARD``.  The message, built
    only then, is ``what`` formatted with ``args`` and with ``count`` as
    ``{count}``, followed by the cap."""
    if count > COLUMN_GUARD:
        raise ValueError(f"{what.format(*args, count=count)} the cap of {COLUMN_GUARD}")


def _require_positive(pi: SignedPermutation, kind: str) -> None:
    for pos, v in enumerate(pi.window, start=1):
        if v < 0:
            raise ValueError(
                f"{kind} requires an all-positive window; entry {v} at position {pos}"
            )


def _placed(sigma: SignedPermutation, values: tuple[int, ...]) -> tuple[int, ...]:
    # values[i] placed at slot |sigma(i)|
    out = [0] * sigma.n
    for i, v in enumerate(sigma.window):
        out[abs(v) - 1] = values[i]
    return tuple(out)


def descent_monomial(pi: SignedPermutation) -> Monomial:
    """Product of x_{pi(i)}^{d_i(pi)} for a plain permutation pi.

    The total degree equals the major index of pi.
    """
    _require_positive(pi, "descent_monomial")
    return Monomial(_placed(pi, statistics(pi).d), (0,) * pi.n)


def signed_descent_monomial(sigma: SignedPermutation) -> Monomial:
    """Product of x_{|sigma(i)|}^{f_i(sigma)}; total degree fmaj(sigma)."""
    return Monomial(_placed(sigma, statistics(sigma).f), (0,) * sigma.n)


def diagonal_descent_monomial(pi: SignedPermutation) -> Monomial:
    """Product of x_i^{d_i(pi^-1)} y_{pi(i)}^{d_i(pi)} for plain pi."""
    _require_positive(pi, "diagonal_descent_monomial")
    return Monomial(statistics(pi.inverse()).d, _placed(pi, statistics(pi).d))


def diagonal_signed_descent_monomial(sigma: SignedPermutation) -> Monomial:
    """Product of x_i^{f_i(sigma^-1)} y_{|sigma(i)|}^{f_i(sigma)}.

    Total degree fmaj(sigma) + fmaj(sigma^-1); the result is always an
    ordered monomial, and matching x and y exponents share parity.
    """
    return Monomial(statistics(sigma.inverse()).f, _placed(sigma, statistics(sigma).f))


def sign_twist(v: int) -> int:
    """Identity on even integers, negation on odd ones."""
    return v if v % 2 == 0 else -v


def is_ordered(m: Monomial) -> bool:
    """Membership in the ordered transversal.

    Requires every p_k + q_k even and the pairs (p_k, sign_twist(q_k))
    weakly decreasing in lexicographic order.
    """
    if m.odd_slot() is not None:
        return False
    pairs = [(pi, sign_twist(qi)) for pi, qi in zip(m.p, m.q)]
    return all(pairs[i] >= pairs[i + 1] for i in range(len(pairs) - 1))


def signed_index_permutation(m: Monomial) -> SignedPermutation:
    """The element sorting the y exponents of an ordered monomial.

    Its window visits positions with q decreasing; a position j appears
    positively when q_j is even and negatively when q_j is odd, and tie
    blocks are arranged with increasing window values.
    """
    if not is_ordered(m):
        raise ValueError("signed index permutation is only defined for ordered monomials")
    return SignedPermutation(_index_window(m.q))


def _index_window(q: tuple[int, ...]) -> tuple[int, ...]:
    # The window that sorts the y exponents q: the signed slots sorted by
    # (-q_j, signed slot); no two pairs tie.
    return tuple([s for _, s in sorted([(-v, -j if v % 2 else j) for j, v in enumerate(q, start=1)])])


def order_key(m: Monomial) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sort key realizing the total order on ordered monomials.

    The first component lists both exponent vectors independently sorted
    in decreasing order; the second breaks ties by (p, sign_twist(q)).
    Comparing keys with the usual tuple order compares monomials.
    """
    head = tuple(sorted(m.p, reverse=True)) + tuple(sorted(m.q, reverse=True))
    tail = m.p + tuple(sign_twist(v) for v in m.q)
    return (head, tail)


def compare(m: Monomial, w: Monomial) -> int:
    """Total order on ordered monomials: -1, 0, or 1 for <, =, >.

    Keys equal forces the monomials equal, so this is antisymmetric.
    """
    if m.n != w.n:
        raise ValueError(f"rank mismatch: {m.n} vs {w.n}")
    for arg in (m, w):
        if not is_ordered(arg):
            raise ValueError(f"{arg.text()} is not an ordered monomial")
    km, kw = order_key(m), order_key(w)
    if km < kw:
        return -1
    if km > kw:
        return 1
    return 0


class Decomposition(Value, namedtuple("Decomposition", "sigma nu delta mu gamma")):
    """Witness of p = 2*nu + delta and q = 2*mu + gamma for an ordered monomial.

    ``sigma`` is the signed index permutation; delta and gamma are the
    flag numbers of sigma^-1 and sigma placed at the matching positions,
    so the source monomial equals x^(2*nu) y^(2*mu) times the diagonal
    signed descent monomial of sigma.  nu, delta, mu and gamma are tuples.
    """

    __slots__ = ()


def _check(condition: bool, message: str, *args: object) -> None:
    # The decomposition facts always hold for ordered inputs; a failure
    # here means a statistics bug upstream and must not be suppressed.
    # The message is formatted with ``args`` only on failure.
    if not condition:
        raise RuntimeError(f"internal decomposition invariant violated: {message.format(*args)}")


@lru_cache(maxsize=None)
def _descent_data(window: tuple[int, ...]) -> tuple[SignedPermutation, tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[tuple[str, int, int], ...]]:
    # sigma with the exponents (delta, gamma) of c_sigma, once per window,
    # with the checks that depend on sigma alone.  delta_i is the flag
    # number f_i = 2 d_i + eps_i of sigma^-1, and gamma at slot |sigma(i)|
    # that of sigma, both read in one pass from the descent counts of the
    # two windows and their signs.  ``order`` lists those slots |sigma(i)|
    # - 1 by position, the order that gamma and mu decrease along.  The
    # slot pairs (i, j) the tie checks compare are j and the previous slot
    # i of its value in delta, and likewise in gamma, which covers every
    # pair of slots sharing a value.
    sigma = SignedPermutation(window)
    inverse = window_inverse(window)
    order = tuple([abs(v) - 1 for v in window])
    delta = [0] * len(window)
    gamma = [0] * len(window)
    counts = zip(order, window_descent_counts(window), window, window_descent_counts(inverse), inverse)
    for i, (k, d, v, d_inv, v_inv) in enumerate(counts):
        delta[i] = 2 * d_inv + (v_inv < 0)
        gamma[k] = 2 * d + (v < 0)
    delta, gamma = tuple(delta), tuple(gamma)
    _check(all(map(ge, delta, delta[1:])), "delta not weakly decreasing")
    gamma_along = [gamma[i] for i in order]
    _check(all(map(ge, gamma_along, gamma_along[1:])), "gamma not weakly decreasing along sigma")
    ties = []
    for name, seq in (("delta", delta), ("gamma", gamma)):
        previous: dict[int, int] = {}
        for j, v in enumerate(seq):
            if v in previous:
                ties.append((name, previous[v], j))
            previous[v] = j
    return sigma, delta, gamma, order, tuple(ties)


@lru_cache(maxsize=None)
def _y_descent_data(q: tuple[int, ...]) -> tuple[SignedPermutation, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    # sigma, delta, gamma and mu for the ordered monomials with y
    # exponents q: q alone fixes the signed index permutation, and with it
    # mu and the checks on the y side, so a column finds them by one
    # lookup.  mu is halved and checked along sigma, and within each value
    # of delta, and of gamma, the twisted q must weakly decrease.
    sigma, delta, gamma, order, ties = _descent_data(_index_window(q))
    mu = _halves(q, gamma, "q - gamma")
    mu_along = [mu[i] for i in order]
    _check(all(map(ge, mu_along, mu_along[1:])), "mu not weakly decreasing along sigma")
    twisted = list(map(sign_twist, q))
    broken = next(((name, i + 1, j + 1) for name, i, j in ties if twisted[i] < twisted[j]), None)
    _check(broken is None, "{} tie at slots {},{} breaks the twist order", *(broken or ()))
    return sigma, delta, gamma, mu


def _halves(exps: tuple[int, ...], flags: tuple[int, ...], what: str) -> tuple[int, ...]:
    # (exps - flags) / 2.  The differences are all even and non-negative
    # exactly when their bitwise or is, so one pass checks every slot;
    # the first slot that fails is looked for only then.
    rest = list(map(sub, exps, flags))
    bits = reduce(or_, rest, 0)
    if bits < 0 or bits & 1:
        slot = next(i for i, v in enumerate(rest, start=1) if v < 0 or v % 2)
        _check(False, "{} not even non-negative at slot {}", what, slot)
    return tuple([v >> 1 for v in rest])


def decompose(m: Monomial) -> Decomposition:
    """Split an ordered monomial as x^(2*nu) y^(2*mu) times a descent monomial.

    All structural facts (evenness and non-negativity of the halved
    parts, the monotonicity of each sequence, and the tie conditions)
    are revalidated at runtime and raise RuntimeError on violation.
    delta and gamma are the exponents of
    ``diagonal_signed_descent_monomial(sigma)``, built and checked once
    per sigma, with the slot pairs whose ties the twist order must
    respect.  The y exponents fix sigma, so mu and the checks on the y
    side run once per y exponent vector, and nu is checked in one pass
    per monomial.  A monomial that is not ordered is refused with
    ValueError.
    """
    if not is_ordered(m):
        raise ValueError("decompose is only defined for ordered monomials")
    return _decompose(m)


def _decompose(m: Monomial) -> Decomposition:
    # ``decompose`` for a monomial already known to be ordered, such as a
    # column that ``ordered_monomials`` built; every check but that one.
    sigma, delta, gamma, mu = _y_descent_data(m.q)
    nu = _halves(m.p, delta, "p - delta")
    _check(all(map(ge, nu, nu[1:])), "nu not weakly decreasing")
    return Decomposition(sigma, nu, delta, mu, gamma)


def partitions_fixed_length(total: int, length: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing tuples of ``length`` non-negative integers summing to ``total``."""
    if total < 0:
        return
    if length == 0 or total == 0:
        if total == 0:
            yield (0,) * length
        return
    hi = total if cap is None else min(total, cap)
    lo = -(-total // length)  # smallest feasible first part
    for first in range(hi, lo - 1, -1):
        for rest in partitions_fixed_length(total - first, length - 1, first):
            yield (first,) + rest


def _tie_block_fills(free: int, blocks: list[tuple[int, int]]) -> Iterator[tuple[int, ...]]:
    # The y exponents over consecutive tie blocks (length, parity) of an
    # ordered x exponent: even on an even block and weakly decreasing,
    # odd on an odd block and weakly increasing, so that the twisted
    # pairs decrease.  ``free`` is half of what the y degree leaves once
    # every odd slot holds 1; each block takes a partition of its share.
    # The tails are walked afresh for each head, so a caller that stops
    # early has built no more columns than it drew.
    if not blocks:
        if free == 0:
            yield ()
        return
    (length, odd), rest = blocks[0], blocks[1:]
    for share in range(free + 1) if rest else (free,):
        for part in partitions_fixed_length(share, length):
            head = tuple(2 * v + 1 for v in reversed(part)) if odd else tuple(2 * v for v in part)
            for tail in _tie_block_fills(free - share, rest):
                yield head + tail


def ordered_monomials(n: int, a: int, b: int) -> Iterator[Monomial]:
    """All ordered monomials of rank n with x-degree a and y-degree b.

    p runs over the partitions of a; each tie block of p takes its y
    exponents directly in the order the transversal needs, so no
    exponent pair is built and then refused.  ``check_rank`` and
    ``check_degree`` refuse the arguments at the call, before any monomial
    is drawn.
    """
    check_rank(n)
    check_degree(a)
    check_degree(b)
    return _ordered_monomials(n, a, b)


def _ordered_monomials(n: int, a: int, b: int) -> Iterator[Monomial]:
    # The walk of ``ordered_monomials``, once its arguments have passed.
    for p in partitions_fixed_length(a, n):
        odd = sum(v % 2 for v in p)
        if b < odd or (b - odd) % 2:
            continue
        blocks = [(len(list(tie)), v % 2) for v, tie in groupby(p)]
        for q in _tie_block_fills((b - odd) // 2, blocks):
            # partitions and tie-block fills are non-negative ints, n of each
            yield Monomial._from_checked(p, q)


@lru_cache(maxsize=None)
def doubled_rearrangements(part: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The distinct rearrangements of 2*part, for a weakly decreasing ``part``.

    These are the exponents of m_part(x^2) or m_part(y^2).  Callers pass
    each partition in that one order, so that it has one cache entry.
    """
    return tuple(distinct_permutations(2 * v for v in part))


def pair_codes(xs: tuple[int, ...], ys: tuple[int, ...], base: int) -> tuple[int, ...]:
    """The exponent pairs (x_i, y_i) coded as the ints x_i * base + y_i.

    While every y_i is below ``base`` the code is one-to-one on pairs and
    orders them as tuples are ordered, so sorted codes name an averaging
    orbit as ``poly.orbit_key`` names it, one int per slot in place of a
    pair.  Within one bidegree (a, b) every y exponent is at most b, and
    ``cell_columns`` takes base = b + 1.  The code is linear: the codes
    of (x + r, y + s) are those of (x, y) with r * base + s added, so long
    as y + s stays below ``base``.
    """
    return tuple(map(add, map(base.__mul__, xs), ys))


class ColumnIndex(dict):
    """The position of each ordered column of one bidegree, keyed by its
    sorted ``pair_codes`` at ``base``.

    ``classes`` holds the class table of each (nu, sigma) that
    ``product_coefficients`` has met in the bidegree, so that the columns
    sharing nu and sigma, which differ only in mu, build it once; it
    lives as long as the index.
    """

    __slots__ = ("base", "classes")

    def __init__(self, columns: list[Monomial], base: int):
        super().__init__((tuple(sorted(pair_codes(w.p, w.q, base))), j) for j, w in enumerate(columns))
        self.base = base
        self.classes: dict[tuple[tuple[int, ...], SignedPermutation], dict[tuple[int, ...], int]] = {}


def cell_columns(n: int, a: int, b: int, drawn: int = 0) -> tuple[list[Monomial], ColumnIndex]:
    """The ordered monomials of bidegree (a, b) in decreasing order, and their
    ``ColumnIndex``, so position 0 is the largest column.

    The index keys each column by its exponent pairs coded as the ints
    p_i * (b + 1) + q_i and sorted, so that a product term is looked up
    by one sort of ints.  A caller that has already drawn ``drawn``
    columns, at most ``COLUMN_GUARD``, passes that count.  At most one
    column past the cap is drawn, and a bidegree that takes the count
    past it is refused before any column is sorted.
    """
    columns = list(islice(ordered_monomials(n, a, b), COLUMN_GUARD - drawn + 1))
    check_columns(drawn + len(columns), "bidegree ({}, {}) takes the ordered columns past", a, b)
    columns.sort(key=_column_key, reverse=True)
    return columns, ColumnIndex(columns, b + 1)


def _column_key(w: Monomial) -> tuple[tuple[int, ...], list[int], list[int]]:
    # ``order_key`` for a column, whose p is a partition and so its own
    # sorted form: (p, q sorted down) orders as the head and, p being
    # equal, the twisted q as the tail.
    q = w.q
    return w.p, sorted(q, reverse=True), [-v if v & 1 else v for v in q]


@lru_cache(maxsize=None)
def _scaled_rearrangements(nu: tuple[int, ...], base: int) -> tuple[tuple[int, ...], ...]:
    # The distinct rearrangements of 2*nu with every entry times ``base``,
    # the x halves of their pair codes.
    return tuple([tuple([v * base for v in r]) for r in doubled_rearrangements(nu)])


@lru_cache(maxsize=None)
def _y_rearrangements(mu: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    # ``doubled_rearrangements`` of mu's partition, for mu in any order.
    return doubled_rearrangements(tuple(sorted(mu, reverse=True)))


def _classes(dec: Decomposition, base: int) -> dict[tuple[int, ...], int]:
    # The distinct rearrangements r of 2*nu, counted by the sorted codes
    # of the pairs (r_i + delta_i, gamma_i), each r_i * base plus the code
    # of (delta_i, gamma_i).  The pair sequences of two r in one class
    # differ by a permutation of the slots; applied to s it permutes the
    # rearrangements of 2*mu and keeps each term's orbit, so as s runs
    # over all of them both r meet each orbit equally often.
    flags = pair_codes(dec.delta, dec.gamma, base)
    classes: dict[tuple[int, ...], int] = {}
    for r in _scaled_rearrangements(dec.nu, base):
        key = tuple(sorted(map(add, r, flags)))
        classes[key] = classes.get(key, 0) + 1
    return classes


def product_coefficients(dec: Decomposition, index: ColumnIndex) -> dict[int, int]:
    """Term counts of m_nu(x^2) m_mu(y^2) rho(c_sigma) at the positions of ``index``.

    c_sigma is x^delta y^gamma, and m_nu(x^2) m_mu(y^2) is invariant, so
    the product is rho of the sum of x^(r + delta) y^(s + gamma) over the
    distinct rearrangements r of 2*nu and s of 2*mu.  Those terms are
    distinct, each has coefficient 1, and every slot has an even total
    because delta_i and gamma_i share parity.  rho keeps each orbit's
    sum, so the product's orbit sum at a column is the number of terms
    in its orbit.  The returned map sends each column position with a
    nonzero count to that count, an int.
    The r are walked once per class of ``_classes``, weighted by the
    class size; the class table of (nu, sigma) is built once per
    ``index``, from the rearrangements of 2*nu scaled by the base once per
    (nu, base).  A class holds its pairs as codes, and adding s to the
    codes adds it to the y exponents, since no term's y exponent reaches
    the base, so each term's key is one sort of ints and its position one
    lookup.  ``index`` must
    hold every column of the product's bidegree; a term outside it
    raises RuntimeError.
    """
    table = (dec.nu, dec.sigma)
    classes = index.classes.get(table)
    if classes is None:
        classes = index.classes[table] = _classes(dec, index.base)
    counts: dict[int, int] = {}
    ss = _y_rearrangements(dec.mu)
    try:
        for codes, weight in classes.items():
            for j in map(index.__getitem__, [tuple(sorted(map(add, codes, s))) for s in ss]):
                counts[j] = counts.get(j, 0) + weight
    except KeyError as missing:
        pairs = tuple(divmod(code, index.base) for code in missing.args[0])
        _check(False, "a product term has the orbit {}, which is not a column", pairs)
    return counts
