"""Descent monomial families, ordered monomials, and exponent decomposition.

Four monomial constructors are provided: the plain descent monomial and
its signed variant in the x family alone, and the diagonal versions that
pair statistics of an element with statistics of its inverse across the
two variable families.  The ordered monomials form a transversal of the
averaging orbits; every ordered monomial decomposes as an even part
times a diagonal signed descent monomial.  ``ordered_monomials`` walks
the transversal by its definition, one exponent pair at a time, and
``order_key`` orders it.  ``product_coefficients`` builds the basis
product named by such a decomposition at the ordered monomials of one
bidegree, the one kernel behind straightening and the freeness check.
m_nu(x^2) m_mu(y^2) is invariant, so the product is the average of
m_nu(x^2) m_mu(y^2) c_sigma, whose terms all have coefficient 1: its
orbit sum at a column, as ``poly.orbit_sums`` keys it, is the number of
terms in the column's orbit.  The kernel returns those term counts as
plain integers keyed by orbit, each exponent pair coded as one int by
``pair_codes``, so each term is one sort of ints.  The rearrangements
of 2*nu are scaled by the code's base once per (nu, base) and merged
into classes once per (nu, sigma) in the caller's class table.  What
depends on sigma alone, c_sigma, the slot order it reads the y side
along and the slot pairs its ties compare, is built once per sigma, and
a column finds it by one lookup of its y exponents, which fix sigma.
``cell_columns`` draws every column of one freeness cell in decreasing
order, with the position of each orbit; ``hilbert.verify_basis_rank``
holds the cell to ``COLUMN_GUARD`` first.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache, reduce
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

#: Cap on the ordered columns, one basis product each, of a ``verify`` run or
#: cell: ``verify --n 1 --max-degree 499`` builds 62,500
#: in 2.0-2.3 s and 115 MB peak RSS, ``--n 3 --max-degree 34`` 90,465 in
#: 1.8-2.3 s and 20 MB (2-vCPU Xeon).
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
    """Sort key realizing the total order on ordered monomials, and defined
    only on them.

    The first component lists both exponent vectors sorted in decreasing
    order; the second breaks ties by (p, sign_twist(q)).  Comparing keys
    with the usual tuple order compares monomials.  p is weakly decreasing
    on an ordered monomial, so it is read as it stands; on any other
    monomial the key is not the sorted one, and ``compare`` refuses it.
    """
    p, q = m.p, m.q
    # sign_twist inlined: a call per entry costs a third more, and the key
    # is built once per column of every cell
    return p + tuple(sorted(q, reverse=True)), p + tuple([-v if v & 1 else v for v in q])


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


def ordered_monomials(n: int, a: int, b: int) -> Iterator[Monomial]:
    """All ordered monomials of rank n with x-degree a and y-degree b.

    The walk follows the definition: n exponent pairs (x, y), each with
    x + y even, summing to (a, b), each at most the one before it in
    (x, sign_twist(y)) order, so no pair is built and then refused.
    ``check_rank`` and ``check_degree`` refuse the arguments at the call,
    before any monomial is drawn.
    """
    check_rank(n)
    check_degree(a)
    check_degree(b)
    return _ordered_monomials(n, a, b)


def _ordered_monomials(n: int, a: int, b: int) -> Iterator[Monomial]:
    # The walk of ``ordered_monomials``, once its arguments have passed.
    if (a + b) % 2 == 0:  # every pair has an even total
        for p, q in _pairs(n, a, b, a, b):
            # n non-negative ints each, ordered by construction
            yield Monomial._from_checked(p, q)


def _pairs(k: int, a: int, b: int, top_x: int, top_y: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    # The last k pairs, summing to (a, b), each at most (top_x, top_y) in
    # (x, twisted y) order.  The first x is at least ceil(a / k); the
    # twisted y t shares the parity of x, so y = |t|, and lies in [0, b]
    # for an even x and [-b, -1] for an odd one, at most top_y when
    # x = top_x.  When a = k * x every later x equals it and their t are
    # at most this one's, so k * t is at least the twisted sum, b for an
    # even x and -b for an odd one.  Each range is computed, not filtered,
    # and (0, 0) pads the rest once nothing is left, so the walk is
    # proportional to its output.  x and t run from the largest down, so
    # the first column drawn has at most two nonzero pairs and the
    # recursion starts shallow at any rank.  The tails are walked afresh
    # for each head: a caller that stops early has built no more columns
    # than it drew.
    if a == b == 0:
        yield (0,) * k, (0,) * k
    elif k == 1:
        if a < top_x or (a == top_x and sign_twist(b) <= top_y):
            yield (a,), (b,)
    else:
        for x in range(min(a, top_x), -(-a // k) - 1, -1):
            twisted_b = -b if x & 1 else b
            high = min(top_y if x == top_x else b, -1 if x & 1 else b)
            low = -(-twisted_b // k) if a == k * x else min(twisted_b, 0)
            for t in range(high - ((high - x) & 1), low - 1, -2):
                for xs, ys in _pairs(k - 1, a - x, b - abs(t), x, t):
                    yield (x,) + xs, (abs(t),) + ys


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
    pair.  A cell (a, b) of ``cell_columns`` has no y exponent past b,
    and takes base = b + 1; ``straighten`` takes 1 + the largest y-degree
    of its input's orbits, since each basis product keeps the bidegree of
    its lead.  The code is linear: the codes of (x + r, y + s) are those
    of (x, y) with r * base + s added, so long as y + s stays below
    ``base``.
    """
    return tuple(map(add, map(base.__mul__, xs), ys))


def cell_columns(n: int, a: int, b: int) -> tuple[list[Monomial], dict[tuple[int, ...], int]]:
    """The ordered monomials of bidegree (a, b) in decreasing order, and the
    position of each, so position 0 is the largest column.

    Each position is keyed by the column's exponent pairs coded as the
    ints p_i * (b + 1) + q_i and sorted, the keys of
    ``product_coefficients``.  Every column of the bidegree is drawn:
    ``hilbert.verify_basis_rank`` refuses a cell whose series coefficient,
    its column count, passes ``COLUMN_GUARD`` before it calls here.
    """
    columns = sorted(ordered_monomials(n, a, b), key=order_key, reverse=True)
    return columns, {tuple(sorted(pair_codes(w.p, w.q, b + 1))): j for j, w in enumerate(columns)}


@lru_cache(maxsize=None)
def _scaled_rearrangements(nu: tuple[int, ...], base: int) -> tuple[tuple[int, ...], ...]:
    # The distinct rearrangements of 2*nu with every entry times ``base``,
    # the x halves of their pair codes.
    return tuple([tuple([v * base for v in r]) for r in doubled_rearrangements(nu)])


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


def product_coefficients(dec: Decomposition, base: int, classes: dict) -> dict[tuple[int, ...], int]:
    """Term counts of m_nu(x^2) m_mu(y^2) rho(c_sigma), keyed by the sorted
    ``pair_codes`` at ``base`` of each orbit they meet.

    c_sigma is x^delta y^gamma, and m_nu(x^2) m_mu(y^2) is invariant, so
    the product is rho of the sum of x^(r + delta) y^(s + gamma) over the
    distinct rearrangements r of 2*nu and s of 2*mu.  Those terms are
    distinct, each has coefficient 1, and every slot has an even total
    because delta_i and gamma_i share parity.  rho keeps each orbit's
    sum, so the product's orbit sum at an ordered monomial is the number
    of terms in its orbit, an int.  ``base`` must pass every y exponent
    of the product's bidegree, b + 1 or more at bidegree (a, b).
    The r are walked once per class of ``_classes``, weighted by the
    class size.  ``classes`` holds the class table of each (nu, sigma)
    met so far at ``base``; the caller keeps one per ``straighten`` call
    or ``verify`` cell, at one base, so that the columns sharing nu and
    sigma, which differ only in mu, build it once.  A class holds its
    pairs as codes, and adding s to the codes adds it to the y exponents,
    since no term's y exponent reaches the base, so each term's key is
    one sort of ints.
    """
    if (dec.nu, dec.sigma) not in classes:
        classes[dec.nu, dec.sigma] = _classes(dec, base)
    counts: dict[tuple[int, ...], int] = {}
    ss = doubled_rearrangements(tuple(sorted(dec.mu, reverse=True)))
    for codes, weight in classes[dec.nu, dec.sigma].items():
        for key in [tuple(sorted(map(add, codes, s))) for s in ss]:
            counts[key] = counts.get(key, 0) + weight
    return counts
