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
orbit, so each term is one lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, islice
from operator import add, ge
from typing import Iterator

from .poly import Monomial, distinct_permutations, orbit_key
from .signed_perm import SignedPermutation, check_rank, statistics

#: Cap on the ordered columns, one basis product each, of a ``straighten``
#: call or a ``verify`` run: ``verify --n 1 --max-degree 499`` builds 62,500
#: in 4.5 s and 105 MB, ``--n 3 --max-degree 34`` 90,465 in 6 s (2-vCPU Xeon).
COLUMN_GUARD = 100_000


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


def ordered_representative(m: Monomial) -> Monomial:
    """The unique ordered monomial sharing the averaging orbit of ``m``.

    Obtained by sorting the exponent pairs (p_k, sign_twist(q_k)) in
    decreasing order; requires every p_k + q_k even.
    """
    if m.odd_slot() is not None:
        raise ValueError("monomial has a slot with odd total exponent; its average is zero")
    pairs = sorted(
        zip(m.p, m.q), key=lambda pq: (pq[0], sign_twist(pq[1])), reverse=True
    )
    return Monomial(tuple(pq[0] for pq in pairs), tuple(pq[1] for pq in pairs))


def signed_index_permutation(m: Monomial) -> SignedPermutation:
    """The element sorting the y exponents of an ordered monomial.

    Its window visits positions with q decreasing; a position j appears
    positively when q_j is even and negatively when q_j is odd, and tie
    blocks are arranged with increasing window values.
    """
    if not is_ordered(m):
        raise ValueError("signed index permutation is only defined for ordered monomials")
    return SignedPermutation(_index_window(m))


def _index_window(m: Monomial) -> tuple[int, ...]:
    signed = [j if m.q[j - 1] % 2 == 0 else -j for j in range(1, m.n + 1)]
    return tuple(sorted(signed, key=lambda s: (-m.q[abs(s) - 1], s)))


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


@dataclass(frozen=True)
class Decomposition:
    """Witness of p = 2*nu + delta and q = 2*mu + gamma for an ordered monomial.

    ``sigma`` is the signed index permutation; delta and gamma are the
    flag numbers of sigma^-1 and sigma placed at the matching positions,
    so the source monomial equals x^(2*nu) y^(2*mu) times the diagonal
    signed descent monomial of sigma.
    """

    sigma: SignedPermutation
    nu: tuple[int, ...]
    delta: tuple[int, ...]
    mu: tuple[int, ...]
    gamma: tuple[int, ...]


def _check(condition: bool, message: str, *args: object) -> None:
    # The decomposition facts always hold for ordered inputs; a failure
    # here means a statistics bug upstream and must not be suppressed.
    # The message is formatted with ``args`` only on failure.
    if not condition:
        raise RuntimeError(f"internal decomposition invariant violated: {message.format(*args)}")


@lru_cache(maxsize=None)
def _descent_data(window: tuple[int, ...]) -> tuple[SignedPermutation, tuple[int, ...], tuple[int, ...]]:
    # sigma with the exponents (delta, gamma) of c_sigma, once per window,
    # with the checks that depend on sigma alone
    sigma = SignedPermutation(window)
    c = diagonal_signed_descent_monomial(sigma)
    delta, gamma = c.p, c.q
    _check(all(map(ge, delta, delta[1:])), "delta not weakly decreasing")
    gamma_along = [gamma[abs(v) - 1] for v in window]
    _check(all(map(ge, gamma_along, gamma_along[1:])), "gamma not weakly decreasing along sigma")
    return sigma, delta, gamma


def decompose(m: Monomial) -> Decomposition:
    """Split an ordered monomial as x^(2*nu) y^(2*mu) times a descent monomial.

    All structural facts (evenness and non-negativity of the halved
    parts, the monotonicity of each sequence, and the tie conditions)
    are revalidated at runtime and raise RuntimeError on violation.
    delta and gamma are the exponents of
    ``diagonal_signed_descent_monomial(sigma)``, built and checked once
    per sigma.
    """
    if not is_ordered(m):
        raise ValueError("decompose is only defined for ordered monomials")
    window = _index_window(m)
    sigma, delta, gamma = _descent_data(window)
    n = m.n

    nu = []
    mu = []
    for i in range(n):
        rest_p = m.p[i] - delta[i]
        _check(rest_p >= 0 and rest_p % 2 == 0, "p - delta not even non-negative at slot {}", i + 1)
        nu.append(rest_p // 2)
        rest_q = m.q[i] - gamma[i]
        _check(rest_q >= 0 and rest_q % 2 == 0, "q - gamma not even non-negative at slot {}", i + 1)
        mu.append(rest_q // 2)
    nu = tuple(nu)
    mu = tuple(mu)

    _check(all(map(ge, nu, nu[1:])), "nu not weakly decreasing")
    mu_along = [mu[abs(v) - 1] for v in window]
    _check(all(map(ge, mu_along, mu_along[1:])), "mu not weakly decreasing along sigma")
    # Within each value of delta, and of gamma, the twisted q must weakly
    # decrease; checking each slot against the previous slot of its value
    # covers every pair.
    twisted = [sign_twist(v) for v in m.q]
    for name, seq in (("delta", delta), ("gamma", gamma)):
        previous: dict[int, int] = {}
        for j, v in enumerate(seq):
            i = previous.get(v)
            if i is not None:
                _check(
                    twisted[i] >= twisted[j],
                    "{} tie at slots {},{} breaks the twist order",
                    name, i + 1, j + 1,
                )
            previous[v] = j
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
    exponent pair is built and then refused.  A rank or a degree that is
    not an ``int`` is refused; a negative degree yields nothing.
    """
    check_rank(n)
    if type(a) is not int or type(b) is not int:
        raise ValueError(f"degrees ({a!r}, {b!r}) are not integers")
    if a < 0 or b < 0:
        return
    for p in partitions_fixed_length(a, n):
        odd = sum(v % 2 for v in p)
        if b < odd or (b - odd) % 2:
            continue
        blocks = [(len(list(tie)), v % 2) for v, tie in groupby(p)]
        for q in _tie_block_fills((b - odd) // 2, blocks):
            yield Monomial(p, q)


@lru_cache(maxsize=None)
def doubled_rearrangements(part: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The distinct rearrangements of 2*part, for a weakly decreasing ``part``.

    These are the exponents of m_part(x^2) or m_part(y^2).  Callers pass
    each partition in that one order, so that it has one cache entry.
    """
    return tuple(distinct_permutations(2 * v for v in part))


def cell_columns(n: int, a: int, b: int, allowance: int) -> tuple[list[Monomial], dict[tuple[tuple[int, int], ...], int]]:
    """The ordered monomials of bidegree (a, b) in decreasing order, and each one's
    ``orbit_key`` mapped to its position, so position 0 is the largest column.

    At most ``allowance + 1`` columns are drawn; a bidegree with more than
    ``allowance`` is refused before any is sorted.  A caller passes what
    is left of ``COLUMN_GUARD``.
    """
    columns = list(islice(ordered_monomials(n, a, b), allowance + 1))
    if len(columns) > allowance:
        raise ValueError(f"bidegree ({a}, {b}) takes the ordered columns past the cap of {COLUMN_GUARD}")
    columns.sort(key=order_key, reverse=True)
    return columns, {key: j for j, key in enumerate(map(orbit_key, columns))}


def _classes(dec: Decomposition) -> dict[tuple[tuple[int, int], ...], int]:
    # The distinct rearrangements r of 2*nu, counted by the sorted pairs
    # (r_i + delta_i, gamma_i).  The pair sequences of two r in one class
    # differ by a permutation of the slots; applied to s it permutes the
    # rearrangements of 2*mu and keeps each term's orbit, so as s runs
    # over all of them both r meet each orbit equally often.
    classes: dict[tuple[tuple[int, int], ...], int] = {}
    for r in doubled_rearrangements(dec.nu):
        key = tuple(sorted(zip(map(add, r, dec.delta), dec.gamma)))
        classes[key] = classes.get(key, 0) + 1
    return classes


def product_coefficients(dec: Decomposition, index: dict[tuple[tuple[int, int], ...], int]) -> dict[int, int]:
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
    class size.  ``index`` must hold every column of the product's
    bidegree; a term outside it raises RuntimeError.
    """
    counts: dict[tuple[tuple[int, int], ...], int] = {}
    ss = doubled_rearrangements(tuple(sorted(dec.mu, reverse=True)))
    for pairs, weight in _classes(dec).items():
        xs, gs = zip(*pairs)
        for s in ss:
            key = tuple(sorted(zip(xs, map(add, gs, s))))
            counts[key] = counts.get(key, 0) + weight
    out = {}
    for key, count in counts.items():
        j = index.get(key)
        _check(j is not None, "a product term has the orbit {}, which is not a column", key)
        out[j] = count
    return out
