"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from functools import cache
from itertools import permutations
from typing import Iterator

import signsym.descent_basis as descent_basis_module
import signsym.hilbert as hilbert_module
from signsym.descent_basis import (
    Decomposition,
    decompose,
    diagonal_signed_descent_monomial,
    is_ordered,
    sign_twist,
)
from signsym.poly import (
    Monomial,
    Polynomial,
    distinct_permutations,
    rearrangement_count,
    rearrangements,
    rho,
)
from signsym.signed_perm import (
    SignedPermutation,
    enumerate_group,
    statistics,
    window_inverse,
)
from signsym.straighten import BasisExpansion


def clear_hilbert_caches() -> None:
    """Clear every functools cache of ``signsym.hilbert`` and of the
    ``signsym.descent_basis`` it reads its cells through, as a fresh
    process starts."""
    for module in (hilbert_module, descent_basis_module):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def record_table_builds(monkeypatch, build) -> list[int]:
    """Replace the series table builder by ``build`` from cold caches; the
    returned list collects the total of every table asked for."""
    built = []

    def recorded(n, max_total):
        built.append(max_total)
        return build(n, max_total)

    monkeypatch.setattr(hilbert_module, "_series_table", recorded)
    clear_hilbert_caches()
    return built


def count_walk(monkeypatch) -> list[int]:
    """Count the column walk's work from now on.  The returned list holds
    the calls of ``descent_basis._pairs`` and the steps of its loops, the
    values drawn from the ``range`` objects it iterates."""
    counts = [0, 0]
    pairs = descent_basis_module._pairs

    def counted_pairs(*args):
        counts[0] += 1
        return pairs(*args)

    def counted_range(*args):
        for v in range(*args):
            counts[1] += 1
            yield v

    monkeypatch.setattr(descent_basis_module, "_pairs", counted_pairs)
    monkeypatch.setattr(descent_basis_module, "range", counted_range, raising=False)
    return counts


def group_order(n: int) -> int:
    """Order of the rank-n signed permutation group, 2^n * n!."""
    return (1 << n) * math.factorial(n)


def sp(*window: int) -> SignedPermutation:
    return SignedPermutation(tuple(window))


def mono(p, q) -> Monomial:
    return Monomial(tuple(p), tuple(q))


def poly(n, *terms) -> Polynomial:
    """Build a polynomial from (coeff, p, q) triples."""
    acc = {}
    for coeff, p, q in terms:
        m = mono(p, q)
        acc[m] = acc.get(m, Fraction(0)) + Fraction(coeff)
    return Polynomial(n, acc)


def unit(n: int) -> Polynomial:
    """The constant polynomial 1 of rank n."""
    return Polynomial(n, {mono((0,) * n, (0,) * n): 1})


def terms(f: Polynomial) -> Iterator[tuple[Monomial, Fraction]]:
    """The terms of ``f`` in no particular order, without the sort of ``Polynomial.items``."""
    return ((m, f.coefficient(m)) for m in f.monomials())


def _check_ranks(a, b) -> None:
    if a.n != b.n:
        raise ValueError(f"rank mismatch: {a.n} vs {b.n}")


def add(f: Polynomial, g: Polynomial) -> Polynomial:
    """f + g, term by term."""
    _check_ranks(f, g)
    acc = dict(terms(f))
    for m, c in terms(g):
        acc[m] = acc.get(m, Fraction(0)) + c
    return Polynomial(f.n, acc)


def neg(f: Polynomial) -> Polynomial:
    return Polynomial(f.n, {m: -c for m, c in terms(f)})


def sub(f: Polynomial, g: Polynomial) -> Polynomial:
    return add(f, neg(g))


def mono_product(m: Monomial, w: Monomial) -> Monomial:
    """x^(p + p') y^(q + q'): the exponent vectors of two monomials of one rank, added."""
    _check_ranks(m, w)
    return Monomial(tuple(map(operator.add, m.p, w.p)), tuple(map(operator.add, m.q, w.q)))


def mul(f: Polynomial, g) -> Polynomial:
    """f * g for a polynomial g, or f scaled by an int or Fraction g.

    Multiplication oracle: every pair of terms is multiplied out, where
    the production paths only ever count orbits.
    """
    if isinstance(g, (int, Fraction)):
        return Polynomial(f.n, {m: c * g for m, c in terms(f)})
    _check_ranks(f, g)
    acc: dict[Monomial, Fraction] = {}
    for m1, c1 in terms(f):
        for m2, c2 in terms(g):
            m = mono_product(m1, m2)
            acc[m] = acc.get(m, Fraction(0)) + c1 * c2
    return Polynomial(f.n, acc)


def poly_sum(n: int, polys) -> Polynomial:
    """The sum of ``polys``, all of rank n; the zero polynomial when there are none."""
    out = Polynomial(n)
    for f in polys:
        out = add(out, f)
    return out


def compose(sigma: SignedPermutation, tau: SignedPermutation) -> SignedPermutation:
    """sigma o tau, applying ``tau`` first, by the sign rule sigma(-k) = -sigma(k)."""
    _check_ranks(sigma, tau)
    return SignedPermutation(tuple(sigma.window[v - 1] if v > 0 else -sigma.window[-v - 1] for v in tau.window))


def act(sigma: SignedPermutation, f: Polynomial, families: str = "xy") -> Polynomial:
    """Image of ``f`` under ``sigma`` acting on the variable families in ``families``.

    With both families this is the diagonal action, sending x_i and y_i
    to sign(sigma(i)) x_{|sigma(i)|} and sign(sigma(i)) y_{|sigma(i)|};
    with "x" or "y" alone the other family stays put.  Acting twice
    composes: act(sigma, act(tau, f)) equals act(compose(sigma, tau), f).
    """
    _check_ranks(sigma, f)
    acc: dict[Monomial, Fraction] = {}
    for m, c in terms(f):
        image = {"x": m.p, "y": m.q}
        sign = 1
        for family in families:
            moved = [0] * f.n
            for e, v in zip(image[family], sigma.window):
                moved[abs(v) - 1] = e
                if v < 0 and e % 2:
                    sign = -sign
            image[family] = tuple(moved)
        moved_m = Monomial(image["x"], image["y"])
        acc[moved_m] = acc.get(moved_m, Fraction(0)) + sign * c
    return Polynomial(f.n, acc)


def monomial_sym_squares(lam, family: str, n: int) -> Polynomial:
    """m_lam(x^2) or m_lam(y^2): the orbit sum of x^(2*lam) (or y^(2*lam)) over distinct rearrangements.

    Each distinct rearrangement of ``lam`` contributes one term with
    coefficient 1 and doubled exponents.
    """
    if family not in ("x", "y"):
        raise ValueError(f"family must be 'x' or 'y', got {family!r}")
    lam = tuple(lam)
    if len(lam) != n:
        raise ValueError(f"expected {n} entries, got {len(lam)}")
    doubled = tuple(2 * v for v in lam)
    exponents = (doubled, (0,) * n) if family == "x" else ((0,) * n, doubled)
    return Polynomial(n, dict.fromkeys(rearrangements(Monomial(*exponents)), 1))


def bidegree_components(f: Polynomial) -> dict[tuple[int, int], Polynomial]:
    """Split ``f`` into its bihomogeneous parts, keyed by (x-degree, y-degree); the parts sum to ``f``."""
    buckets: dict[tuple[int, int], dict[Monomial, Fraction]] = {}
    for m, c in terms(f):
        buckets.setdefault((sum(m.p), sum(m.q)), {})[m] = c
    return {bd: Polynomial(f.n, part) for bd, part in sorted(buckets.items())}


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


def reference_order_key(m: Monomial) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Order oracle: the key of the total order on ordered monomials, from its definition.

    Both exponent vectors sorted in decreasing order, ties broken by
    (p, sign_twist(q)).  Independent of ``order_key``, which reads p as it
    stands and twists q inline.
    """
    head = tuple(sorted(m.p, reverse=True)) + tuple(sorted(m.q, reverse=True))
    return head, m.p + tuple(sign_twist(v) for v in m.q)


def ordered_representative(m: Monomial) -> Monomial:
    """Transversal oracle: the ordered monomial sharing the averaging orbit of ``m``.

    Sorts the exponent pairs (p_k, sign_twist(q_k)) in decreasing order,
    independently of ``is_ordered``, which checks that order pair by
    pair; requires every p_k + q_k even.
    """
    if m.odd_slot() is not None:
        raise ValueError("monomial has a slot with odd total exponent; its average is zero")
    pairs = sorted(zip(m.p, m.q), key=lambda pq: (pq[0], sign_twist(pq[1])), reverse=True)
    return Monomial(tuple(pq[0] for pq in pairs), tuple(pq[1] for pq in pairs))


def rho_bruteforce(f: Polynomial) -> Polynomial:
    """Averaging oracle: sum the action of every group element, then divide.

    Independent of the production path, which averages per orbit and
    never enumerates the group.
    """
    return mul(poly_sum(f.n, (act(sigma, f) for sigma in enumerate_group(f.n))), Fraction(1, group_order(f.n)))


def generators(n: int) -> list[SignedPermutation]:
    """Adjacent transpositions plus one sign flip; they generate the group."""
    gens = []
    for i in range(1, n):
        w = list(range(1, n + 1))
        w[i - 1], w[i] = w[i], w[i - 1]
        gens.append(SignedPermutation(tuple(w)))
    flip = list(range(1, n + 1))
    flip[0] = -1
    gens.append(SignedPermutation(tuple(flip)))
    return gens


def generator_invariant(f: Polynomial) -> bool:
    """Invariance oracle: every group generator fixes ``f`` under the action.

    Independent of the production path, which decides invariance by
    orbits and acts on nothing.
    """
    return all(act(g, f) == f for g in generators(f.n))


def family_invariant(f: Polynomial) -> bool:
    """Separate-invariance oracle: every generator fixes ``f`` acting on x alone and on y alone.

    Independent of the production path, which decides it by orbits.
    """
    return all(act(g, f, family) == f for family in "xy" for g in generators(f.n))


def windows(n: int) -> Iterator[tuple[int, ...]]:
    """Every window of the rank-n signed group, each exactly once."""
    for perm in permutations(range(1, n + 1)):
        for mask in range(1 << n):
            yield tuple(-v if (mask >> i) & 1 else v for i, v in enumerate(perm))


def window_fmaj(w: tuple[int, ...]) -> int:
    """Flag-major index 2 * maj + neg of a window."""
    n = len(w)
    maj = sum(i for i in range(1, n) if w[i - 1] > w[i])
    neg = sum(1 for v in w if v < 0)
    return 2 * maj + neg


def window_pair_counts(n: int) -> dict[tuple[int, int], int]:
    """Window-walk oracle: counts of (fmaj of inverse, fmaj), one window at a time.

    Independent of ``scan.fmaj_pair_counts``, which packs all signings of
    a plain permutation into the lanes of one int and applies the sign
    rule for descents to every lane with one addition.
    """
    counts: dict[tuple[int, int], int] = {}
    for w in windows(n):
        key = (window_fmaj(window_inverse(w)), window_fmaj(w))
        counts[key] = counts.get(key, 0) + 1
    return counts


def vector_pair_counts(n: int) -> dict[tuple[int, int], int]:
    """List-vector oracle: counts of (fmaj of inverse, fmaj), one list per statistic.

    It takes the 2^n signings of each plain permutation at once, as
    lists indexed by the sign mask (bit k set when slot k is negative),
    and adds each descent's contribution to them entry by entry by the
    four-case sign rule: (+,+) is a descent iff the left absolute value
    is larger, (-,-) iff it is smaller, (+,-) always and (-,+) never.
    Fast enough for rank 7, where the window walk is not, and
    independent of ``scan.fmaj_pair_counts``, which reduces the rule to
    one sign and keeps both statistics of all signings in one int.
    """
    masks = range(1 << n)

    def descents(j: int, left: int, right: int, larger: bool) -> list[int]:
        # 2j where the entry of slot ``left``, followed at position j by
        # the entry of slot ``right``, makes a descent, else 0
        out = []
        for mask in masks:
            sl, sr = mask >> left & 1, mask >> right & 1
            out.append(2 * j if sl < sr or (sl == sr and larger != sl) else 0)
        return out

    # direct[j][larger]: slots j-1 and j at position j; inverse[j][l][r]:
    # slots l and r at position j, compared as slot numbers.
    direct = [[descents(j, j - 1, j, larger) for larger in (False, True)] for j in range(1, n)]
    inverse = [
        [[descents(j, l, r, l > r) if l != r else [] for r in range(n)] for l in range(n)]
        for j in range(1, n)
    ]
    negatives = [mask.bit_count() for mask in masks]
    counts: dict[tuple[int, int], int] = {}
    for perm in permutations(range(n)):
        where = sorted(range(n), key=perm.__getitem__)  # slot of each value
        fmaj = fmaj_inv = negatives
        for j in range(1, n):
            fmaj = list(map(operator.add, fmaj, direct[j - 1][perm[j - 1] > perm[j]]))
            fmaj_inv = list(map(operator.add, fmaj_inv, inverse[j - 1][where[j - 1]][where[j]]))
        for key in zip(fmaj_inv, fmaj):
            counts[key] = counts.get(key, 0) + 1
    return counts


def _partitions(n: int, largest: int = 0) -> Iterator[tuple[int, ...]]:
    """Every partition of n, parts in decreasing order, with parts at most ``largest`` when it is given."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _fake_degree(lam: tuple[int, ...], mu: tuple[int, ...], n: int) -> list[int]:
    """Coefficients of q^0..q^(n^2) in the fake degree of the bipartition (lam, mu):
    q^(2n(lam) + 2n(mu) + |mu|) prod_{i<=n} (1 - q^(2i)) / prod_h (1 - q^(2h)),
    h over the hook lengths of both shapes, with n(lam) = sum_i (i-1) lam_i."""
    size = n * n + 1
    shift = sum(2 * i * part for i, part in enumerate(lam)) + sum(2 * i * part for i, part in enumerate(mu)) + sum(mu)
    f = [0] * size
    f[shift] = 1
    for i in range(1, n + 1):
        for k in range(size - 1, 2 * i - 1, -1):
            f[k] -= f[k - 2 * i]
    for shape in (lam, mu):
        conjugate = [sum(1 for part in shape if part > j) for j in range(shape[0] if shape else 0)]
        for i, part in enumerate(shape):
            for j in range(part):
                h = part - j + conjugate[j] - i - 1
                # exact division by 1 - q^(2h): a running sum of stride 2h
                for k in range(2 * h, size):
                    f[k] += f[k - 2 * h]
    return f


def fake_degree_numerator(n: int) -> dict[tuple[int, int], int]:
    """Fake-degree oracle: counts of (fmaj of inverse, fmaj) as the sum of
    F(s) F(t) over the bipartitions (lam, mu) of n, F the fake degree.

    The pair's generating function is the numerator of the Hilbert
    series.  By Chevalley, Q[x] is free over Sym(x^2) with coinvariant
    algebra R the regular representation, so the invariants of Q[x, y]
    are Sym(x^2) (x) Sym(y^2) (x) (R_x (x) R_y)^{B_n}, and the numerator
    is the sum of F(s) F(t) over the irreducible characters, all real,
    with F the graded multiplicity of each in R.  Independent of
    ``scan.fmaj_pair_counts``: no permutation is walked and no symmetry
    of the pair is assumed.
    """
    counts: dict[tuple[int, int], int] = {}
    for k in range(n + 1):
        for lam in _partitions(k):
            for mu in _partitions(n - k):
                f = _fake_degree(lam, mu, n)
                support = [(d, c) for d, c in enumerate(f) if c]
                for a, ca in support:
                    for b, cb in support:
                        counts[a, b] = counts.get((a, b), 0) + ca * cb
    return counts


def inversion_count(window) -> int:
    return sum(
        1
        for i in range(len(window))
        for j in range(i + 1, len(window))
        if window[i] > window[j]
    )


def random_even_monomial(rng: random.Random, n: int, max_total: int) -> Monomial:
    """Random monomial with every p_k + q_k even and bounded total degree."""
    while True:
        p = tuple(rng.randint(0, 4) for _ in range(n))
        q = tuple(pi % 2 + 2 * rng.randint(0, 2) for pi in p)
        if sum(p) + sum(q) <= max_total:
            return Monomial(p, q)


def random_invariant(rng: random.Random, n: int, max_total: int = 10) -> Polynomial:
    """Random invariant built as a combination of orbit averages."""
    f = Polynomial(n)
    for _ in range(rng.randint(1, 3)):
        m = random_even_monomial(rng, n, max_total)
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if coeff:
            f = add(f, rho(Polynomial.from_monomial(m, coeff)))
    return f


def rational_rank(vectors: list[list[Fraction]]) -> int:
    """Row-reduction rank oracle over exact rationals."""
    rows = [list(map(Fraction, vec)) for vec in vectors if any(vec)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [v / lead for v in rows[rank]]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col]
                rows[r] = [v - factor * w if w else v for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def averaged_basis(sigma: SignedPermutation) -> Polynomial:
    """The averaged descent monomial rho(c_sigma), multiplied out in full."""
    return rho(Polynomial.from_monomial(diagonal_signed_descent_monomial(sigma)))


def label_polynomial(n: int, labels: dict) -> Polynomial:
    """The sum of scalar * m_nu(x^2) m_mu(y^2) over ``labels``, multiplied out by ``monomial_sym_squares``.

    Independent of ``BasisExpansion.coefficient``, which lists the terms
    of each product from cached rearrangements.
    """
    return poly_sum(n, (
        mul(mul(monomial_sym_squares(nu, "x", n), monomial_sym_squares(mu, "y", n)), scalar)
        for (nu, mu), scalar in labels.items()
    ))


def evaluate_full(expansion: BasisExpansion) -> Polynomial:
    """Evaluation oracle: every coefficient times its rho(c_sigma), multiplied out in full.

    Independent of the production path, which walks the terms of each
    label times c_sigma alone by orbit and averages the sum once.
    """
    return poly_sum(expansion.n, (
        mul(label_polynomial(expansion.n, labels), averaged_basis(sigma))
        for sigma, labels in expansion.entries.items()
    ))


@cache
def _flag_bidegrees(n: int) -> tuple[tuple[SignedPermutation, int, int], ...]:
    return tuple(
        (sigma, statistics(sigma.inverse()).fmaj, statistics(sigma).fmaj)
        for sigma in enumerate_group(n)
    )


def group_candidates(n: int, a: int, b: int) -> list[tuple[SignedPermutation, tuple, tuple]]:
    """The paper's candidate labels (sigma, nu, mu) of bidegree (a, b), by group walk.

    Every sigma whose flag bidegree (fmaj sigma^-1, fmaj sigma) fits
    inside (a, b) with even slack, with every pair of partitions of at
    most n parts filling the slack.  Independent of the production path,
    which reads the labels off the ordered monomials by ``decompose``.
    """
    out = []
    for sigma, fa, fb in _flag_bidegrees(n):
        if fa <= a and fb <= b and (a - fa) % 2 == 0 and (b - fb) % 2 == 0:
            for nu in partitions_fixed_length((a - fa) // 2, n):
                for mu in partitions_fixed_length((b - fb) // 2, n):
                    out.append((sigma, nu, mu))
    return out


def full_candidate(sigma: SignedPermutation, nu, mu) -> Polynomial:
    """Freeness candidate m_nu(x^2) m_mu(y^2) rho(c_sigma) multiplied out in full.

    Independent of the production path, which computes the product only
    at the ordered monomials.
    """
    n = sigma.n
    return mul(mul(monomial_sym_squares(nu, "x", n), monomial_sym_squares(mu, "y", n)), averaged_basis(sigma))


def counted_product(dec: Decomposition, columns: list[Monomial]) -> dict[Monomial, Fraction]:
    """Product oracle: m_nu(x^2) m_mu(y^2) rho(c_sigma) at ``columns``, counting every term.

    Each distinct rearrangement r of 2*nu and s of 2*mu gives one term
    x^(r + delta) y^(s + gamma) of m_nu(x^2) m_mu(y^2) c_sigma, with
    (delta, gamma) the exponents of c_sigma; the coefficient at a column
    is the number of terms in its orbit over the orbit size.  Every
    (r, s) is visited, so no two rearrangements of 2*nu are merged as
    the production kernel merges them.  A term outside ``columns`` fails.
    """
    c = diagonal_signed_descent_monomial(dec.sigma)
    hits: dict[tuple, int] = {}
    for r in distinct_permutations(2 * v for v in dec.nu):
        for s in distinct_permutations(2 * v for v in dec.mu):
            pairs = tuple(sorted(zip(map(operator.add, r, c.p), map(operator.add, s, c.q))))
            hits[pairs] = hits.get(pairs, 0) + 1
    by_orbit = {tuple(sorted(zip(w.p, w.q))): w for w in columns}
    assert set(hits) <= set(by_orbit), "a product term lies outside the columns"
    return {by_orbit[key]: Fraction(k, rearrangement_count(key)) for key, k in hits.items()}


def straighten_full(f: Polynomial) -> BasisExpansion:
    """Straightening oracle: leading-term reduction on full products.

    Independent of the production path, which works only at the ordered
    monomials: each step here takes the largest ordered monomial of the
    remainder, multiplies its m_nu(x^2) m_mu(y^2) rho(c_sigma) out in
    full and subtracts the matching multiple.  The scalars are kept at
    the labels (nu, sorted mu) of each sigma.
    """
    scalars: dict = {}
    for component in bidegree_components(f).values():
        remainder = component
        previous = None
        while not remainder.is_zero():
            m = max((u for u in remainder.monomials() if is_ordered(u)), key=reference_order_key)
            assert previous is None or reference_order_key(m) < previous, "leading term failed to decrease"
            previous = reference_order_key(m)
            dec = decompose(m)
            product = full_candidate(dec.sigma, dec.nu, dec.mu)
            scalar = remainder.coefficient(m) / product.coefficient(m)
            label = (dec.sigma, dec.nu, tuple(sorted(dec.mu, reverse=True)))
            scalars[label] = scalars.get(label, 0) + scalar
            remainder = sub(remainder, mul(product, scalar))
    # a sum that cancels is not stored
    expansion = BasisExpansion(f.n)
    for (sigma, nu, mu), scalar in scalars.items():
        if scalar:
            expansion.entries.setdefault(sigma, {})[nu, mu] = scalar
    return expansion


def full_support_rank(polys: list[Polynomial]) -> int:
    """Rank of polynomials as rational vectors over their whole joint support."""
    support = sorted({m for f in polys for m in f.monomials()}, key=lambda m: (m.p, m.q))
    return rational_rank([[f.coefficient(m) for m in support] for f in polys])
