"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import permutations
from operator import add
from typing import Iterator

import signsym.hilbert as hilbert_module
from signsym.descent_basis import (
    Decomposition,
    decompose,
    diagonal_signed_descent_monomial,
    is_ordered,
    order_key,
    partitions_fixed_length,
)
from signsym.poly import (
    Monomial,
    Polynomial,
    act,
    bidegree_components,
    distinct_permutations,
    monomial_sym_squares,
    rearrangement_count,
    rho,
)
from signsym.signed_perm import (
    SignedPermutation,
    enumerate_group,
    group_order,
    statistics,
    window_inverse,
)
from signsym.straighten import BasisExpansion


def clear_hilbert_caches() -> None:
    """Clear every functools cache of ``signsym.hilbert``, as a fresh process starts."""
    for value in vars(hilbert_module).values():
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


def rho_bruteforce(f: Polynomial) -> Polynomial:
    """Averaging oracle: sum the action of every group element, then divide.

    Independent of the production path, which averages per orbit and
    never enumerates the group.
    """
    total = Polynomial.zero(f.n)
    for sigma in enumerate_group(f.n):
        total = total + act(sigma, f)
    return total * Fraction(1, group_order(f.n))


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


def act_on_family(sigma: SignedPermutation, f: Polynomial, family: str) -> Polynomial:
    """Image of ``f`` under ``sigma`` acting on the x or the y variables alone."""
    acc: dict[Monomial, Fraction] = {}
    for m, c in f.items():
        exps = m.p if family == "x" else m.q
        moved = [0] * f.n
        sign = 1
        for i, v in enumerate(sigma.window):
            moved[abs(v) - 1] = exps[i]
            if v < 0 and exps[i] % 2:
                sign = -sign
        image = Monomial(tuple(moved), m.q) if family == "x" else Monomial(m.p, tuple(moved))
        acc[image] = acc.get(image, Fraction(0)) + sign * c
    return Polynomial(f.n, acc)


def family_invariant(f: Polynomial) -> bool:
    """Separate-invariance oracle: every generator fixes ``f`` acting on x alone and on y alone.

    Independent of the production path, which decides it by orbits.
    """
    return all(act_on_family(g, f, family) == f for family in "xy" for g in generators(f.n))


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

    Independent of ``scan.fmaj_pair_counts``, which takes all signings of
    a plain permutation at once by the sign rule for descents.
    """
    counts: dict[tuple[int, int], int] = {}
    for w in windows(n):
        key = (window_fmaj(window_inverse(w)), window_fmaj(w))
        counts[key] = counts.get(key, 0) + 1
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
    f = Polynomial.zero(n)
    for _ in range(rng.randint(1, 3)):
        m = random_even_monomial(rng, n, max_total)
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if coeff:
            f = f + rho(Polynomial.from_monomial(m, coeff))
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
    total = Polynomial.zero(n)
    for (nu, mu), scalar in labels.items():
        total = total + monomial_sym_squares(nu, "x", n) * monomial_sym_squares(mu, "y", n) * scalar
    return total


def evaluate_full(expansion: BasisExpansion) -> Polynomial:
    """Evaluation oracle: every coefficient times its rho(c_sigma), multiplied out in full.

    Independent of the production path, which walks the terms of each
    label times c_sigma alone by orbit and averages the sum once.
    """
    total = Polynomial.zero(expansion.n)
    for sigma, labels in expansion.entries.items():
        total = total + label_polynomial(expansion.n, labels) * averaged_basis(sigma)
    return total


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
    return monomial_sym_squares(nu, "x", n) * monomial_sym_squares(mu, "y", n) * averaged_basis(sigma)


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
            pairs = tuple(sorted(zip(map(add, r, c.p), map(add, s, c.q))))
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
            m = max((u for u in remainder.monomials() if is_ordered(u)), key=order_key)
            assert previous is None or order_key(m) < previous, "leading term failed to decrease"
            previous = order_key(m)
            dec = decompose(m)
            coeff = monomial_sym_squares(dec.nu, "x", f.n) * monomial_sym_squares(dec.mu, "y", f.n)
            product = coeff * averaged_basis(dec.sigma)
            scalar = remainder.coefficient(m) / product.coefficient(m)
            label = (dec.sigma, dec.nu, tuple(sorted(dec.mu, reverse=True)))
            scalars[label] = scalars.get(label, 0) + scalar
            remainder = remainder - scalar * product
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
