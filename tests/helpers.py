"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from signsym.poly import Monomial, Polynomial, act
from signsym.signed_perm import SignedPermutation, enumerate_group, group_order


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
    from signsym.poly import rho

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
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank
