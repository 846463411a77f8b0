"""Polynomial arithmetic, the signed action, and the averaging operator."""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import mono, poly, rho_bruteforce, sp
from signsym.poly import (
    Bidegree,
    Monomial,
    Polynomial,
    act,
    bidegree_components,
    elementary_sym_squares,
    is_invariant,
    is_separately_invariant,
    monomial_sym_squares,
    rho,
)
from signsym.signed_perm import RankGuardError, SignedPermutation, enumerate_group


def random_polynomial(rng, n, terms=4, max_exp=3):
    acc = {}
    for _ in range(terms):
        m = mono(
            [rng.randint(0, max_exp) for _ in range(n)],
            [rng.randint(0, max_exp) for _ in range(n)],
        )
        acc[m] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Polynomial(n, acc)


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial((1,), (0, 0))
    with pytest.raises(ValueError):
        Monomial((-1,), (0,))
    with pytest.raises(ValueError):
        Monomial((), ())


def test_monomial_text():
    assert mono((3, 2, 2, 1), (3, 4, 0, 1)).text() == "x1^3 x2^2 x3^2 x4 y1^3 y2^4 y4"
    assert Monomial.one(3).text() == "1"


def test_no_zero_coefficients_stored():
    f = poly(2, (1, (1, 0), (0, 0)), (-1, (1, 0), (0, 0)))
    assert f.is_zero()
    assert len(f) == 0
    g = poly(2, (Fraction(1, 2), (1, 0), (0, 0)))
    assert len(g - g) == 0


def test_ring_axioms_on_samples():
    rng = random.Random(11)
    for _ in range(25):
        f = random_polynomial(rng, 2)
        g = random_polynomial(rng, 2)
        h = random_polynomial(rng, 2)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + Polynomial.zero(2) == f
        assert f * Polynomial.one(2) == f
        assert (f - f).is_zero()


def test_act_examples():
    n1_xy = poly(1, (1, (1,), (1,)))
    assert act(sp(-1), n1_xy) == n1_xy
    x1 = poly(1, (1, (1,), (0,)))
    assert act(sp(-1), x1) == -x1
    assert act(sp(2, 1), poly(2, (1, (2, 0), (0, 1)))) == poly(2, (1, (0, 2), (1, 0)))


def test_act_rank_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        act(sp(1), Polynomial.one(2))


def test_act_is_a_group_action():
    rng = random.Random(3)
    elements = list(enumerate_group(3))
    identity = SignedPermutation.identity(3)
    for _ in range(20):
        f = random_polynomial(rng, 3, terms=3, max_exp=2)
        sigma, tau = rng.choice(elements), rng.choice(elements)
        assert act(identity, f) == f
        assert act(sigma, act(tau, f)) == act(sigma * tau, f)


def test_act_is_a_ring_map():
    rng = random.Random(5)
    sigma = sp(2, -3, -1)
    for _ in range(10):
        f = random_polynomial(rng, 3, terms=3, max_exp=2)
        g = random_polynomial(rng, 3, terms=3, max_exp=2)
        assert act(sigma, f * g) == act(sigma, f) * act(sigma, g)
        assert act(sigma, f + g) == act(sigma, f) + act(sigma, g)


def test_rho_examples():
    assert rho(poly(1, (1, (1,), (1,)))) == poly(1, (1, (1,), (1,)))
    assert rho(poly(1, (1, (1,), (0,)))).is_zero()
    assert rho(poly(2, (1, (2, 0), (2, 0)))) == poly(
        2, (Fraction(1, 2), (2, 0), (2, 0)), (Fraction(1, 2), (0, 2), (0, 2))
    )


def test_rho_guard():
    with pytest.raises(RankGuardError):
        rho(Polynomial.one(4), guard=3)


def test_rho_matches_bruteforce():
    # the orbit formula must agree with the full group average
    rng = random.Random(17)
    for n in (1, 2, 3):
        for _ in range(12):
            f = random_polynomial(rng, n, terms=3, max_exp=3)
            assert rho(f) == rho_bruteforce(f)
    # repeated exponent pairs: orbits smaller than n!
    for p, q in (
        ((2, 2, 0, 0), (0, 0, 2, 2)),
        ((1, 1, 1, 1), (1, 1, 1, 1)),
        ((3, 1, 1, 0), (1, 1, 1, 2)),
        ((1, 1, 0, 0), (0, 0, 0, 0)),
    ):
        f = Polynomial.from_monomial(mono(p, q), Fraction(5, 3))
        assert rho(f) == rho_bruteforce(f)


def test_rho_idempotent_linear_fixes_invariants():
    rng = random.Random(23)
    for _ in range(10):
        f = random_polynomial(rng, 2, terms=3)
        g = random_polynomial(rng, 2, terms=3)
        rf = rho(f)
        assert rho(rf) == rf
        assert rho(f + g) == rho(f) + rho(g)
        assert rho(f * Fraction(3, 7)) == rho(f) * Fraction(3, 7)
        assert is_invariant(rf)
    e2 = elementary_sym_squares(2, "x", 3)
    assert rho(e2) == e2


def test_vanishing_dichotomy_exhaustive():
    # zero average exactly when some slot has odd total exponent
    for n in (1, 2):
        for p in itertools.product(range(5), repeat=n):
            for q in itertools.product(range(5), repeat=n):
                f = Polynomial.from_monomial(mono(p, q))
                image = rho_bruteforce(f)
                odd = any((pi + qi) % 2 for pi, qi in zip(p, q))
                assert image.is_zero() == odd
                assert rho(f) == image


def test_rho_even_orbit_formula():
    # for all-even-sum monomials the average is the plain orbit sum
    import math

    for n in (1, 2, 3):
        rng = random.Random(n)
        for _ in range(8):
            p = tuple(rng.randint(0, 3) for _ in range(n))
            q = tuple(pi % 2 + 2 * rng.randint(0, 1) for pi in p)
            m = mono(p, q)
            acc = {}
            for alpha in itertools.permutations(range(n)):
                pp, qq = [0] * n, [0] * n
                for i, j in enumerate(alpha):
                    pp[j], qq[j] = p[i], q[i]
                key = mono(pp, qq)
                acc[key] = acc.get(key, Fraction(0)) + Fraction(1, math.factorial(n))
            assert rho(Polynomial.from_monomial(m)) == Polynomial(n, acc)


def test_is_invariant_examples():
    assert is_invariant(elementary_sym_squares(1, "x", 2))
    assert not is_invariant(poly(2, (1, (1, 0), (0, 0))))
    rng = random.Random(29)
    for _ in range(5):
        m = mono([rng.randint(0, 3) for _ in range(3)], [rng.randint(0, 3) for _ in range(3)])
        assert is_invariant(rho(Polynomial.from_monomial(m)))


def test_is_separately_invariant():
    assert is_separately_invariant(
        elementary_sym_squares(1, "x", 2) * elementary_sym_squares(2, "y", 2)
    )
    # diagonal orbit average of x1 y1 is invariant but not separately so
    diag = rho(poly(2, (1, (1, 0), (1, 0))))
    assert is_invariant(diag)
    assert not is_separately_invariant(diag)


def test_elementary_sym_squares_examples():
    assert elementary_sym_squares(1, "x", 2) == poly(2, (1, (2, 0), (0, 0)), (1, (0, 2), (0, 0)))
    assert elementary_sym_squares(2, "x", 2) == poly(2, (1, (2, 2), (0, 0)))
    assert elementary_sym_squares(2, "y", 3) == poly(
        3,
        (1, (0, 0, 0), (2, 2, 0)),
        (1, (0, 0, 0), (2, 0, 2)),
        (1, (0, 0, 0), (0, 2, 2)),
    )
    with pytest.raises(ValueError):
        elementary_sym_squares(3, "x", 2)
    with pytest.raises(ValueError):
        elementary_sym_squares(1, "z", 2)


def test_monomial_sym_squares_examples():
    assert monomial_sym_squares((1, 0), "x", 2) == poly(
        2, (1, (2, 0), (0, 0)), (1, (0, 2), (0, 0))
    )
    assert monomial_sym_squares((0, 0, 0), "x", 3) == Polynomial.one(3)
    six = monomial_sym_squares((2, 2, 2, 2, 2, 1), "x", 6)
    assert len(six) == 6
    assert all(c == 1 for _, c in six.items())
    assert all(sorted(m.p) == [2, 4, 4, 4, 4, 4] for m, _ in six.items())
    with pytest.raises(ValueError, match="expected 2"):
        monomial_sym_squares((1,), "x", 2)


def test_bidegree_components_examples():
    f = poly(1, (1, (1,), (1,)), (1, (2,), (0,)))
    comps = bidegree_components(f)
    assert set(comps) == {Bidegree(1, 1), Bidegree(2, 0)}
    assert comps[Bidegree(1, 1)] == poly(1, (1, (1,), (1,)))
    assert sum(comps.values(), Polynomial.zero(1)) == f
    assert bidegree_components(Polynomial.zero(2)) == {}
    averaged = rho(poly(1, (1, (3,), (1,))))
    assert bidegree_components(averaged) == {Bidegree(3, 1): averaged}


def test_polynomial_json_round_trip():
    f = poly(2, (Fraction(-1, 2), (1, 2), (0, 3)), (3, (0, 0), (0, 0)))
    data = f.to_json()
    assert data["n"] == 2
    assert all(isinstance(t["coeff"], str) for t in data["terms"])
    assert Polynomial.from_json(data) == f


def test_text_rendering():
    f = poly(2, (Fraction(1, 2), (2, 0), (2, 0)), (-1, (0, 2), (0, 2)), (-2, (0, 0), (0, 0)))
    assert f.text() == "1/2 x1^2 y1^2 - x2^2 y2^2 - 2"
    assert Polynomial.zero(2).text() == "0"
