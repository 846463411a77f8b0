"""Polynomial arithmetic, the signed action, and the averaging operator."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

import signsym.poly as poly_module
from helpers import (
    act,
    add,
    bidegree_components,
    compose,
    family_invariant,
    generator_invariant,
    mono,
    monomial_sym_squares,
    mul,
    partitions_fixed_length,
    poly,
    poly_sum,
    random_even_monomial,
    random_invariant,
    rho_bruteforce,
    sp,
    sub,
    unit,
)
from signsym.poly import (
    Monomial,
    Polynomial,
    _count_text,
    _invariance_failure,
    distinct_permutations,
    is_invariant,
    is_separately_invariant,
    orbit_sums,
    rearrangement_count,
    rho,
)
from signsym.signed_perm import enumerate_group
from signsym.straighten import BasisExpansion, evaluates_to, straighten


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
    # the message names both lengths, as CLI ``rho`` passes them on
    for p, q in (((1,), (0, 0)), ((), ()), ((1, 2), (0,))):
        message = f"exponent vectors must be nonempty and of equal length, got {len(p)} and {len(q)} entries"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Monomial(p, q)
    # floats, bools, strings and negatives are all refused with one
    # message, in either family, alone and after valid entries
    for bad in (1.5, 2.0, 1.0, True, "1", -1):
        for p, q in (((bad,), (0,)), ((0,), (bad,)), ((3, bad), (1, 0)), ((3, 1), (0, bad))):
            message = f"exponents must be non-negative integers, got {p} and {q}"
            with pytest.raises(ValueError, match=re.escape(message)):
                Monomial(p, q)


def test_coefficients_are_fractions():
    m = mono((2, 0), (0, 0))
    for c in (1, Fraction(1, 2), Fraction(4, 2)):
        assert type(Polynomial(2, {m: c}).coefficient(m)) is Fraction
    f = Polynomial(2, {m: 3})
    for g in (add(f, f), mul(f, f), mul(f, 2), rho(f)):
        assert all(type(c) is Fraction for _, c in g.items())


@pytest.mark.parametrize(
    "reader",
    [rho, orbit_sums, is_invariant, is_separately_invariant, straighten, lambda f: evaluates_to(BasisExpansion(1), f)],
    ids=["rho", "orbit_sums", "is_invariant", "is_separately_invariant", "straighten", "evaluates_to"],
)
def test_term_readers_refuse_what_is_not_a_polynomial(reader):
    # one TypeError from ``_orbits``, not an AttributeError from deep inside
    with pytest.raises(TypeError, match="^expected a Polynomial, got dict$"):
        reader({mono((2,), (0,)): 1})


def test_polynomial_refuses_a_key_that_is_not_a_monomial():
    for key in (((2,), (0,)), "x1^2", None):
        with pytest.raises(ValueError, match=f"^{re.escape(f'term key {key!r} is not a Monomial')}$"):
            Polynomial(1, {key: 1})


def test_polynomial_equality_and_repr():
    f = poly(2, (Fraction(1, 2), (2, 0), (2, 0)), (-1, (0, 0), (0, 0)))
    assert repr(f) == "Polynomial(n=2, 1/2 x1^2 y1^2 - 1)"
    assert repr(Polynomial(3)) == "Polynomial(n=3, 0)"
    # a polynomial equals only a polynomial: not the number it holds
    assert f.__eq__(0) is NotImplemented
    assert Polynomial(1) != 0 and not Polynomial(1) == 0
    assert unit(1) != 1


def test_monomial_text():
    assert mono((3, 2, 2, 1), (3, 4, 0, 1)).text() == "x1^3 x2^2 x3^2 x4 y1^3 y2^4 y4"
    assert mono((0, 0, 0), (0, 0, 0)).text() == "1"


def test_no_zero_coefficients_stored():
    f = poly(2, (1, (1, 0), (0, 0)), (-1, (1, 0), (0, 0)))
    assert f.is_zero()
    assert len(f) == 0
    g = poly(2, (Fraction(1, 2), (1, 0), (0, 0)))
    assert len(sub(g, g)) == 0


def test_ring_axioms_on_samples():
    rng = random.Random(11)
    for _ in range(25):
        f = random_polynomial(rng, 2)
        g = random_polynomial(rng, 2)
        h = random_polynomial(rng, 2)
        assert add(f, g) == add(g, f)
        assert add(add(f, g), h) == add(f, add(g, h))
        assert mul(f, g) == mul(g, f)
        assert mul(mul(f, g), h) == mul(f, mul(g, h))
        assert mul(f, add(g, h)) == add(mul(f, g), mul(f, h))
        assert add(f, Polynomial(2)) == f
        assert mul(f, unit(2)) == f
        assert sub(f, f).is_zero()


def test_act_examples():
    n1_xy = poly(1, (1, (1,), (1,)))
    assert act(sp(-1), n1_xy) == n1_xy
    x1 = poly(1, (1, (1,), (0,)))
    assert act(sp(-1), x1) == mul(x1, -1)
    assert act(sp(2, 1), poly(2, (1, (2, 0), (0, 1)))) == poly(2, (1, (0, 2), (1, 0)))


def test_act_rank_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        act(sp(1), unit(2))


def test_act_is_a_group_action():
    rng = random.Random(3)
    elements = list(enumerate_group(3))
    identity = sp(1, 2, 3)
    for _ in range(20):
        f = random_polynomial(rng, 3, terms=3, max_exp=2)
        sigma, tau = rng.choice(elements), rng.choice(elements)
        assert act(identity, f) == f
        assert act(sigma, act(tau, f)) == act(compose(sigma, tau), f)


def test_act_is_a_ring_map():
    rng = random.Random(5)
    sigma = sp(2, -3, -1)
    for _ in range(10):
        f = random_polynomial(rng, 3, terms=3, max_exp=2)
        g = random_polynomial(rng, 3, terms=3, max_exp=2)
        assert act(sigma, mul(f, g)) == mul(act(sigma, f), act(sigma, g))
        assert act(sigma, add(f, g)) == add(act(sigma, f), act(sigma, g))


def test_distinct_permutations_match_the_set_of_permutations():
    # every multiset of length 0-6 over two alphabets, fed unsorted
    rng = random.Random(7)
    for alphabet in ((0, 1, 2), ((0, 0), (0, 2), (1, 1), (2, 0))):
        for length in range(7):
            for s in itertools.combinations_with_replacement(alphabet, length):
                shuffled = rng.sample(s, len(s))
                out = list(distinct_permutations(shuffled))
                assert out == sorted(set(itertools.permutations(s)))
                assert len(out) == rearrangement_count(s)


def test_rho_examples():
    assert rho(poly(1, (1, (1,), (1,)))) == poly(1, (1, (1,), (1,)))
    assert rho(poly(1, (1, (1,), (0,)))).is_zero()
    assert rho(poly(2, (1, (2, 0), (2, 0)))) == poly(
        2, (Fraction(1, 2), (2, 0), (2, 0)), (Fraction(1, 2), (0, 2), (0, 2))
    )


def test_rho_guard(monkeypatch):
    # the cap is on the terms rho builds, one per member of each orbit,
    # and they are counted before any orbit is expanded; the rank alone
    # costs nothing
    assert poly_module.TERM_GUARD == 100_000
    assert rho(unit(9)) == unit(9)
    f = poly(4, (1, (0, 2, 4, 6), (0, 0, 0, 0)), (3, (2, 0, 0, 0), (0, 0, 0, 0)), (1, (1, 0, 0, 0), (0, 0, 0, 0)))
    monkeypatch.setattr(poly_module, "TERM_GUARD", 28)
    assert len(rho(f)) == 24 + 4  # the odd term averages to 0 and counts nothing

    def no_orbit(m):
        raise AssertionError("no orbit may be expanded past the cap")

    monkeypatch.setattr(poly_module, "TERM_GUARD", 27)
    monkeypatch.setattr(poly_module, "rearrangements", no_orbit)
    with pytest.raises(ValueError, match="^the average has 28 terms, above the cap of 27$"):
        rho(f)


def test_entry_cap_refuses_before_any_term_is_built(monkeypatch):
    # 2n exponent entries per term: rho counts them over the orbits it
    # would expand, from_json over the terms listed, and neither builds a
    # term past the cap
    assert poly_module.ENTRY_GUARD == 16_000_000
    f = poly(4, (1, (0, 2, 4, 6), (0, 0, 0, 0)), (3, (2, 0, 0, 0), (0, 0, 0, 0)))
    data = rho(f).to_json()
    monkeypatch.setattr(poly_module, "ENTRY_GUARD", 28 * 8)
    assert Polynomial.from_json(data) == rho(f)

    def no_term(*args):
        raise AssertionError("no term may be built past the cap")

    monkeypatch.setattr(poly_module, "ENTRY_GUARD", 28 * 8 - 1)
    monkeypatch.setattr(poly_module, "rearrangements", no_term)
    monkeypatch.setattr(poly_module, "Monomial", no_term)
    with pytest.raises(ValueError, match="^the average has 224 exponent entries, above the cap of 223$"):
        rho(f)
    with pytest.raises(ValueError, match="^the polynomial has 224 exponent entries, above the cap of 223$"):
        Polynomial.from_json(data)


def test_a_count_past_64_bits_prints_as_its_order_of_magnitude():
    assert _count_text(2**64 - 1) == "18446744073709551615"
    assert _count_text(2**64) == "about 10^19"
    assert _count_text(math.factorial(2000)) == "about 10^5736"


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
    # several terms of one orbit, whose coefficients must add before the
    # orbit is averaged: unequal members, a whole orbit, two members that
    # cancel, and odd-slot terms mixed in
    whole = mul(rho(poly(3, (1, (2, 1, 0), (0, 1, 2)))), Fraction(7, 2))
    assert len(whole) == 6
    unequal = poly(
        3, (2, (2, 1, 0), (0, 1, 2)), (Fraction(-1, 3), (0, 1, 2), (2, 1, 0)), (5, (1, 0, 2), (1, 2, 0))
    )
    opposite = poly(2, (Fraction(3, 4), (2, 0), (0, 2)), (Fraction(-3, 4), (0, 2), (2, 0)))
    mixed = poly(
        3, (1, (2, 0, 0), (0, 2, 0)), (3, (0, 2, 0), (2, 0, 0)), (4, (1, 0, 0), (0, 2, 0)), (-2, (0, 1, 1), (2, 0, 0))
    )
    for f in (unequal, whole, opposite, mixed):
        assert rho(f) == rho_bruteforce(f)
    assert rho(whole) == whole
    assert rho(opposite).is_zero()


def test_orbit_sums_expand_to_the_group_average():
    # each nonzero orbit sum over the orbit size, put on every
    # rearrangement of the orbit's exponent pairs, gives the brute-force
    # average; the cases have odd slots, partial orbits and unequal
    # coefficients
    rng = random.Random(31)
    cases = [random_polynomial(rng, n, terms=rng.randint(1, 5)) for n in (1, 2, 3) for _ in range(8)]
    cases += [f for n in (1, 2, 3) for _ in range(3) for f in _perturbed_invariants(rng, n)]
    for f in cases:
        sums = orbit_sums(f)
        assert 0 not in sums.values()
        expanded = {}
        for key, c in sums.items():
            orbit = set(itertools.permutations(key))
            expanded.update({mono(*zip(*pairs)): c / len(orbit) for pairs in orbit})
        assert Polynomial(f.n, expanded) == rho_bruteforce(f)


def test_rho_idempotent_linear_fixes_invariants():
    rng = random.Random(23)
    for _ in range(10):
        f = random_polynomial(rng, 2, terms=3)
        g = random_polynomial(rng, 2, terms=3)
        rf = rho(f)
        assert rho(rf) == rf
        assert rho(add(f, g)) == add(rho(f), rho(g))
        assert rho(mul(f, Fraction(3, 7))) == mul(rho(f), Fraction(3, 7))
        assert is_invariant(rf)
    e2 = monomial_sym_squares((1, 1, 0), "x", 3)
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
    assert is_invariant(monomial_sym_squares((1, 0), "x", 2))
    assert not is_invariant(poly(2, (1, (1, 0), (0, 0))))
    rng = random.Random(29)
    for _ in range(5):
        m = mono([rng.randint(0, 3) for _ in range(3)], [rng.randint(0, 3) for _ in range(3)])
        assert is_invariant(rho(Polynomial.from_monomial(m)))


def _perturbed_invariants(rng, n):
    # an invariant, then that invariant with one coefficient changed, one
    # term dropped and one term with an odd slot added, then sparse noise
    f = random_invariant(rng, n, max_total=8)
    yield f
    terms = dict(f.items())
    if terms:
        m = rng.choice(list(terms))
        yield Polynomial(n, {**terms, m: terms[m] + 1})
        yield Polynomial(n, {u: c for u, c in terms.items() if u != m})
    p = [rng.randint(0, 3) for _ in range(n)]
    q = [rng.randint(0, 3) for _ in range(n)]
    k = rng.randrange(n)
    q[k] = p[k] % 2 + 1 + 2 * rng.randint(0, 1)  # p_k + q_k odd
    yield add(f, Polynomial.from_monomial(mono(p, q), Fraction(rng.randint(1, 5), rng.randint(1, 3))))
    yield random_polynomial(rng, n, terms=rng.randint(1, 4))


def test_is_invariant_agrees_with_generator_action():
    # the orbit check against acting with every generator; the reason is
    # None exactly for invariants and otherwise names a term of the input
    rng = random.Random(31)
    seen = set()
    for _ in range(40):
        for n in (1, 2, 3, 4):
            for f in _perturbed_invariants(rng, n):
                expected = generator_invariant(f)
                assert is_invariant(f) == expected, f
                reason = _invariance_failure(f)
                assert (reason is None) == expected, f
                if reason is not None:
                    named = re.fullmatch(r"the (?:term|orbit of) (.+?) has .+", reason).group(1)
                    assert named in {m.text() for m in f.monomials()}, reason
                seen.add(expected)
    assert seen == {True, False}


def test_invariance_failure_reasons():
    def failure(f):
        return _invariance_failure(f)

    assert failure(poly(2, (1, (1, 2), (0, 0)))) == "the term x1 x2^2 has an odd total exponent in slot 1"
    assert failure(poly(2, (1, (2, 0), (0, 0)))) == "the orbit of x1^2 has 1 of its 2 terms"
    assert failure(poly(2, (1, (2, 0), (0, 0)), (2, (0, 2), (0, 0)))) == "the orbit of x1^2 has unequal coefficients"
    assert failure(unit(3)) is None


def _separately_perturbed(rng, n):
    # a sum of products m_lam(x^2) m_mu(y^2), then that sum with one
    # coefficient bumped, with an odd-exponent term added and with a
    # diagonal average added
    f = Polynomial(n)
    for _ in range(rng.randint(1, 3)):
        lam = rng.choice(list(partitions_fixed_length(rng.randint(0, 3), n)))
        mu = rng.choice(list(partitions_fixed_length(rng.randint(0, 3), n)))
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        f = add(f, mul(mul(monomial_sym_squares(lam, "x", n), monomial_sym_squares(mu, "y", n)), coeff))
    yield f
    terms = dict(f.items())
    if terms:
        m = rng.choice(list(terms))
        yield Polynomial(n, {**terms, m: terms[m] + 1})
    p = [2 * rng.randint(0, 2) for _ in range(n)]
    q = [2 * rng.randint(0, 2) for _ in range(n)]
    k = rng.randrange(n)
    if rng.random() < 0.5:
        p[k] += 1
    else:
        q[k] += 1
    yield add(f, Polynomial.from_monomial(mono(p, q), rng.randint(1, 3)))
    yield add(f, rho(Polynomial.from_monomial(random_even_monomial(rng, n, 8))))


def test_is_separately_invariant_agrees_with_family_action():
    rng = random.Random(37)
    seen = set()
    for _ in range(30):
        for n in (1, 2, 3):
            for f in _separately_perturbed(rng, n):
                expected = family_invariant(f)
                assert is_separately_invariant(f) == expected, f
                seen.add(expected)
    assert seen == {True, False}


def test_is_separately_invariant():
    assert is_separately_invariant(
        mul(monomial_sym_squares((1, 0), "x", 2), monomial_sym_squares((1, 1), "y", 2))
    )
    # diagonal orbit average of x1 y1 is invariant but not separately so
    diag = rho(poly(2, (1, (1, 0), (1, 0))))
    assert is_invariant(diag)
    assert not is_separately_invariant(diag)


def test_monomial_sym_squares_examples():
    assert monomial_sym_squares((1, 0), "x", 2) == poly(
        2, (1, (2, 0), (0, 0)), (1, (0, 2), (0, 0))
    )
    assert monomial_sym_squares((0, 0, 0), "x", 3) == unit(3)
    assert monomial_sym_squares((1, 1, 0), "y", 3) == poly(
        3,
        (1, (0, 0, 0), (2, 2, 0)),
        (1, (0, 0, 0), (2, 0, 2)),
        (1, (0, 0, 0), (0, 2, 2)),
    )
    six = monomial_sym_squares((2, 2, 2, 2, 2, 1), "x", 6)
    assert len(six) == 6
    assert all(c == 1 for _, c in six.items())
    assert all(sorted(m.p) == [2, 4, 4, 4, 4, 4] for m, _ in six.items())
    with pytest.raises(ValueError, match="expected 2"):
        monomial_sym_squares((1,), "x", 2)
    with pytest.raises(ValueError):
        monomial_sym_squares((1, -1), "y", 2)
    with pytest.raises(ValueError, match="family must be 'x' or 'y'"):
        monomial_sym_squares((1, 0), "z", 2)


def test_bidegree_components_examples():
    f = poly(1, (1, (1,), (1,)), (1, (2,), (0,)))
    comps = bidegree_components(f)
    assert set(comps) == {(1, 1), (2, 0)}
    assert comps[1, 1] == poly(1, (1, (1,), (1,)))
    assert poly_sum(1, comps.values()) == f
    assert bidegree_components(Polynomial(2)) == {}
    averaged = rho(poly(1, (1, (3,), (1,))))
    assert bidegree_components(averaged) == {(3, 1): averaged}


def test_polynomial_json_round_trip():
    f = poly(2, (Fraction(-1, 2), (1, 2), (0, 3)), (3, (0, 0), (0, 0)))
    data = f.to_json()
    assert data["n"] == 2
    assert all(isinstance(t["coeff"], str) for t in data["terms"])
    assert Polynomial.from_json(data) == f


def test_polynomial_json_coefficient_strings():
    def parse(coeff):
        return Polynomial.from_json({"n": 1, "terms": [{"p": [1], "q": [1], "coeff": coeff}]})

    assert parse("-3/4") == poly(1, (Fraction(-3, 4), (1,), (1,)))
    assert parse("+2") == parse(2) == poly(1, (2, (1,), (1,)))
    # only what to_json emits; a decimal exponent is refused before
    # Fraction would expand it
    for coeff in ("1e10000000", "0.5", " 1", "1/-2", "1_000", "inf", "٣", True, 0.5, None):
        with pytest.raises(ValueError, match=re.escape(f"an integer or a fraction string, got {coeff!r}")):
            parse(coeff)
    # the matched integers make the fraction, in lowest terms
    assert parse("-6/4") == parse("-3/2") == poly(1, (Fraction(-3, 2), (1,), (1,)))
    assert parse("0/7").is_zero()
    for coeff in ("1/0", "-3/00"):
        with pytest.raises(ValueError, match=re.escape(f"coefficient {coeff!r} has a zero denominator")):
            parse(coeff)


def test_polynomial_json_refuses_a_monomial_listed_twice():
    # even when the two coefficients would cancel
    for coeffs in ((1, 1), ("1/2", "-1/2")):
        terms = [{"p": [1, 0], "q": [1, 0], "coeff": c} for c in coeffs]
        with pytest.raises(ValueError, match=re.escape("monomial x1 y1 is listed twice")):
            Polynomial.from_json({"n": 2, "terms": terms})


def _terms(*terms):
    return [{"p": list(p), "q": list(q), "coeff": c} for p, q, c in terms]


@pytest.mark.parametrize(
    "n,terms,message",
    [
        (1, _terms(((2,), (0,), "1/x"), ((0,), (2,), "1/x")),
         "a coefficient must be an integer or a fraction string, got '1/x'"),
        (1, _terms(((2,), (0,), "1/2"), ((0,), (2,), "1/2"), ((1,), (1,), "1/0")),
         "coefficient '1/0' has a zero denominator"),
        (1, _terms(((2,), (0,), "1/2"), ((0,), (2,), "1/2 ")),
         "a coefficient must be an integer or a fraction string, got '1/2 '"),
        (1, _terms(((2,), (0,), "1/2"), ((-1,), (0,), "1/2")),
         "exponents must be non-negative integers, got (-1,) and (0,)"),
        (2, _terms(((2, 0), (0, 0), "1/2"), ((0, 2), (0, 0), "1/2"), ((1,), (1,), "1/2")),
         "monomial rank 1 does not match polynomial rank 2"),
        (2, _terms(((2,), (0,), "1/2"), ((0, 2), (0, 0), "1/2"), ((1, 1), (1, 1), "x")),
         "a coefficient must be an integer or a fraction string, got 'x'"),
        (2, _terms(((2, 0), (0, 0), "1/2"), ((2,), (0,), "1/2"), ((1, 1), (1, 1), "1/0")),
         "coefficient '1/0' has a zero denominator"),
        (2, _terms(((2,), (0,), "1/2"), ((0, 2), (0, 0), "1/2"), ((0, 2), (0, 0), "1/2")),
         "monomial x2^2 is listed twice"),
        (2, _terms(((2, 0), (0, 0), "1/2"), ((2,), (0,), "0")),
         "monomial rank 1 does not match polynomial rank 2"),
        (2, _terms(((2, 0, 0), (0, 0, 0), "1/2"), ((2,), (0,), "1/2")),
         "monomial rank 3 does not match polynomial rank 2"),
        (1, _terms(((2,), (0,), 1), ((2,), (0,), "1")), "monomial x1^2 is listed twice"),
        (1, _terms(((2,), (0,), 1), ((0,), (2,), True)),
         "a coefficient must be an integer or a fraction string, got True"),
    ],
    ids=["bad string repeated", "zero denominator after a good repeated string", "a good string then one unlike it",
         "bad exponent after a parsed string", "rank mismatch in a later term", "rank mismatch then a bad coefficient",
         "rank mismatch then a zero denominator", "rank mismatch then a duplicate", "rank mismatch of a zero term",
         "first of two rank mismatches", "int and string for one monomial", "bool after an equal int"],
)
def test_polynomial_json_refuses_as_every_term_were_parsed_afresh(n, terms, message):
    # Each distinct coefficient string is parsed once per call; every term
    # still passes every check, and of several faults the same is named.
    # A rank mismatch, as in ``Polynomial(n, terms)``, is named only once
    # every term has passed the other checks.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Polynomial.from_json({"n": n, "terms": terms})


def test_polynomial_json_parses_each_coefficient_string_once():
    data = {"n": 2, "terms": _terms(
        ((2, 0), (0, 0), "1/30"), ((0, 2), (0, 0), "1/30"), ((2, 2), (0, 0), "2/60"), ((4, 0), (0, 0), 1),
        ((0, 4), (0, 0), "1"), ((0, 0), (2, 0), 0), ((0, 0), (0, 2), "0/5"),
    )}
    f = Polynomial.from_json(data)
    assert f == poly(2, (Fraction(1, 30), (2, 0), (0, 0)), (Fraction(1, 30), (0, 2), (0, 0)),
                     (Fraction(1, 30), (2, 2), (0, 0)), (1, (4, 0), (0, 0)), (1, (0, 4), (0, 0)))
    assert all(type(c) is Fraction for _, c in f.items())
    # one Fraction for the repeated string, another for the equal one spelt otherwise
    assert f.coefficient(mono((2, 0), (0, 0))) is f.coefficient(mono((0, 2), (0, 0)))
    assert f.coefficient(mono((2, 2), (0, 0))) is not f.coefficient(mono((2, 0), (0, 0)))


@pytest.mark.parametrize(
    "data,message",
    [
        ({"n": 1, "terms": [], "extra": 1}, "a polynomial has an unknown key 'extra'"),
        ({"n": 1, "terms": [], "N": 1}, "a polynomial has an unknown key 'N'"),
        ({"n": 1, "terms": [], "a\nb": 1}, "a polynomial has an unknown key 'a\\nb'"),
        ({"n": 1, "terms": _terms(((2,), (0,), 1)) + [{"p": [0], "q": [2], "coeff": 1, "r": 5}]},
         "an entry of \"terms\" has an unknown key 'r'"),
        ({"n": 1, "terms": [{"p": [2], "q": [0], "coef": 1}]}, "an entry of \"terms\" has an unknown key 'coef'"),
        # the checks that ran before keep their place
        ({"n": 0, "terms": [], "extra": 1}, 'a polynomial must be a JSON object with a positive integer "n"'),
        ({"n": 1, "terms": [1, {"r": 5}]}, 'a polynomial needs "terms", a list of objects'),
    ],
    ids=["top level", "misspelt rank", "a newline in the key", "in a later term", "misspelt coefficient",
         "after a bad rank", "after a bad term list"],
)
def test_polynomial_json_refuses_an_unknown_key(data, message):
    # a key that nothing reads would be dropped silently
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Polynomial.from_json(data)


def test_text_rendering():
    f = poly(2, (Fraction(1, 2), (2, 0), (2, 0)), (-1, (0, 2), (0, 2)), (-2, (0, 0), (0, 0)))
    assert f.text() == "1/2 x1^2 y1^2 - x2^2 y2^2 - 2"
    assert Polynomial(2).text() == "0"
