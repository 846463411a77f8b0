"""Descent monomial families, ordered monomials, and decomposition."""

import itertools
import random

import pytest

import signsym.descent_basis as descent_basis_module
from helpers import counted_product, mono, sp
from signsym.descent_basis import (
    _classes,
    cell_columns,
    compare,
    decompose,
    descent_monomial,
    diagonal_descent_monomial,
    diagonal_signed_descent_monomial,
    is_ordered,
    order_key,
    ordered_monomials,
    ordered_representative,
    partitions_fixed_length,
    product_coefficients,
    sign_twist,
    signed_descent_monomial,
    signed_index_permutation,
)
from signsym.poly import Monomial, Polynomial, orbit_key, rearrangement_count, rho
from signsym.signed_perm import SignedPermutation, enumerate_group, statistics


def test_descent_monomial_examples():
    assert descent_monomial(sp(6, 2, 1, 4, 3, 5)) == mono((1, 2, 0, 1, 0, 3), (0,) * 6)
    assert descent_monomial(SignedPermutation.identity(4)) == Monomial.one(4)
    assert descent_monomial(sp(2, 1)) == mono((0, 1), (0, 0))


def test_descent_monomial_degree_is_maj():
    for pi in itertools.permutations(range(1, 6)):
        sigma = SignedPermutation(pi)
        assert descent_monomial(sigma).total_degree() == statistics(sigma).maj


def test_descent_monomial_rejects_negative_window():
    with pytest.raises(ValueError, match="all-positive"):
        descent_monomial(sp(-1, 2))


def test_signed_descent_monomial_examples():
    assert signed_descent_monomial(sp(-6, 2, -1, -4, 3, 5)) == mono(
        (3, 4, 0, 1, 0, 5), (0,) * 6
    )
    assert signed_descent_monomial(SignedPermutation.identity(3)) == Monomial.one(3)
    assert signed_descent_monomial(sp(-1)) == mono((1,), (0,))


def test_signed_descent_monomial_degree_is_fmaj():
    for sigma in enumerate_group(3):
        assert signed_descent_monomial(sigma).total_degree() == statistics(sigma).fmaj


def test_diagonal_descent_monomial_examples():
    assert diagonal_descent_monomial(sp(4, 6, 1, 2, 5, 3)) == mono(
        (2, 2, 2, 1, 1, 0), (1, 1, 0, 2, 1, 2)
    )
    assert diagonal_descent_monomial(SignedPermutation.identity(5)) == Monomial.one(5)
    assert diagonal_descent_monomial(sp(2, 1)) == mono((1, 0), (0, 1))
    with pytest.raises(ValueError, match="all-positive"):
        diagonal_descent_monomial(sp(1, -2))


def test_diagonal_signed_descent_monomial_examples():
    assert diagonal_signed_descent_monomial(sp(2, -1, -4, 3)) == mono(
        (3, 2, 2, 1), (3, 4, 0, 1)
    )
    assert diagonal_signed_descent_monomial(SignedPermutation.identity(2)) == Monomial.one(2)
    assert diagonal_signed_descent_monomial(sp(-1)) == mono((1,), (1,))


def test_diagonal_signed_descent_monomial_structure_exhaustive():
    # ordered, slotwise parity match, and degree fmaj(sigma) + fmaj(inverse)
    for n in range(1, 5):
        for sigma in enumerate_group(n):
            c = diagonal_signed_descent_monomial(sigma)
            assert is_ordered(c)
            assert all((pi + qi) % 2 == 0 for pi, qi in zip(c.p, c.q))
            expected = statistics(sigma).fmaj + statistics(sigma.inverse()).fmaj
            assert c.total_degree() == expected


def test_diagonal_signed_descent_monomial_injective():
    for n in range(1, 5):
        images = {diagonal_signed_descent_monomial(s) for s in enumerate_group(n)}
        assert len(images) == 2**n * [1, 1, 2, 6, 24][n]


def test_sign_twist():
    assert [sign_twist(v) for v in range(-3, 4)] == [3, -2, 1, 0, -1, 2, -3]


def test_is_ordered_examples():
    assert is_ordered(mono((7, 6, 6, 5), (3, 8, 6, 5)))
    assert is_ordered(Monomial.one(4))
    assert not is_ordered(mono((1, 0), (0, 1)))  # odd slot totals
    assert not is_ordered(mono((0, 2), (0, 2)))  # pairs increase
    assert is_ordered(mono((5, 5), (3, 5)))
    assert not is_ordered(mono((5, 5), (5, 3)))  # odd tie wants q increasing


def test_ordered_representative_examples():
    assert ordered_representative(mono((0, 2), (0, 2))) == mono((2, 0), (2, 0))
    fixed = mono((7, 6, 6, 5), (3, 8, 6, 5))
    assert ordered_representative(fixed) == fixed
    assert ordered_representative(mono((5, 5), (5, 3))) == mono((5, 5), (3, 5))
    with pytest.raises(ValueError, match="odd total"):
        ordered_representative(mono((1, 0), (0, 1)))


def test_ordered_representative_is_the_orbit_transversal():
    # same average, ordered, and unique in the orbit
    rng = random.Random(41)
    for _ in range(30):
        n = rng.choice((2, 3))
        p = tuple(rng.randint(0, 4) for _ in range(n))
        q = tuple(pi % 2 + 2 * rng.randint(0, 2) for pi in p)
        m = mono(p, q)
        rep = ordered_representative(m)
        assert is_ordered(rep)
        assert rho(Polynomial.from_monomial(rep)) == rho(Polynomial.from_monomial(m))
        orbit = {
            mono([p[i] for i in alpha], [q[i] for i in alpha])
            for alpha in itertools.permutations(range(n))
        }
        assert [w for w in orbit if is_ordered(w)] == [rep]


def test_signed_index_permutation_examples():
    m = mono((7, 6, 6, 5, 5, 3), (3, 8, 6, 3, 5, 5))
    assert signed_index_permutation(m) == sp(2, 3, -6, -5, -4, -1)
    assert signed_index_permutation(Monomial.one(3)) == SignedPermutation.identity(3)
    c = diagonal_signed_descent_monomial(sp(2, -1, -4, 3))
    assert signed_index_permutation(c) == sp(2, -1, -4, 3)
    with pytest.raises(ValueError, match="ordered"):
        signed_index_permutation(mono((0, 2), (0, 2)))


def test_signed_index_permutation_defining_properties():
    for m in ordered_monomials(3, 4, 6):
        sigma = signed_index_permutation(m)
        q_along = [m.q[abs(v) - 1] for v in sigma.window]
        assert q_along == sorted(q_along, reverse=True)
        for i, v in enumerate(sigma.window):
            assert (m.q[abs(v) - 1] % 2 == 0) == (v > 0)
        for i in range(2):
            if q_along[i] == q_along[i + 1]:
                assert sigma.window[i] < sigma.window[i + 1]


def test_round_trip_on_descent_monomials_exhaustive():
    for n in range(1, 5):
        for sigma in enumerate_group(n):
            c = diagonal_signed_descent_monomial(sigma)
            assert signed_index_permutation(c) == sigma
            dec = decompose(c)
            assert dec.sigma == sigma
            assert dec.nu == (0,) * n
            assert dec.mu == (0,) * n
            assert dec.delta == statistics(sigma.inverse()).f


def test_compare_examples():
    m = mono((7, 6, 6, 5), (3, 8, 6, 5))
    w = mono((7, 6, 6, 5), (5, 8, 6, 3))
    assert order_key(m)[0] == (7, 6, 6, 5, 8, 6, 5, 3)
    assert order_key(m)[0] == order_key(w)[0]
    assert compare(m, w) == 1
    assert compare(m, m) == 0
    assert compare(mono((2, 0), (2, 0)), mono((2, 0), (0, 2))) == 1


def test_compare_is_a_total_order():
    pool = list(ordered_monomials(2, 4, 4)) + list(ordered_monomials(2, 2, 4))
    rng = random.Random(13)
    for _ in range(100):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert compare(a, b) == -compare(b, a)
        if compare(a, b) >= 0 and compare(b, c) >= 0:
            assert compare(a, c) >= 0
        if compare(a, b) == 0:
            assert a == b


def test_compare_rejects_bad_input():
    with pytest.raises(ValueError, match="rank mismatch"):
        compare(Monomial.one(2), Monomial.one(3))
    with pytest.raises(ValueError, match="not an ordered"):
        compare(mono((0, 2), (0, 2)), Monomial.one(2))


def test_decompose_worked_example():
    m = mono((7, 6, 6, 5, 5, 3), (3, 8, 6, 3, 5, 5))
    dec = decompose(m)
    assert dec.sigma == sp(2, 3, -6, -5, -4, -1)
    assert dec.delta == (3, 2, 2, 1, 1, 1)
    assert dec.nu == (2, 2, 2, 2, 2, 1)
    assert dec.gamma == (1, 2, 2, 1, 1, 1)
    assert dec.mu == (1, 3, 2, 1, 2, 2)


def test_decompose_trivial_and_error():
    dec = decompose(Monomial.one(3))
    assert dec.sigma == SignedPermutation.identity(3)
    assert dec.nu == dec.delta == dec.mu == dec.gamma == (0, 0, 0)
    with pytest.raises(ValueError, match="ordered"):
        decompose(mono((0, 2), (0, 2)))


def test_decompose_descent_monomial_example():
    dec = decompose(diagonal_signed_descent_monomial(sp(2, -1, -4, 3)))
    assert dec.sigma == sp(2, -1, -4, 3)
    assert dec.nu == dec.mu == (0, 0, 0, 0)
    assert dec.delta == (3, 2, 2, 1)
    assert dec.gamma == (3, 4, 0, 1)


def test_class_walk_matches_a_plain_count_of_every_term():
    # the kernel walks the rearrangements of 2*nu once per class of equal
    # sorted pairs; a count over every (r, s) with no merging must agree
    # at every column of cells too large for full products; the kernel's
    # integer counts are orbit sums, the oracle's coefficients times the
    # orbit size
    cells = [(5, 6, 6), (6, 8, 4), (6, 10, 6), (8, 4, 4), (8, 6, 6), (8, 8, 8)]
    merged = several = 0
    for n, a, b in cells:
        columns, index = cell_columns(n, a, b, descent_basis_module.COLUMN_GUARD)
        assert columns == sorted(ordered_monomials(n, a, b), key=order_key, reverse=True)
        assert index == {orbit_key(w): j for j, w in enumerate(columns)}
        for w in columns:
            dec = decompose(w)
            counts = product_coefficients(dec, index)
            assert all(type(count) is int for count in counts.values())
            expected = {v: c * rearrangement_count(orbit_key(v)) for v, c in counted_product(dec, columns).items()}
            assert {columns[j]: count for j, count in counts.items()} == expected, w.text()
            classes = _classes(dec)
            merged += any(k > 1 for k in classes.values())
            several += len(classes) > 1
    assert merged and several


def test_product_term_outside_the_index_raises():
    # a term whose orbit is not a column is a broken invariant, not a KeyError
    columns, index = cell_columns(3, 4, 4, descent_basis_module.COLUMN_GUARD)
    dec = decompose(columns[0])
    del index[orbit_key(columns[0])]
    with pytest.raises(RuntimeError, match="internal decomposition invariant violated"):
        product_coefficients(dec, index)


def test_decompose_reconstruction_small_grid():
    # m = x^(2 nu) y^(2 mu) c_sigma, with (delta, gamma) the exponents of
    # c_sigma as diagonal_signed_descent_monomial builds them
    pool = [
        mono(p, q)
        for n in (1, 2)
        for p in itertools.product(range(5), repeat=n)
        for q in itertools.product(range(5), repeat=n)
    ]
    pool += [m for a in range(7) for b in range(7) for m in ordered_monomials(3, a, b)]
    pool += list(ordered_monomials(4, 4, 4)) + list(ordered_monomials(4, 6, 6))
    checked = 0
    for m in pool:
        if not is_ordered(m):
            continue
        dec = decompose(m)
        assert m.p == tuple(2 * v + d for v, d in zip(dec.nu, dec.delta))
        assert m.q == tuple(2 * v + g for v, g in zip(dec.mu, dec.gamma))
        c = diagonal_signed_descent_monomial(dec.sigma)
        assert (c.p, c.q) == (dec.delta, dec.gamma), m
        even = mono([2 * v for v in dec.nu], [2 * v for v in dec.mu])
        assert even * c == m
        checked += 1
    assert checked > 350


def test_decompose_flag_slack_properties():
    # the halved remainders come from weakly decreasing even gap sequences
    for m in ordered_monomials(3, 5, 5):
        dec = decompose(m)
        sigma = dec.sigma
        st = statistics(sigma)
        st_inv = statistics(sigma.inverse())
        gaps_q = [
            m.q[abs(sigma.window[i]) - 1] - st.f[i] for i in range(3)
        ]
        gaps_p = [m.p[i] - st_inv.f[i] for i in range(3)]
        for gaps in (gaps_q, gaps_p):
            assert all(v >= 0 and v % 2 == 0 for v in gaps)
            assert all(gaps[i] >= gaps[i + 1] for i in range(2))


def test_decomposition_sigma_example():
    dec = decompose(mono((7, 6, 6, 5, 5, 3), (3, 8, 6, 3, 5, 5)))
    assert dec.sigma == sp(2, 3, -6, -5, -4, -1)


def test_partitions_fixed_length():
    assert list(partitions_fixed_length(4, 2)) == [(4, 0), (3, 1), (2, 2)]
    assert list(partitions_fixed_length(0, 3)) == [(0, 0, 0)]
    assert list(partitions_fixed_length(2, 0)) == []


@pytest.mark.parametrize("a,b", [(2.0, 0), (True, 0), (0, "2")])
def test_ordered_monomials_refuses_a_degree_that_is_not_an_int(a, b):
    with pytest.raises(ValueError, match=r"^degrees \(.*\) are not integers$"):
        list(ordered_monomials(2, a, b))


def test_ordered_monomials_enumeration():
    cell = sorted((m.p, m.q) for m in ordered_monomials(2, 2, 2))
    assert cell == [((1, 1), (1, 1)), ((2, 0), (0, 2)), ((2, 0), (2, 0))]
    assert list(ordered_monomials(2, 1, 0)) == []
    # a negative int degree is a valid question with no answer
    assert list(ordered_monomials(2, -1, 0)) == list(ordered_monomials(2, 0, -3)) == []
    # exhaustive cross-check against a plain filter over all exponent vectors
    for n, a, b in ((2, 4, 4), (3, 5, 5), (3, 6, 3), (4, 4, 4)):
        ps = [p for p in itertools.product(range(a + 1), repeat=n) if sum(p) == a]
        qs = [q for q in itertools.product(range(b + 1), repeat=n) if sum(q) == b]
        expected = sorted((p, q) for p in ps for q in qs if is_ordered(mono(p, q)))
        got = [(m.p, m.q) for m in ordered_monomials(n, a, b)]
        assert sorted(got) == expected, (n, a, b)
        assert len(set(got)) == len(got)
