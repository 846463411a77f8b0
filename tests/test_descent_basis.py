"""Descent monomial families, ordered monomials, and decomposition."""

import itertools
import random
import re

import pytest

import signsym.descent_basis as descent_basis_module
import signsym.hilbert as hilbert_module
from helpers import (
    count_walk,
    counted_product,
    mono,
    mono_product,
    ordered_representative,
    partitions_fixed_length,
    reference_order_key,
    sp,
)
from signsym.descent_basis import (
    COLUMN_GUARD,
    _classes,
    _decompose,
    _descent_data,
    _index_window,
    _y_descent_data,
    cell_columns,
    check_columns,
    compare,
    decompose,
    descent_monomial,
    diagonal_descent_monomial,
    diagonal_signed_descent_monomial,
    is_ordered,
    order_key,
    ordered_monomials,
    pair_codes,
    product_coefficients,
    sign_twist,
    signed_descent_monomial,
    signed_index_permutation,
)
from signsym.hilbert import candidate_rows
from signsym.poly import Monomial, Polynomial, orbit_key, rearrangement_count, rho
from signsym.signed_perm import SignedPermutation, enumerate_group, statistics


def test_descent_monomial_examples():
    assert descent_monomial(sp(6, 2, 1, 4, 3, 5)) == mono((1, 2, 0, 1, 0, 3), (0,) * 6)
    assert descent_monomial(sp(1, 2, 3, 4)) == mono((0,) * 4, (0,) * 4)
    assert descent_monomial(sp(2, 1)) == mono((0, 1), (0, 0))


def test_descent_monomial_degree_is_maj():
    for pi in itertools.permutations(range(1, 6)):
        sigma = SignedPermutation(pi)
        m = descent_monomial(sigma)
        assert sum(m.p + m.q) == statistics(sigma).maj


def test_descent_monomial_rejects_negative_window():
    with pytest.raises(ValueError, match="all-positive"):
        descent_monomial(sp(-1, 2))


def test_signed_descent_monomial_examples():
    assert signed_descent_monomial(sp(-6, 2, -1, -4, 3, 5)) == mono(
        (3, 4, 0, 1, 0, 5), (0,) * 6
    )
    assert signed_descent_monomial(sp(1, 2, 3)) == mono((0,) * 3, (0,) * 3)
    assert signed_descent_monomial(sp(-1)) == mono((1,), (0,))


def test_signed_descent_monomial_degree_is_fmaj():
    for sigma in enumerate_group(3):
        m = signed_descent_monomial(sigma)
        assert sum(m.p + m.q) == statistics(sigma).fmaj


def test_diagonal_descent_monomial_examples():
    assert diagonal_descent_monomial(sp(4, 6, 1, 2, 5, 3)) == mono(
        (2, 2, 2, 1, 1, 0), (1, 1, 0, 2, 1, 2)
    )
    assert diagonal_descent_monomial(sp(1, 2, 3, 4, 5)) == mono((0,) * 5, (0,) * 5)
    assert diagonal_descent_monomial(sp(2, 1)) == mono((1, 0), (0, 1))
    with pytest.raises(ValueError, match="all-positive"):
        diagonal_descent_monomial(sp(1, -2))


def test_diagonal_signed_descent_monomial_examples():
    assert diagonal_signed_descent_monomial(sp(2, -1, -4, 3)) == mono(
        (3, 2, 2, 1), (3, 4, 0, 1)
    )
    assert diagonal_signed_descent_monomial(sp(1, 2)) == mono((0,) * 2, (0,) * 2)
    assert diagonal_signed_descent_monomial(sp(-1)) == mono((1,), (1,))


def test_diagonal_signed_descent_monomial_structure_exhaustive():
    # ordered, slotwise parity match, and degree fmaj(sigma) + fmaj(inverse)
    for n in range(1, 5):
        for sigma in enumerate_group(n):
            c = diagonal_signed_descent_monomial(sigma)
            assert is_ordered(c)
            assert all((pi + qi) % 2 == 0 for pi, qi in zip(c.p, c.q))
            expected = statistics(sigma).fmaj + statistics(sigma.inverse()).fmaj
            assert sum(c.p + c.q) == expected


def test_diagonal_signed_descent_monomial_injective():
    for n in range(1, 5):
        images = {diagonal_signed_descent_monomial(s) for s in enumerate_group(n)}
        assert len(images) == 2**n * [1, 1, 2, 6, 24][n]


def test_sign_twist():
    assert [sign_twist(v) for v in range(-3, 4)] == [3, -2, 1, 0, -1, 2, -3]


def test_is_ordered_examples():
    assert is_ordered(mono((7, 6, 6, 5), (3, 8, 6, 5)))
    assert is_ordered(mono((0,) * 4, (0,) * 4))
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
    assert signed_index_permutation(mono((0,) * 3, (0,) * 3)) == sp(1, 2, 3)
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
        compare(mono((0,) * 2, (0,) * 2), mono((0,) * 3, (0,) * 3))
    with pytest.raises(ValueError, match="not an ordered"):
        compare(mono((0, 2), (0, 2)), mono((0,) * 2, (0,) * 2))


def test_decompose_worked_example():
    m = mono((7, 6, 6, 5, 5, 3), (3, 8, 6, 3, 5, 5))
    dec = decompose(m)
    assert dec.sigma == sp(2, 3, -6, -5, -4, -1)
    assert dec.delta == (3, 2, 2, 1, 1, 1)
    assert dec.nu == (2, 2, 2, 2, 2, 1)
    assert dec.gamma == (1, 2, 2, 1, 1, 1)
    assert dec.mu == (1, 3, 2, 1, 2, 2)


def test_decompose_trivial_and_error():
    dec = decompose(mono((0,) * 3, (0,) * 3))
    assert dec.sigma == sp(1, 2, 3)
    assert dec.nu == dec.delta == dec.mu == dec.gamma == (0, 0, 0)
    with pytest.raises(ValueError, match="ordered"):
        decompose(mono((0, 2), (0, 2)))


WORKED = mono((7, 6, 6, 5, 5, 3), (3, 8, 6, 3, 5, 5))


@pytest.mark.parametrize(
    "delta,gamma,ties,message",
    [
        ((3, 2, 2, 1, 1, 2), None, None, "p - delta not even non-negative at slot 6"),
        ((9, 2, 2, 1, 1, 1), None, None, "p - delta not even non-negative at slot 1"),
        (None, (2, 2, 2, 1, 1, 1), None, "q - gamma not even non-negative at slot 1"),
        (None, (1, 2, 2, 1, 1, 7), None, "q - gamma not even non-negative at slot 6"),
        ((5, 2, 2, 1, 1, 1), None, None, "nu not weakly decreasing"),
        (None, (1, 2, 4, 1, 1, 1), None, "mu not weakly decreasing along sigma"),
        (None, None, (("delta", 0, 1),), "delta tie at slots 1,2 breaks the twist order"),
        (None, None, (("gamma", 0, 1),), "gamma tie at slots 1,2 breaks the twist order"),
    ],
    ids=["p-odd", "p-negative", "q-odd", "q-negative", "nu", "mu", "delta-tie", "gamma-tie"],
)
@pytest.mark.parametrize("entry", [decompose, _decompose], ids=["decompose", "_decompose"])
def test_each_decompose_check_fires(monkeypatch, entry, delta, gamma, ties, message):
    # The checks on the halved parts read delta, gamma and the tie pairs
    # from _descent_data, once per sigma, and a column reaches them, with
    # the checks on its y side, through one cached lookup of its y
    # exponents; a statistics bug that feeds them a wrong value must
    # still be caught, by the check that names it, in the public entry
    # and in the private one that skips is_ordered.  The lookup has
    # cached WORKED by then, so it is replaced by its uncached body.
    real = _descent_data
    assert entry(WORKED).nu == (2, 2, 2, 2, 2, 1)

    def broken(window):
        sigma, real_delta, real_gamma, order, real_ties = real(window)
        return sigma, delta or real_delta, gamma or real_gamma, order, real_ties if ties is None else ties

    monkeypatch.setattr(descent_basis_module, "_descent_data", broken)
    monkeypatch.setattr(descent_basis_module, "_y_descent_data", _y_descent_data.__wrapped__)
    with pytest.raises(RuntimeError, match=f"^internal decomposition invariant violated: {re.escape(message)}$"):
        entry(WORKED)


def test_tie_pairs_chain_the_slots_of_each_value():
    # the tie checks compare, for each value of delta and of gamma, its
    # slots in increasing order, each with the next, which orders every
    # pair of them; the list depends on sigma alone
    window = decompose(WORKED).sigma.window
    assert _descent_data(window)[4] == (
        ("delta", 1, 2), ("delta", 3, 4), ("delta", 4, 5),
        ("gamma", 1, 2), ("gamma", 0, 3), ("gamma", 3, 4), ("gamma", 4, 5),
    )
    chained = 0
    for n in (1, 2, 3, 4):
        for sigma in enumerate_group(n):
            _, delta, gamma, _, ties = _descent_data(sigma.window)
            expected = set()
            for name, seq in (("delta", delta), ("gamma", gamma)):
                for value in set(seq):
                    slots = [i for i, v in enumerate(seq) if v == value]
                    expected.update((name, i, j) for i, j in zip(slots, slots[1:]))
            assert len(ties) == len(expected) and set(ties) == expected, sigma
            chained += len(ties)
    assert chained > 600


def test_one_pass_descent_data_matches_the_statistics():
    # _descent_data reads delta and gamma from the descent counts of the
    # window and of its inverse in one pass; they must be the exponents of
    # diagonal_signed_descent_monomial, which builds them from two
    # statistics profiles, for every sigma of ranks 1-5.  The slot order
    # lists |sigma(i)| - 1 at position i: the position that the inverse's
    # window sends to i + 1.
    checked = 0
    for n in (1, 2, 3, 4, 5):
        for sigma in enumerate_group(n):
            built, delta, gamma, order, _ = _descent_data(sigma.window)
            c = diagonal_signed_descent_monomial(sigma)
            assert built == sigma
            assert (delta, gamma) == (c.p, c.q), sigma
            assert all(type(v) is int for v in delta + gamma)
            inverse = sigma.inverse().window
            assert len(order) == n and all(abs(inverse[k]) == i + 1 for i, k in enumerate(order)), sigma
            assert [gamma[k] for k in order] == list(statistics(sigma).f)
            checked += 1
    assert checked == 2 + 8 + 48 + 384 + 3840


def _brute_index_window(q):
    # The window of the docstring of signed_index_permutation: positions
    # by decreasing q, a position j as j for even q_j and -j for odd, each
    # block of equal q in increasing window values.
    window = []
    for value in sorted(set(q), reverse=True):
        window += sorted(j if value % 2 == 0 else -j for j, v in enumerate(q, start=1) if v == value)
    return tuple(window)


def test_y_lookup_returns_the_index_window():
    # a column finds sigma, and with it delta, gamma and mu, by one cached
    # lookup of its y exponents, which alone fix the window
    checked = 0
    for n in (1, 2, 3, 4, 5):
        for total in range(13):
            for a in range(total + 1):
                for w in ordered_monomials(n, a, total - a):
                    sigma, delta, gamma, mu = _y_descent_data(w.q)
                    assert sigma.window == _index_window(w.q) == _brute_index_window(w.q), w.text()
                    assert sigma == signed_index_permutation(w)
                    assert _y_descent_data(w.q) is _y_descent_data(w.q)
                    dec = decompose(w)
                    assert (dec.sigma, dec.delta, dec.gamma, dec.mu) == (sigma, delta, gamma, mu)
                    checked += 1
    assert checked > 2500


def test_order_key_matches_the_reference_key():
    # order_key reads p as it stands and twists q inline; on every ordered
    # monomial up to total 12 at ranks 1-5 it must equal the key built
    # from the definition, and cell_columns must order each cell by it
    for n in (1, 2, 3, 4, 5):
        for total in range(13):
            for a in range(total + 1):
                columns = list(ordered_monomials(n, a, total - a))
                assert all(order_key(w) == reference_order_key(w) for w in columns), (n, a, total - a)
                expected = sorted(columns, key=reference_order_key, reverse=True)
                assert cell_columns(n, a, total - a)[0] == expected, (n, a, total - a)


def test_walk_work_is_proportional_to_its_columns(monkeypatch):
    # the walk's bounds (x at least ceil(a / k), and a = k * x forcing the
    # twisted y) keep its calls, and the steps of its loops, within a small
    # multiple of the columns it yields, per cell and for a caller that
    # stops early, however large the y-degree
    counts = count_walk(monkeypatch)
    cells = [(n, a, total - a) for n in range(1, 9) for total in range(15) for a in range(total + 1)]
    cells += [(20, a, total - a) for total in range(13) for a in range(total + 1)]
    for n, a, b in cells:
        counts[:] = [0, 0]
        columns = sum(1 for _ in ordered_monomials(n, a, b))
        assert counts[0] <= 4 * (columns + 1), (n, a, b, columns, counts)
        assert counts[1] <= 10 * (columns + 1), (n, a, b, columns, counts)
    for n, a, b in ((8, 2, 400), (3, 2, 200_000_000)):
        counts[:] = [0, 0]
        assert len(list(itertools.islice(ordered_monomials(n, a, b), 1001))) == 1001
        assert counts[0] <= 4 * 1001 and counts[1] <= 10 * 1001, (n, a, b, counts)
    counts[:] = [0, 0]
    assert list(ordered_monomials(3, 1, 200_000)) == []
    assert counts == [0, 0]


def test_first_column_drawn_has_at_most_two_nonzero_pairs():
    # the walk runs x and the twisted y from the largest down, so its first
    # column takes all of a in one pair and its recursion stays shallow at
    # any rank; an upward walk in y would first build (0, 2), ..., (0, 2)
    # at (1200, 0, 2400), 1200 nested calls
    for n, a, b in ((1200, 0, 2400), (1200, 1, 2401), (1200, 2, 2400), (5, 7, 9), (4, 6, 0), (1, 3, 5)):
        first = next(ordered_monomials(n, a, b))
        assert sum(1 for x, y in zip(first.p, first.q) if x or y) <= 2, (n, a, b)


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
    # orbit size, keyed by each orbit's sorted pair codes, and the rows
    # of ``candidate_rows`` hold them at the column positions
    cells = [(5, 6, 6), (6, 8, 4), (6, 10, 6), (8, 4, 4), (8, 6, 6), (8, 8, 8)]
    merged = several = 0
    for n, a, b in cells:
        columns, index = cell_columns(n, a, b)
        assert columns == sorted(ordered_monomials(n, a, b), key=reference_order_key, reverse=True)
        # each key decodes, code by code, to the column's sorted exponent pairs
        assert {tuple(divmod(code, b + 1) for code in key): j for key, j in index.items()} == {
            orbit_key(w): j for j, w in enumerate(columns)
        }
        classes = {}
        for w, row in zip(columns, candidate_rows(n, a, b)[1]):
            dec = decompose(w)
            counts = product_coefficients(dec, b + 1, classes)
            assert all(type(count) is int for count in counts.values())
            expected = {v: c * rearrangement_count(orbit_key(v)) for v, c in counted_product(dec, columns).items()}
            assert {tuple(divmod(code, b + 1) for code in key): k for key, k in counts.items()} == {
                orbit_key(v): k for v, k in expected.items()
            }, w.text()
            assert {columns[j]: count for j, count in row.items()} == expected, w.text()
            assert classes[dec.nu, dec.sigma] == _classes(dec, b + 1)
            merged += any(k > 1 for k in classes[dec.nu, dec.sigma].values())
            several += len(classes[dec.nu, dec.sigma]) > 1
        # the columns sharing nu and sigma shared one class table
        assert len(classes) < len(columns)
    assert merged and several


@pytest.mark.parametrize("n,a,b", [(2, 2, 12), (2, 0, 14), (2, 5, 11), (2, 7, 13), (3, 4, 10), (3, 5, 11)])
def test_kernel_rows_at_the_code_boundary(n, a, b):
    # Each pair (p, q) of a cell is coded as p * (b + 1) + q, one-to-one
    # because no y exponent passes b.  The largest column of these cells
    # puts all of b in one slot, at the top of the code's range.  At base
    # b the pair (x, b) would code as (x + 1, 0), and in the cells with an
    # odd b two columns would share a key: {(1, 11), (4, 0)} and
    # {(3, 11), (2, 0)} in (5, 11), say.  The rows of ``candidate_rows``
    # must be the plain term counts, as orbit sums, at every column.
    columns, rows = candidate_rows(n, a, b)
    assert b >= 10 and b in columns[0].q
    assert len(cell_columns(n, a, b)[1]) == len(columns)
    for w, row in zip(columns, rows):
        expected = {v: c * rearrangement_count(orbit_key(v)) for v, c in counted_product(decompose(w), columns).items()}
        assert {columns[j]: count for j, count in row.items()} == expected, w.text()


def test_product_term_outside_the_index_raises(monkeypatch):
    # a term whose orbit is not a column of the cell is a broken
    # invariant, not a KeyError
    columns, index = cell_columns(3, 4, 4)
    del index[tuple(sorted(pair_codes(columns[0].p, columns[0].q, 5)))]
    monkeypatch.setattr(hilbert_module, "cell_columns", lambda n, a, b: (columns, index))
    message = f"internal decomposition invariant violated: a product term has the orbit {orbit_key(columns[0])}, which is not a column"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        list(candidate_rows(3, 4, 4)[1])


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
        assert mono_product(even, c) == m
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


@pytest.mark.parametrize(
    "n,a,b,message",
    [
        (True, 2, 2, "rank True is not a positive integer"),
        (0, 2, 2, "rank 0 is not a positive integer"),
        (2.0, 2, 2, "rank 2.0 is not a positive integer"),
    ],
    ids=["rank-True", "rank-0", "rank-2.0"],
)
def test_ordered_monomials_refuses_at_the_call(n, a, b, message):
    # refused before any iteration, as enumerate_group refuses its rank;
    # the degrees are refused at the call too (DEGREE_ENTRY_POINTS)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ordered_monomials(n, a, b)


def test_ordered_monomials_enumeration():
    cell = sorted((m.p, m.q) for m in ordered_monomials(2, 2, 2))
    assert cell == [((1, 1), (1, 1)), ((2, 0), (0, 2)), ((2, 0), (2, 0))]
    assert list(ordered_monomials(2, 1, 0)) == []
    # exhaustive cross-check against a plain filter over all exponent vectors
    # (3, 3, 5) forces every x to 1, (3, 6, 4) every x to 2, and (3, 3, 4)
    # has an odd total, so no column
    cells = [(2, 4, 4), (3, 5, 5), (3, 6, 3), (4, 4, 4), (1, 5, 7), (3, 3, 5), (3, 6, 4)]
    cells += [(4, 8, 2), (3, 0, 6), (3, 6, 0), (3, 3, 4)]
    for n, a, b in cells:
        ps = [p for p in itertools.product(range(a + 1), repeat=n) if sum(p) == a]
        qs = [q for q in itertools.product(range(b + 1), repeat=n) if sum(q) == b]
        expected = sorted((p, q) for p in ps for q in qs if is_ordered(mono(p, q)))
        columns = list(ordered_monomials(n, a, b))
        got = [(m.p, m.q) for m in columns]
        assert sorted(got) == expected, (n, a, b)
        assert len(set(got)) == len(got)
        # the columns skip the constructor's checks, and would pass them
        assert all(Monomial(*w) == w for w in columns)


def test_check_columns_builds_its_message_only_when_refusing():
    # under the cap the message is never formatted: "{9}" would raise
    # IndexError; past it the message is ``what`` formatted, then the cap
    check_columns(COLUMN_GUARD, "{9}")
    with pytest.raises(ValueError, match=r"^cell \(2, 3\) has 100001 ordered columns, above the cap of 100000$"):
        check_columns(COLUMN_GUARD + 1, "cell ({}, {}) has {count} ordered columns, above", 2, 3)
