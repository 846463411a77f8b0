"""Hilbert-series machinery: numerator, expansion, dimensions, rank checks."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import signsym.descent_basis as descent_basis_module
import signsym.hilbert as hilbert_module
from helpers import (
    clear_hilbert_caches,
    full_candidate,
    full_support_rank,
    group_candidates,
    group_order,
    inversion_count,
    mono,
    rational_rank,
    record_table_builds,
    reference_order_key,
    rho_bruteforce,
)
from signsym.descent_basis import (
    _classes,
    decompose,
    diagonal_signed_descent_monomial,
    order_key,
    ordered_monomials,
)
from signsym.hilbert import (
    BiSeries,
    _leading_column_rank,
    candidate_rows,
    fmaj_distribution,
    fmaj_numerator,
    invariant_dimension,
    maj_inv_equidistribution,
    series_coefficient,
    verify_basis_rank,
)
from signsym import scan
from signsym.poly import Polynomial, orbit_key, orbit_sums, rearrangement_count
from signsym.signed_perm import enumerate_group, statistics


def poincare_product(n):
    # prod over i of (1 + t + ... + t^(2i - 1)), expanded by convolution
    coeffs = [1]
    for i in range(1, n + 1):
        block = [1] * (2 * i)
        out = [0] * (len(coeffs) + len(block) - 1)
        for a, ca in enumerate(coeffs):
            for b, cb in enumerate(block):
                out[a + b] += ca * cb
        coeffs = out
    return {d: c for d, c in enumerate(coeffs) if c}


def test_biseries_invariants():
    with pytest.raises(ValueError, match="positive"):
        BiSeries({(0, 0): 0}, truncation=4)
    with pytest.raises(ValueError, match="truncation"):
        BiSeries({(3, 2): 1}, truncation=4)
    series = BiSeries({(0, 0): 1, (1, 1): 1}, truncation=2)
    assert series.coefficient(0, 0) == 1
    assert series.coefficient(5, 5) == 0


def test_fmaj_numerator_rank_one():
    series = fmaj_numerator(1)
    assert dict(series.coefficients) == {(0, 0): 1, (1, 1): 1}


def test_fmaj_numerator_mass_and_symmetry():
    for n in (1, 2, 3, 4):
        series = fmaj_numerator(n)
        assert series.total_mass() == len(list(enumerate_group(n)))
        for (a, b), c in series.coefficients.items():
            assert series.coefficient(b, a) == c


def test_fmaj_numerator_guard(monkeypatch):
    # rank 8 reaches the scan; rank 9 is refused before it
    monkeypatch.setattr(scan, "fmaj_pair_counts", lambda n: {(0, 0): group_order(n)})
    assert fmaj_numerator(8).total_mass() == group_order(8)
    with pytest.raises(ValueError, match="^rank 9 exceeds the guard 8$"):
        fmaj_numerator(9)


def test_fmaj_distribution_matches_product_formula():
    for n in (1, 2, 3, 4):
        assert fmaj_distribution(n) == poincare_product(n)


def test_series_coefficient_rank_one_closed_form():
    # (1 + s t) / ((1 - s^2)(1 - t^2)) has coefficient 1 exactly when the
    # degrees share parity
    for a in range(9):
        for b in range(9):
            expected = 1 if (a % 2) == (b % 2) else 0
            assert series_coefficient(1, a, b) == expected


def test_series_coefficient_examples():
    assert series_coefficient(1, 3, 1) == 1
    assert series_coefficient(1, 1, 0) == 0
    assert series_coefficient(2, 0, 0) == 1
    with pytest.raises(ValueError):
        series_coefficient(1, -1, 0)


def times_denominator(n, cells, max_total):
    # the series times prod (1 - s^(2i)) (1 - t^(2i)) on a + b <= max_total
    for i in range(1, n + 1):
        step = 2 * i
        cells = {(a, b): c - cells.get((a - step, b), 0) for (a, b), c in cells.items()}
        cells = {(a, b): c - cells.get((a, b - step), 0) for (a, b), c in cells.items()}
    return {k: c for k, c in cells.items() if c}


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_grown_series_table_in_any_query_order(order):
    # the widest table serves every smaller total, whatever order the
    # totals come in; multiplying back by the denominator must give the
    # numerator, which pins every coefficient of the triangle
    max_total = 12
    keys = [(a, total - a) for total in range(max_total + 1) for a in range(total + 1)]
    if order == "descending":
        keys.reverse()
    elif order == "shuffled":
        random.Random(16).shuffle(keys)
    for n in (1, 2, 3, 4):
        clear_hilbert_caches()
        cells = {(a, b): series_coefficient(n, a, b) for a, b in keys}
        expected = {k: c for k, c in scan.fmaj_pair_counts(n).items() if sum(k) <= max_total}
        assert times_denominator(n, cells, max_total) == expected, (n, order)


@pytest.fixture
def builds(monkeypatch):
    yield record_table_builds(monkeypatch, hilbert_module._series_table)
    clear_hilbert_caches()


def test_ascending_totals_build_once_per_total(builds):
    for total in range(9):
        for a in range(total + 1):
            series_coefficient(3, a, total - a)
    assert builds == list(range(9))


def test_descending_totals_build_once(builds):
    for total in range(8, -1, -1):
        for a in range(total + 1):
            series_coefficient(3, a, total - a)
    assert builds == [8]
    # each rank keeps its own table
    series_coefficient(2, 3, 3)
    series_coefficient(3, 0, 8)
    assert builds == [8, 6]


def test_cleared_caches_rebuild(builds):
    series_coefficient(3, 4, 4)
    series_coefficient(3, 2, 2)
    assert builds == [8]
    clear_hilbert_caches()
    series_coefficient(3, 2, 2)
    assert builds == [8, 4]


def test_series_table_guard_refuses_before_building(monkeypatch):
    # the cap is on the entries of the dense table, (total + 1)^2
    def refuse(*args):
        raise AssertionError("no table may be built past the cap")

    def no_candidates(*args):
        raise AssertionError("no candidate may be built past the cap")

    record_table_builds(monkeypatch, refuse)
    monkeypatch.setattr(hilbert_module, "candidate_rows", no_candidates)
    assert hilbert_module.SERIES_TABLE_GUARD == 500 * 500
    message = "total degree 500 needs a series table of 251001 entries, above the cap of 250000"
    with pytest.raises(ValueError, match=message):
        series_coefficient(1, 250, 250)
    with pytest.raises(ValueError, match=message):
        verify_basis_rank(1, 0, 500)
    with pytest.raises(AssertionError, match="no table"):
        series_coefficient(1, 499, 0)


def test_verify_cell_column_cap_at_its_boundary(monkeypatch):
    # a cell is refused by its series coefficient, the columns it would
    # build, before any candidate is built
    def no_candidates(*args):
        raise AssertionError("no candidate may be built past the cap")

    assert descent_basis_module.COLUMN_GUARD == 100_000
    series = series_coefficient(3, 4, 4)
    monkeypatch.setattr(descent_basis_module, "COLUMN_GUARD", series)
    assert verify_basis_rank(3, 4, 4).passed
    monkeypatch.setattr(descent_basis_module, "COLUMN_GUARD", series - 1)
    monkeypatch.setattr(hilbert_module, "candidate_rows", no_candidates)
    with pytest.raises(ValueError, match=f"^cell \\(4, 4\\) has {series} ordered columns, above the cap of {series - 1}$"):
        verify_basis_rank(3, 4, 4)


def test_invariant_dimension_examples():
    assert invariant_dimension(1, 3, 1) == 1
    assert invariant_dimension(2, 1, 0) == 0
    assert invariant_dimension(2, 2, 2) == 3


def test_invariant_dimension_parity_vanishing():
    for a in range(6):
        for b in range(6):
            if (a + b) % 2:
                assert invariant_dimension(2, a, b) == 0


def test_series_matches_bruteforce_dimensions():
    for a in range(7):
        for b in range(7):
            assert invariant_dimension(2, a, b) == series_coefficient(2, a, b)


def test_series_matches_bruteforce_dimensions_rank_three():
    for total in range(7):
        for a in range(total + 1):
            b = total - a
            assert invariant_dimension(3, a, b) == series_coefficient(3, a, b)
            report = verify_basis_rank(3, a, b)
            assert report.passed, (a, b)


def test_invariant_dimension_shortcut_against_elimination():
    # the slice is spanned by the group averages of all its monomials, so
    # its dimension is their rank; the averages here sum the whole group,
    # independent of both the ordered-monomial count and production rho
    for a, b in ((2, 2), (4, 2), (3, 3), (4, 4), (5, 3)):
        averages = [
            rho_bruteforce(Polynomial.from_monomial(mono((i, a - i), (j, b - j))))
            for i in range(a + 1)
            for j in range(b + 1)
        ]
        averages = [f for f in averages if not f.is_zero()]
        support = sorted({m for f in averages for m in f.monomials()}, key=lambda m: (m.p, m.q))
        index = {m: i for i, m in enumerate(support)}
        vectors = []
        for f in averages:
            vec = [Fraction(0)] * len(support)
            for m, c in f.items():
                vec[index[m]] = c
            vectors.append(vec)
        rank = rational_rank(vectors) if vectors else 0
        assert rank == invariant_dimension(2, a, b)


def test_leading_column_rank_against_rational_oracle():
    # sparse rows over a few ordered monomials, with duplicate rows,
    # linear combinations and rows that share a lead, so that the echelon
    # form has to subtract; the rank reads each row as verify builds it,
    # at column positions in decreasing order, each coefficient times its
    # column's orbit size, and here cleared of denominators
    rng = random.Random(71)
    columns = list(ordered_monomials(3, 4, 4))
    position = {w: j for j, w in enumerate(sorted(columns, key=order_key, reverse=True))}

    def integer_row(poly):
        scale = math.lcm(*(c.denominator for _, c in poly.items()))
        return {position[m]: int(c * scale * rearrangement_count(orbit_key(m))) for m, c in poly.items()}

    for _ in range(60):
        support = rng.sample(columns, rng.randint(1, 6))
        rows = []
        for _ in range(rng.randint(1, 5)):
            picked = rng.sample(support, rng.randint(1, len(support)))
            rows.append({m: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for m in picked})
        rows.append(dict(rng.choice(rows)))
        x, y = rng.sample(range(len(rows)), 2)
        k = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        combination = dict(rows[x])
        for m, c in rows[y].items():
            combination[m] = combination.get(m, 0) + k * c
        rows.append(combination)
        polys = [Polynomial(3, row) for row in rows]
        expected = rational_rank([[p.coefficient(m) for m in support] for p in polys])
        rng.shuffle(polys)
        assert _leading_column_rank(map(integer_row, polys)) == expected
    assert _leading_column_rank([]) == 0
    assert _leading_column_rank([{}]) == 0


def test_leading_column_rank_is_exact():
    # the third row is the first minus three times the second
    assert _leading_column_rank([{0: 3, 1: 1}, {0: 1, 2: 1}, {1: 1, 2: -3}]) == 2
    # the third row is the first minus the second; eliminating with float
    # factors 1/3 and 2/3 leaves about 4e-16 at position 2, rank 3
    assert _leading_column_rank([{0: 3, 2: -2}, {0: 1, 1: 2, 2: -3}, {0: 2, 1: -2, 2: 1}]) == 2
    # a float entry is refused, not rounded
    with pytest.raises(TypeError):
        _leading_column_rank([{0: 1.0}, {0: 3.0}])


def test_candidates_are_triangular_on_their_leads():
    # the paper's freeness proof: each candidate is positive at one
    # ordered monomial and zero at every larger one, that monomial
    # decomposes to the candidate's (sigma, nu, mu), the leads of a cell
    # are exactly its ordered monomials, and the candidates are the
    # paper's, as found by walking the group
    cells = [(n, a, total - a) for n in (2, 3) for total in range(15) for a in range(total + 1)]
    cells += [(4, a, total - a) for total in range(13) for a in range(total + 1)]
    assert len(cells) == 331
    for n, a, b in cells:
        columns, rows = candidate_rows(n, a, b)
        labels = []
        for j, row in enumerate(rows):
            assert min(row) == j and row[j] > 0, (n, a, b, j)
            dec = decompose(columns[j])
            labels.append((dec.sigma, dec.nu, tuple(sorted(dec.mu, reverse=True))))
        assert columns == sorted(ordered_monomials(n, a, b), key=reference_order_key, reverse=True), (n, a, b)
        assert Counter(labels) == Counter(group_candidates(n, a, b)), (n, a, b)


def test_candidate_rows_filter_parity_and_degree():
    columns, rows = candidate_rows(2, 2, 2)
    for w, row in zip(columns, rows):
        dec = decompose(w)
        assert statistics(dec.sigma.inverse()).fmaj + 2 * sum(dec.nu) == 2
        assert statistics(dec.sigma).fmaj + 2 * sum(dec.mu) == 2
        assert row


def test_candidates_in_orbit_coordinates_against_full_products():
    # each row is the orbit sums of the full product at the ordered
    # monomials, which meet every orbit of the product, and the rank over
    # those columns is the full-support rank
    cells = [(n, a, total - a) for n in (1, 2, 3) for total in range(9) for a in range(total + 1)]
    cells += [(4, 4, 4), (4, 6, 6), (4, 8, 4), (4, 10, 4), (5, 4, 4), (5, 6, 4), (6, 4, 4)]
    ties = merged = several = 0
    for n, a, b in cells:
        columns, rows = candidate_rows(n, a, b)
        products = []
        for w, row in zip(columns, rows):
            # the kernel must merge rearrangements of 2*nu into a class of
            # weight > 1, and walk products of several classes
            dec = decompose(w)
            classes = _classes(dec, b + 1)
            merged += any(k > 1 for k in classes.values())
            several += len(classes) > 1
            full = full_candidate(dec.sigma, dec.nu, tuple(sorted(dec.mu, reverse=True)))
            assert {orbit_key(columns[j]): count for j, count in row.items()} == orbit_sums(full), w.text()
            products.append(full)
            # c_sigma pairing one x exponent with two y exponents: a class
            # is named by its pairs, not by its x exponents alone
            c = diagonal_signed_descent_monomial(dec.sigma)
            ties += any(len({y for x2, y in zip(c.p, c.q) if x2 == x}) > 1 for x in c.p)
        assert verify_basis_rank(n, a, b).rank == full_support_rank(products), (n, a, b)
    assert ties and merged and several


def test_verify_basis_rank_examples():
    report = verify_basis_rank(1, 1, 1)
    assert (report.rank, report.dim, report.series, report.generators) == (1, 1, 1, 1)
    assert report.passed
    report = verify_basis_rank(2, 0, 0)
    assert (report.rank, report.dim, report.generators) == (1, 1, 1)
    report = verify_basis_rank(2, 2, 2)
    assert (report.rank, report.dim, report.series, report.generators) == (3, 3, 3, 3)
    assert report.to_json()["pass"] is True


def test_verify_basis_rank_odd_cell_is_empty():
    report = verify_basis_rank(2, 2, 1)
    assert report.rank == report.dim == report.series == report.generators == 0
    assert report.passed


def test_maj_inv_equidistribution_small():
    assert maj_inv_equidistribution(2)
    assert maj_inv_equidistribution(3)
    assert maj_inv_equidistribution(6)
    assert maj_inv_equidistribution(7)
    assert maj_inv_equidistribution(8)
    with pytest.raises(ValueError, match="^rank 9 exceeds the guard 8$"):
        maj_inv_equidistribution(9)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_maj_inv_counts_against_object_oracle(n):
    maj_oracle = {}
    inv_oracle = {}
    for sigma in enumerate_group(n):
        if min(sigma.window) < 0:
            continue
        st = statistics(sigma)
        maj_oracle[st.maj] = maj_oracle.get(st.maj, 0) + 1
        inv = inversion_count(sigma.window)
        inv_oracle[inv] = inv_oracle.get(inv, 0) + 1
    assert hilbert_module._maj_inv_counts(n) == (maj_oracle, inv_oracle)


def test_maj_inv_distributions_from_first_principles():
    # independent recomputation at rank 4 without ``_maj_inv_counts``
    maj = {}
    inv = {}
    for perm in itertools.permutations(range(1, 5)):
        m = sum(i for i in range(1, 4) if perm[i - 1] > perm[i])
        maj[m] = maj.get(m, 0) + 1
        k = inversion_count(perm)
        inv[k] = inv.get(k, 0) + 1
    assert maj == inv
