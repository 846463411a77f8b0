"""Hilbert-series machinery: numerator, expansion, dimensions, rank checks."""

import itertools
from fractions import Fraction

import pytest

from helpers import inversion_count, mono, rational_rank, rho_bruteforce
from signsym.hilbert import (
    BiSeries,
    _integer_rank,
    basis_candidates,
    fmaj_distribution,
    fmaj_numerator,
    invariant_dimension,
    maj_inv_equidistribution,
    series_coefficient,
    verify_basis_rank,
)
from signsym.signed_perm import RankGuardError, enumerate_group, statistics


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


def test_fmaj_numerator_guard():
    with pytest.raises(RankGuardError):
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
    from signsym.poly import Polynomial

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


def test_integer_rank_against_rational_oracle():
    import random

    rng = random.Random(71)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        matrix = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        expected = rational_rank([[Fraction(v) for v in row] for row in matrix])
        assert _integer_rank(matrix) == expected


def test_basis_candidates_filters_parity_and_degree():
    for sigma, nu, mu, poly in basis_candidates(2, 2, 2):
        st = statistics(sigma)
        st_inv = statistics(sigma.inverse())
        assert st_inv.fmaj + 2 * sum(nu) == 2
        assert st.fmaj + 2 * sum(mu) == 2
        assert not poly.is_zero()


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
    with pytest.raises(RankGuardError):
        maj_inv_equidistribution(8)


def test_maj_inv_distributions_from_first_principles():
    # independent recomputation at rank 4 without the scan kernels
    maj = {}
    inv = {}
    for perm in itertools.permutations(range(1, 5)):
        m = sum(i for i in range(1, 4) if perm[i - 1] > perm[i])
        maj[m] = maj.get(m, 0) + 1
        k = inversion_count(perm)
        inv[k] = inv.get(k, 0) + 1
    assert maj == inv
