"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact rational arithmetic, so every comparison is
equality with zero tolerance.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines on the terminal.
"""

import itertools
import random
import time

from helpers import (
    averaged_basis,
    evaluate_full,
    inversion_count,
    mono_product,
    random_invariant,
    rho_bruteforce,
    sp,
    straighten_full,
)
from signsym.descent_basis import (
    compare,
    decompose,
    descent_monomial,
    diagonal_descent_monomial,
    diagonal_signed_descent_monomial,
    is_ordered,
    order_key,
    signed_descent_monomial,
    signed_index_permutation,
)
from signsym.hilbert import (
    fmaj_distribution,
    fmaj_numerator,
    invariant_dimension,
    maj_inv_equidistribution,
    series_coefficient,
    verify_basis_rank,
)
from signsym.poly import Monomial, Polynomial, rho
from signsym.signed_perm import enumerate_group, statistics
from signsym.straighten import evaluate, straighten


def mono(p, q):
    return Monomial(tuple(p), tuple(q))


def report(number, name, started):
    print(f"ACCEPTANCE {number} ({name}): PASS [{time.perf_counter() - started:.2f}s]")


def test_criterion_1_paper_example_regression():
    started = time.perf_counter()
    assert descent_monomial(sp(6, 2, 1, 4, 3, 5)) == mono((1, 2, 0, 1, 0, 3), (0,) * 6)
    assert diagonal_descent_monomial(sp(4, 6, 1, 2, 5, 3)) == mono(
        (2, 2, 2, 1, 1, 0), (1, 1, 0, 2, 1, 2)
    )
    assert signed_descent_monomial(sp(-6, 2, -1, -4, 3, 5)) == mono(
        (3, 4, 0, 1, 0, 5), (0,) * 6
    )
    assert diagonal_signed_descent_monomial(sp(2, -1, -4, 3)) == mono(
        (3, 2, 2, 1), (3, 4, 0, 1)
    )
    assert signed_index_permutation(
        mono((7, 6, 6, 5, 5, 3), (3, 8, 6, 3, 5, 5))
    ) == sp(2, 3, -6, -5, -4, -1)
    m = mono((7, 6, 6, 5), (3, 8, 6, 5))
    w = mono((7, 6, 6, 5), (5, 8, 6, 3))
    assert order_key(m)[0] == (7, 6, 6, 5, 8, 6, 5, 3)
    assert order_key(w)[0] == (7, 6, 6, 5, 8, 6, 5, 3)
    assert compare(m, w) == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, "paper example regression", started)


def test_criterion_2_vanishing_lemma_both_directions():
    started = time.perf_counter()
    checked = 0
    # the dichotomy is read off the full group sum, and production rho,
    # which skips odd monomials by parity, must agree with that sum
    for p in itertools.product(range(5), repeat=2):
        for q in itertools.product(range(5), repeat=2):
            f = Polynomial.from_monomial(mono(p, q))
            image = rho_bruteforce(f)
            parity_odd = any((pi + qi) % 2 for pi, qi in zip(p, q))
            assert image.is_zero() == parity_odd, (p, q)
            assert rho(f) == image, (p, q)
            checked += 1
    assert checked == 625
    report(2, "vanishing dichotomy, 625-monomial grid at rank 2", started)


def test_criterion_3_decomposition_theorems():
    started = time.perf_counter()
    checked = 0
    for n in (1, 2, 3):
        for p in itertools.product(range(6), repeat=n):
            for q in itertools.product(range(6), repeat=n):
                m = mono(p, q)
                if not is_ordered(m):
                    continue
                dec = decompose(m)
                sigma = dec.sigma
                # exponent splits
                assert m.p == tuple(2 * v + d for v, d in zip(dec.nu, dec.delta))
                assert m.q == tuple(2 * v + g for v, g in zip(dec.mu, dec.gamma))
                # monotonicity, in plain order for the x side and along
                # the window for the y side
                assert all(dec.nu[i] >= dec.nu[i + 1] for i in range(n - 1))
                assert all(dec.delta[i] >= dec.delta[i + 1] for i in range(n - 1))
                along = [abs(v) - 1 for v in sigma.window]
                assert all(
                    dec.mu[along[i]] >= dec.mu[along[i + 1]] for i in range(n - 1)
                )
                assert all(
                    dec.gamma[along[i]] >= dec.gamma[along[i + 1]] for i in range(n - 1)
                )
                # tie conditions on the twisted y exponents
                twist = [v if v % 2 == 0 else -v for v in m.q]
                for i, j in itertools.combinations(range(n), 2):
                    if dec.delta[i] == dec.delta[j]:
                        assert twist[i] >= twist[j]
                    if dec.gamma[i] == dec.gamma[j]:
                        assert twist[i] >= twist[j]
                # reconstruction through the descent monomial of sigma
                even = mono([2 * v for v in dec.nu], [2 * v for v in dec.mu])
                assert mono_product(even, diagonal_signed_descent_monomial(sigma)) == m
                checked += 1
    assert checked > 1000
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(3, f"decomposition theorems on {checked} ordered monomials", started)


def test_criterion_4_free_basis_round_trip():
    started = time.perf_counter()
    # the coefficient 1 is m_0(x^2) m_0(y^2)
    unit = {((0, 0, 0), (0, 0, 0)): 1}
    for sigma in enumerate_group(3):
        expansion = straighten(averaged_basis(sigma))
        assert expansion.entries == {sigma: unit}
    rng = random.Random(20240)
    rounds = {1: 20, 2: 40, 3: 40}
    total = 0
    for n, count in rounds.items():
        for _ in range(count):
            f = random_invariant(rng, n, max_total=10)
            expansion = straighten(f)
            assert evaluate(expansion) == evaluate_full(expansion) == f
            assert expansion.entries == straighten_full(f).entries
            total += 1
    assert total == 100
    report(4, "free-basis round trip, 48 basis elements plus 100 random invariants", started)


def test_criterion_5_hilbert_series_identity():
    started = time.perf_counter()
    for n, max_total in ((1, 12), (2, 10), (3, 10)):
        for total in range(max_total + 1):
            for a in range(total + 1):
                b = total - a
                dim = invariant_dimension(n, a, b)
                assert dim == series_coefficient(n, a, b), (n, a, b)
                cell = verify_basis_rank(n, a, b)
                assert cell.rank == cell.dim == cell.generators == dim, (n, a, b)
                assert cell.passed, (n, a, b)
    report(5, "series identity and degreewise freeness, ranks 1 to 3", started)


def test_criterion_6_statistics_identities():
    started = time.perf_counter()
    for sigma in enumerate_group(4):
        st = statistics(sigma)
        assert st.fmaj == 2 * st.maj + st.neg == sum(st.f)
        assert all(st.f[i] >= st.f[i + 1] for i in range(3))
        w = sigma.window
        for i, j in itertools.combinations(range(4), 2):
            if st.f[i] == st.f[j]:
                run = w[i : j + 1]
                assert all(run[k] < run[k + 1] for k in range(len(run) - 1))
                assert all((v > 0) == (run[0] > 0) for v in run)
    for n in (1, 2, 3, 4):
        numerator = fmaj_numerator(n)
        for (a, b), c in numerator.coefficients.items():
            assert numerator.coefficient(b, a) == c
        brute = {}
        for sigma in enumerate_group(n):
            value = statistics(sigma).fmaj
            brute[value] = brute.get(value, 0) + 1
        assert fmaj_distribution(n) == brute
        product = [1]
        for i in range(1, n + 1):
            block = [1] * (2 * i)
            out = [0] * (len(product) + len(block) - 1)
            for dega, ca in enumerate(product):
                for degb, cb in enumerate(block):
                    out[dega + degb] += ca * cb
            product = out
        assert brute == {d: c for d, c in enumerate(product) if c}
    report(6, "statistics identities and flag-major distribution", started)


def test_criterion_7_macmahon_equidistribution():
    started = time.perf_counter()
    for n in range(1, 7):
        assert maj_inv_equidistribution(n)
        # recompute both distributions from the definitions as a cross-check
        maj = {}
        inv = {}
        for perm in itertools.permutations(range(1, n + 1)):
            value = sum(i for i in range(1, n) if perm[i - 1] > perm[i])
            maj[value] = maj.get(value, 0) + 1
            k = inversion_count(perm)
            inv[k] = inv.get(k, 0) + 1
        assert maj == inv
    report(7, "major index and inversion number equidistribution through rank 6", started)
