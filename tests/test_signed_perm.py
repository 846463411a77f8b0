"""Group structure and descent statistics of signed permutations."""

import itertools
import random
import re

import pytest

from helpers import generators, sp
from signsym import hilbert, scan
from signsym.descent_basis import ordered_monomials
from signsym.poly import Monomial, Polynomial
from signsym.signed_perm import (
    ParseError,
    RankGuardError,
    SignedPermutation,
    enumerate_group,
    group_order,
    parse_window,
    statistics,
)


def test_parse_window_example():
    sigma = parse_window("[2,-1,-4,3]")
    assert sigma.window == (2, -1, -4, 3)
    assert sigma.n == 4


def test_parse_identity():
    assert parse_window("[1,2,3]") == SignedPermutation.identity(3)


def test_parse_tolerates_spaces():
    assert parse_window(" [ 2 , -1 ] ").window == (2, -1)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[1,1]", "repeated absolute value 1"),
        ("[0,1]", "zero entry at position 1"),
        ("[3,1]", "out of range"),
        ("2,-1", "bracketed"),
        ("[2,x]", "not an integer"),
        ("[]", "empty"),
        # int() would read the first two as 10 and 2
        ("[1_0]", "entry '1_0' at position 1 is not an integer"),
        ("[\u0662,1]", "at position 1 is not an integer"),
        ("[2,+ 1]", "not an integer"),
        ("[2,1.0]", "not an integer"),
        ("[" + "9" * 5000 + "]", "integer"),  # past int()'s digit limit
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_window(text)


@pytest.mark.parametrize("window", [(1.0, 2), (True, 2), (2, "1"), (2.0, -1.0), (1, None)])
def test_constructor_refuses_non_integer_entries(window):
    with pytest.raises(ValueError, match="not an integer"):
        SignedPermutation(window)


def test_from_json_refuses_non_integer_entries():
    with pytest.raises(ValueError, match="entry True at position 1 is not an integer"):
        SignedPermutation.from_json({"window": [True, 2]})
    with pytest.raises(ValueError, match="not an integer"):
        SignedPermutation.from_json({"n": 2, "window": [2, 1.0]})


@pytest.mark.parametrize(
    "data,fragment",
    [
        ({"n": True, "window": [1]}, "declared rank True is not an integer"),
        ({"n": 1.0, "window": [1]}, "declared rank 1.0 is not an integer"),
        ({"n": "1", "window": [1]}, "not an integer"),
        ({"window": "12"}, '"window" list'),
        ({"window": (1,)}, '"window" list'),
        ({"n": 1}, '"window" list'),
        ([1], '"window" list'),
    ],
)
def test_from_json_refuses_ill_typed_rank_and_window(data, fragment):
    with pytest.raises(ValueError, match=fragment):
        SignedPermutation.from_json(data)


def test_compose_with_inverse_is_identity():
    sigma = sp(2, -1, -4, 3)
    assert sigma * sigma.inverse() == SignedPermutation.identity(4)
    assert sigma.inverse() * sigma == SignedPermutation.identity(4)
    # inverse is built on window_inverse, so it is checked by composition
    identity = SignedPermutation.identity(3)
    for sigma in enumerate_group(3):
        assert sigma.inverse() * sigma == sigma * sigma.inverse() == identity


def test_compose_involution():
    assert sp(-1) * sp(-1) == sp(1)


def test_compose_pointwise():
    # evaluate (a o b)(i) = a(b(i)) by hand: b(1) = -1 -> a(-1) = -2,
    # b(2) = 2 -> a(2) = 1
    assert sp(2, 1) * sp(-1, 2) == sp(-2, 1)


def test_compose_rank_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        sp(1, 2) * sp(1)


def test_inverse_examples():
    assert sp(2, -1, -4, 3).inverse() == sp(-2, 1, 4, -3)
    assert sp(1, 2, 3).inverse() == sp(1, 2, 3)
    assert sp(2, 3, -6, -5, -4, -1).inverse() == sp(-6, 1, 2, -5, -4, -3)


def test_call_sign_rule():
    sigma = sp(2, -1)
    assert sigma(1) == 2 and sigma(-1) == -2
    assert sigma(2) == -1 and sigma(-2) == 1
    with pytest.raises(ValueError):
        sigma(0)


def test_group_axioms_on_samples():
    rng = random.Random(7)
    elements = list(enumerate_group(3))
    identity = SignedPermutation.identity(3)
    for _ in range(50):
        a, b, c = (rng.choice(elements) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * identity == a == identity * a
        assert a * a.inverse() == identity


@pytest.mark.parametrize("n,count", [(1, 2), (2, 8), (3, 48), (4, 384), (5, 3840)])
def test_enumerate_counts(n, count):
    elements = list(enumerate_group(n))
    assert len(elements) == count == group_order(n)
    assert len(set(elements)) == count


def test_enumerate_lexicographic_order():
    windows = [sigma.window for sigma in enumerate_group(2)]
    assert windows == sorted(windows)
    assert windows[0] == (-2, -1)


def test_enumerate_guard():
    # rank 8 streams, rank 9 is refused with the size it would stream
    assert next(enumerate_group(8)).window == tuple(range(-8, 0))
    with pytest.raises(RankGuardError, match="rank 9 exceeds the enumeration guard 8: refusing to stream 185794560"):
        next(enumerate_group(9))


RANK_ENTRY_POINTS = {
    "Polynomial": Polynomial,
    "Monomial.one": Monomial.one,
    "SignedPermutation.identity": SignedPermutation.identity,
    "enumerate_group": enumerate_group,
    "fmaj_pair_counts": scan.fmaj_pair_counts,
    "maj_counts": scan.maj_counts,
    "inv_counts": scan.inv_counts,
    "fmaj_numerator": hilbert.fmaj_numerator,
    "fmaj_distribution": hilbert.fmaj_distribution,
    "series_table": lambda n: hilbert.series_table(n, 3),
    "series_coefficient": lambda n: hilbert.series_coefficient(n, 1, 1),
    "invariant_dimension": lambda n: hilbert.invariant_dimension(n, 2, 2),
    "candidate_rows": lambda n: hilbert.candidate_rows(n, 2, 2),
    "verify_basis_rank": lambda n: hilbert.verify_basis_rank(n, 2, 2),
    "ordered_monomials": lambda n: list(ordered_monomials(n, 2, 2)),
    "maj_inv_equidistribution": hilbert.maj_inv_equidistribution,
}


@pytest.mark.parametrize("rank", [True, 2.0, 0, -1, "3"], ids=repr)
@pytest.mark.parametrize("entry", sorted(RANK_ENTRY_POINTS))
def test_every_rank_entry_point_refuses_a_rank_that_is_not_a_positive_int(entry, rank):
    # one rule for every rank: a bool or a float that equals a valid rank
    # is refused too, with the same message everywhere
    with pytest.raises(ValueError, match=f"^{re.escape(f'rank {rank!r} is not a positive integer')}$"):
        RANK_ENTRY_POINTS[entry](rank)


def test_statistics_example():
    st = statistics(sp(2, -1, -4, 3))
    assert st.descent_set == frozenset({1, 2})
    assert st.d == (2, 1, 0, 0)
    assert st.eps == (0, 1, 1, 0)
    assert st.f == (4, 3, 1, 0)
    assert st.maj == 3
    assert st.neg == 2
    assert st.fmaj == 8


def test_statistics_identity():
    for n in (1, 3, 5):
        st = statistics(SignedPermutation.identity(n))
        assert st.descent_set == frozenset()
        assert st.f == (0,) * n
        assert st.fmaj == 0


def test_statistics_forced_by_signed_descent_monomial():
    assert statistics(sp(-6, 2, -1, -4, 3, 5)).f == (5, 4, 3, 1, 0, 0)


def test_flag_sequence_properties_exhaustive():
    # f weakly decreasing; ties force an increasing same-sign run
    for n in range(1, 5):
        for sigma in enumerate_group(n):
            st = statistics(sigma)
            f, w = st.f, sigma.window
            assert all(f[i] >= f[i + 1] for i in range(n - 1))
            assert f == tuple(2 * d + e for d, e in zip(st.d, st.eps))
            assert st.d[n - 1] == 0
            assert all(st.d[i] >= st.d[i + 1] for i in range(n - 1))
            for i, j in itertools.combinations(range(n), 2):
                if f[i] == f[j]:
                    run = w[i : j + 1]
                    assert all(run[k] < run[k + 1] for k in range(len(run) - 1))
                    assert all((v > 0) == (run[0] > 0) for v in run)


def test_fmaj_identity_exhaustive():
    for n in range(1, 5):
        for sigma in enumerate_group(n):
            st = statistics(sigma)
            assert st.fmaj == 2 * st.maj + st.neg == sum(st.f)


def test_positive_windows_double_major_index():
    for pi in itertools.permutations(range(1, 5)):
        st = statistics(SignedPermutation(pi))
        assert st.neg == 0
        assert st.fmaj == 2 * st.maj


def test_statistics_accepts_large_ranks():
    # only enumeration is guarded; pointwise statistics work at any rank
    window = tuple(range(12, 0, -1))
    st = statistics(SignedPermutation(window))
    assert st.maj == sum(range(1, 12))
    assert st.fmaj == 2 * st.maj


def test_generators_generate_the_group():
    gens = generators(3)
    seen = {SignedPermutation.identity(3)}
    frontier = set(seen)
    while frontier:
        frontier = {
            g * sigma for g in gens for sigma in frontier
        } - seen
        seen |= frontier
    assert len(seen) == group_order(3)


def test_json_round_trip():
    sigma = sp(2, -1, -4, 3)
    assert SignedPermutation.from_json(sigma.to_json()) == sigma
    with pytest.raises(ValueError, match="declared rank"):
        SignedPermutation.from_json({"n": 3, "window": [2, -1]})
