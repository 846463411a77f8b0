"""Group structure and descent statistics of signed permutations."""

import contextlib
import io
import itertools
import random
import re
from fractions import Fraction

import pytest

from helpers import compose, generators, group_order, record_table_builds, sp
from signsym import hilbert, scan
from signsym.cli import main
from signsym.descent_basis import cell_columns, ordered_monomials
from signsym.poly import Polynomial
from signsym.signed_perm import (
    SignedPermutation,
    enumerate_group,
    parse_integers,
    parse_window,
    statistics,
)
from signsym.straighten import BasisExpansion


def test_parse_window_example():
    sigma = parse_window("[2,-1,-4,3]")
    assert sigma.window == (2, -1, -4, 3)
    assert sigma.n == 4


def test_parse_identity():
    assert parse_window("[1,2,3]") == SignedPermutation((1, 2, 3))


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
    with pytest.raises(ValueError, match=fragment):
        parse_window(text)


def test_parse_integers():
    # the one reader of comma-separated integers, for windows and exponent lists
    assert parse_integers(" 2, -1 ,+3") == (2, -1, 3)
    for text, message in (("", "entry '' at position 1"), ("1,,2", "entry '' at position 2"), ("1,1_0", "entry '1_0' at position 2"), ("1," + "1" * 4301, f"entry {'1' * 4301!r} at position 2")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)} is not an integer$"):
            parse_integers(text)


@pytest.mark.parametrize("window", [(1.0, 2), (True, 2), (2, "1"), (2.0, -1.0), (1, None)])
def test_constructor_refuses_non_integer_entries(window):
    with pytest.raises(ValueError, match="not an integer"):
        SignedPermutation(window)


def test_constructor_refuses_an_empty_window():
    # parse_window refuses "[]" on its own; the constructor has the same rule
    with pytest.raises(ValueError, match="^window must contain at least one entry$"):
        SignedPermutation(())


def test_compose_with_inverse_is_identity():
    sigma = sp(2, -1, -4, 3)
    assert compose(sigma, sigma.inverse()) == sp(1, 2, 3, 4)
    assert compose(sigma.inverse(), sigma) == sp(1, 2, 3, 4)
    # inverse is built on window_inverse, so it is checked by composition
    identity = sp(1, 2, 3)
    for sigma in enumerate_group(3):
        assert compose(sigma.inverse(), sigma) == compose(sigma, sigma.inverse()) == identity


def test_compose_involution():
    assert compose(sp(-1), sp(-1)) == sp(1)


def test_compose_pointwise():
    # evaluate (a o b)(i) = a(b(i)) by hand: b(1) = -1 -> a(-1) = -2,
    # b(2) = 2 -> a(2) = 1
    assert compose(sp(2, 1), sp(-1, 2)) == sp(-2, 1)


def test_compose_rank_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        compose(sp(1, 2), sp(1))


def test_inverse_examples():
    assert sp(2, -1, -4, 3).inverse() == sp(-2, 1, 4, -3)
    assert sp(1, 2, 3).inverse() == sp(1, 2, 3)
    assert sp(2, 3, -6, -5, -4, -1).inverse() == sp(-6, 1, 2, -5, -4, -3)


def test_group_axioms_on_samples():
    rng = random.Random(7)
    elements = list(enumerate_group(3))
    identity = sp(1, 2, 3)
    for _ in range(50):
        a, b, c = (rng.choice(elements) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        assert compose(a, identity) == a == compose(identity, a)
        assert compose(a, a.inverse()) == identity


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
    # rank 8 streams, rank 9 is refused before anything is streamed
    assert next(enumerate_group(8)).window == tuple(range(-8, 0))
    with pytest.raises(ValueError, match="^rank 9 exceeds the guard 8$"):
        next(enumerate_group(9))


RANK_ENTRY_POINTS = {
    "Polynomial": Polynomial,
    "BasisExpansion": BasisExpansion,
    "enumerate_group": enumerate_group,
    "fmaj_pair_counts": scan.fmaj_pair_counts,
    "_maj_inv_counts": hilbert._maj_inv_counts,
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


def _command_line(*argv):
    # The command with ``--max-degree d``, whose one ``error:`` line and exit
    # status 1 are raised as the ValueError behind them.
    def call(d):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--max-degree", str(d)])
        assert (code, out.getvalue()) == (1, "")
        (line,) = err.getvalue().splitlines()
        raise ValueError(line.removeprefix("error: "))

    return call


DEGREE_ENTRY_POINTS = {
    "ordered_monomials(a)": lambda d: ordered_monomials(2, d, 2),
    "ordered_monomials(b)": lambda d: ordered_monomials(2, 2, d),
    "cell_columns": lambda d: cell_columns(2, d, 2),
    "candidate_rows": lambda d: hilbert.candidate_rows(2, 2, d),
    "invariant_dimension": lambda d: hilbert.invariant_dimension(2, d, 2),
    "series_coefficient(a)": lambda d: hilbert.series_coefficient(2, d, 2),
    "series_coefficient(b)": lambda d: hilbert.series_coefficient(2, 2, d),
    "series_table": lambda d: hilbert.series_table(2, d),
    "verify_basis_rank": lambda d: hilbert.verify_basis_rank(2, 2, d),
    "signsym verify": _command_line("verify", "--n", "2"),
    "signsym hilbert": _command_line("hilbert", "--n", "2"),
    "signsym hilbert --numerator": _command_line("hilbert", "--n", "2", "--numerator"),
}

#: Each library entry point is asked every bad degree; a command line can
#: spell only the negative one, since ``--max-degree`` refuses the others
#: as not an int.
DEGREE_REFUSALS = [
    (entry, degree)
    for entry in sorted(DEGREE_ENTRY_POINTS)
    for degree in ([-1] if entry.startswith("signsym ") else [-1, True, 2.0, Fraction(2), "2", None])
]


@pytest.mark.parametrize("entry,degree", DEGREE_REFUSALS, ids=[f"{e}-{d!r}" for e, d in DEGREE_REFUSALS])
def test_every_degree_entry_point_refuses_a_degree_that_is_not_a_non_negative_int(monkeypatch, entry, degree):
    # one rule for every degree, at the call and before any table is
    # built: a warm rank does not hand out its table for a bad total either
    built = record_table_builds(monkeypatch, hilbert._series_table)
    hilbert.series_table(2, 3)
    with pytest.raises(ValueError, match=f"^{re.escape(f'degree {degree!r} is not a non-negative integer')}$"):
        DEGREE_ENTRY_POINTS[entry](degree)
    assert built == [3]


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
        st = statistics(SignedPermutation(tuple(range(1, n + 1))))
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
    seen = {sp(1, 2, 3)}
    frontier = set(seen)
    while frontier:
        frontier = {
            compose(g, sigma) for g in gens for sigma in frontier
        } - seen
        seen |= frontier
    assert len(seen) == group_order(3)
