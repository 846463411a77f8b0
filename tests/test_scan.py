"""Scan kernels against object-level oracles."""

import pytest

from helpers import fake_degree_numerator, group_order, vector_pair_counts, window_fmaj, window_pair_counts, windows
from signsym import scan
from signsym.signed_perm import ENUMERATION_GUARD, enumerate_group, statistics


def pair_counts_oracle(n):
    counts = {}
    for sigma in enumerate_group(n):
        key = (statistics(sigma.inverse()).fmaj, statistics(sigma).fmaj)
        counts[key] = counts.get(key, 0) + 1
    return counts


def assert_inversion_and_negation_symmetric(counts, n):
    # counts[a, b] = counts[b, a] = counts[n^2 - a, n^2 - b]: inversion
    # swaps the pair, and negation sends each fmaj to n^2 minus it
    top = n * n
    for (a, b), c in counts.items():
        assert counts.get((b, a)) == c, (a, b)
        assert counts.get((top - a, top - b)) == c, (a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fmaj_pair_counts_against_object_oracle(n):
    assert scan.fmaj_pair_counts(n) == pair_counts_oracle(n)


@pytest.mark.parametrize("n", [5, 6])
def test_fmaj_pair_counts_against_window_walk(n):
    assert scan.fmaj_pair_counts(n) == window_pair_counts(n)


def test_fmaj_pair_counts_against_list_vectors_at_rank_7():
    # rank 7 is out of the window walk's reach, and its lanes are wider
    # than any rank above checks
    oracle = vector_pair_counts(7)
    assert_inversion_and_negation_symmetric(oracle, 7)
    assert scan.fmaj_pair_counts(7) == oracle


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_fmaj_pair_counts_against_fake_degrees(n):
    # the one check at rank 8 besides the CLI digests, and it assumes
    # neither of the symmetries that the scan folds by
    assert scan.fmaj_pair_counts(n) == fake_degree_numerator(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_window_walk_is_inversion_and_negation_symmetric(n):
    # the identities the scan's folds rest on, on an oracle that walks
    # every window and folds nothing
    assert_inversion_and_negation_symmetric(window_pair_counts(n), n)


def test_fmaj_pair_counts_keeps_no_state():
    # each call computes afresh and hands out its own dict
    first = scan.fmaj_pair_counts(3)
    first.clear()
    assert scan.fmaj_pair_counts(3) == pair_counts_oracle(3)


def test_fmaj_pair_counts_mass_and_symmetry():
    for n in (1, 2, 3, 4, 5, 6, 7):
        counts = scan.fmaj_pair_counts(n)
        assert sum(counts.values()) == group_order(n)
        assert all(counts[(b, a)] == c for (a, b), c in counts.items())


def test_window_helpers_against_objects():
    for sigma in enumerate_group(3):
        assert window_fmaj(sigma.window) == statistics(sigma).fmaj


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_windows_are_the_group_once_each(n):
    walked = list(windows(n))
    assert len(walked) == group_order(n)
    assert sorted(walked) == [sigma.window for sigma in enumerate_group(n)]


def test_rank_validation():
    with pytest.raises(ValueError):
        scan.fmaj_pair_counts(0)


def test_fmaj_pair_counts_refuses_a_walk_past_the_guard():
    with pytest.raises(ValueError, match="^rank 9 exceeds the guard 8$"):
        scan.fmaj_pair_counts(9)


def test_lanes_cannot_carry_at_the_guard():
    # both statistics are at most n^2, so a lane holds at most
    # (n^2 + 1)^2 - 1; a guard past rank 15 would let one lane carry
    # into the next
    assert (ENUMERATION_GUARD**2 + 1) ** 2 <= 1 << 16


def test_facade_exports_active_backend():
    assert scan.BACKEND == "python"
