"""Scan kernels against object-level oracles."""

import pytest

from helpers import inversion_count
from signsym import scan
from signsym.signed_perm import enumerate_group, group_order, statistics


def pair_counts_oracle(n):
    counts = {}
    for sigma in enumerate_group(n):
        key = (statistics(sigma.inverse()).fmaj, statistics(sigma).fmaj)
        counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fmaj_pair_counts_against_object_oracle(n):
    assert scan.fmaj_pair_counts(n) == pair_counts_oracle(n)


def test_fmaj_pair_counts_mass_and_symmetry():
    for n in (1, 2, 3, 4, 5):
        counts = scan.fmaj_pair_counts(n)
        assert sum(counts.values()) == group_order(n)
        assert all(counts[(b, a)] == c for (a, b), c in counts.items())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_maj_and_inv_counts_against_object_oracle(n):
    maj_oracle = {}
    inv_oracle = {}
    for sigma in enumerate_group(n):
        if not sigma.is_positive():
            continue
        st = statistics(sigma)
        maj_oracle[st.maj] = maj_oracle.get(st.maj, 0) + 1
        inv = inversion_count(sigma.window)
        inv_oracle[inv] = inv_oracle.get(inv, 0) + 1
    assert scan.maj_counts(n) == maj_oracle
    assert scan.inv_counts(n) == inv_oracle


def test_window_helpers_against_objects():
    for sigma in enumerate_group(3):
        assert scan.window_fmaj(sigma.window) == statistics(sigma).fmaj
        assert scan.window_inverse(sigma.window) == sigma.inverse().window


def test_rank_validation():
    for kernel in (scan.fmaj_pair_counts, scan.maj_counts, scan.inv_counts):
        with pytest.raises(ValueError):
            kernel(0)


def test_facade_exports_active_backend():
    assert scan.BACKEND == "python"
