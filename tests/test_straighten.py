"""Leading-term reduction and the basis expansion round trip."""

import random
from fractions import Fraction

import pytest

from helpers import mono, poly, random_invariant, sp
from signsym.descent_basis import order_key
from signsym.poly import (
    Bidegree,
    Polynomial,
    bidegree_components,
    is_separately_invariant,
    monomial_sym_squares,
    rho,
)
from signsym.signed_perm import RankGuardError, SignedPermutation, enumerate_group, statistics
from signsym.straighten import (
    BasisExpansion,
    averaged_basis_element,
    evaluate,
    leading_term,
    reduce_step,
    straighten,
)


def averaged(m):
    return rho(Polynomial.from_monomial(m))


def test_leading_term_examples():
    m, c = leading_term(averaged(mono((2, 0), (2, 0))))
    assert (m, c) == (mono((2, 0), (2, 0)), Fraction(1, 2))
    m, c = leading_term(averaged_basis_element(sp(-1)))
    assert (m, c) == (mono((1,), (1,)), Fraction(1))
    m, c = leading_term(averaged(mono((2, 0), (0, 2))), bidegree=Bidegree(2, 2))
    assert (m, c) == (mono((2, 0), (0, 2)), Fraction(1, 2))


def test_leading_term_rejections():
    with pytest.raises(ValueError, match="zero polynomial"):
        leading_term(Polynomial.zero(2))
    with pytest.raises(ValueError, match="not invariant"):
        leading_term(poly(2, (1, (1, 0), (0, 0))))
    mixed = averaged(mono((2, 0), (2, 0))) + Polynomial.one(2)
    with pytest.raises(ValueError, match="bihomogeneous"):
        leading_term(mixed)
    with pytest.raises(ValueError, match="expected bidegree"):
        leading_term(averaged(mono((2, 0), (2, 0))), bidegree=Bidegree(0, 0))


def test_reduce_step_worked_example():
    f = averaged(mono((2, 0), (2, 0)))
    step = reduce_step(f)
    assert step.sigma == SignedPermutation.identity(2)
    assert step.nu == (1, 0)
    assert step.mu == (1, 0)
    assert step.scalar == Fraction(1, 2)
    expected_remainder = averaged_basis_element(sp(2, 1)) * Fraction(-1)
    assert step.remainder == expected_remainder
    assert step.remainder == poly(
        2, (Fraction(-1, 2), (2, 0), (0, 2)), (Fraction(-1, 2), (0, 2), (2, 0))
    )


def test_reduce_step_on_basis_elements():
    # an averaged descent monomial reduces in one step with unit scalar
    for sigma in enumerate_group(2):
        step = reduce_step(averaged_basis_element(sigma))
        assert step.sigma == sigma
        assert step.nu == (0, 0)
        assert step.mu == (0, 0)
        assert step.scalar == 1
        assert step.remainder.is_zero()


def test_reduce_step_even_power_example():
    step = reduce_step(averaged(mono((3,), (1,))))
    assert step.sigma == sp(-1)
    assert step.nu == (1,)
    assert step.mu == (0,)
    assert step.remainder.is_zero()


def test_straighten_worked_example():
    f = averaged(mono((2, 0), (2, 0)))
    expansion = straighten(f)
    assert set(expansion.entries) == {SignedPermutation.identity(2), sp(2, 1)}
    identity_coeff = expansion.entries[SignedPermutation.identity(2)]
    assert identity_coeff == (
        monomial_sym_squares((1, 0), "x", 2)
        * monomial_sym_squares((1, 0), "y", 2)
        * Fraction(1, 2)
    )
    assert expansion.entries[sp(2, 1)] == Polynomial.one(2) * Fraction(-1)
    assert evaluate(expansion) == f


def test_straighten_constant():
    expansion = straighten(Polynomial.one(3))
    assert expansion.entries == {SignedPermutation.identity(3): Polynomial.one(3)}
    assert straighten(Polynomial.zero(2)).entries == {}


def test_straighten_rejects_non_invariant():
    with pytest.raises(ValueError, match="not invariant.*generator"):
        straighten(poly(2, (1, (1, 0), (0, 0))))


def test_straighten_guard():
    # the message names the real cost: rho's rearrangements, not the group order
    with pytest.raises(RankGuardError, match="up to 24 rearrangements of its exponent pairs"):
        straighten(Polynomial.one(4), guard=3)


def test_unit_expansion_exhaustive_rank_two():
    for sigma in enumerate_group(2):
        expansion = straighten(averaged_basis_element(sigma))
        assert set(expansion.entries) == {sigma}
        assert expansion.entries[sigma] == Polynomial.one(2)


def test_round_trip_random_invariants():
    rng = random.Random(97)
    for n in (1, 2, 3):
        for _ in range(8):
            f = random_invariant(rng, n)
            expansion = straighten(f)
            assert evaluate(expansion) == f
            expansion.validate()


def test_expansion_coefficients_live_in_the_product_ring():
    rng = random.Random(5)
    for _ in range(6):
        f = random_invariant(rng, 2)
        for _, coeff in straighten(f).items():
            assert is_separately_invariant(coeff)


def test_support_bound_and_parity():
    rng = random.Random(31)
    for _ in range(10):
        f = random_invariant(rng, 2)
        for bd, component in bidegree_components(f).items():
            for sigma in straighten(component).entries:
                st = statistics(sigma)
                st_inv = statistics(sigma.inverse())
                assert st_inv.fmaj <= bd.a and st.fmaj <= bd.b
                assert st_inv.fmaj % 2 == bd.a % 2
                assert st.fmaj % 2 == bd.b % 2


def test_strict_descent_across_reduce_steps():
    f = averaged(mono((4, 2), (2, 4))) + averaged(mono((6, 0), (0, 6)))
    previous = None
    remainder = f
    while not remainder.is_zero():
        m, _ = leading_term(remainder)
        key = order_key(m)
        if previous is not None:
            assert key < previous
        previous = key
        step = reduce_step(remainder)
        assert step.scalar != 0
        remainder = step.remainder


def test_invariant_support_contains_ordered_representatives():
    # each orbit in an invariant's support carries its ordered
    # representative with the same coefficient, which is what makes the
    # leading ordered term the true leading term
    from signsym.descent_basis import ordered_representative

    rng = random.Random(61)
    for _ in range(10):
        f = random_invariant(rng, 3)
        for m in f.monomials():
            rep = ordered_representative(m)
            assert f.coefficient(rep) == f.coefficient(m)


def test_evaluate_unit_and_empty():
    unit = BasisExpansion(2, {sp(2, 1): Polynomial.one(2)})
    assert evaluate(unit) == averaged_basis_element(sp(2, 1))
    assert evaluate(BasisExpansion(2)).is_zero()


def test_expansion_json_round_trip():
    f = averaged(mono((2, 0), (2, 0)))
    expansion = straighten(f)
    data = expansion.to_json()
    again = BasisExpansion.from_json(data)
    assert again.n == 2
    assert again.entries == expansion.entries
    assert evaluate(again) == f


def test_expansion_add_cancels_to_empty():
    exp = BasisExpansion(2)
    exp.add(sp(2, 1), Polynomial.one(2))
    exp.add(sp(2, 1), Polynomial.one(2) * Fraction(-1))
    assert exp.entries == {}


def test_validate_flags_bad_coefficient():
    bad = BasisExpansion(2, {sp(2, 1): poly(2, (1, (1, 0), (0, 0)))})
    with pytest.raises(ValueError, match="separately invariant"):
        bad.validate()
