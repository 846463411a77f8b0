"""Value semantics of the package's record and value types.

They are tuples underneath, for a cheap import and cheap hashing; these
tests pin what they promise beyond that: equality and hashing by value,
no attribute assignment, the keyword repr, a check on every construction,
and no tuple arithmetic, order or equality leaking through.
"""

import operator
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import signsym
from helpers import mono, sp
from signsym.descent_basis import decompose
from signsym.hilbert import BiSeries, verify_basis_rank
from signsym.poly import Monomial, Polynomial
from signsym.signed_perm import SignedPermutation, statistics
from signsym.straighten import BasisExpansion, evaluate

# Each maker builds a fresh value, equal to every other value it builds.
HASHABLE_VALUES = {
    "Monomial": lambda: mono((1, 0), (0, 1)),
    "SignedPermutation": lambda: sp(2, -1),
    "StatisticsProfile": lambda: statistics(sp(2, -1, -4, 3)),
    "Decomposition": lambda: decompose(mono((3, 1), (1, 3))),
    "CellReport": lambda: verify_basis_rank(2, 2, 2),
}
# A series holds a dict, so it is a value that does not hash.
VALUES = {**HASHABLE_VALUES, "BiSeries": lambda: BiSeries({(0, 0): 1, (2, 2): 3}, truncation=4)}


@pytest.mark.parametrize("kind", sorted(HASHABLE_VALUES))
def test_equal_values_are_equal_and_hash_equal(kind):
    first, second = HASHABLE_VALUES[kind](), HASHABLE_VALUES[kind]()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_a_value_equals_no_plain_tuple(kind):
    value = VALUES[kind]()
    plain = tuple(value)
    assert not value == plain and value != plain
    assert not plain == value and plain != value


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_attributes_cannot_be_assigned(kind):
    value = VALUES[kind]()
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


def test_reprs_name_their_fields():
    assert repr(mono((1, 0), (0, 1))) == "Monomial(p=(1, 0), q=(0, 1))"
    assert repr(sp(2, -1)) == "SignedPermutation(window=(2, -1))"
    assert repr(verify_basis_rank(2, 2, 2)) == "CellReport(n=2, a=2, b=2, rank=3, dim=3, series=3)"
    assert repr(BasisExpansion(2)) == "BasisExpansion(n=2, entries={})"


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_tuple_arithmetic_does_not_leak_through(kind):
    value = VALUES[kind]()
    for other in (value, 1, (1,)):
        with pytest.raises(TypeError):
            value + other
    # products are the oracles' to take: helpers.mul multiplies
    # polynomials and helpers.compose composes signed permutations
    for other in (0, 2, value):
        with pytest.raises(TypeError):
            other * value
        with pytest.raises(TypeError):
            value * other


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_values_have_no_order(kind):
    # ``sorted`` over values needs a key, such as ``order_key`` or the window
    value = VALUES[kind]()
    for left, right in ((value, VALUES[kind]()), (value, tuple(value)), (tuple(value), value), ((), value)):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError, match=f"^{kind} values have no order$"):
                compare(left, right)
    with pytest.raises(TypeError):
        sorted([value, VALUES[kind]()])


@pytest.mark.parametrize(
    "left, value",
    [(tuple(VALUES[kind]()), VALUES[kind]()) for kind in sorted(VALUES)] + [((), sp(2, -1))],
    ids=sorted(VALUES) + ["empty tuple"],
)
def test_a_tuple_on_the_left_does_not_concatenate(left, value):
    with pytest.raises(TypeError, match=f"for \\+: 'tuple' and '{type(value).__name__}'$"):
        left + value


def test_vectors_become_tuples_and_values_pickle():
    m = Monomial([1, 0], iter((0, 1)))
    assert m == mono((1, 0), (0, 1)) and type(m.p) is tuple and type(m.q) is tuple
    assert SignedPermutation([2, -1]).window == (2, -1)
    for make in VALUES.values():
        value = make()
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value)


def test_replace_and_make_check_like_the_constructor():
    with pytest.raises(ValueError, match=re.escape("exponents must be non-negative integers, got (-1, 0) and (0, 1)")):
        mono((1, 0), (0, 1))._replace(p=(-1, 0))
    with pytest.raises(ValueError, match="^repeated absolute value 1 at position 2$"):
        sp(2, -1)._replace(window=(1, -1))
    with pytest.raises(ValueError, match=r"^stored coefficient at \(1,1\) must be positive$"):
        BiSeries._make(({(1, 1): 0}, 2))
    assert sp(2, -1)._replace(window=(1, 2)) == sp(1, 2)
    for make in VALUES.values():
        value = make()
        copy = value._replace()
        assert copy == value and type(copy) is type(value)


def test_biseries_refuses_a_non_positive_coefficient_and_a_key_outside_its_truncation():
    for c in (0, -1):
        with pytest.raises(ValueError, match=r"^stored coefficient at \(0,0\) must be positive$"):
            BiSeries({(0, 0): c}, truncation=4)
    for key in ((3, 2), (-1, 0)):
        with pytest.raises(ValueError, match=rf"^key \({key[0]},{key[1]}\) outside truncation 4$"):
            BiSeries({key: 1}, truncation=4)
    series = BiSeries({(0, 0): 1, (2, 2): 3}, 4)
    assert series == BiSeries(coefficients={(0, 0): 1, (2, 2): 3}, truncation=4)
    assert series.total_mass() == 4


# Each entry point with what it makes of a scalar and the refusal it gives.
SCALAR_ENTRY_POINTS = {
    "Polynomial": (
        lambda c: Polynomial(1, {mono((2,), (0,)): c}),
        lambda c: f"scalar {c!r} is not an int or a Fraction",
    ),
    "BasisExpansion": (
        lambda c: evaluate(BasisExpansion(1, {sp(1): {((1,), (0,)): c}})),
        lambda c: f"scalar {c!r} is not an int or a Fraction",
    ),
    "BiSeries coefficient": (
        lambda c: BiSeries({(0, 0): c}, truncation=2),
        lambda c: f"key (0, 0) and coefficient {c!r} must be integers",
    ),
    "BiSeries key": (
        lambda c: BiSeries({(c, 0): 1}, truncation=2),
        lambda c: f"key ({c!r}, 0) and coefficient 1 must be integers",
    ),
}
INEXACT_SCALARS = [0.1, True, "1", None]


@pytest.mark.parametrize(
    "entry,scalar",
    [
        pytest.param(entry, scalar, id=f"{entry}-{scalar!r}")
        for entry in sorted(SCALAR_ENTRY_POINTS)
        # a series counts, so it holds ints only: even an integral Fraction is refused
        for scalar in INEXACT_SCALARS + ([Fraction(1, 2), Fraction(2)] if entry.startswith("BiSeries") else [])
    ],
)
def test_every_scalar_entry_point_refuses_a_scalar_that_is_not_an_int_or_a_fraction(entry, scalar):
    # one rule for every exact scalar: a float is never rounded to a
    # Fraction, nor a bool or a string read as a number
    make, message = SCALAR_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message(scalar))}$"):
        make(scalar)


def test_basis_expansion_is_a_mutable_value():
    empty = BasisExpansion(3)
    assert (empty.n, empty.entries) == (3, {})
    # each expansion gets its own dict
    empty.entries[sp(1, 2, 3)] = {((0, 0, 0), (0, 0, 0)): Fraction(1)}
    assert BasisExpansion(3).entries == {}
    labels = {sp(2, -1): {((1, 0), (0, 0)): Fraction(1, 2)}}
    first, second = BasisExpansion(2, labels), BasisExpansion(2, dict(labels))
    assert first == second and not first != second
    assert first != BasisExpansion(2) and first != BasisExpansion(3, labels)
    assert first != (2, labels)
    with pytest.raises(TypeError):
        hash(first)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site, and whatever it imports, out of the count.
    src = str(Path(signsym.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import signsym, signsym.cli; "
        "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, src], capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.split() == []
