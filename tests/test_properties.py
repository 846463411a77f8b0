"""Property tests: straightening round trip, CLI input fuzz, window
validation, averaging, the group action and the JSON round trips.

Examples are derived deterministically and nothing is stored between
runs, so the suite reads the same on every run and leaves no database.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import act, add, compose, family_invariant, label_polynomial, mul, rho_bruteforce, straighten_full
from signsym.cli import main
from signsym.poly import Monomial, Polynomial, rho
from signsym.signed_perm import SignedPermutation
from signsym.straighten import BasisExpansion, evaluate, straighten


def deterministic(max_examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=max_examples)


@st.composite
def rho_combinations(draw):
    """A combination of rho of monomials at rank <= 4, total degree <= 6."""
    n = draw(st.integers(1, 4))
    f = Polynomial(n)
    for _ in range(draw(st.integers(1, 3))):
        # Mostly even slots (p_k + q_k even), since rho of any other
        # monomial is 0.
        odd_ok = draw(st.integers(0, 4)) == 0
        budget = 6
        p, q = [], []
        for _ in range(n):
            slot = draw(st.integers(0, budget) if odd_ok else st.sampled_from(range(0, budget + 1, 2)))
            budget -= slot
            p.append(draw(st.integers(0, slot)))
            q.append(slot - p[-1])
        m = Monomial(tuple(p), tuple(q))
        coeff = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        f = add(f, rho(Polynomial.from_monomial(m, coeff)))
    return f


@deterministic(80)
@given(rho_combinations())
def test_evaluate_inverts_straighten(f):
    # the support walk against leading-term reduction on products
    # multiplied out in full, and evaluated back
    expansion = straighten(f)
    assert evaluate(expansion) == f
    assert expansion.entries == straighten_full(f).entries


fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def polynomials_at(draw, n):
    """An arbitrary polynomial of rank n with exponents <= 3 and up to 3 terms."""
    exps = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.dictionaries(st.builds(Monomial, exps, exps), fractions, max_size=3))
    return Polynomial(n, terms)


@st.composite
def signed_permutations(draw, n):
    values = draw(st.permutations(range(1, n + 1)))
    return SignedPermutation(tuple(v if draw(st.booleans()) else -v for v in values))


@deterministic(40)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(polynomials_at(n), polynomials_at(n), fractions)))
def test_rho_linear_idempotent_and_equal_to_the_group_average(args):
    f, g, c = args
    rf = rho(f)
    assert rf == rho_bruteforce(f)
    assert rho(rf) == rf
    assert rho(add(f, mul(g, c))) == add(rf, mul(rho(g), c))


@deterministic(60)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(signed_permutations(n), signed_permutations(n), polynomials_at(n))
    )
)
def test_action_composes(args):
    sigma, tau, f = args
    assert act(sigma, act(tau, f)) == act(compose(sigma, tau), f)


@st.composite
def expansions_at(draw, n):
    """An expansion of rank n: up to 3 sigma, each with 1 to 3 labels of parts <= 2."""
    part = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(lambda v: tuple(sorted(v, reverse=True)))
    labels = st.dictionaries(st.tuples(part, part), fractions.filter(bool), min_size=1, max_size=3)
    return BasisExpansion(n, draw(st.dictionaries(signed_permutations(n), labels, max_size=3)))


@deterministic(60)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(polynomials_at(n), expansions_at(n), signed_permutations(n))
    )
)
def test_json_round_trips(args):
    f, expansion, sigma = args
    assert Polynomial.from_json(json.loads(json.dumps(f.to_json()))) == f
    again = BasisExpansion.from_json(json.loads(json.dumps(expansion.to_json())))
    assert again == expansion
    # a polynomial coefficient is read exactly when it is separately invariant
    data = {"n": f.n, "entries": [{"sigma": list(sigma.window), "coeff": f.to_json()}]}
    if family_invariant(f):
        assert BasisExpansion.from_json(data).coefficient(sigma) == f
    else:
        with pytest.raises(ValueError, match="is not separately invariant in x and y$"):
            BasisExpansion.from_json(data)


def assert_checked(f):
    # ``f`` equals itself rebuilt through the public, checked constructors:
    # exponent tuples of non-negative ints, rank n, no zero, and Fractions
    assert f == Polynomial(f.n, {Monomial(m.p, m.q): c for m, c in f.items()})
    assert all(type(c) is Fraction for _, c in f.items())


# A few strings, most of them repeated, so that the parse of each is reused.
coefficient_texts = st.sampled_from(["1/30", "-1/30", "2/60", "+3/6", "-6/4", "0", "0/7"]) | st.integers(-2, 2)


@st.composite
def polynomial_json(draw):
    n = draw(st.integers(1, 3))
    exps = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    pairs = draw(st.lists(st.tuples(exps, exps), max_size=8, unique_by=lambda pq: (tuple(pq[0]), tuple(pq[1]))))
    return {"n": n, "terms": [{"p": p, "q": q, "coeff": draw(coefficient_texts)} for p, q in pairs]}


@st.composite
def raw_expansions_at(draw, n):
    """An expansion of rank n whose labels may name one product twice, with int or Fraction scalars."""
    part = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
    labels = st.dictionaries(st.tuples(part, part), st.integers(-2, 2) | fractions, max_size=4)
    return BasisExpansion(n, draw(st.dictionaries(signed_permutations(n), labels, max_size=2)))


@deterministic(80)
@given(rho_combinations(), polynomial_json(), st.integers(1, 3).flatmap(raw_expansions_at))
def test_what_is_built_unchecked_passes_the_checks(f, data, expansion):
    # from_json, rho and coefficient build their terms with no check, from
    # terms already checked; each result is what the checks would give
    read = Polynomial.from_json(data)
    assert_checked(read)
    assert read == Polynomial(data["n"], {
        Monomial(tuple(t["p"]), tuple(t["q"])): Fraction(t["coeff"]) for t in data["terms"]
    })
    for g in (f, read):
        assert_checked(rho(g))
        assert_checked(Polynomial.from_json(json.loads(json.dumps(g.to_json()))))
    for e in (straighten(f), expansion):
        for sigma, labels in e.entries.items():
            coefficient = e.coefficient(sigma)
            assert_checked(coefficient)
            assert coefficient == label_polynomial(e.n, labels)


leaves = (
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text("0123456789/-+e.x", max_size=4)
)
keys = st.sampled_from(["n", "terms", "p", "q", "coeff"])
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3),
    max_leaves=8,
)
# Near-valid polynomials reach the checks past the top-level shape.
exponents = st.lists(st.integers(0, 4), min_size=1, max_size=3) | json_values
terms = st.fixed_dictionaries({"p": exponents, "q": exponents, "coeff": st.integers(-3, 3) | leaves})
polynomials = st.fixed_dictionaries(
    {"n": st.integers(-1, 4), "terms": st.lists(terms, max_size=3) | json_values}
)
payloads = polynomials | json_values


@deterministic(150)
@given(payloads)
def test_straighten_cli_refuses_cleanly(payload):
    # Any exception escaping main would reach the user as a traceback.
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(io.StringIO()), redirect_stderr(err):
        mp.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        code = main(["straighten", "--verify"])
    err = err.getvalue()
    assert code in (0, 1), payload
    if code == 1:
        assert err.startswith("error:") and "Traceback" not in err, payload


@st.composite
def windows_with_one_bad_entry(draw):
    n = draw(st.integers(1, 4))
    values = draw(st.permutations(range(1, n + 1)))
    window = [v if draw(st.booleans()) else -v for v in values]
    pos = draw(st.integers(0, n - 1))
    window[pos] = draw(st.sampled_from([float(window[pos]), window[pos] > 0]) | st.floats() | st.booleans())
    return window


@deterministic(100)
@given(windows_with_one_bad_entry())
def test_window_validation_refuses_floats_and_bools(window):
    with pytest.raises(ValueError, match="not an integer"):
        SignedPermutation(tuple(window))
