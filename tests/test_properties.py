"""Property tests: straightening round trip, CLI input fuzz, window validation.

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

from signsym.cli import main
from signsym.poly import Monomial, Polynomial, rho
from signsym.signed_perm import SignedPermutation
from signsym.straighten import evaluate, straighten


def deterministic(max_examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=max_examples)


@st.composite
def rho_combinations(draw):
    """A combination of rho of monomials at rank <= 3, total degree <= 6."""
    n = draw(st.integers(1, 3))
    f = Polynomial.zero(n)
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
        f = f + rho(Polynomial.from_monomial(m, coeff))
    return f


@deterministic(60)
@given(rho_combinations())
def test_evaluate_inverts_straighten(f):
    assert evaluate(straighten(f)) == f


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
    with pytest.raises(ValueError, match="not an integer"):
        SignedPermutation.from_json({"window": window})
