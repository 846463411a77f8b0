"""Straightening over the averaged descent basis and the expansion round trip.

``straighten`` is checked on worked examples, against the full-product
oracle ``helpers.straighten_full`` (which asserts strict descent of the
leading term at every step) and by evaluating expansions back.
"""

import random
import re
from fractions import Fraction

import pytest

import signsym.descent_basis as descent_basis_module
import signsym.poly as poly_module
import signsym.straighten as straighten_module
from helpers import (
    averaged_basis,
    evaluate_full,
    family_invariant,
    mono,
    poly,
    random_even_monomial,
    random_invariant,
    sp,
    straighten_full,
)
from signsym.descent_basis import ordered_monomials, partitions_fixed_length
from signsym.poly import (
    Polynomial,
    bidegree_components,
    is_separately_invariant,
    monomial_sym_squares,
    rho,
)
from signsym.hilbert import verify_basis_rank
from signsym.signed_perm import SignedPermutation, enumerate_group, statistics
from signsym.straighten import BasisExpansion, evaluate, evaluates_to, straighten


def averaged(m):
    return rho(Polynomial.from_monomial(m))


def test_straighten_worked_example():
    f = averaged(mono((2, 0), (2, 0)))
    expansion = straighten(f)
    identity = SignedPermutation.identity(2)
    assert expansion.entries == {identity: {((1, 0), (1, 0)): Fraction(1, 2)}, sp(2, 1): {((0, 0), (0, 0)): -1}}
    assert expansion.coefficient(identity) == (
        monomial_sym_squares((1, 0), "x", 2)
        * monomial_sym_squares((1, 0), "y", 2)
        * Fraction(1, 2)
    )
    assert expansion.coefficient(sp(2, 1)) == Polynomial.one(2) * Fraction(-1)
    assert evaluate(expansion) == f


def test_reduce_step_even_power_example():
    # n=1: x1^3 y1 = x1^2 * c_[-1], so sigma = [-1], nu = (1,), mu = (0,)
    f = averaged(mono((3,), (1,)))
    expansion = straighten(f)
    assert expansion.entries == {sp(-1): {((1,), (0,)): 1}}
    assert expansion.coefficient(sp(-1)) == poly(1, (1, (2,), (0,)))
    assert evaluate(expansion) == f


def test_straighten_constant():
    expansion = straighten(Polynomial.one(3))
    assert expansion.entries == {SignedPermutation.identity(3): {((0, 0, 0), (0, 0, 0)): 1}}
    assert straighten(Polynomial.zero(2)).entries == {}


def test_straighten_rejects_non_invariant():
    with pytest.raises(ValueError, match="input is not invariant: the term x1 has an odd total exponent in slot 1"):
        straighten(poly(2, (1, (1, 0), (0, 0))))


def no_expansion(*args):
    raise AssertionError("no expansion may be built past the cap")


def test_straighten_groups_each_input_term_once(monkeypatch):
    # the orbit sums are read from the grouping that the invariance check
    # makes, so each term's exponent pairs are sorted once
    f = averaged(mono((5, 3, 1, 1, 0, 0, 0), (3, 1, 3, 1, 2, 0, 0)))
    expansion = straighten(f)
    keyed = []
    orbit_key = poly_module.orbit_key

    def counted(m):
        keyed.append(m)
        return orbit_key(m)

    for module in (poly_module, straighten_module):
        monkeypatch.setattr(module, "orbit_key", counted)
    assert straighten(f).entries == expansion.entries
    assert len(keyed) == len(f) and set(keyed) == set(f.monomials())


def test_straighten_guard(monkeypatch):
    # The term cap counts |rearrangements of nu| * |rearrangements of mu|
    # for each column reduced, before its product is built.  The
    # coefficients hold exactly those terms, so at the cap the walk
    # runs in full, and one below it the last product is never built.
    assert poly_module.TERM_GUARD == 100_000
    f = averaged(mono((4, 0, 0), (2, 0, 0)))
    expansion = straighten(f)
    terms = sum(len(expansion.coefficient(sigma)) for sigma in expansion.entries)
    kernel = straighten_module.product_coefficients
    calls = []

    def counted(dec, index):
        calls.append(dec)
        return kernel(dec, index)

    monkeypatch.setattr(straighten_module, "product_coefficients", counted)
    monkeypatch.setattr(poly_module, "TERM_GUARD", terms)
    assert straighten(f).entries == expansion.entries
    reduced = len(calls)
    assert reduced > 1
    calls.clear()
    monkeypatch.setattr(poly_module, "TERM_GUARD", terms - 1)
    monkeypatch.setattr(straighten_module, "BasisExpansion", no_expansion)
    message = f"^products reach {terms} terms at bidegree \\(4, 2\\), above the cap of {terms - 1}$"
    with pytest.raises(ValueError, match=message):
        straighten(f)
    assert len(calls) == reduced - 1
    # evaluate averages through rho, so it has rho's cap
    monkeypatch.setattr(poly_module, "TERM_GUARD", len(f) - 1)
    with pytest.raises(ValueError, match=f"^the average has {len(f)} terms, above the cap of {len(f) - 1}$"):
        evaluate(expansion)


def test_straighten_column_cap_at_its_boundary(monkeypatch):
    # The columns of every bidegree count against one cap, and each
    # bidegree's stream is cut one past what is left of the cap, before
    # the bidegree is walked.
    assert descent_basis_module.COLUMN_GUARD == 100_000
    f = averaged(mono((2, 0), (0, 0))) + averaged(mono((2, 0), (2, 0)))
    wide = len(list(ordered_monomials(2, 2, 2)))
    assert wide > 2
    expansion = straighten(f)
    drawn = []

    def counted(n, a, b):
        for w in ordered_monomials(n, a, b):
            drawn.append((a, b))
            yield w

    monkeypatch.setattr(descent_basis_module, "ordered_monomials", counted)
    monkeypatch.setattr(descent_basis_module, "COLUMN_GUARD", 1 + wide)
    assert straighten(f).entries == expansion.entries
    assert len(drawn) == 1 + wide
    drawn.clear()
    monkeypatch.setattr(descent_basis_module, "COLUMN_GUARD", wide - 1)
    monkeypatch.setattr(straighten_module, "BasisExpansion", no_expansion)
    with pytest.raises(ValueError, match=f"^bidegree \\(2, 2\\) takes the ordered columns past the cap of {wide - 1}$"):
        straighten(f)
    assert drawn == [(2, 0)] + [(2, 2)] * (wide - 1)

    def no_kernel(dec, index):
        raise AssertionError("no product may be built past the cap")

    drawn.clear()
    monkeypatch.setattr(descent_basis_module, "COLUMN_GUARD", 0)
    monkeypatch.setattr(straighten_module, "product_coefficients", no_kernel)
    with pytest.raises(ValueError, match="^bidegree \\(2, 0\\) takes the ordered columns past the cap of 0$"):
        straighten(f)
    assert drawn == [(2, 0)]


def test_straighten_column_cap_draws_no_more_than_it_counts(monkeypatch):
    # x1^2 y2^200000 at rank 3 has billions of ordered columns at its
    # bidegree.  Each tie block's tails are walked for each head part as
    # the columns are drawn, so a cap of 10 draws a few partitions per
    # column, not the 50,001 tails of the first head.
    drawn = []
    partitions = descent_basis_module.partitions_fixed_length

    def counted(*args):
        for part in partitions(*args):
            drawn.append(part)
            yield part

    monkeypatch.setattr(descent_basis_module, "partitions_fixed_length", counted)
    monkeypatch.setattr(descent_basis_module, "COLUMN_GUARD", 10)
    f = averaged(mono((2, 0, 0), (0, 200_000, 0)))
    with pytest.raises(ValueError, match="^bidegree \\(2, 200000\\) takes the ordered columns past the cap of 10$"):
        straighten(f)
    assert 11 <= len(drawn) <= 4 * 11


def test_straighten_at_rank_1200():
    # the columns, the terms and the recursion depth of the partitions
    # follow the nonzero exponents, not the rank
    n = 1200
    f = averaged(mono((2,) + (0,) * (n - 1), (0,) * n))
    expansion = straighten(f)
    assert len(expansion.entries) == 1
    assert evaluates_to(expansion, f)


def test_unit_expansion_exhaustive_rank_two():
    for sigma in enumerate_group(2):
        assert straighten(averaged_basis(sigma)).entries == {sigma: {((0, 0), (0, 0)): 1}}


def test_column_walk_matches_full_product_oracle():
    # 8 even monomials at ranks 5 and 6, total degree <= 8, plus one at
    # rank 7 whose walk takes many steps
    rng = random.Random(4096)
    cases = [random_even_monomial(rng, n, 8) for n in (5, 6) for _ in range(4)]
    cases.append(mono((5, 3, 1, 1, 0, 0, 0), (3, 1, 3, 1, 2, 0, 0)))
    for m in cases:
        f = averaged(m)
        assert straighten(f).entries == straighten_full(f).entries, m.text()


def test_round_trip_random_invariants():
    rng = random.Random(97)
    for n in (1, 2, 3):
        for _ in range(8):
            f = random_invariant(rng, n)
            expansion = straighten(f)
            assert evaluate(expansion) == f
            # reading back refuses a coefficient outside the ring, and
            # stores no zero
            assert BasisExpansion.from_json(expansion.to_json()) == expansion


def test_straighten_emits_canonical_labels():
    rng = random.Random(83)
    cases = [random_invariant(rng, n) for n in (1, 2, 3, 4) for _ in range(5)]
    cases.append(averaged(mono((5, 3, 1, 1, 0, 0, 0), (3, 1, 3, 1, 2, 0, 0))))
    labelled = 0
    for f in cases:
        for labels in straighten(f).entries.values():
            assert labels
            for (nu, mu), scalar in labels.items():
                for part in (nu, mu):
                    assert type(part) is tuple and len(part) == f.n
                    assert all(type(v) is int and v >= 0 for v in part)
                    assert list(part) == sorted(part, reverse=True)
                assert type(scalar) is Fraction and scalar
                labelled += 1
    assert labelled > 50


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
    unit = BasisExpansion(2, {sp(2, 1): {((0, 0), (0, 0)): 1}})
    assert evaluate(unit) == averaged_basis(sp(2, 1))
    assert evaluate(BasisExpansion(2)).is_zero()


def built_expansion(rng, n):
    # A few sigma whose coefficients are rational combinations of
    # m_nu(x^2) m_mu(y^2), each drawing two of one shared pool of three
    # (nu, mu), so the coefficient supports overlap across sigma.
    labels = [
        (nu, mu)
        for a in range(3)
        for b in range(3)
        for nu in partitions_fixed_length(a, n)
        for mu in partitions_fixed_length(b, n)
    ]
    shared = rng.sample(labels, 3)
    expansion = BasisExpansion(n)
    for sigma in rng.sample(list(enumerate_group(n)), min(4, 2 ** n)):
        expansion.entries[sigma] = {
            label: Fraction(rng.choice([-5, -2, -1, 1, 3, 4]), rng.randint(1, 3)) for label in rng.sample(shared, 2)
        }
    return expansion


def test_evaluate_matches_full_products():
    # one average of the summed products equals every rho(c_sigma)
    # multiplied out in full
    rng = random.Random(71)
    for n in (1, 2, 3):
        for _ in range(6):
            expansion = built_expansion(rng, n)
            assert len(expansion.entries) >= 2
            assert evaluate(expansion) == evaluate_full(expansion)


def test_evaluate_detects_mutated_expansions():
    # The products m_nu(x^2) m_mu(y^2) rho(c_sigma) are linearly
    # independent, so every change to the labels changes the value.
    rng = random.Random(73)
    cases = [(straighten(f), f) for f in (random_invariant(rng, n) for n in (1, 2, 3) for _ in range(5))]
    cases += [(e, evaluate_full(e)) for e in (built_expansion(rng, n) for n in (1, 2, 3) for _ in range(4))]
    relabelled = moved = refused = 0

    def evaluates_to_f(expansion, f):
        # the orbit-sum comparison of ``straighten --verify`` agrees
        # with evaluating in full
        value = evaluate(expansion) == f
        assert evaluates_to(expansion, f) == value
        return value

    def plus(labels, extra):
        # labels with the scalars of ``extra`` added, zeros dropped
        out = dict(labels)
        for label, c in extra.items():
            out[label] = out.get(label, 0) + c
        return {label: c for label, c in out.items() if c}

    for expansion, f in cases:
        n, entries = expansion.n, expansion.entries
        assert evaluates_to_f(expansion, f)
        sigma = rng.choice(sorted(entries, key=lambda s: s.window))
        labels = entries[sigma]
        (nu, mu), c = rng.choice(sorted(labels.items()))
        # a scalar changed
        assert not evaluates_to_f(BasisExpansion(n, {**entries, sigma: {**labels, (nu, mu): c * 2}}), f)
        # the label moved to another (nu, mu) of its bidegree
        others = [
            (a, b)
            for a in partitions_fixed_length(sum(nu), n)
            for b in partitions_fixed_length(sum(mu), n)
            if (a, b) != (nu, mu)
        ]
        if others:
            relabel = plus(labels, {(nu, mu): -c, rng.choice(others): c})
            assert not evaluates_to_f(BasisExpansion(n, {**entries, sigma: relabel}), f)
            relabelled += 1
        # the whole entry moved to another sigma
        tau = rng.choice([t for t in enumerate_group(n) if t != sigma])
        rest = {s: ls for s, ls in entries.items() if s != sigma}
        assert not evaluates_to_f(BasisExpansion(n, {**rest, tau: plus(rest.get(tau, {}), labels)}), f)
        moved += 1
        # one term of the coefficient changed, which is read back only
        # when its separate orbit is that one term
        coeff = expansion.coefficient(sigma)
        m, c = rng.choice(coeff.items())
        changed = coeff + Polynomial.from_monomial(m, abs(c) + 1)
        data = {"n": n, "entries": [{"sigma": list(sigma.window), "coeff": changed.to_json()}]}
        if family_invariant(changed):
            read = BasisExpansion.from_json(data).entries[sigma]
            assert not evaluates_to_f(BasisExpansion(n, {**entries, sigma: read}), f)
        else:
            with pytest.raises(ValueError, match="is not separately invariant in x and y$"):
                BasisExpansion.from_json(data)
            refused += 1
    assert relabelled > 10 and moved > 10 and refused > 5


def test_labels_naming_one_product_add_up():
    # A permuted part names the same m_nu(x^2) m_mu(y^2), so an
    # expansion that spreads each scalar over several such labels has
    # the same coefficients, JSON and value.
    f = averaged(mono((6, 4, 2), (4, 2, 0)))
    expansion = straighten(f)
    spread = {}
    for sigma, labels in expansion.entries.items():
        out = spread[sigma] = {}
        for (nu, mu), c in labels.items():
            for label in ((nu, mu), (nu[::-1], mu), (nu, mu[1:] + mu[:1])):
                out[label] = out.get(label, 0) + c / 3
    spread = BasisExpansion(f.n, spread)
    assert sum(map(len, spread.entries.values())) > 2 * sum(map(len, expansion.entries.values())) > 0
    for sigma in expansion.entries:
        assert spread.coefficient(sigma) == expansion.coefficient(sigma)
    assert spread.to_json() == expansion.to_json()
    assert evaluate(spread) == evaluate_full(spread) == f
    assert evaluates_to(spread, f)


def test_label_parts_need_n_entries():
    # a part that is too short or too long is refused, never cut to n
    f = averaged(mono((2, 0), (2, 0)))
    entries = straighten(f).entries
    for label in (((1,), (1, 0)), ((1, 0), (1, 0, 0)), ((1, 0, 0), (1, 0, 0)), ((), (0, 0))):
        bad = BasisExpansion(2, {**entries, sp(2, 1): {label: 1}})
        uses = (lambda e: e.coefficient(sp(2, 1)), BasisExpansion.to_json, evaluate, lambda e: evaluates_to(e, f))
        for use in uses:
            with pytest.raises(ValueError, match="^label .* needs two parts of 2 entries$"):
                use(bad)


def test_expansion_refuses_a_sigma_of_another_rank_and_inexact_scalars():
    # c_sigma's exponents are never cut to n, and a scalar is an int or a
    # Fraction: rho(x1^2) is 1/2 m_(1,0)(x^2) at the identity of rank 2
    f = averaged(mono((2, 0), (0, 0)))
    identity, label = SignedPermutation.identity(2), ((1, 0), (0, 0))
    assert evaluates_to(BasisExpansion(2, {identity: {label: Fraction(1, 2)}}), f)
    assert evaluate(BasisExpansion(2, {identity: {label: 1}})) == f * 2
    refused = [(sp(1, 2, 3), Fraction(1, 2), "^sigma \\[1,2,3\\] has rank 3, not 2$")]
    refused += [(identity, v, f"^the scalar of label .* is {v!r}, not an int or a Fraction$") for v in (0.5, 0.1, True)]
    for sigma, scalar, message in refused:
        bad = BasisExpansion(2, {sigma: {label: scalar}})
        uses = (lambda e: e.coefficient(sigma), BasisExpansion.to_json, evaluate, lambda e: evaluates_to(e, f))
        for use in uses:
            with pytest.raises(ValueError, match=message):
                use(bad)


def test_one_binding_per_cap(monkeypatch):
    # each cap is read at call time from the one module that defines it:
    # descent_basis's column cap refuses straighten and verify alike, and
    # poly's term cap refuses straighten's products as well as rho
    f = averaged(mono((2, 0), (2, 0)))
    columns = len(list(ordered_monomials(2, 2, 2)))
    monkeypatch.setattr(descent_basis_module, "COLUMN_GUARD", columns - 1)
    with pytest.raises(ValueError, match=f"^bidegree \\(2, 2\\) takes the ordered columns past the cap of {columns - 1}$"):
        straighten(f)
    with pytest.raises(ValueError, match=f"^cell \\(2, 2\\) has {columns} ordered columns, above the cap of {columns - 1}$"):
        verify_basis_rank(2, 2, 2)
    monkeypatch.undo()
    assert verify_basis_rank(2, 2, 2).passed
    monkeypatch.setattr(poly_module, "TERM_GUARD", 0)
    with pytest.raises(ValueError, match="^products reach 4 terms at bidegree \\(2, 2\\), above the cap of 0$"):
        straighten(f)


def test_expansion_json_round_trip():
    f = averaged(mono((2, 0), (2, 0)))
    expansion = straighten(f)
    data = expansion.to_json()
    again = BasisExpansion.from_json(data)
    assert again.n == 2
    assert again.entries == expansion.entries
    assert evaluate(again) == f


def test_expansion_from_json_refuses_malformed():
    one = Polynomial.one(2).to_json()
    refused = [
        [],
        {"n": 1.7, "entries": []},
        {"n": True, "entries": []},
        {"n": "2", "entries": []},
        {"n": 0, "entries": []},
        {"n": 2},
        {"n": 2, "entries": {}},
        {"n": 2, "entries": [[2, 1]]},
        {"n": 2, "entries": [{"sigma": "21", "coeff": one}]},
        {"n": 2, "entries": [{"sigma": [2.0, 1], "coeff": one}]},
        {"n": 2, "entries": [{"sigma": [1], "coeff": Polynomial.one(1).to_json()}]},
        {"n": 2, "entries": [{"sigma": [2, 1], "coeff": 1}]},
        {"n": 2, "entries": [{"sigma": [2, 1], "coeff": Polynomial.one(3).to_json()}]},
    ]
    for data in refused:
        with pytest.raises(ValueError):
            BasisExpansion.from_json(data)


def test_expansion_from_json_refuses_a_sigma_listed_twice():
    # a zero coefficient is not stored, but its sigma still counts as listed
    one = Polynomial.one(2).to_json()
    for first in (one, Polynomial.zero(2).to_json()):
        data = {"n": 2, "entries": [{"sigma": [2, 1], "coeff": first}, {"sigma": [1, 2], "coeff": one},
                                    {"sigma": [2, 1], "coeff": one}]}
        with pytest.raises(ValueError, match=re.escape("sigma [2,1] is listed twice")):
            BasisExpansion.from_json(data)


def test_expansion_from_json_stores_no_zero():
    # a coefficient whose terms are all zero is not stored, and a zero
    # term is no label
    zero = {"n": 2, "terms": [{"p": [2, 0], "q": [0, 0], "coeff": "0"}]}
    orbit = {"n": 2, "terms": [{"p": [2, 0], "q": [0, 0], "coeff": 1}, {"p": [0, 2], "q": [0, 0], "coeff": 1},
                               {"p": [4, 0], "q": [0, 0], "coeff": 0}]}
    data = {"n": 2, "entries": [{"sigma": [2, 1], "coeff": zero}, {"sigma": [1, 2], "coeff": orbit}]}
    assert BasisExpansion.from_json(data).entries == {sp(1, 2): {((1, 0), (0, 0)): 1}}


def test_expansion_from_json_refuses_a_coefficient_not_separately_invariant():
    # x1 has an odd exponent; x1^2 y1^2 + x2^2 y2^2 is invariant, but only
    # half of its separate orbit
    for bad in (poly(2, (1, (1, 0), (0, 0))), poly(2, (1, (2, 0), (2, 0)), (1, (0, 2), (0, 2)))):
        data = {"n": 2, "entries": [{"sigma": [2, 1], "coeff": bad.to_json()}]}
        with pytest.raises(ValueError, match=re.escape("coefficient of [2,1] is not separately invariant in x and y")):
            BasisExpansion.from_json(data)
