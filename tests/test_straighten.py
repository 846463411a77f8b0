"""Straightening over the averaged descent basis and the expansion round trip.

``straighten`` is checked on worked examples, against the full-product
oracle ``helpers.straighten_full`` (which asserts strict descent of the
leading term at every step) and by evaluating expansions back.
"""

import ast
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

import signsym.descent_basis as descent_basis_module
import signsym.poly as poly_module
import signsym.straighten as straighten_module
from helpers import (
    add,
    averaged_basis,
    bidegree_components,
    count_walk,
    evaluate_full,
    family_invariant,
    mono,
    monomial_sym_squares,
    mul,
    ordered_representative,
    partitions_fixed_length,
    poly,
    random_even_monomial,
    random_invariant,
    sp,
    straighten_full,
    unit,
)
from signsym.descent_basis import ordered_monomials, pair_codes
from signsym.poly import Polynomial, rho
from signsym.hilbert import verify_basis_rank
from signsym.signed_perm import SignedPermutation, enumerate_group, statistics
from signsym.straighten import BasisExpansion, evaluate, evaluates_to, straighten


def averaged(m):
    return rho(Polynomial.from_monomial(m))


def test_straighten_worked_example():
    f = averaged(mono((2, 0), (2, 0)))
    expansion = straighten(f)
    identity = sp(1, 2)
    assert expansion.entries == {identity: {((1, 0), (1, 0)): Fraction(1, 2)}, sp(2, 1): {((0, 0), (0, 0)): -1}}
    assert expansion.coefficient(identity) == mul(
        mul(monomial_sym_squares((1, 0), "x", 2), monomial_sym_squares((1, 0), "y", 2)), Fraction(1, 2)
    )
    assert expansion.coefficient(sp(2, 1)) == mul(unit(2), -1)
    assert evaluate(expansion) == f


def test_reduce_step_even_power_example():
    # n=1: x1^3 y1 = x1^2 * c_[-1], so sigma = [-1], nu = (1,), mu = (0,)
    f = averaged(mono((3,), (1,)))
    expansion = straighten(f)
    assert expansion.entries == {sp(-1): {((1,), (0,)): 1}}
    assert expansion.coefficient(sp(-1)) == poly(1, (1, (2,), (0,)))
    assert evaluate(expansion) == f


def test_straighten_constant():
    expansion = straighten(unit(3))
    assert expansion.entries == {sp(1, 2, 3): {((0, 0, 0), (0, 0, 0)): 1}}
    assert straighten(Polynomial(2)).entries == {}


def test_straighten_rejects_non_invariant():
    with pytest.raises(ValueError, match="input is not invariant: the term x1 has an odd total exponent in slot 1"):
        straighten(poly(2, (1, (1, 0), (0, 0))))


def test_straighten_refuses_a_product_that_is_not_triangular(monkeypatch):
    # The walk trusts the kernel's products to lead positively at their
    # own column and to reach only smaller ones; each net names its
    # breach.  The columns of rho(x1^2 y1^2) at rank 2 are x1^2 y1^2,
    # x1^2 y2^2 and x1 x2 y1 y2 (as (1, -1) pairs), in decreasing order.
    f = averaged(mono((2, 0), (2, 0)))
    kernel = straighten_module.product_coefficients
    monkeypatch.setattr(straighten_module, "product_coefficients", lambda *args: {})
    message = "leading coefficient of the reduction product must be positive; got 0 for x1^2 y1^2"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        straighten(f)
    # a product that reaches back to the largest column, which the walk
    # has visited, or to an orbit above its lead that it has never met
    # (x1^4, which no orbit of the bidegree lies above)
    largest = tuple(sorted(pair_codes((2, 0), (2, 0), 3)))
    unmet = tuple(sorted(pair_codes((4, 0), (0, 0), 3)))
    for above, name in ((largest, "x1^2 y1^2"), (unmet, "x1^4")):
        def reaching(dec, base, classes, above=above):
            product = kernel(dec, base, classes)
            return product if dec.nu == (1, 0) and dec.mu == (1, 0) else {above: 1, **product}

        monkeypatch.setattr(straighten_module, "product_coefficients", reaching)
        message = f"the reduction product of x1^2 y2^2 reaches {name}, above its lead"
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            straighten(f)


def no_expansion(*args):
    raise AssertionError("no expansion may be built past the cap")


def test_straighten_groups_each_input_term_once(monkeypatch):
    # the invariance check, the walk's orbit sums and the check of
    # ``evaluates_to`` all read the grouping that the input keeps, so over
    # ``straighten --verify`` each term's exponent pairs are sorted once
    averaged_f = averaged(mono((5, 3, 1, 1, 0, 0, 0), (3, 1, 3, 1, 2, 0, 0)))
    expansion = straighten(averaged_f)
    f = Polynomial.from_json(averaged_f.to_json())
    keyed = []
    orbit_key = poly_module.orbit_key

    def counted(m):
        keyed.append(m)
        return orbit_key(m)

    # also where ``straighten`` would find a name of its own
    for module in (poly_module, straighten_module):
        monkeypatch.setattr(module, "orbit_key", counted, raising=False)
    assert straighten(f).entries == expansion.entries
    assert evaluates_to(expansion, f)
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

    def counted(dec, *args):
        calls.append(dec)
        return kernel(dec, *args)

    monkeypatch.setattr(straighten_module, "product_coefficients", counted)
    monkeypatch.setattr(poly_module, "TERM_GUARD", terms)
    assert straighten(f).entries == expansion.entries
    reduced = len(calls)
    assert reduced > 1
    calls.clear()
    monkeypatch.setattr(poly_module, "TERM_GUARD", terms - 1)
    monkeypatch.setattr(straighten_module, "BasisExpansion", no_expansion)
    message = f"^products at bidegree \\(4, 2\\) take the terms past the cap of {terms - 1}$"
    with pytest.raises(ValueError, match=message):
        straighten(f)
    assert len(calls) == reduced - 1
    # evaluate averages through rho, so it has rho's cap
    monkeypatch.setattr(poly_module, "TERM_GUARD", len(f) - 1)
    with pytest.raises(ValueError, match=f"^the average has {len(f)} terms, above the cap of {len(f) - 1}$"):
        evaluate(expansion)


def test_straighten_refuses_a_huge_y_degree_by_the_term_cap(monkeypatch):
    # x1^2 y2^200000000 at rank 3 has over 10^15 ordered columns at its
    # bidegree, and the walk meets only those its products reach: the
    # term cap refuses it, with no column drawn by the column walk
    counts = count_walk(monkeypatch)
    pops = []
    heappop = straighten_module.heappop

    def counted_pop(heap):
        pops.append(len(heap))
        return heappop(heap)

    monkeypatch.setattr(straighten_module, "heappop", counted_pop)
    monkeypatch.setattr(straighten_module, "BasisExpansion", no_expansion)
    f = averaged(mono((2, 0, 0), (0, 200_000_000, 0)))
    message = "^products at bidegree \\(2, 200000000\\) take the terms past the cap of 100000$"
    with pytest.raises(ValueError, match=message):
        straighten(f)
    assert counts == [0, 0]
    # every heap entry is the input's one orbit or an orbit that a
    # product term met first, and the terms stay under the cap
    assert 1 < len(pops) <= poly_module.TERM_GUARD
    assert max(pops) <= poly_module.TERM_GUARD


@pytest.mark.parametrize("n", [100, 400, 1200])
def test_straighten_answers_deep_columns(n):
    # the average of y1^(2n) is one orbit whose ordered monomial is one
    # product: its column (0, 2n), (0, 0), ... is the only one visited of
    # the bidegree's many, each in well under a second at these ranks
    f = averaged(mono((0,) * n, (2 * n,) + (0,) * (n - 1)))
    start = time.perf_counter()
    expansion = straighten(f)
    assert evaluates_to(expansion, f)
    assert time.perf_counter() - start < 5
    identity = SignedPermutation(tuple(range(1, n + 1)))
    assert expansion.entries == {identity: {((0,) * n, (n,) + (0,) * (n - 1)): Fraction(1, n)}}


def test_straighten_at_rank_1200():
    # the columns, the terms and the recursion depth of the walk, which
    # pads with (0, 0) once nothing is left, follow the nonzero exponent
    # pairs, not the rank
    n = 1200
    f = averaged(mono((2,) + (0,) * (n - 1), (0,) * n))
    expansion = straighten(f)
    assert len(expansion.entries) == 1
    assert evaluates_to(expansion, f)


def test_one_walk_reduces_every_bidegree_at_one_code_base(monkeypatch):
    # three bidegrees, one of y-degree 100, share one walk: its
    # expansion is the union of its parts' and the full-product
    # oracle's, and every product is coded at one base, 1 + the largest
    # y-degree, the bound a product keeping its lead's bidegree cannot
    # pass, not 1 + the largest single y exponent, 50
    parts = [averaged(mono(p, q)) for p, q in [((1, 1, 0), (1, 1, 0)), ((2, 0, 0), (0, 50, 50)), ((3, 1, 0), (1, 3, 0))]]
    f = add(add(*parts[:2]), parts[2])
    union = {}
    for part in parts:
        for sigma, labels in straighten(part).entries.items():
            assert not union.setdefault(sigma, {}).keys() & labels.keys()
            union[sigma].update(labels)
    kernel = straighten_module.product_coefficients
    bases = []

    def counted(dec, base, classes):
        bases.append(base)
        return kernel(dec, base, classes)

    monkeypatch.setattr(straighten_module, "product_coefficients", counted)
    expansion = straighten(f)
    assert set(bases) == {101} and len(bases) == sum(map(len, union.values()))
    assert expansion.entries == union == straighten_full(f).entries


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
            assert family_invariant(coeff)


def test_support_bound_and_parity():
    rng = random.Random(31)
    for _ in range(10):
        f = random_invariant(rng, 2)
        for bd, component in bidegree_components(f).items():
            for sigma in straighten(component).entries:
                st = statistics(sigma)
                st_inv = statistics(sigma.inverse())
                a, b = bd
                assert st_inv.fmaj <= a and st.fmaj <= b
                assert st_inv.fmaj % 2 == a % 2
                assert st.fmaj % 2 == b % 2


def test_invariant_support_contains_ordered_representatives():
    # each orbit in an invariant's support carries its ordered
    # representative with the same coefficient, which is what makes the
    # leading ordered term the true leading term
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
        changed = add(coeff, Polynomial.from_monomial(m, abs(c) + 1))
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
    identity, label = sp(1, 2), ((1, 0), (0, 0))
    assert evaluates_to(BasisExpansion(2, {identity: {label: Fraction(1, 2)}}), f)
    assert evaluate(BasisExpansion(2, {identity: {label: 1}})) == mul(f, 2)
    refused = [(sp(1, 2, 3), Fraction(1, 2), "^sigma \\[1,2,3\\] has rank 3, not 2$")]
    refused += [(identity, v, f"^{re.escape(f'scalar {v!r} is not an int or a Fraction')}$") for v in (0.5, 0.1, True)]
    for sigma, scalar, message in refused:
        bad = BasisExpansion(2, {sigma: {label: scalar}})
        uses = (lambda e: e.coefficient(sigma), BasisExpansion.to_json, evaluate, lambda e: evaluates_to(e, f))
        for use in uses:
            with pytest.raises(ValueError, match=message):
                use(bad)


def test_one_binding_per_cap(monkeypatch):
    # each cap is read at call time from the one module that defines it:
    # descent_basis's column cap refuses verify and does not bind
    # straighten, which builds no cell, and poly's term cap refuses
    # straighten's products as well as rho
    f = averaged(mono((2, 0), (2, 0)))
    expansion = straighten(f)
    columns = len(list(ordered_monomials(2, 2, 2)))
    monkeypatch.setattr(descent_basis_module, "COLUMN_GUARD", 0)
    assert straighten(f) == expansion
    monkeypatch.setattr(descent_basis_module, "COLUMN_GUARD", columns - 1)
    with pytest.raises(ValueError, match=f"^cell \\(2, 2\\) has {columns} ordered columns, above the cap of {columns - 1}$"):
        verify_basis_rank(2, 2, 2)
    monkeypatch.undo()
    assert verify_basis_rank(2, 2, 2).passed
    monkeypatch.setattr(poly_module, "TERM_GUARD", 0)
    with pytest.raises(ValueError, match="^products at bidegree \\(2, 2\\) take the terms past the cap of 0$"):
        straighten(f)


def test_each_cap_is_read_only_in_its_own_module():
    # Code only: a docstring may name a cap.  The owner compares its cap
    # once, in check_columns, check_terms, check_entries or the CLI's
    # read of standard input.
    owners = {"COLUMN_GUARD": "descent_basis.py", "TERM_GUARD": "poly.py", "ENTRY_GUARD": "poly.py", "INPUT_GUARD": "cli.py"}
    for path in sorted(Path(straighten_module.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for cap, owner in owners.items():
            reads = [
                node for node in ast.walk(tree)
                if (isinstance(node, ast.Name) and node.id == cap)
                or (isinstance(node, ast.Attribute) and node.attr == cap)
                or (isinstance(node, ast.alias) and node.name == cap)
            ]
            compares = [
                node for node in ast.walk(tree)
                if isinstance(node, ast.Compare) and any(read in reads for read in ast.walk(node))
            ]
            if path.name == owner:
                assert reads and len(compares) == 1, (cap, path.name)
            else:
                assert not reads, (cap, path.name)


def test_expansion_json_round_trip():
    f = averaged(mono((2, 0), (2, 0)))
    expansion = straighten(f)
    data = expansion.to_json()
    again = BasisExpansion.from_json(data)
    assert again.n == 2
    assert again.entries == expansion.entries
    assert evaluate(again) == f


def test_expansion_from_json_refuses_malformed():
    one = unit(2).to_json()
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
        {"n": 2, "entries": [{"sigma": [1], "coeff": unit(1).to_json()}]},
        {"n": 2, "entries": [{"sigma": [2, 1], "coeff": 1}]},
        {"n": 2, "entries": [{"sigma": [2, 1], "coeff": unit(3).to_json()}]},
    ]
    for data in refused:
        with pytest.raises(ValueError):
            BasisExpansion.from_json(data)


RANK_ONE = unit(1).to_json()


@pytest.mark.parametrize(
    "data,message",
    [
        ({"n": True, "entries": []}, 'an expansion must be a JSON object with a positive integer "n"'),
        ({"n": 1.0, "entries": []}, 'an expansion must be a JSON object with a positive integer "n"'),
        ({"n": "1", "entries": []}, 'an expansion must be a JSON object with a positive integer "n"'),
        ([1], 'an expansion must be a JSON object with a positive integer "n"'),
        ({"n": 1, "entries": [{"sigma": "1", "coeff": RANK_ONE}]}, "needs a window list and a coefficient of rank 1"),
        ({"n": 1, "entries": [{"sigma": (1,), "coeff": RANK_ONE}]}, "needs a window list and a coefficient of rank 1"),
        ({"n": 1, "entries": [{"coeff": RANK_ONE}]}, "needs a window list and a coefficient of rank 1"),
        ({"n": 2, "entries": [{"sigma": [True, 2], "coeff": unit(2).to_json()}]}, "entry True at position 1 is not an integer"),
        ({"n": 2, "entries": [{"sigma": [2, 1.0], "coeff": unit(2).to_json()}]}, "entry 1.0 at position 2 is not an integer"),
    ],
    ids=["rank True", "rank 1.0", "rank '1'", "not an object", "sigma str", "sigma tuple", "no sigma",
         "sigma entry True", "sigma entry 1.0"],
)
def test_expansion_from_json_refuses_an_ill_typed_rank_or_window(data, message):
    # a bool or a float is never read as a rank or a window entry, and a
    # window is a JSON list, never a string or a tuple
    with pytest.raises(ValueError, match=f"{re.escape(message)}$"):
        BasisExpansion.from_json(data)


@pytest.mark.parametrize(
    "spoil,message",
    [
        (lambda data: data.update(extra=1), "an expansion has an unknown key 'extra'"),
        (lambda data: data["entries"][0].update(label=1), "an entry of \"entries\" has an unknown key 'label'"),
        (lambda data: data["entries"][0]["coeff"].update(extra=1), "a polynomial has an unknown key 'extra'"),
        (lambda data: data["entries"][0]["coeff"]["terms"][-1].update(r=5),
         "an entry of \"terms\" has an unknown key 'r'"),
    ],
    ids=["top level", "entry", "coefficient", "coefficient term"],
)
def test_expansion_from_json_refuses_an_unknown_key(spoil, message):
    # each object of the schema keeps to its own keys
    data = straighten(averaged(mono((2, 0), (0, 0)))).to_json()
    assert BasisExpansion.from_json(data).entries
    spoil(data)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BasisExpansion.from_json(data)


def test_expansion_from_json_refuses_a_sigma_listed_twice():
    # a zero coefficient is not stored, but its sigma still counts as listed
    one = unit(2).to_json()
    for first in (one, Polynomial(2).to_json()):
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
    # The labels read from a coefficient must rebuild it exactly.  x1 has
    # an odd exponent.  x1^3 + x2^3 halves to the labels of x1^2 + x2^2,
    # and x1^2 + 2 x2^2 is one separate orbit carrying two coefficients,
    # so both pass the size sum and are refused by the rebuild.  x1^2 y1^2
    # + x2^2 y2^2 is invariant, but two of the four terms of its separate
    # orbit.
    message = "^" + re.escape("coefficient of [2,1] is not separately invariant in x and y") + "$"
    for bad in (
        poly(2, (1, (1, 0), (0, 0))),
        poly(2, (1, (3, 0), (0, 0)), (1, (0, 3), (0, 0))),
        poly(2, (1, (2, 0), (0, 0)), (2, (0, 2), (0, 0))),
        poly(2, (1, (2, 0), (2, 0)), (1, (0, 2), (0, 2))),
    ):
        data = {"n": 2, "entries": [{"sigma": [2, 1], "coeff": bad.to_json()}]}
        with pytest.raises(ValueError, match=message):
            BasisExpansion.from_json(data)


def test_expansion_from_json_refuses_a_part_of_a_large_orbit_at_once(monkeypatch):
    # One term whose separate orbit has 20! terms is refused by the size
    # sum, before any rearrangement of its label is built.
    def built(part):
        pytest.fail(f"the rearrangements of {part} were built for a coefficient that cannot be whole")

    monkeypatch.setattr(straighten_module, "doubled_rearrangements", built)
    n = 20
    window = list(range(1, n + 1))
    coeff = {"n": n, "terms": [{"p": [2 * k for k in window], "q": [0] * n, "coeff": 1}]}
    message = "^" + re.escape(f"coefficient of [{','.join(map(str, window))}] is not separately invariant in x and y") + "$"
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        BasisExpansion.from_json({"n": n, "entries": [{"sigma": window, "coeff": coeff}]})
    assert time.perf_counter() - start < 1
