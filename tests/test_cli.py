"""Command-line interface behavior and schema round trips."""

import argparse
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import types
import weakref
from pathlib import Path

import pytest

import signsym
import signsym.cli as cli
import signsym.descent_basis as descent_basis_module
import signsym.hilbert as hilbert_module
import signsym.straighten as straighten_module
from helpers import clear_hilbert_caches, mono, record_table_builds, unit
from signsym.cli import main
from signsym.poly import Polynomial, rho
from signsym.hilbert import verify_basis_rank
from signsym.straighten import BasisExpansion, evaluate, straighten


def fresh_env():
    # The environment of a ``python -m signsym.cli`` subprocess that imports this checkout.
    src = str(Path(signsym.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_text(capsys):
    code, out, _ = run(capsys, "stats", "[2,-1,-4,3]")
    assert code == 0
    assert "fmaj:    8" in out
    assert "f:       (4, 3, 1, 0)" in out
    assert "inverse: [-2,1,4,-3]" in out


def test_stats_json(capsys):
    code, out, _ = run(capsys, "stats", "--format", "json", "[2,-1,-4,3]")
    assert code == 0
    # the profile's fields, with the window, its rank and its inverse, in key order
    assert out == (
        '{"d": [2, 1, 0, 0], "descent_set": [1, 2], "eps": [0, 1, 1, 0], "f": [4, 3, 1, 0], "fmaj": 8, '
        '"inverse": [-2, 1, 4, -3], "maj": 3, "n": 4, "neg": 2, "window": [2, -1, -4, 3]}\n'
    )


def test_stats_trivial(capsys):
    code, out, _ = run(capsys, "stats", "[1,2]")
    assert code == 0
    assert "fmaj:    0" in out


def test_stats_parse_error(capsys):
    code, _, err = run(capsys, "stats", "[0,1]")
    assert code != 0
    assert "zero entry" in err
    # int() would read the Arabic-Indic digit two as 2 and 1_0 as 10
    for window in ("[\u0662,1]", "[2,1_0]"):
        code, out, err = run(capsys, "stats", window)
        assert (code, out) == (1, "")
        assert err.startswith("error: entry ") and "is not an integer" in err


@pytest.mark.parametrize(
    "kind,window,expected",
    [
        ("c", "[2,-1,-4,3]", "x1^3 x2^2 x3^2 x4 y1^3 y2^4 y4"),
        ("b", "[-6,2,-1,-4,3,5]", "x1^3 x2^4 x4 x6^5"),
        ("a", "[6,2,1,4,3,5]", "x1 x2^2 x4 x6^3"),
        ("e", "[4,6,1,2,5,3]", "x1^2 x2^2 x3^2 x4 x5 y1 y2 y4^2 y5 y6^2"),
    ],
)
def test_monomial_paper_examples(capsys, kind, window, expected):
    code, out, _ = run(capsys, "monomial", kind, window)
    assert code == 0
    assert out.strip() == expected


def test_monomial_rejects_negative_for_plain_kinds(capsys):
    code, _, err = run(capsys, "monomial", "a", "[-1,2]")
    assert code != 0
    assert "all-positive" in err


def test_rho_json_output(capsys):
    code, out, _ = run(capsys, "rho", "--format", "json", "--p", "2,0", "--q", "2,0")
    assert code == 0
    f = Polynomial.from_json(json.loads(out))
    assert f == rho(Polynomial.from_monomial(mono((2, 0), (2, 0))))


def test_rho_bad_exponents(capsys):
    # exponent lists are read by signed_perm.parse_integers, as windows are
    code, _, err = run(capsys, "rho", "--p", "2,x", "--q", "0,0")
    assert (code, err) == (1, "error: entry 'x' at position 2 is not an integer\n")
    code, _, err = run(capsys, "rho", "--p", "2", "--q", "0,0")
    assert code != 0
    assert "length" in err
    # int() would read the first two as x1^10 and x1^2
    for p in ("1_0", "\u0662", "1.0", "+ 1"):
        code, out, err = run(capsys, "rho", "--p", p, "--q", "0")
        assert (code, out) == (1, "")
        assert err == f"error: entry {p!r} at position 1 is not an integer\n"
    # lengths and signs are Monomial's to refuse
    for p, message in (
        ("1,2", "exponent vectors must be nonempty and of equal length, got 2 and 1 entries"),
        ("-1", "exponents must be non-negative integers, got (-1,) and (0,)"),
    ):
        assert run(capsys, "rho", "--p", p, "--q", "0") == (1, "", f"error: {message}\n")


def test_rho_refuses_an_exponent_past_the_digit_limit(capsys):
    # int() refuses more than 4,300 digits with its own message
    q = "1" * 4301
    assert run(capsys, "rho", "--p", "2", "--q", q) == (1, "", f"error: entry {q!r} at position 1 is not an integer\n")


def test_straighten_pipeline(capsys, monkeypatch):
    f = rho(Polynomial.from_monomial(mono((2, 0), (2, 0))))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(f.to_json())))
    code, out, _ = run(capsys, "straighten", "--format", "json", "--verify")
    assert code == 0
    expansion = BasisExpansion.from_json(json.loads(out))
    assert len(expansion.entries) == 2
    assert evaluate(expansion) == f


def test_straighten_verify_at_rank_nine(capsys, monkeypatch):
    # rho and straighten are bounded by the terms and columns they build,
    # not by the rank: rho(x1^2) has 9 terms and one column
    zeros = ",".join(["0"] * 9)
    code, out, _ = run(capsys, "rho", "--format", "json", "--p", "2" + zeros[1:], "--q", zeros)
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, err = run(capsys, "straighten", "--verify")
    assert (code, err) == (0, "")
    assert out.startswith("[1,2,3,4,5,6,7,8,9]: ")


def test_straighten_module_patch_by_path_reaches_the_cli(capsys, monkeypatch):
    # ``signsym.straighten`` is the module, so a patch by dotted path
    # lands where the CLI's ``straighten`` looks the kernel up
    kernel = straighten_module.product_coefficients
    calls = []

    def counted(dec, *args):
        calls.append(dec)
        return kernel(dec, *args)

    monkeypatch.setattr("signsym.straighten.product_coefficients", counted)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(rho(Polynomial.from_monomial(mono((2, 0), (2, 0)))).to_json())))
    code, out, err = run(capsys, "straighten")
    assert (code, err) == (0, "") and out
    assert calls


def test_straighten_frees_its_parsed_input_before_the_walk(capsys, monkeypatch):
    # the text and its parse are dropped once the polynomial is read, so
    # neither sits under the peak of the walk and the check
    class Parsed(dict):
        pass

    loads, parsed, alive = json.loads, [], []

    def tracked(text):
        payload = Parsed(loads(text))
        parsed.append(weakref.ref(payload))
        return payload

    def walked(f):
        gc.collect()
        alive.append(parsed[0]() is not None)
        return straighten(f)

    monkeypatch.setattr(cli.json, "loads", tracked)
    monkeypatch.setattr(cli, "straighten", walked)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(rho(Polynomial.from_monomial(mono((2, 0), (2, 0)))).to_json())))
    code, out, err = run(capsys, "straighten", "--verify")
    assert (code, err) == (0, "") and out
    assert alive == [False]


def test_straighten_verify_catches_a_scaled_kernel(capsys, monkeypatch):
    # doubling every product coefficient still clears each column, so
    # only the independent check sees the expansion is half what it
    # should be
    kernel = straighten_module.product_coefficients

    def doubled(*args):
        return {key: 2 * c for key, c in kernel(*args).items()}

    monkeypatch.setattr(straighten_module, "product_coefficients", doubled)
    payload = json.dumps(rho(Polynomial.from_monomial(mono((2, 0), (2, 0)))).to_json())
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run(capsys, "straighten")
    assert code == 0 and out
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, err = run(capsys, "straighten", "--verify")
    assert (code, out) == (1, "")
    assert err == "verification failed: expansion does not evaluate back to the input\n"


def test_straighten_refuses_a_monomial_listed_twice(capsys, monkeypatch):
    term = {"p": [2, 0], "q": [0, 0], "coeff": 1}
    payload = {"n": 2, "terms": [term, {"p": [0, 2], "q": [0, 0], "coeff": 1}, term]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, err = run(capsys, "straighten")
    assert (code, out, err) == (1, "", "error: monomial x1^2 is listed twice\n")


def test_straighten_refuses_an_unknown_key(capsys, monkeypatch):
    # one error line, the key's newline escaped by its repr
    term = {"p": [2, 0], "q": [0, 0], "coeff": 1}
    for payload, message in (
        ({"n": 2, "terms": [term], "extra": 1}, "a polynomial has an unknown key 'extra'"),
        ({"n": 2, "terms": [{**term, "r": 5}]}, "an entry of \"terms\" has an unknown key 'r'"),
        ({"n": 2, "terms": [term], "a\nb": 1}, "a polynomial has an unknown key 'a\\nb'"),
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        code, out, err = run(capsys, "straighten", "--verify")
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_straighten_constant(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(unit(2).to_json())))
    code, out, _ = run(capsys, "straighten")
    assert code == 0
    assert out.strip() == "[1,2]: 1"


def test_straighten_rejects_non_invariant(capsys, monkeypatch):
    f = Polynomial.from_monomial(mono((1, 0), (0, 0)))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(f.to_json())))
    code, _, err = run(capsys, "straighten")
    assert code != 0
    assert err == "error: input is not invariant: the term x1 has an odd total exponent in slot 1\n"


def test_rho_is_refused_past_the_entry_cap(capsys, monkeypatch):
    # x1^2 at rank 4800 averages to 4,800 terms of 9,600 entries each.  A
    # straighten input is counted at 2n entries per listed term before
    # any term is read: one term at rank 8,000,000 is at the cap and
    # reaches the rank check, one more rank is refused by the cap
    zeros = ",".join(["0"] * 4799)
    code, out, err = run(capsys, "rho", "--format", "json", "--p", "2," + zeros, "--q", "0," + zeros)
    assert (code, out, err) == (1, "", "error: the average has 46080000 exponent entries, above the cap of 16000000\n")
    for n, message in (
        (8_000_000, "monomial rank 1 does not match polynomial rank 8000000"),
        (8_000_001, "the polynomial has 16000002 exponent entries, above the cap of 16000000"),
    ):
        payload = {"n": n, "terms": [{"p": [2], "q": [0], "coeff": 1}]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        assert run(capsys, "straighten") == (1, "", f"error: {message}\n")


def test_a_count_too_long_to_print_is_refused_by_its_order_of_magnitude(capsys, monkeypatch):
    # 2,000 distinct exponent pairs: an orbit of 2000! (5,736 digits)
    # members, past what Python prints as an int
    p = [2 * k for k in range(2000)]
    code, out, err = run(capsys, "rho", "--p", ",".join(map(str, p)), "--q", ",".join(["0"] * 2000))
    assert (code, out, err) == (1, "", "error: the average has about 10^5736 terms, above the cap of 100000\n")
    payload = {"n": 2000, "terms": [{"p": p, "q": [0] * 2000, "coeff": 1}]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, err = run(capsys, "straighten")
    assert (code, out) == (1, "")
    assert err.startswith("error: input is not invariant: the orbit of x2^2 x3^4 ")
    assert err.endswith(" x2000^3998 has 1 of its about 10^5736 terms\n")


def test_straighten_rejects_malformed_json(capsys, monkeypatch):
    term = '{"n": 1, "terms": [{"p": %s, "q": [1], "coeff": %s}]}'
    for payload in (
        "{not json",
        "[1, 2]",  # not an object
        term % ("[1]", "0.1"),  # inexact float coefficient
        term % ("[1]", "1e400"),  # overflows to an infinite float
        term % ("[true]", '"1"'),  # boolean exponent
        term % ("[1.5]", '"1"'),  # fractional exponent
        term % ("[1]", '"1/0"'),  # zero denominator
        term % ("[1]", '"1e10000000"'),  # decimal exponent Fraction would expand
        '{"n": 2}',  # no terms
        '{"n": 2, "entries": []}',  # an expansion's key, not a polynomial's
        "[" * 100000 + "]" * 100000,  # nested past the decoder's recursion limit
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, _, err = run(capsys, "straighten")
        assert code == 1, payload
        assert err.startswith("error:") and "Traceback" not in err, payload


def test_verify_rank_one(capsys):
    code, out, _ = run(capsys, "verify", "--n", "1", "--max-degree", "8")
    assert code == 0
    assert "all cells pass" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json", "--n", "2", "--max-degree", "8")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    for cell in data["cells"]:
        assert set(cell) == {"n", "a", "b", "rank", "dim", "series", "generators", "pass"}
        assert cell["pass"] is True


def test_verify_rank_four_within_default_guard(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--max-degree", "6")
    assert code == 0
    assert "all cells pass" in out


def test_verify_guard_refusal(capsys, monkeypatch):
    # the series to total 18 scans at rank 9, refused by the rank cap of
    # the numerator scan before it runs; a table of 586,651 columns is
    # refused by its column count
    def no_scan(n):
        raise AssertionError("no scan may run past a guard")

    monkeypatch.setattr(hilbert_module.scan, "fmaj_pair_counts", no_scan)
    clear_hilbert_caches()
    code, out, err = run(capsys, "verify", "--n", "9", "--max-degree", "18")
    assert (code, out, err) == (1, "", "error: rank 9 exceeds the guard 8\n")
    monkeypatch.undo()
    code, out, err = run(capsys, "verify", "--n", "2", "--max-degree", "100")
    assert (code, out) == (1, "")
    assert err == "error: total degree <= 100 has 586651 ordered columns, above the cap of 100000\n"


@pytest.mark.parametrize("n", ["9", "3000000"])
def test_verify_past_the_walk_cap_prints_the_cells_of_rank_8(capsys, n):
    # the series to total 12 scans at rank 6 and the rows are built at
    # rank 8; no group order is computed, which past about rank 1,700 has
    # more digits than Python prints
    def cells(rank):
        code, out, err = run(capsys, "verify", "--format", "json", "--n", rank)
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["n"] == int(rank) and data["pass"]
        assert all(cell.pop("n") == int(rank) for cell in data["cells"])
        return data["cells"]

    assert cells(n) == cells("8")


def test_verify_column_cap_at_its_boundary(capsys, monkeypatch):
    # the run is refused by the sum of its cells' series coefficients,
    # the columns it would build, before any candidate is built
    def no_candidates(*args):
        raise AssertionError("no candidate may be built past the cap")

    assert descent_basis_module.COLUMN_GUARD == 100_000
    columns = sum(hilbert_module.series_coefficient(2, a, t - a) for t in range(7) for a in range(t + 1))
    monkeypatch.setattr(descent_basis_module, "COLUMN_GUARD", columns)
    code, out, _ = run(capsys, "verify", "--n", "2", "--max-degree", "6")
    assert code == 0 and "all cells pass" in out
    monkeypatch.setattr(descent_basis_module, "COLUMN_GUARD", columns - 1)
    monkeypatch.setattr(hilbert_module, "candidate_rows", no_candidates)
    code, out, err = run(capsys, "verify", "--n", "2", "--max-degree", "6")
    assert (code, out) == (1, "")
    assert err == f"error: total degree <= 6 has {columns} ordered columns, above the cap of {columns - 1}\n"
    # the largest table the series cap admits, 62,500 columns at rank 1,
    # passes the real column cap and goes on to build candidates
    monkeypatch.undo()
    monkeypatch.setattr(hilbert_module, "candidate_rows", no_candidates)
    with pytest.raises(AssertionError, match="no candidate"):
        run(capsys, "verify", "--n", "1", "--max-degree", "499")


#: sha256 of the stdout of runs whose cells come from one series table,
#: as the parent of the series_table change printed them.
STDOUT_SHA256 = {
    "verify --n 4 --max-degree 12": "dab0f4f5572e8920bdb8af31248b5f5275aa7606796323edc05a04f52746fc54",
    "verify --n 4 --max-degree 12 --format json": "495de783256060f171e7d0ecec42092ec49ac00837222a301a2700a06fc403af",
    "verify --n 5 --max-degree 10 --format json": "047d4ba8f04a94df3e9b5ff49725b34f8c12ca0c767d03362ff94a8251388590",
    "hilbert --n 4 --max-degree 12": "ea6c2239f1518fd05b5251d3261947764923e2e3fed5d49403ce2aa11dd6f2be",
    "hilbert --n 5 --max-degree 12 --format json": "7534c5cbe522d9c33970d28b318985552f8ce7e236c40e9f33964d33c9f13292",
    "hilbert --n 3 --numerator --format json": "33f55b30d6897f1fe7e5498fcaf233615b810508a9b452758925ca422278a86c",
}


@pytest.mark.parametrize("command", STDOUT_SHA256)
def test_table_output_bytes(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command]


def test_hilbert_series_table(capsys):
    code, out, _ = run(capsys, "hilbert", "--format", "json", "--n", "1", "--max-degree", "6")
    assert code == 0
    data = json.loads(out)
    cells = {(c["a"], c["b"]): c["value"] for c in data["coefficients"]}
    assert cells[(3, 1)] == 1
    assert (1, 0) not in cells


@pytest.mark.parametrize("command", ["hilbert", "verify"])
def test_one_series_table_per_run(capsys, monkeypatch, command):
    # one table at the largest total serves the run
    built = record_table_builds(monkeypatch, hilbert_module._series_table)
    code, out, _ = run(capsys, command, "--n", "3", "--max-degree", "8", "--format", "json")
    assert code == 0 and out
    assert built == [8]
    clear_hilbert_caches()


class Built(Exception):
    """Raised by a stand-in builder: the guard let the table through."""


@pytest.mark.parametrize("command", ["hilbert", "verify"])
def test_degree_guard_at_its_boundary(capsys, monkeypatch, command):
    # (499 + 1)^2 entries is the cap: accepted, and the first thing asked
    # for is the table; one past it is refused before anything is built
    def refuse(n, max_total):
        raise Built(max_total)

    built = record_table_builds(monkeypatch, refuse)
    with pytest.raises(Built, match="499"):
        run(capsys, command, "--n", "1", "--max-degree", "499")
    assert built == [499]
    clear_hilbert_caches()
    code, out, err = run(capsys, command, "--n", "1", "--max-degree", "500")
    assert (code, out) == (1, "")
    assert err == "error: total degree 500 needs a series table of 251001 entries, above the cap of 250000\n"
    assert built == [499]


@pytest.mark.parametrize(
    "argv,rank",
    [
        # the series to total 18 scans at rank 9, and the numerator at rank n
        (["--n", "9", "--max-degree", "18"], 9),
        (["--n", "9", "--max-degree", "18", "--numerator"], 9),
        (["--n", "9", "--max-degree", "2", "--numerator"], 9),
        (["--n", "3000000", "--numerator"], 3000000),
    ],
)
def test_hilbert_honours_rank_guard(capsys, monkeypatch, argv, rank):
    # refused before the scan
    def no_scan(n):
        raise AssertionError("no scan may run past the rank guard")

    monkeypatch.setattr(hilbert_module.scan, "fmaj_pair_counts", no_scan)
    clear_hilbert_caches()
    code, out, err = run(capsys, "hilbert", *argv)
    assert (code, out, err) == (1, "", f"error: rank {rank} exceeds the guard 8\n")


@pytest.mark.parametrize("n,stable,degree", [("9", "2", ["--max-degree", "2"]), ("3000000", "6", [])])
def test_hilbert_series_past_the_walk_cap_is_that_of_its_stable_rank(capsys, n, stable, degree):
    # below total D the series of rank n is that of rank max(1, min(n, D // 2))
    code, out, err = run(capsys, "hilbert", "--n", n, *degree)
    assert (code, err) == (0, "")
    assert run(capsys, "hilbert", "--n", stable, *degree) == (0, out, "")


def test_hilbert_numerator(capsys):
    code, out, _ = run(capsys, "hilbert", "--format", "json", "--n", "2", "--numerator")
    assert code == 0
    data = json.loads(out)
    assert data["total_mass"] == 8
    cells = {(c["a"], c["b"]): c["value"] for c in data["numerator"]}
    assert cells[(2, 2)] == 2


@pytest.mark.parametrize(
    "argv,code,err",
    [
        # int() would read the Arabic-Indic digits as 2 and 3 and 1_0 as 10
        (["verify", "--n", "\u0662"], 1, "error: argument --n: invalid int value: '\u0662'\n"),
        (["hilbert", "--n", "1_0"], 1, "error: argument --n: invalid int value: '1_0'\n"),
        (["verify", "--n", "2", "--max-degree", "1_2"], 1, "error: argument --max-degree: invalid int value: '1_2'\n"),
        # past the digit limit of int(), which raises ValueError there
        (["hilbert", "--n", "9" * 5000], 1, f"error: argument --n: invalid int value: '{'9' * 5000}'\n"),
        (["verify", "--n", "2", "--max-degree", "9" * 5000], 1,
         f"error: argument --max-degree: invalid int value: '{'9' * 5000}'\n"),
        # no subcommand takes a guard option
        (["hilbert", "--n", "2", "--rank-guard", "\u0663"], 1, "error: unrecognized arguments: --rank-guard \u0663\n"),
        (["rho", "--p", "2", "--q", "0", "--rank-guard", "9"], 1, "error: unrecognized arguments: --rank-guard 9\n"),
        (["hilbert", "--n", "0"], 1, "error: rank 0 is not a positive integer\n"),
    ],
)
def test_integer_options_refuse_inexact_and_out_of_range_values(capsys, argv, code, err):
    got = main(argv)
    captured = capsys.readouterr()
    assert (got, captured.out, captured.err) == (code, "", err)


def test_help_exits_zero(capsys):
    # refusals exit 1 through ``main``; asking for help is not a refusal
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.out.startswith("usage: signsym verify") and captured.err == ""


def test_text_output_builds_no_json(capsys, monkeypatch):
    payload = json.dumps(rho(Polynomial.from_monomial(mono((2, 0), (2, 0)))).to_json())

    def refuse(self):
        raise AssertionError("text output built the JSON form")

    monkeypatch.setattr(Polynomial, "to_json", refuse)
    monkeypatch.setattr(BasisExpansion, "to_json", refuse)
    code, out, err = run(capsys, "rho", "--p", "2,0", "--q", "2,0")
    assert (code, out, err) == (0, "1/2 x1^2 y1^2 + 1/2 x2^2 y2^2\n", "")
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, err = run(capsys, "straighten", "--verify")
    assert (code, err) == (0, "")
    assert out == "[1,2]: 1/2 x1^2 y1^2 + 1/2 x1^2 y2^2 + 1/2 x2^2 y1^2 + 1/2 x2^2 y2^2\n[2,1]: -1\n"


def test_json_output_is_one_line(capsys, monkeypatch):
    # every subcommand prints JSON as one compact line; where the library
    # has a JSON form, the line parses to exactly that
    f = rho(Polynomial.from_monomial(mono((2, 1, 0), (0, 1, 2))))
    cells = [verify_basis_rank(2, a, total - a) for total in range(4) for a in range(total + 1)]
    cases = [
        (["rho", "--p", "2,1,0", "--q", "0,1,2"], "", f.to_json()),
        (["straighten", "--verify"], json.dumps(f.to_json()), straighten(f).to_json()),
        (
            ["verify", "--n", "2", "--max-degree", "3"],
            "",
            {"n": 2, "max_degree": 3, "cells": [r.to_json() for r in sorted(cells, key=lambda r: (r.a, r.b))], "pass": True},
        ),
        (["hilbert", "--n", "2", "--max-degree", "4"], "", None),
        (["hilbert", "--n", "2", "--numerator"], "", None),
        (["stats", "[2,-1]"], "", None),
        (["monomial", "c", "[2,-1]"], "", None),
    ]
    for argv, stdin, expected in cases:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, ""), argv
        assert out.endswith("\n") and out.count("\n") == 1, argv
        data = json.loads(out)
        assert isinstance(data, dict), argv
        if expected is not None:
            assert data == expected, argv


def test_deterministic_output(capsys):
    code1, out1, _ = run(capsys, "rho", "--format", "json", "--p", "2,0", "--q", "0,2")
    code2, out2, _ = run(capsys, "rho", "--format", "json", "--p", "2,0", "--q", "0,2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_one_parser_serves_many_calls(capsys, monkeypatch):
    # In one process the parser is built once; each call must still read
    # exactly like a fresh ``python -m signsym.cli`` with the same input.
    payload = json.dumps(rho(Polynomial.from_monomial(mono((2, 0), (2, 0)))).to_json())
    calls = [
        (["straighten", "--verify"], payload),
        (["straighten"], payload),
        (["verify", "--n", "2", "--max-degree", "4"], ""),
        (["verify", "--n", "2"], ""),
        (["rho", "--format", "json", "--p", "2,0", "--q", "0,2"], ""),
        (["rho", "--p", "2,0", "--q", "0,2"], ""),
        (["verify", "--n", "2", "--max-degree", "x"], ""),
        (["straighten", "--verify"], payload),
    ]
    parser = cli._build_parser()
    codes = []
    for argv, stdin in calls:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "signsym.cli", *argv],
            input=stdin, capture_output=True, text=True, env=fresh_env(), timeout=60,
        )
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 0, 0, 0, 0, 0, 1, 0]
    assert cli._build_parser() is parser


def test_closed_pipe_points_stdout_at_devnull(capsys, monkeypatch):
    # In process: the exit code is 1, nothing is reported, and stdout's
    # descriptor is pointed at devnull for the flush Python retries at exit.
    def closed(args):
        raise BrokenPipeError

    calls = []
    fake_os = types.SimpleNamespace(
        devnull=os.devnull,
        O_WRONLY=os.O_WRONLY,
        open=lambda path, flags: calls.append(("open", path, flags)) or 42,
        dup2=lambda fd, fd2: calls.append(("dup2", fd, fd2)),
    )
    parser = types.SimpleNamespace(parse_args=lambda argv: argparse.Namespace(handler=closed))
    monkeypatch.setattr(cli, "_build_parser", lambda: parser)
    monkeypatch.setattr(cli, "os", fake_os)
    monkeypatch.setattr("sys.stdout", types.SimpleNamespace(fileno=lambda: 7))
    assert main(["stats", "[1]"]) == 1
    assert calls == [("open", os.devnull, os.O_WRONLY), ("dup2", 42, 7)]
    assert capsys.readouterr().err == ""


def test_closed_pipe_exits_without_traceback():
    # About 159 KB of output overfills the pipe buffer, so the command is
    # still writing when the reader closes its end after one line.
    proc = subprocess.Popen(
        [sys.executable, "-m", "signsym.cli", "hilbert", "--n", "2", "--max-degree", "200"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=fresh_env(),
    )
    try:
        assert proc.stdout.readline() == b"s^0 t^0: 1\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_straighten_reads_at_most_one_character_past_its_cap(capsys, monkeypatch):
    # the cap is read at call time from cli: an input of exactly the cap
    # is read whole and answered, one character more is refused with one
    # error line, and neither read asks for more than the cap plus one
    payload = json.dumps(rho(Polynomial.from_monomial(mono((2, 0), (2, 0)))).to_json())
    reads = []

    class Stdin(io.StringIO):
        def read(self, size=-1):
            reads.append(size)
            return super().read(size)

    monkeypatch.setattr(cli, "INPUT_GUARD", len(payload))
    monkeypatch.setattr("sys.stdin", Stdin(payload))
    code, out, err = run(capsys, "straighten", "--verify")
    assert (code, err) == (0, "") and out
    monkeypatch.setattr("sys.stdin", Stdin(payload + "\n"))
    code, out, err = run(capsys, "straighten", "--verify")
    assert (code, out, err) == (1, "", f"error: standard input is longer than the cap of {len(payload)} characters\n")
    assert reads == [len(payload) + 1] * 2


def test_straighten_refuses_one_character_over_the_cap_through_a_pipe():
    # the real cap, through an OS pipe: the command stops reading one
    # character past it and refuses before any parse, in a fraction of
    # a second (0.17 s and 111 MB on a 2-vCPU Xeon)
    cap = cli.INPUT_GUARD
    proc = subprocess.Popen(
        [sys.executable, "-m", "signsym.cli", "straighten"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=fresh_env(),
    )
    try:
        chunk = b" " * 1_000_000
        for _ in range(cap // len(chunk)):
            proc.stdin.write(chunk)
        proc.stdin.write(b" " * (cap % len(chunk) + 1))
        proc.stdin.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stdout.read() == b""
        assert proc.stderr.read() == f"error: standard input is longer than the cap of {cap} characters\n".encode()
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
