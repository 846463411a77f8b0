"""Command-line interface behavior and schema round trips."""

import io
import json

import pytest

from helpers import mono
from signsym.cli import main
from signsym.poly import Polynomial, rho
from signsym.straighten import BasisExpansion, evaluate


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
    data = json.loads(out)
    assert data["fmaj"] == 8
    assert data["f"] == [4, 3, 1, 0]
    assert data["descent_set"] == [1, 2]
    assert data["inverse"] == [-2, 1, 4, -3]


def test_stats_trivial(capsys):
    code, out, _ = run(capsys, "stats", "[1,2]")
    assert code == 0
    assert "fmaj:    0" in out


def test_stats_parse_error(capsys):
    code, _, err = run(capsys, "stats", "[0,1]")
    assert code != 0
    assert "zero entry" in err


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
    code, _, err = run(capsys, "rho", "--p", "2,x", "--q", "0,0")
    assert code != 0
    assert "comma-separated" in err
    code, _, err = run(capsys, "rho", "--p", "2", "--q", "0,0")
    assert code != 0
    assert "length" in err


def test_straighten_pipeline(capsys, monkeypatch):
    f = rho(Polynomial.from_monomial(mono((2, 0), (2, 0))))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(f.to_json())))
    code, out, _ = run(capsys, "straighten", "--format", "json", "--verify")
    assert code == 0
    expansion = BasisExpansion.from_json(json.loads(out))
    assert len(expansion.entries) == 2
    assert evaluate(expansion) == f


def test_straighten_constant(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(Polynomial.one(2).to_json())))
    code, out, _ = run(capsys, "straighten")
    assert code == 0
    assert out.strip() == "[1,2]: 1"


def test_straighten_rejects_non_invariant(capsys, monkeypatch):
    f = Polynomial.from_monomial(mono((1, 0), (0, 0)))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(f.to_json())))
    code, _, err = run(capsys, "straighten")
    assert code != 0
    assert "not invariant" in err


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


def test_verify_guard_refusal(capsys):
    code, _, err = run(capsys, "verify", "--n", "9")
    assert code != 0
    assert "guard" in err


def test_hilbert_series_table(capsys):
    code, out, _ = run(capsys, "hilbert", "--format", "json", "--n", "1", "--max-degree", "6")
    assert code == 0
    data = json.loads(out)
    cells = {(c["a"], c["b"]): c["value"] for c in data["coefficients"]}
    assert cells[(3, 1)] == 1
    assert (1, 0) not in cells


@pytest.mark.parametrize("extra", [(), ("--numerator",)])
def test_hilbert_honours_rank_guard(capsys, extra):
    # the series table and the numerator refuse alike
    code, out, err = run(capsys, "hilbert", "--n", "3", "--max-degree", "2", "--rank-guard", "2", *extra)
    assert code == 1
    assert out == ""
    assert err.startswith("error: rank 3 exceeds the guard 2")


def test_hilbert_numerator(capsys):
    code, out, _ = run(capsys, "hilbert", "--format", "json", "--n", "2", "--numerator")
    assert code == 0
    data = json.loads(out)
    assert data["total_mass"] == 8
    cells = {(c["a"], c["b"]): c["value"] for c in data["numerator"]}
    assert cells[(2, 2)] == 2


def test_deterministic_output(capsys):
    code1, out1, _ = run(capsys, "rho", "--format", "json", "--p", "2,0", "--q", "0,2")
    code2, out2, _ = run(capsys, "rho", "--format", "json", "--p", "2,0", "--q", "0,2")
    assert code1 == code2 == 0
    assert out1 == out2
