"""Command-line interface.

Subcommands: stats, monomial, rho, straighten, verify, hilbert.
Polynomials enter on standard input in the documented JSON schema; the
rho subcommand builds averaged invariants from exponent vectors so that
straighten inputs never have to be written by hand.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from . import hilbert
from .descent_basis import (
    descent_monomial,
    diagonal_descent_monomial,
    diagonal_signed_descent_monomial,
    signed_descent_monomial,
)
from .poly import Monomial, Polynomial, rho
from .signed_perm import ENUMERATION_GUARD, parse_window, statistics
from .straighten import evaluate, straighten

#: Default rank cap for the rank/series verification suite.  Each cell
#: scans the 2^n * n! group elements for candidates and builds them at
#: the ordered monomials; rank 4 at the default degree 12 takes about a
#: second, and --rank-guard raises the cap deliberately.
VERIFY_GUARD = 4

#: Default total-degree bound of the verify and hilbert tables.
TRUNCATION_DEGREE = 12

MONOMIAL_KINDS = {
    "a": descent_monomial,
    "b": signed_descent_monomial,
    "e": diagonal_descent_monomial,
    "c": diagonal_signed_descent_monomial,
}


@dataclass
class Config:
    """Resolved run options shared by the subcommands."""

    output_format: str = "text"
    max_rank_guard: Optional[int] = None

    def guard(self, default: int) -> int:
        return self.max_rank_guard if self.max_rank_guard is not None else default


def _emit(config: Config, data: dict, text: str) -> None:
    if config.output_format == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(text)


def _cmd_stats(args: argparse.Namespace, config: Config) -> int:
    sigma = parse_window(args.window)
    st = statistics(sigma)
    inverse = sigma.inverse()
    data = {
        "n": sigma.n,
        "window": list(sigma.window),
        "descent_set": sorted(st.descent_set),
        "d": list(st.d),
        "eps": list(st.eps),
        "f": list(st.f),
        "maj": st.maj,
        "neg": st.neg,
        "fmaj": st.fmaj,
        "inverse": list(inverse.window),
    }
    text = "\n".join(
        [
            f"window:  {sigma}",
            f"Des:     {{{','.join(str(i) for i in sorted(st.descent_set))}}}",
            f"d:       {st.d}",
            f"eps:     {st.eps}",
            f"f:       {st.f}",
            f"maj:     {st.maj}",
            f"neg:     {st.neg}",
            f"fmaj:    {st.fmaj}",
            f"inverse: {inverse}",
        ]
    )
    _emit(config, data, text)
    return 0


def _cmd_monomial(args: argparse.Namespace, config: Config) -> int:
    sigma = parse_window(args.window)
    m = MONOMIAL_KINDS[args.kind](sigma)
    data = {"kind": args.kind, "window": list(sigma.window), "p": list(m.p), "q": list(m.q), "text": m.text()}
    _emit(config, data, m.text())
    return 0


def _parse_exponents(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v.strip()) for v in text.split(","))
    except ValueError:
        raise ValueError(f"exponent list {text!r} must be comma-separated integers") from None
    if any(v < 0 for v in values):
        raise ValueError(f"exponents must be non-negative, got {text!r}")
    return values


def _cmd_rho(args: argparse.Namespace, config: Config) -> int:
    p = _parse_exponents(args.p)
    q = _parse_exponents(args.q)
    if len(p) != len(q):
        raise ValueError(f"exponent lists differ in length: {len(p)} vs {len(q)}")
    m = Monomial(p, q)
    averaged = rho(Polynomial.from_monomial(m), guard=config.guard(ENUMERATION_GUARD))
    _emit(config, averaged.to_json(), averaged.text())
    return 0


def _cmd_straighten(args: argparse.Namespace, config: Config) -> int:
    payload = json.load(sys.stdin)
    f = Polynomial.from_json(payload)
    expansion = straighten(f, guard=config.guard(ENUMERATION_GUARD))
    if args.verify:
        again = evaluate(expansion)
        if again != f:
            print("verification failed: expansion does not evaluate back to the input", file=sys.stderr)
            return 1
    lines = [f"{sigma}: {coeff.text()}" for sigma, coeff in expansion.items()]
    _emit(config, expansion.to_json(), "\n".join(lines) if lines else "0")
    return 0


def _cmd_verify(args: argparse.Namespace, config: Config) -> int:
    guard = config.guard(VERIFY_GUARD)
    max_degree = args.max_degree if args.max_degree is not None else TRUNCATION_DEGREE
    reports = []
    for total in range(max_degree + 1):
        for a in range(total + 1):
            reports.append(hilbert.verify_basis_rank(args.n, a, total - a, guard=guard))
    reports.sort(key=lambda r: (r.a, r.b))
    all_pass = all(r.passed for r in reports)
    if config.output_format == "json":
        print(json.dumps({"n": args.n, "max_degree": max_degree, "cells": [r.to_json() for r in reports], "pass": all_pass}, indent=2))
    else:
        header = f"{'a':>3} {'b':>3} {'rank':>5} {'dim':>5} {'series':>7} {'gens':>5}  status"
        print(header)
        for r in reports:
            status = "ok" if r.passed else "FAIL"
            print(f"{r.a:>3} {r.b:>3} {r.rank:>5} {r.dim:>5} {r.series:>7} {r.generators:>5}  {status}")
        print(f"{'all cells pass' if all_pass else 'FAILURES PRESENT'} (n={args.n}, total degree <= {max_degree})")
    return 0 if all_pass else 1


def _cmd_hilbert(args: argparse.Namespace, config: Config) -> int:
    max_degree = args.max_degree if args.max_degree is not None else TRUNCATION_DEGREE
    guard = config.guard(ENUMERATION_GUARD)
    if args.numerator:
        series = hilbert.fmaj_numerator(args.n, guard=guard)
        cells = [
            {"a": a, "b": b, "value": c}
            for (a, b), c in sorted(series.coefficients.items())
        ]
        data = {"n": args.n, "numerator": cells, "total_mass": series.total_mass()}
        lines = [f"s^{c['a']} t^{c['b']}: {c['value']}" for c in cells]
        _emit(config, data, "\n".join(lines))
        return 0
    cells = []
    for total in range(max_degree + 1):
        for a in range(total + 1):
            b = total - a
            value = hilbert.series_coefficient(args.n, a, b, guard=guard)
            if value:
                cells.append({"a": a, "b": b, "value": value})
    data = {"n": args.n, "max_degree": max_degree, "coefficients": cells}
    lines = [f"s^{c['a']} t^{c['b']}: {c['value']}" for c in cells]
    _emit(config, data, "\n".join(lines) if lines else "0")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signsym",
        description="Signed-permutation statistics, descent monomials, averaging, "
        "straightening over the averaged descent basis, and Hilbert-series checks.",
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text", dest="output_format")
    guarded = argparse.ArgumentParser(add_help=False)
    guarded.add_argument(
        "--rank-guard", type=int, default=None, help="override the rank guard of the subcommand"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", parents=[fmt], help="descent statistics of a window")
    p_stats.add_argument("window")
    p_stats.set_defaults(handler=_cmd_stats)

    p_mono = sub.add_parser(
        "monomial", parents=[fmt], help="one of the four descent monomial families"
    )
    p_mono.add_argument("kind", choices=sorted(MONOMIAL_KINDS))
    p_mono.add_argument("window")
    p_mono.set_defaults(handler=_cmd_monomial)

    p_rho = sub.add_parser(
        "rho", parents=[fmt, guarded], help="average a monomial over the signed group"
    )
    p_rho.add_argument("--p", required=True, help="comma-separated x exponents")
    p_rho.add_argument("--q", required=True, help="comma-separated y exponents")
    p_rho.set_defaults(handler=_cmd_rho)

    p_str = sub.add_parser(
        "straighten",
        parents=[fmt, guarded],
        help="expand polynomial JSON from stdin over the averaged descent basis",
    )
    p_str.add_argument(
        "--verify", action="store_true", help="re-evaluate the expansion and require exact equality"
    )
    p_str.set_defaults(handler=_cmd_straighten)

    p_ver = sub.add_parser(
        "verify", parents=[fmt, guarded], help="degreewise freeness and series checks"
    )
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument(
        "--max-degree", type=int, default=None, help="total-degree bound for the cell table"
    )
    p_ver.set_defaults(handler=_cmd_verify)

    p_hil = sub.add_parser(
        "hilbert", parents=[fmt, guarded], help="bigraded Hilbert series coefficients"
    )
    p_hil.add_argument("--n", type=int, required=True)
    p_hil.add_argument(
        "--max-degree", type=int, default=None, help="total-degree bound for the coefficient table"
    )
    p_hil.add_argument(
        "--numerator", action="store_true", help="print the flag-major numerator instead"
    )
    p_hil.set_defaults(handler=_cmd_hilbert)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    rank_guard = getattr(args, "rank_guard", None)
    max_degree = getattr(args, "max_degree", None)
    if rank_guard is not None and rank_guard < 1:
        print("error: --rank-guard must be positive", file=sys.stderr)
        return 1
    if max_degree is not None and max_degree < 0:
        print("error: --max-degree must be non-negative", file=sys.stderr)
        return 1
    config = Config(
        output_format=args.output_format,
        max_rank_guard=rank_guard,
    )
    try:
        return args.handler(args, config)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
