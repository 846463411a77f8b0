"""Command-line interface.

Subcommands: stats, monomial, rho, straighten, verify, hilbert.
Polynomials enter on standard input in the documented JSON schema; the
rho subcommand builds averaged invariants from exponent vectors so that
straighten inputs never have to be written by hand.  No subcommand takes
a guard option: a request is refused by the size of what it would build.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable

from . import hilbert
from .descent_basis import (
    check_columns,
    descent_monomial,
    diagonal_descent_monomial,
    diagonal_signed_descent_monomial,
    signed_descent_monomial,
)
from .poly import Monomial, Polynomial, rho
from .signed_perm import ASCII_INTEGER, check_degree, parse_integers, parse_window, statistics
from .straighten import evaluates_to, straighten

#: Default total-degree bound of the verify and hilbert tables.
TRUNCATION_DEGREE = 12

#: Cap on the characters ``straighten`` reads from standard input, just above
#: the 48,084,507 of ``rho --format json`` of x1^2 at n=2828, the largest rank
#: the entry cap lets ``rho`` average it at: ``straighten --verify --format
#: json`` of that takes 8.7 s and 606 MB peak RSS, and one character
#: over the cap is refused in 0.17 s and 111 MB (2-vCPU Xeon).
INPUT_GUARD = 50_000_000

MONOMIAL_KINDS = {
    "a": descent_monomial,
    "b": signed_descent_monomial,
    "e": diagonal_descent_monomial,
    "c": diagonal_signed_descent_monomial,
}


def _emit(args: argparse.Namespace, data: Callable[[], dict], text: Callable[[], str]) -> None:
    # Only the requested form is built: ``data`` for JSON, ``text``
    # otherwise.  JSON is one compact line, which the C encoder writes.
    if args.output_format == "json":
        print(json.dumps(data(), sort_keys=True))
    else:
        print(text())


def _cmd_stats(args: argparse.Namespace) -> int:
    sigma = parse_window(args.window)
    st = statistics(sigma)
    inverse = sigma.inverse()
    _emit(
        args,
        lambda: {
            **st._asdict(),
            "descent_set": sorted(st.descent_set),
            "n": sigma.n,
            "window": sigma.window,
            "inverse": inverse.window,
        },
        lambda: "\n".join(
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
        ),
    )
    return 0


def _cmd_monomial(args: argparse.Namespace) -> int:
    sigma = parse_window(args.window)
    m = MONOMIAL_KINDS[args.kind](sigma)
    _emit(
        args,
        lambda: {"kind": args.kind, "window": list(sigma.window), "p": list(m.p), "q": list(m.q), "text": m.text()},
        m.text,
    )
    return 0


def _integer_option(text: str) -> int:
    # A refusal reads as argparse's own for type=int.
    if not ASCII_INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _cmd_rho(args: argparse.Namespace) -> int:
    # Signs and lengths are left to ``Monomial``.
    m = Monomial(parse_integers(args.p), parse_integers(args.q))
    averaged = rho(Polynomial.from_monomial(m))
    _emit(args, averaged.to_json, averaged.text)
    return 0


def _cmd_straighten(args: argparse.Namespace) -> int:
    # At most one character past the cap is read, so a longer input is
    # refused before it is held or parsed.
    text = sys.stdin.read(INPUT_GUARD + 1)
    if len(text) > INPUT_GUARD:
        raise ValueError(f"standard input is longer than the cap of {INPUT_GUARD} characters")
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("input JSON is nested too deeply to read") from None
    f = Polynomial.from_json(payload)
    expansion = straighten(f)
    if args.verify and not evaluates_to(expansion, f):
        print("verification failed: expansion does not evaluate back to the input", file=sys.stderr)
        return 1
    _emit(
        args,
        expansion.to_json,
        lambda: "\n".join(f"{sigma}: {coeff.text()}" for sigma, coeff in expansion.items()) or "0",
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # One series table serves every cell, and its guards and the sum of
    # its columns refuse the run before any cell is built.
    table = hilbert.series_table(args.n, args.max_degree)
    cells = [(a, b) for a in range(args.max_degree + 1) for b in range(args.max_degree + 1 - a)]
    columns = sum(table[a][b] for a, b in cells)
    check_columns(columns, "total degree <= {} has {count} ordered columns, above", args.max_degree)
    reports = [hilbert.verify_basis_rank(args.n, a, b) for a, b in cells]
    all_pass = all(r.passed for r in reports)
    _emit(
        args,
        lambda: {"n": args.n, "max_degree": args.max_degree, "cells": [r.to_json() for r in reports], "pass": all_pass},
        lambda: "\n".join(
            [f"{'a':>3} {'b':>3} {'rank':>5} {'dim':>5} {'series':>7} {'gens':>5}  status"]
            + [
                f"{r.a:>3} {r.b:>3} {r.rank:>5} {r.dim:>5} {r.series:>7} {r.generators:>5}  {'ok' if r.passed else 'FAIL'}"
                for r in reports
            ]
            + [f"{'all cells pass' if all_pass else 'FAILURES PRESENT'} (n={args.n}, total degree <= {args.max_degree})"]
        ),
    )
    return 0 if all_pass else 1


def _cell_text(cells: list[dict]) -> str:
    return "\n".join(f"s^{c['a']} t^{c['b']}: {c['value']}" for c in cells)


def _cmd_hilbert(args: argparse.Namespace) -> int:
    if args.numerator:
        series = hilbert.fmaj_numerator(args.n)
        cells = [
            {"a": a, "b": b, "value": c}
            for (a, b), c in sorted(series.coefficients.items())
        ]
        _emit(
            args,
            lambda: {"n": args.n, "numerator": cells, "total_mass": series.total_mass()},
            lambda: _cell_text(cells),
        )
        return 0
    # One series table serves the run; the cells print from the smallest total up.
    table = hilbert.series_table(args.n, args.max_degree)
    cells = [
        {"a": a, "b": total - a, "value": table[a][total - a]}
        for total in range(args.max_degree + 1)
        for a in range(total + 1)
        if table[a][total - a]
    ]
    _emit(
        args,
        lambda: {"n": args.n, "max_degree": args.max_degree, "coefficients": cells},
        lambda: _cell_text(cells) or "0",
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals raise ValueError, so that ``main`` reports
    them as one ``error:`` line with exit status 1, like every other
    refusal.  Subcommand parsers are built from the same class."""

    def error(self, message: str):
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first ``main`` call and reused: nothing in it depends
    # on the call, and parse_args leaves the parser unchanged.
    parser = _Parser(
        prog="signsym",
        description="Signed-permutation statistics, descent monomials, averaging, "
        "straightening over the averaged descent basis, and Hilbert-series checks.",
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text", dest="output_format")
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
        "rho", parents=[fmt], help="average a monomial over the signed group"
    )
    p_rho.add_argument("--p", required=True, help="comma-separated x exponents")
    p_rho.add_argument("--q", required=True, help="comma-separated y exponents")
    p_rho.set_defaults(handler=_cmd_rho)

    p_str = sub.add_parser(
        "straighten",
        parents=[fmt],
        help="expand polynomial JSON from stdin over the averaged descent basis",
    )
    p_str.add_argument(
        "--verify", action="store_true", help="re-evaluate the expansion and require exact equality"
    )
    p_str.set_defaults(handler=_cmd_straighten)

    p_ver = sub.add_parser(
        "verify", parents=[fmt], help="degreewise freeness and series checks"
    )
    p_ver.add_argument("--n", type=_integer_option, required=True)
    p_ver.add_argument(
        "--max-degree", type=_integer_option, default=TRUNCATION_DEGREE, help="total-degree bound for the cell table"
    )
    p_ver.set_defaults(handler=_cmd_verify)

    p_hil = sub.add_parser(
        "hilbert", parents=[fmt], help="bigraded Hilbert series coefficients"
    )
    p_hil.add_argument("--n", type=_integer_option, required=True)
    p_hil.add_argument(
        "--max-degree", type=_integer_option, default=TRUNCATION_DEGREE, help="total-degree bound for the coefficient table"
    )
    p_hil.add_argument(
        "--numerator", action="store_true", help="print the flag-major numerator instead"
    )
    p_hil.set_defaults(handler=_cmd_hilbert)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        check_degree(getattr(args, "max_degree", 0))
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed early (`signsym ... | head -1`); devnull takes
        # the flush Python retries at exit, which would raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
