"""Seeded sessions of signsym operations, with exact output checks.

A session is a list of operations run from cold library caches.  Each
operation has a timed ``run`` that calls signsym's public functions and
an untimed ``check`` that verifies the raw result exactly and returns a
canonical, JSON-ready form of it for the output digest.

Every session of a workload has the same composition; the seed draws the
inputs and the order.  A fixed composition keeps the cost mix, and with
it each percentile, in the same kind of operation on every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import signsym
import signsym.cli


class CheckFailed(Exception):
    """An operation returned a result that is not exactly right."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Any]


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the three workloads."""

    #: (n, numerator queries, sub-table queries) per rank; each rank also
    #: gets one full-table query up to ``hilbert_max_degree``.
    hilbert_mix: tuple[tuple[int, int, int], ...]
    hilbert_max_degree: int
    #: (n, has odd slot, how many) per session.
    straighten_mix: tuple[tuple[int, bool, int], ...]
    #: Total degree bound of the odd-slot monomials, whose averaging cost
    #: does not depend on degree.
    straighten_max_degree: int
    #: The even monomials of each rank cycle through the total degrees
    #: 2, 4, ..., this bound.  Straightening cost grows steeply with
    #: degree: single n=6 operations at degree 14-16 took 4-46 s, which
    #: no run of a few tens of seconds samples steadily.
    straighten_even_max_degree: int
    verify_n: int
    verify_max_degree: int


FULL = Sizes(
    hilbert_mix=((3, 4, 3), (4, 8, 3), (5, 5, 3), (6, 5, 3)),
    hilbert_max_degree=12,
    straighten_mix=((5, False, 8), (6, False, 8), (5, True, 1), (6, True, 3)),
    straighten_max_degree=16,
    straighten_even_max_degree=8,
    verify_n=4,
    verify_max_degree=12,
)

TINY = Sizes(
    hilbert_mix=((2, 1, 1), (3, 1, 1)),
    hilbert_max_degree=4,
    straighten_mix=((2, False, 2), (3, False, 2), (3, True, 1)),
    straighten_max_degree=6,
    straighten_even_max_degree=4,
    verify_n=2,
    verify_max_degree=4,
)


# -- hilbert ---------------------------------------------------------------


def numerators(sizes: Sizes) -> dict[int, dict[tuple[int, int], int]]:
    """Flag-major numerator of each hilbert rank, computed before any timing
    or tracing for the series checks, and itself checked."""
    return {n: check_numerator(n, signsym.fmaj_numerator(n)) for n, _, _ in sizes.hilbert_mix}


def check_numerator(n: int, series) -> dict[tuple[int, int], int]:
    coefficients = dict(series.coefficients)
    _require(
        sum(coefficients.values()) == (1 << n) * math.factorial(n),
        f"numerator mass at n={n} is not the group order",
    )
    _require(all(c > 0 for c in coefficients.values()), f"non-positive numerator entry at n={n}")
    _require(
        all(coefficients.get((b, a)) == c for (a, b), c in coefficients.items()),
        f"numerator at n={n} is not symmetric under a<->b",
    )
    return coefficients


def series_table(n: int, max_degree: int) -> list[list[int]]:
    """Row t lists the coefficients of s^a t^(t-a), as ``signsym hilbert`` prints them."""
    return [
        [signsym.series_coefficient(n, a, total - a) for a in range(total + 1)]
        for total in range(max_degree + 1)
    ]


def check_series_table(n: int, rows: list[list[int]], numerator: dict) -> list[list[int]]:
    max_degree = len(rows) - 1
    _require(rows[0] == [1], f"series at n={n} does not start with 1")
    _require(all(row == row[::-1] for row in rows), f"series at n={n} is not symmetric under a<->b")
    # Multiplying back by prod (1 - s^2i)(1 - t^2i) must give the numerator
    # on every cell a + b <= max_degree: division undone by multiplication.
    cells = {(a, total - a): c for total, row in enumerate(rows) for a, c in enumerate(row)}
    for i in range(1, n + 1):
        step = 2 * i
        cells = {(a, b): c - cells.get((a - step, b), 0) for (a, b), c in cells.items()}
        cells = {(a, b): c - cells.get((a, b - step), 0) for (a, b), c in cells.items()}
    expected = {
        (a, b): c for (a, b), c in numerator.items() if a + b <= max_degree
    }
    _require(
        {k: c for k, c in cells.items() if c} == expected,
        f"series at n={n} times the denominator is not the numerator",
    )
    return rows


def hilbert_session(rng: random.Random, sizes: Sizes, numerators: dict) -> list[Op]:
    slots = []
    for n, numerator_queries, sub_tables in sizes.hilbert_mix:
        slots += [(n, "numerator")] * numerator_queries + [(n, "table")] * (1 + sub_tables)
    rng.shuffle(slots)
    # The first table query of each rank asks for the full table, which
    # misses the series cache; the later ones ask for random sub-tables
    # and hit it.  This keeps one miss per rank on every seed.
    seen: set[int] = set()
    ops = []
    for n, kind in slots:
        if kind == "numerator":
            ops.append(
                Op(
                    "numerator",
                    f"numerator n={n}",
                    lambda n=n: signsym.fmaj_numerator(n),
                    lambda out, n=n: sorted(check_numerator(n, out).items()),
                )
            )
            continue
        if n in seen:
            kind, max_degree = "table-hit", rng.randint(2, sizes.hilbert_max_degree)
        else:
            kind, max_degree = "table-miss", sizes.hilbert_max_degree
            seen.add(n)
        ops.append(
            Op(
                kind,
                f"table n={n} D={max_degree}",
                lambda n=n, d=max_degree: series_table(n, d),
                lambda rows, n=n: check_series_table(n, rows, numerators[n]),
            )
        )
    return ops


# -- straighten ------------------------------------------------------------


def run_cli(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """``signsym.cli.main`` in-process with redirected standard streams."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = signsym.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def even_monomial(rng: random.Random, n: int, degree: int) -> tuple[list[int], list[int]]:
    """Exponents of the given even total degree with every p_i + q_i even."""
    totals = [0] * n
    for _ in range(degree // 2):
        totals[rng.randrange(n)] += 2
    p = [rng.randint(0, t) for t in totals]
    return p, [t - e for t, e in zip(totals, p)]


def odd_monomial(rng: random.Random, n: int, max_degree: int) -> tuple[list[int], list[int]]:
    """Exponents of total degree at most ``max_degree`` with some p_i + q_i odd."""
    while True:
        p, q = [0] * n, [0] * n
        for _ in range(rng.randint(1, max_degree)):
            (p if rng.random() < 0.5 else q)[rng.randrange(n)] += 1
        if any((a + b) % 2 for a, b in zip(p, q)):
            return p, q


def canonical_polynomial(data: dict) -> list:
    return sorted([t["p"], t["q"], str(Fraction(t["coeff"]))] for t in data["terms"])


def check_straighten(n: int, p: list[int], q: list[int], odd: bool, raw) -> dict:
    (rho_code, rho_out, rho_err), (st_code, st_out, st_err) = raw
    _require(rho_code == 0, f"rho exited {rho_code}: {rho_err.strip()}")
    _require(st_code == 0, f"straighten --verify exited {st_code}: {st_err.strip()}")
    averaged = json.loads(rho_out)
    expansion = json.loads(st_out)
    _require(averaged["n"] == n and expansion["n"] == n, "rank changed along the pipeline")
    terms = canonical_polynomial(averaged)
    if odd:
        _require(not terms, "average of a monomial with an odd slot is not zero")
        _require(not expansion["entries"], "expansion of zero is not empty")
    else:
        # An even-slot monomial averages to its orbit with positive weights
        # summing to one; every term is a rearrangement of its exponent pairs.
        pairs = sorted(zip(p, q))
        _require(terms and sum(Fraction(c) for _, _, c in terms) == 1, "average does not sum to one")
        _require(
            all(sorted(zip(tp, tq)) == pairs for tp, tq, _ in terms),
            "average has a term outside the orbit",
        )
        _require(expansion["entries"], "expansion of a nonzero invariant is empty")
    return {
        "rho": terms,
        "expansion": sorted(
            [e["sigma"], canonical_polynomial(e["coeff"])] for e in expansion["entries"]
        ),
    }


def straighten_session(rng: random.Random, sizes: Sizes, numerators: dict) -> list[Op]:
    cycle = sizes.straighten_even_max_degree // 2
    slots = [
        (n, odd, 2 * (1 + k % cycle))
        for n, odd, count in sizes.straighten_mix
        for k in range(count)
    ]
    rng.shuffle(slots)
    ops = []
    for n, odd, degree in slots:
        if odd:
            p, q = odd_monomial(rng, n, sizes.straighten_max_degree)
        else:
            p, q = even_monomial(rng, n, degree)
        rho_argv = ["rho", "--format", "json", "--p", ",".join(map(str, p)), "--q", ",".join(map(str, q))]

        def run(rho_argv=rho_argv):
            averaged = run_cli(rho_argv)
            return averaged, run_cli(["straighten", "--verify", "--format", "json"], averaged[1])

        ops.append(
            Op(
                "odd" if odd else "even",
                f"rho|straighten p={p} q={q}",
                run,
                lambda raw, n=n, p=p, q=q, odd=odd: check_straighten(n, p, q, odd, raw),
            )
        )
    return ops


# -- verify ----------------------------------------------------------------


def check_cell(n: int, a: int, b: int, report) -> dict:
    _require((report.n, report.a, report.b) == (n, a, b), "report is for another cell")
    _require(report.passed, f"freeness fails at ({a},{b}): {report.to_json()}")
    return report.to_json()


def verify_session(rng: random.Random, sizes: Sizes, numerators: dict) -> list[Op]:
    n = sizes.verify_n
    cells = [(a, total - a) for total in range(sizes.verify_max_degree + 1) for a in range(total + 1)]
    rng.shuffle(cells)
    return [
        Op(
            "cell",
            f"verify n={n} a={a} b={b}",
            lambda a=a, b=b: signsym.verify_basis_rank(n, a, b),
            lambda report, a=a, b=b: check_cell(n, a, b, report),
        )
        for a, b in cells
    ]


SESSIONS = {
    "hilbert": hilbert_session,
    "straighten": straighten_session,
    "verify": verify_session,
}
