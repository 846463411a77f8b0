#!/usr/bin/env python3
"""Compare two result files written by ``perfbench/run.py``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric both files carry with the ratio NEW/BASE.  Refuses
(exit 1) when the two results ran different scan backends, since the
compiled and pure-Python scans differ by two orders of magnitude, or
different workloads.  When one file is a traced run and the other an
untraced run of the same workload, seed and source, it also checks that
their output digests agree and reports the tracing overhead as the
difference in ops_per_s.
"""

from __future__ import annotations

import json
import sys


class NotComparable(Exception):
    """The two results may not be compared."""


def check_comparable(base: dict, new: dict) -> None:
    for key in ("backend", "workload"):
        if base["meta"][key] != new["meta"][key]:
            raise NotComparable(
                f"{key} differs: {base['meta'][key]!r} vs {new['meta'][key]!r}"
            )


def tracing_overhead(untraced: dict, traced: dict) -> dict:
    """ops_per_s lost to tracing, for two runs of the same inputs and code."""
    check_comparable(untraced, traced)
    for key in ("seed", "source"):
        if untraced["meta"][key] != traced["meta"][key]:
            raise NotComparable(f"{key} differs between the traced and untraced run")
    if untraced["digest"]["session"] != traced["digest"]["session"]:
        raise NotComparable("traced and untraced output digests differ")
    plain = untraced["timing"]["ops_per_s"]
    slowed = traced["timing"]["ops_per_s"]
    return {"ops_per_s": plain - slowed, "share": (plain - slowed) / plain}


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(open(path, encoding="utf-8").read()) for path in args)
    try:
        check_comparable(base, new)
        if base["meta"]["trace"] != new["meta"]["trace"]:
            untraced, traced = (base, new) if new["meta"]["trace"] else (new, base)
            overhead = tracing_overhead(untraced, traced)
            print(
                f"tracing overhead: {overhead['ops_per_s']:.4g} ops/s "
                f"({100 * overhead['share']:.1f}% of the untraced ops_per_s)"
            )
    except NotComparable as exc:
        print(f"error: not comparable: {exc}", file=sys.stderr)
        return 1
    for name, entry in base["metrics"].items():
        if name in new["metrics"]:
            before, after = entry["value"], new["metrics"][name]["value"]
            ratio = f"{after / before:.3f}" if before else "n/a"
            print(f"{name:<34} {before:>14.6g} {after:>14.6g} {entry['unit']:<8} x{ratio}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
