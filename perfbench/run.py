#!/usr/bin/env python3
"""signsym benchmark: closed-loop workloads with exact output checks.

    python3 perfbench/run.py --workload {hilbert,straighten,verify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; signsym is imported from its ``src``
directory.  One client in one process runs seeded sessions back to back,
each from cold library caches, until ``--seconds`` have passed (the
session under way is finished).  An operation's time counts only after
its output passed an exact check.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the calls into each signsym module are traced and the
per-layer metrics are reported instead.  The full result, with run
metadata, output digests and (traced) spans, is written under
``perfbench/out/``.  ``--write-reference`` records the output digests of
the first session at the reference seed in ``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

from compare import tracing_overhead
from tracing import COUNT_METRICS, SPAN_METRICS, Tracer, instrument, signsym_modules

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
SETUP_REPEATS = 15
#: Duration of ``reference_work`` that defines reference speed: every time
#: reported is scaled as if ``reference_work`` had taken this long.
REFERENCE_SECONDS = 0.003

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def load_signsym():
    """Import signsym from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "signsym" / "__init__.py").is_file():
        raise SystemExit(f"error: no signsym sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import signsym
    import signsym.cli  # noqa: F401  (the straighten workload drives it)

    if Path(signsym.__file__).resolve().parent != SRC / "signsym":
        raise SystemExit(f"error: signsym was imported from {signsym.__file__}, not {SRC}")
    return signsym


def reference_work() -> int:
    """Fixed pure-Python work, object- and Fraction-heavy like signsym,
    timed next to the operations to measure the machine's current speed."""
    counts: dict = {}
    for perm in itertools.permutations(range(6)):
        key = (perm[0] + perm[1], perm[2] * perm[3], Fraction(perm[4] + 1, perm[5] + 1))
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def measure_setup() -> float:
    """Median time to import signsym and its CLI in a fresh interpreter, at
    reference speed.

    One untimed import first writes the bytecode caches, which users do
    not pay on every start.  Each import is scaled by the reference work
    timed just before it.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import signsym, signsym.cli; print(time.perf_counter() - t)"
    )
    times = []
    for i in range(SETUP_REPEATS + 1):
        reference = statistics.median(time_reference() for _ in range(3))
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            times.append(float(done.stdout) * REFERENCE_SECONDS / reference)
    return statistics.median(times)


def library_caches(modules) -> list:
    """Every functools cache held at module level in signsym."""
    caches = {}
    for module in modules:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                caches[id(value)] = value
    return list(caches.values())


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "signsym").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def op_digest(label: str, canonical) -> str:
    text = json.dumps([label, canonical], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def end_to_end(times: list[float]) -> dict:
    if len(times) < 2:
        return {"ops_per_s": 0.0, "op_p50_s": 0.0, "op_p90_s": 0.0}
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_p90_s": statistics.quantiles(times, n=10)[8],
    }


def per_layer(layer_seconds: Counter, counters: Counter, measured: int, basis_cache: dict) -> dict:
    per_op = max(measured, 1)
    metrics = {}
    for name, span in SPAN_METRICS.items():
        metrics[name] = (layer_seconds[span] / per_op, "s/op")
    cell = "hilbert.verify_cell"
    rank = layer_seconds[cell] - sum(
        layer_seconds[f"{part}<{cell}"]
        for part in ("hilbert.candidates", "hilbert.dimension", "hilbert.series")
    )
    metrics["hilbert.rank_s"] = (rank / per_op, "s/op")
    for name in COUNT_METRICS:
        unit = "B/op" if name.endswith("_bytes") else "count/op"
        metrics[name] = (counters[name] / per_op, unit)
    lookups = basis_cache["hits"] + basis_cache["misses"]
    metrics["straighten.basis_cache_size"] = (basis_cache["size"], "count")
    metrics["straighten.basis_cache_hit_ratio"] = (
        basis_cache["hits"] / lookups if lookups else 0.0, "ratio"
    )
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None, expected=None) -> dict:
    """Run sessions of one workload for ``seconds``; returns the full result.

    ``expected`` lists the output digests the first session must produce;
    each mismatch counts as a failed operation.
    """
    import workloads  # imports signsym, so only after load_signsym()

    sizes = sizes or workloads.FULL
    build = workloads.SESSIONS[name]
    numerators = workloads.numerators(sizes) if name == "hilbert" else {}
    caches = library_caches(signsym_modules())
    straighten_module = sys.modules["signsym.straighten"]
    basis_info = getattr(getattr(straighten_module, "averaged_basis_element", None), "cache_info", None)
    basis_cache = {"hits": 0, "misses": 0, "size": 0}

    tracer = Tracer() if trace else None
    undo = instrument(tracer) if trace else None
    times: list[float] = []  # at reference speed
    raw_times: list[float] = []
    layer_seconds: Counter = Counter()  # at reference speed
    digests: list[str] = []
    op_records = []
    attempted = failed = sessions = 0
    start = time.perf_counter()
    try:
        while sessions == 0 or time.perf_counter() - start < seconds:
            ops = build(random.Random(f"{name}:{seed}:{sessions}"), sizes, numerators)
            for cache in caches:
                cache.cache_clear()
            reference_before = time_reference()
            for op in ops:
                attempted += 1
                first_span = len(tracer.spans) if trace else 0
                before = Counter(tracer.counters) if trace else None
                try:
                    t0 = time.perf_counter()
                    raw = op.run()
                    elapsed = time.perf_counter() - t0
                    # The machine's speed drifts by tens of percent over
                    # seconds to minutes, nearly alike for all Python work.
                    # The reference work timed on both sides of the
                    # operation measures the speed it ran at.
                    reference_after = time_reference()
                    factor = 2 * REFERENCE_SECONDS / (reference_before + reference_after)
                    reference_before = reference_after
                    canonical = op.check(raw)
                except Exception as exc:  # every failure is counted, and the run goes on
                    failed += 1
                    print(f"# FAILED {op.label}: {exc!r}", file=sys.stderr)
                    if not isinstance(exc, workloads.CheckFailed):
                        traceback.print_exc(file=sys.stderr)
                    if sessions == 0:
                        digests.append("failed")
                    continue
                raw_times.append(elapsed)
                times.append(elapsed * factor)
                if sessions == 0:
                    digests.append(op_digest(op.label, canonical))
                counters = {}
                if trace:
                    counters = dict(tracer.counters - before)
                    for span, spent in tracer.span_totals(first_span).items():
                        layer_seconds[span] += spent * factor
                op_records.append({
                    "session": sessions, "kind": op.kind, "label": op.label,
                    "seconds": elapsed, "speed_factor": factor, "counters": counters,
                })
            if basis_info is not None:
                info = basis_info()
                basis_cache["hits"] += info.hits
                basis_cache["misses"] += info.misses
                basis_cache["size"] = max(basis_cache["size"], info.currsize)
            sessions += 1
    finally:
        if undo is not None:
            undo()

    mismatches = 0
    if expected is not None:
        if len(expected) != len(digests):
            mismatches = len(digests)
        else:
            mismatches = sum(
                1 for got, want in zip(digests, expected) if got != want and got != "failed"
            )
        if mismatches:
            print(f"# DIGEST MISMATCH: {mismatches} of {len(digests)} outputs differ from the reference",
                  file=sys.stderr)
    failed += mismatches

    timing = end_to_end(times)
    if trace:
        metrics = per_layer(layer_seconds, tracer.counters, len(times), basis_cache)
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in timing.items()}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    signsym = sys.modules["signsym"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "meta": {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "backend": signsym.scan.BACKEND,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "source": source_digest(),
            "sessions": sessions,
            "samples": len(times),
            "fail_frac": failed / attempted,
        },
        "timing": timing,
        "timing_raw": end_to_end(raw_times),
        "digest": {
            "session": hashlib.sha256("".join(digests).encode()).hexdigest()[:16],
            "ops": digests,
            "reference": None if expected is None else ("mismatch" if mismatches else "match"),
        },
        "counters": dict(tracer.counters) if trace else {},
        "ops": op_records,
        "spans": [[n, s - start, e - start, p] for n, s, e, p in tracer.spans] if trace else [],
    }


def summarize_by_kind(op_records: list) -> dict:
    """Mean of each counter over the operations of each kind."""
    totals: dict[str, Counter] = defaultdict(Counter)
    counts: Counter = Counter()
    for record in op_records:
        counts[record["kind"]] += 1
        totals[record["kind"]].update(record["counters"])
    return {
        kind: {name: value / counts[kind] for name, value in sorted(totals[kind].items())}
        for kind in sorted(counts)
    }


def write_reference() -> int:
    digests = {}
    for name in ("hilbert", "straighten", "verify"):
        result = run_workload(name, REFERENCE_SEED, 0, False)
        if result["failed"]:
            print(f"error: {name} failed its checks; no reference written", file=sys.stderr)
            return 1
        digests[name] = result["digest"]["ops"]
    REFERENCE.write_text(json.dumps({"seed": REFERENCE_SEED, "digests": digests}, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv: list[str] | None = None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", choices=("hilbert", "straighten", "verify"))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    load_signsym()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")

    setup = None if args.trace else measure_setup()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    untraced = None
    if args.trace and (OUT / f"{stem}-trace0.json").is_file():
        untraced = json.loads((OUT / f"{stem}-trace0.json").read_text())
        signsym = sys.modules["signsym"]
        same_code = (untraced["meta"]["source"], untraced["meta"]["backend"]) == (
            source_digest(), signsym.scan.BACKEND
        )
        if not (same_code and untraced["correct"]):
            untraced = None
    expected = None
    if sizes is None and args.seed == REFERENCE_SEED:
        expected = json.loads(REFERENCE.read_text())["digests"][args.workload]
    elif untraced is not None:
        # Tracing must not change a single output.
        expected = untraced["digest"]["ops"]
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), sizes, expected)
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": setup, "unit": END_TO_END_UNITS["setup_s"]}
    if args.trace:
        if untraced is not None and result["correct"]:
            result["tracing_overhead"] = tracing_overhead(untraced, result)
            print("# tracing overhead: " + json.dumps(result["tracing_overhead"]))
        print("# per op kind: " + json.dumps(summarize_by_kind(result["ops"]), sort_keys=True))
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(result, separators=(",", ":")))

    print("# meta: " + json.dumps(result["meta"], sort_keys=True))
    print("# timing at reference speed: " + json.dumps(result["timing"], sort_keys=True))
    print("# timing as measured: " + json.dumps(result["timing_raw"], sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
