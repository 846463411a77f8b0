"""Spans and counters recorded around the calls into each signsym module.

The tracer lives entirely in the benchmark: ``instrument`` rebinds module
attributes of the loaded ``signsym`` package to timing wrappers and
``undo`` puts the originals back.  Functions are looked up as module
attributes at call time, so a wrapper sees calls made between signsym's
own modules too, including the per-total rescans hidden under the series
cache.  Nothing here runs unless a traced run asks for it.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter
from contextlib import contextmanager

#: Span names whose summed durations give the per-layer ``*_s`` metrics.
SPAN_METRICS = {
    "scan.busy_s": "scan",
    "hilbert.numerator_s": "hilbert.numerator",
    "hilbert.series_s": "hilbert.series",
    "poly.rho_s": "poly.rho",
    "straighten.straighten_s": "straighten.straighten",
    "straighten.evaluate_s": "straighten.evaluate",
    "hilbert.verify_cell_s": "hilbert.verify_cell",
    "hilbert.candidates_s": "hilbert.candidates",
    "hilbert.dimension_s": "hilbert.dimension",
    "cli.json_s": "cli.json",
}

#: Counters reported per operation.
COUNT_METRICS = (
    "scan.calls",
    "scan.elements",
    "hilbert.series_cells",
    "poly.rho_calls",
    "poly.rho_odd_calls",
    "poly.rho_terms",
    "straighten.entries",
    "straighten.coeff_terms",
    "descent_basis.ordered",
    "hilbert.generators",
    "hilbert.support",
    "cli.json_in_bytes",
    "cli.json_out_bytes",
)


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` and named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self.candidates: list = []  # polynomials of the current verify cell

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] += k

    def span_totals(self, first: int = 0) -> Counter:
        """Summed durations of the spans from index ``first`` on, by name,
        and by ``name<parent`` for spans directly inside a ``parent`` span."""
        totals: Counter = Counter()
        for name, start, end, parent in self.spans[first:]:
            totals[name] += end - start
            if parent is not None:
                totals[f"{name}<{self.spans[parent][0]}"] += end - start
        return totals


def _has_odd_slot(f) -> bool:
    return any((pi + qi) % 2 for m in f.monomials() for pi, qi in zip(m.p, m.q))


def _wrapper_factories(tracer: Tracer) -> dict:
    """For each instrumented (module, attribute): original -> wrapper."""
    t = tracer

    def scan_kernel(elements):
        def make(fn):
            def wrapper(n):
                t.count("scan.calls")
                t.count("scan.elements", elements(n))
                with t.span("scan"):
                    return fn(n)
            return wrapper
        return make

    def timed(name, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                with t.span(name):
                    result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            return wrapper
        return make

    def series_table(fn):
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args):
            misses = cache_info().misses if cache_info else None
            with t.span("hilbert.series"):
                table = fn(*args)
            if cache_info is None or cache_info().misses != misses:
                t.count("hilbert.series_cells", sum(len(row) for row in table))
            return table
        return wrapper

    def rho(fn):
        def wrapper(f, *args, **kwargs):
            t.count("poly.rho_calls")
            if _has_odd_slot(f):
                t.count("poly.rho_odd_calls")
            with t.span("poly.rho"):
                result = fn(f, *args, **kwargs)
            t.count("poly.rho_terms", len(result))
            return result
        return wrapper

    def expansion_counts(expansion):
        t.count("straighten.entries", len(expansion.entries))
        t.count("straighten.coeff_terms", sum(len(c) for c in expansion.entries.values()))

    def ordered_monomials(fn):
        def wrapper(*args, **kwargs):
            for m in fn(*args, **kwargs):
                t.count("descent_basis.ordered")
                yield m
        return wrapper

    def candidates(fn):
        def wrapper(*args, **kwargs):
            with t.span("hilbert.candidates"):
                for item in fn(*args, **kwargs):
                    t.count("hilbert.generators")
                    t.candidates.append(item[-1])
                    yield item
        return wrapper

    def verify_cell(fn):
        def wrapper(*args, **kwargs):
            t.candidates = []
            with t.span("hilbert.verify_cell"):
                report = fn(*args, **kwargs)
            # Counted after the cell span closes, so the bookkeeping stays
            # out of the derived rank time.
            support = set()
            for poly in t.candidates:
                support.update(poly.monomials())
            t.count("hilbert.support", len(support))
            t.candidates = []
            return report
        return wrapper

    return {
        ("scan", "fmaj_pair_counts"): scan_kernel(lambda n: (1 << n) * math.factorial(n)),
        ("scan", "maj_counts"): scan_kernel(math.factorial),
        ("scan", "inv_counts"): scan_kernel(math.factorial),
        ("hilbert", "fmaj_numerator"): timed("hilbert.numerator"),
        ("hilbert", "_series_table"): series_table,
        ("hilbert", "basis_candidates"): candidates,
        ("hilbert", "invariant_dimension"): timed("hilbert.dimension"),
        ("hilbert", "verify_basis_rank"): verify_cell,
        ("poly", "rho"): rho,
        ("straighten", "straighten"): timed("straighten.straighten", expansion_counts),
        ("straighten", "evaluate"): timed("straighten.evaluate"),
        ("descent_basis", "ordered_monomials"): ordered_monomials,
    }


class _TimedJson:
    """Stand-in for the ``json`` module inside ``signsym.cli`` that times
    decoding and encoding and forwards everything else."""

    def __init__(self, tracer: Tracer, real) -> None:
        self._tracer = tracer
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)

    def load(self, fp, **kwargs):
        with self._tracer.span("cli.json"):
            text = fp.read()
            data = self._real.loads(text, **kwargs)
        self._tracer.count("cli.json_in_bytes", len(text.encode()))
        return data

    def dumps(self, obj, **kwargs):
        with self._tracer.span("cli.json"):
            text = self._real.dumps(obj, **kwargs)
        self._tracer.count("cli.json_out_bytes", len(text.encode()))
        return text


def signsym_modules() -> list:
    """The loaded ``signsym`` package and its submodules."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "signsym" or name.startswith("signsym."))
    ]


def instrument(tracer: Tracer):
    """Rebind every reference to the instrumented functions; returns ``undo``.

    A function imported by name into several modules (``rho`` into cli,
    hilbert and straighten, say) is replaced in each of them.  Names a
    module no longer defines are skipped.
    """
    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in signsym_modules()}
    wrappers = {}
    for (module_key, attr), make in _wrapper_factories(tracer).items():
        module = modules.get(module_key)
        if module is not None and hasattr(module, attr):
            original = getattr(module, attr)
            wrappers[original] = make(original)
    replaced = []
    for original, wrapper in wrappers.items():
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    replaced.append((module, attr, original))
                    setattr(module, attr, wrapper)
    cli = modules.get("cli")
    if cli is not None and hasattr(cli, "json"):
        replaced.append((cli, "json", cli.json))
        cli.json = _TimedJson(tracer, cli.json)

    def undo() -> None:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)

    return undo
