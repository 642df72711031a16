"""Spans and counters recorded around the library's public functions.

The tracer replaces a function at every module binding it is reachable
through (``classifier.hexagon`` as well as ``lattice.hexagon``), so calls
made inside the library are measured as well as the benchmark's own.  Spans
nest: a span's self time is its duration minus the durations of the spans
opened inside it.  Recording is on only while a job runs, so the checks
that follow a job add nothing.  Nothing in the library is edited; a name
that no longer exists is reported as missing.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

# Span names, each with the (module, attribute) bindings it covers.  A dotted
# attribute is a method on a class.
SPANS = {
    "realizer.solve": [
        ("realizer", "realize"),
        ("realizer", "realize_with_domains"),
        ("realizer", "enumerate_realizations"),
    ],
    "classifier.classify": [("classifier", "classify")],
    "classifier.find_gliders": [("classifier", "find_gliders")],
    "classifier.even_window": [("classifier", "EvenWindow.__post_init__")],
    "classifier.window_radius": [("classifier", "window_radius")],
    "distributions.induced_parity": [("distributions", "induced_parity")],
    "lattice.hexagon": [("lattice", "hexagon")],
    "lattice.vertex_set": [("lattice", "Region.vertex_set")],
    "lattice.interior_vertices": [("lattice", "Region.interior_vertices")],
    "pauli.extend": [("pauli", "extend")],
    "render.render": [("render", "render")],
    "files.parse": [
        ("files", "parse_region"),
        ("files", "parse_rdist"),
        ("files", "parse_pdist"),
        ("files", "parse_pzl"),
    ],
    "files.emit": [
        ("files", "region_text"),
        ("files", "rdist_text"),
        ("files", "pdist_text"),
        ("files", "pzl_text"),
    ],
    "cli.main": [("cli", "main")],
}

VERDICT_KINDS = (
    "TFlat",
    "StripUnion",
    "BoundaryAmbiguous",
    "NoGliderNoRowStructure",
    "WindowTooSmall",
)

# Counters, name -> unit.  Every one is an exact count of work or output, so
# it must repeat exactly across runs of the same code on the same inputs.
COUNTERS = {
    "realizer.unsat.nodes": "count",
    "realizer.unsat.propagations": "count",
    "realizer.witnesses": "count",
    "classifier.gliders_found": "count",
    **{f"classifier.verdict.{k}": "count" for k in VERDICT_KINDS},
    "classifier.window_radius.cache_hits": "count",
    "classifier.window_radius.cache_misses": "count",
    "pauli.faces_labelled": "count",
    "render.svg_bytes": "bytes",
    "files.bytes": "bytes",
}


def verdict_kind(verdict) -> str:
    reason = getattr(verdict, "reason", None)
    return reason.value if reason is not None else type(verdict).__name__


def _solve_outcome(counts, args, result):
    if isinstance(result, list):
        counts["realizer.witnesses"] += len(result)
    elif hasattr(result, "witness"):
        counts["realizer.witnesses"] += 1
    else:
        counts["realizer.unsat.nodes"] += result.stats.nodes
        counts["realizer.unsat.propagations"] += result.stats.propagations


def _verdict(counts, args, result):
    counts[f"classifier.verdict.{verdict_kind(result)}"] += 1


def _gliders(counts, args, result):
    counts["classifier.gliders_found"] += len(result)


def _labelled(counts, args, result):
    counts["pauli.faces_labelled"] += len(result)


def _svg(counts, args, result):
    counts["render.svg_bytes"] += len(result.encode())


def _parsed(counts, args, result):
    counts["files.bytes"] += len(args[0])


def _emitted(counts, args, result):
    counts["files.bytes"] += len(result)


HOOKS = {
    "realizer.solve": _solve_outcome,
    "classifier.classify": _verdict,
    "classifier.find_gliders": _gliders,
    "pauli.extend": _labelled,
    "render.render": _svg,
    "files.parse": _parsed,
    "files.emit": _emitted,
}


class Tracer:
    """Aggregated spans and counters for one traced pass."""

    def __init__(self):
        self.enabled = False
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[list[float]] = []

    def install(self, lib) -> None:
        modules = [getattr(lib, name) for name in lib.MODULES] + [lib.package]
        for span, bindings in SPANS.items():
            for module_name, attr in bindings:
                owner = getattr(lib, module_name)
                *path, leaf = attr.split(".")
                try:
                    for part in path:
                        owner = getattr(owner, part)
                    original = getattr(owner, leaf)
                except AttributeError:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                wrapper = self._wrap(span, original)
                if path:
                    setattr(owner, leaf, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)

    def _wrap(self, span: str, fn):
        hook = HOOKS.get(span)
        traced = fn
        if span == "classifier.window_radius":
            traced = _cache_counted(fn, self.counts)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = traced(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer.calls[span] += 1
                tracer.self_s[span] += elapsed - frame[0]
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return wrapper

    def metrics(self) -> dict:
        out = {}
        for span in SPANS:
            out[f"{span}.calls"] = (self.calls[span], "count")
            out[f"{span}.self_s"] = (self.self_s[span], "s")
        for name, unit in COUNTERS.items():
            out[name] = (self.counts[name], unit)
        nodes = self.counts["realizer.unsat.nodes"]
        props = self.counts["realizer.unsat.propagations"]
        out["realizer.propagations_per_node"] = (props / nodes if nodes else 0.0, "ratio")
        verdicts = self.calls["classifier.classify"]
        determinate = (
            self.counts["classifier.verdict.TFlat"]
            + self.counts["classifier.verdict.StripUnion"]
        )
        out["classifier.determinate_share"] = (
            determinate / verdicts if verdicts else 0.0,
            "ratio",
        )
        out["trace.missing"] = (len(self.missing), "count")
        return out


def _cache_counted(fn, counts):
    """Count hits and misses of an ``lru_cache``d function from its
    cache_info(); a function without a cache computes on every call, so
    each call counts as a miss."""
    info = getattr(fn, "cache_info", None)

    def counted(*args, **kwargs):
        before = info() if info else None
        result = fn(*args, **kwargs)
        if before is None:
            counts["classifier.window_radius.cache_misses"] += 1
        else:
            after = info()
            counts["classifier.window_radius.cache_hits"] += after.hits - before.hits
            counts["classifier.window_radius.cache_misses"] += after.misses - before.misses
        return result

    return counted
