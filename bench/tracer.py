"""Per-layer tracing of tetrabox from outside the package.

The tracer wraps public (and a few private) functions of ``tetrabox.*`` and
rebinds the wrapper under every name that refers to the original in any
loaded ``tetrabox`` module, so calls made through ``from .x import y``
bindings are seen too. A span wrapper keeps a stack of open spans: the span
on top is the parent of the next one, so a layer's self time is its own
duration minus the durations of the spans it directly caused. A count
wrapper only counts calls. Names that no longer exist are skipped and
reported as absent; their metrics read 0.

Run as a script, this file executes one ``tetrabox`` CLI command under the
tracer and writes the aggregated spans to a JSON file:

    PYTHONPATH=src python bench/tracer.py STATS.json build spec.json -o out.json
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

SPAN = "span"
COUNT = "count"


def _rref_cells(args, result):
    return {"linalg.rref.cells": args[0].rows * args[0].cols}


def _modp_hit(args, result):
    return {"classify.modp_cert.hits": 1 if result else 0}


# (layer, module, attribute path, kind, extra counter)
LAYERS = (
    ("classify.burnside", "tetrabox.classify", "pair_generates_full_algebra", SPAN, None),
    ("classify.modp_cert", "tetrabox.classify", "_closure_full_mod_p", SPAN, _modp_hit),
    ("classify.exact_closure", "tetrabox.classify", "_closure_dimension_exact", SPAN, None),
    ("classify.intertwiner", "tetrabox.classify", "find_intertwiner", SPAN, None),
    ("tetra.build_tetra", "tetrabox.tetra", "build_tetra", SPAN, None),
    ("tetra.verify_relations", "tetrabox.tetra", "verify_relations", SPAN, None),
    ("tetra.verify_action_table", "tetrabox.tetra", "verify_action_table", SPAN, None),
    ("tetra.eigentable", "tetrabox.tetra", "eigentable", SPAN, None),
    ("tetra.flag_independence_check", "tetrabox.tetra", "flag_independence_check", SPAN, None),
    ("flags.four_flags", "tetrabox.flags", "four_flags", SPAN, None),
    ("flags.induced_decomposition", "tetrabox.flags", "induced_decomposition", SPAN, None),
    ("flags.validate", "tetrabox.flags", "Decomposition.__post_init__", SPAN, None),
    ("flags.validate", "tetrabox.flags", "Flag.__post_init__", SPAN, None),
    ("linalg.rref", "tetrabox.linalg", "rref", SPAN, _rref_cells),
    ("linalg.intersect", "tetrabox.linalg", "intersect", SPAN, None),
    ("linalg.inverse", "tetrabox.linalg", "inverse", SPAN, None),
    ("linalg.minimal_polynomial", "tetrabox.linalg", "minimal_polynomial", SPAN, None),
    ("linalg.contains_vector", "tetrabox.linalg", "Subspace.contains_vector", SPAN, None),
    ("linalg.apply", "tetrabox.linalg", "Matrix.apply", COUNT, None),
    ("linalg.matrix_constructed", "tetrabox.linalg", "Matrix.__post_init__", COUNT, None),
    ("onsager.build_from_spec", "tetrabox.onsager", "build_from_spec", SPAN, None),
    ("tridiagonal.check_onsager_equivalence", "tetrabox.tridiagonal", "check_onsager_equivalence", SPAN, None),
    ("serialize.dump", "tetrabox.serialize", "spec_to_json", SPAN, None),
    ("serialize.dump", "tetrabox.serialize", "module_to_json", SPAN, None),
    ("serialize.dump", "tetrabox.serialize", "tetra_to_json", SPAN, None),
    ("serialize.dump", "tetrabox.serialize", "eigentable_to_json", SPAN, None),
    ("serialize.dump", "tetrabox.serialize", "report_to_json", SPAN, None),
    ("serialize.parse", "tetrabox.serialize", "spec_from_json", SPAN, None),
    ("serialize.parse", "tetrabox.serialize", "module_from_json", SPAN, None),
    ("serialize.parse", "tetrabox.serialize", "tetra_from_json", SPAN, None),
    ("cli", "tetrabox.cli", "main", SPAN, None),
)

# Per-layer metrics, in the order BENCHMARK.json lists them: (name, unit, better).
# Each should move the end-to-end metric noted beside it (see bench/README.md).
METRICS = (
    ("classify.burnside.calls", "count", "lower"),
    ("classify.burnside.self_s", "s", "lower"),
    ("classify.modp_cert.attempts", "count", "lower"),
    ("classify.modp_cert.hits", "count", "higher"),
    ("classify.modp_cert.self_s", "s", "lower"),
    ("classify.exact_closure.calls", "count", "lower"),
    ("classify.exact_closure.self_s", "s", "lower"),
    ("classify.intertwiner.self_s", "s", "lower"),
    ("tetra.build_tetra.self_s", "s", "lower"),
    ("tetra.verify_relations.self_s", "s", "lower"),
    ("tetra.verify_action_table.self_s", "s", "lower"),
    ("tetra.eigentable.self_s", "s", "lower"),
    ("tetra.flag_independence_check.self_s", "s", "lower"),
    ("tetra.max_coeff_bits", "bits", "lower"),
    ("flags.four_flags.self_s", "s", "lower"),
    ("flags.induced_decomposition.self_s", "s", "lower"),
    ("flags.validate.self_s", "s", "lower"),
    ("linalg.apply.calls", "count", "lower"),
    ("linalg.contains_vector.calls", "count", "lower"),
    ("linalg.contains_vector.self_s", "s", "lower"),
    ("linalg.intersect.calls", "count", "lower"),
    ("linalg.intersect.self_s", "s", "lower"),
    ("linalg.inverse.calls", "count", "lower"),
    ("linalg.inverse.self_s", "s", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.self_s", "s", "lower"),
    ("linalg.rref.cells", "count", "lower"),
    ("linalg.matrix_constructed", "count", "lower"),
    ("linalg.minimal_polynomial.self_s", "s", "lower"),
    ("onsager.build_from_spec.self_s", "s", "lower"),
    ("tridiagonal.check_onsager_equivalence.self_s", "s", "lower"),
    ("serialize.dump.self_s", "s", "lower"),
    ("serialize.parse.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("import_s", "s", "lower"),
    ("process.self_s", "s", "lower"),
    ("trace_coverage_frac", "ratio", "higher"),
    ("trace_overhead_frac", "ratio", "lower"),
)


class Tracer:
    """Span stack plus per-layer totals; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_level_s = 0.0
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, layer: str, fn, extra=None):
        """Wrap ``fn`` so each call records one span of ``layer``."""
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by this span's child spans
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                self.calls[layer] += 1
                self.total_s[layer] += elapsed
                self.self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_level_s += elapsed
            if extra is not None:
                for key, value in extra(args, result).items():
                    self.counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, layer: str, fn):
        """Wrap ``fn`` so each call is counted, without a span."""
        calls = self.calls

        def counted(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self, layers=LAYERS) -> None:
        """Wrap every listed name that exists; record the others as absent."""
        modules = [m for name, m in sys.modules.items() if name == "tetrabox" or name.startswith("tetrabox.")]
        for layer, module_name, path, kind, extra in layers:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self.span(layer, original, extra) if kind == SPAN else self.counter(layer, original)
            if outer:  # a method: patch the class
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, target, name: str, wrapper) -> None:
        self._patched.append((target, name, getattr(target, name)))
        setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patched):
            setattr(target, name, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "top_level_s": self.top_level_s,
            "absent": list(self.absent),
        }


def merge(into: dict, other: dict) -> None:
    """Add the totals of one snapshot into another (``into`` is modified)."""
    for key in ("calls", "total_s", "self_s", "counts"):
        bucket = into.setdefault(key, {})
        for name, value in other.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value
    into["top_level_s"] = into.get("top_level_s", 0.0) + other.get("top_level_s", 0.0)
    into["absent"] = sorted(set(into.get("absent", [])) | set(other.get("absent", [])))


def layer_metrics(snap: dict) -> dict:
    """The span- and count-derived metrics of METRICS from one snapshot."""
    calls, self_s, counts = snap.get("calls", {}), snap.get("self_s", {}), snap.get("counts", {})
    out = {}
    for name, _unit, _better in METRICS:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(layer, 0)
        elif field == "self_s":
            out[name] = self_s.get(layer, 0.0)
    out["classify.modp_cert.attempts"] = calls.get("classify.modp_cert", 0)
    out["classify.modp_cert.hits"] = counts.get("classify.modp_cert.hits", 0)
    out["linalg.rref.cells"] = counts.get("linalg.rref.cells", 0)
    out["linalg.matrix_constructed"] = calls.get("linalg.matrix_constructed", 0)
    return out


def wrapped_calls(snap: dict) -> tuple[int, int]:
    """Number of span-wrapped and of count-wrapped calls in a snapshot."""
    counters = {layer for layer, _m, _p, kind, _e in LAYERS if kind == COUNT}
    calls = snap.get("calls", {})
    counted = sum(n for layer, n in calls.items() if layer in counters)
    return sum(calls.values()) - counted, counted


def wrapper_cost(n: int = 20000, batches: int = 5) -> tuple[float, float]:
    """Seconds a span wrapper and a count wrapper add to one call.

    Each is the fastest of several batches, minus the bare call's time.
    """

    def noop():
        return None

    def per_call(fn) -> float:
        best = float("inf")
        for _ in range(batches):
            start = time.perf_counter()
            for _ in range(n):
                fn()
            best = min(best, time.perf_counter() - start)
        return best / n

    tracer = Tracer()
    bare = per_call(noop)
    return per_call(tracer.span("calibration", noop)) - bare, per_call(tracer.counter("calibration", noop)) - bare


def _main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import tetrabox.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = tetrabox.cli.main(cli_args)
    finally:
        tracer.uninstall()
        snap = tracer.snapshot()
        snap["import_s"] = import_s
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(snap, handle)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
