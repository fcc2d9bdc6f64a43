"""Spans around the library's public functions, recorded from outside.

The package binds names with ``from .x import y``, so a function is looked
up in every module that imported it: ``annulus_sums`` in ``kernels``,
``integrals`` and ``embedding``; ``convolve_field`` in ``scan`` and
``pigeonhole``. ``Tracer`` replaces every such binding (and the package's
re-export) with a wrapper that records a span, and puts the originals back
on exit. ``src/`` is not changed.

A span is ``[name, start, end, parent, request]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``request`` names the workload
run that caused it. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

# Public functions per layer. spatial and rng are helpers: their time falls
# inside the kernels and measures spans that call them.
LAYERS = {
    "measures": [
        "build_ifs_measure", "restrict_measure", "ball_mass", "estimate_frostman",
        "AtomicMeasure.load", "AtomicMeasure.save",
    ],
    "trees": [
        "validate_tree", "compute_peel_schedule", "path_tree", "star_tree",
        "TreeGraph.load", "TreeGraph.save",
    ],
    "kernels": ["annulus_sums", "convolve_field", "field_norms", "kernel_weight"],
    "integrals": ["integral_bruteforce", "integral_peel", "chain_neighborhood_mass"],
    "pigeonhole": ["chebyshev_profile", "good_set", "nested_good_sets"],
    "embedding": ["feasibility_dp", "extract_embedding", "verify_witness"],
    "scan": ["scan_interval", "emit_report", "load_measure_for", "ScanConfig.load"],
    "cli": ["run_pipeline"],
}


def _rows(points) -> int:
    shape = getattr(points, "shape", None)
    if shape is None:
        return len(points)
    return 1 if len(shape) == 1 else shape[0]


def _count_annulus(add, args, result, exc):
    # computed from the arguments: every (query, source) pair the call could test
    add("kernels.annulus_sums.pairs_offered", _rows(args["queries"]) * _rows(args["source_points"]))


def _count_good_sets(add, args, result, exc):
    if exc is not None:
        if type(exc).__name__ == "StageFailureError":
            add("pigeonhole.stage_failures", 1)
        return
    add("pigeonhole.kept_atoms", sum(len(gs.indices) for gs in result.stages))


def _count_bruteforce(add, args, result, exc):
    # computed from the arguments: the product of the per-vertex atom counts
    add("integrals.bruteforce_terms", math.prod(len(m) for m in args["mu_per_vertex"]))


def _count_search(add, args, result, exc):
    if exc is not None:
        if type(exc).__name__ == "InternalConsistencyError":
            add("embedding.internal_errors", 1)
        return
    add("embedding.search_nodes", result.nodes_visited)
    if result.found:
        add("embedding.outcome.found", 1)
    elif result.exhausted:
        add("embedding.outcome.absent", 1)
    else:
        add("embedding.outcome.budget_exhausted", 1)


def _count_scan(add, args, result, exc):
    if exc is None:
        add("scan.rows", len(result.rows))
        add("scan.rows_ok", sum(r.succeeded for r in result.rows))


COUNTERS = {
    "kernels.annulus_sums": _count_annulus,
    "pigeonhole.nested_good_sets": _count_good_sets,
    "integrals.integral_bruteforce": _count_bruteforce,
    "embedding.extract_embedding": _count_search,
    "scan.scan_interval": _count_scan,
}


class Tracer:
    """Context manager that records spans and counters while it is active."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.request = "setup"
        self.missing: list[str] = []  # listed functions the library no longer has
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.missing = []
        for layer, names in LAYERS.items():
            try:
                module = importlib.import_module(f"treeconfig.{layer}")
            except ImportError:
                module = None
            for qualname in names:
                if module is None or not self._patch(layer, module, qualname):
                    self.missing.append(f"{layer}.{qualname}")
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, layer: str, module, qualname: str) -> bool:
        cls_name, _, attr = qualname.rpartition(".")
        name = f"{layer}.{attr}"
        if cls_name:
            cls = getattr(module, cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                return False
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(name, raw.__func__))
            else:
                replacement = self._wrap(name, raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, replacement)
            return True
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapper = self._wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "treeconfig" or mod_name.startswith("treeconfig."):
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        return True

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        def add(key: str, value: int) -> None:
            self.counts[self.request][key] += value

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                self.counts[self.request][f"{name}.calls"] += 1
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(add, bound.arguments, result, exc)

        return traced

    def dump(self, path) -> None:
        """Write the spans, one JSON object per line."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


def self_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Self time per request and span name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, _parent, request) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[request][name] += (end - start) - covered
    return out
