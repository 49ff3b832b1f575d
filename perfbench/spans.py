"""Spans around calls into the package's modules, and their arithmetic.

Tracing wraps every public function of the traced modules, in every
``wovenframes`` module namespace that holds a reference to it, so calls made
through ``from .x import f`` names are caught as well.  Nothing under ``src/``
changes.  Spans stay in memory and are written out once, at the end.

A span is ``[name, start, end, parent, op, shape]``: times from
``time.perf_counter``, ``parent`` the index of the causing span or ``None``,
``op`` the operation id, and ``shape`` the shape of the first argument when
it is an array (so a batched eigensolve records its batch size).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

import numpy as np

TRACED_MODULES = ("io", "frames", "weaving", "linalg", "certify")

NAME, START, END, PARENT, OP, SHAPE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, shape=None) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._main and self._main_stack:
            # pool threads run work the main thread's innermost span started
            parent = self._main_stack[-1]
        else:
            parent = None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.op, shape])
        stack.append(index)
        return index

    def end(self, index: int):
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            shape = list(args[0].shape) if args and isinstance(args[0], np.ndarray) else None
            index = self.begin(name, shape)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(tracer: Tracer):
    """Wrap the traced modules' public functions in every namespace holding them."""
    wrapped = {}
    for layer in TRACED_MODULES:
        mod = importlib.import_module(f"wovenframes.{layer}")
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    importlib.import_module("wovenframes.cli")
    for name, mod in list(sys.modules.items()):
        if name != "wovenframes" and not name.startswith("wovenframes."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children in pool threads may overlap each other; the union is taken, so
    no interval is subtracted twice.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        kids = [(max(a, s[START]), min(b, s[END])) for a, b in children.get(i, ())]
        out.append(s[END] - s[START] - covered([k for k in kids if k[1] > k[0]]))
    return out


def layer(name: str) -> str:
    return name.split(".", 1)[0]


CERTIFIERS = {
    "dual_canonicals": "certify.certify_dual_canonicals",
    "dual_pair": "certify.certify_commuting_dual_pair",
    "op_family": "certify.certify_operator_family",
    "synthesis_gap": "certify.certify_synthesis_gap",
    "positivity": "certify.certify_positivity",
    "lm_perturb": "certify.certify_lm_perturbation",
    "invertible": "certify.certify_invertible_stability",
    "synthesis_perturb": "certify.certify_synthesis_perturbation",
}
SCANS = ("weaving.exhaustive_woven_check", "weaving.sampled_woven_estimate")
EIG_BATCH = "linalg.jacobi_eigh_batch"

# Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "linalg.eig_batch_s": "s",
    "linalg.eig_batch_calls": "count",
    "linalg.eig_batch_matrices": "count",
    "linalg.eig_matrices_per_s": "1/s",
    "linalg.eig_share": "ratio",
    "weaving.scan_s": "s",
    "weaving.scan_self_s": "s",
    "weaving.weavings": "count",
    "weaving.chunk_bytes_computed": "B",
    "linalg.single_s": "s",
    "linalg.single_calls": "count",
    "linalg.single_share": "ratio",
    "frames.bounds_ms": "ms",
    "frames.bounds_calls": "count",
    "weaving.bounds_ms": "ms",
    "weaving.canonical_dual_ms": "ms",
    "weaving.alternate_dual_ms": "ms",
    **{f"certify.{key}_ms": "ms" for key in CERTIFIERS},
    "certify.self_s": "s",
    "io.parse_s": "s",
    "io.render_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Counts that must repeat exactly for identical work.
EXACT_COUNTS = (
    "weaving.weavings",
    "linalg.eig_batch_calls",
    "linalg.eig_batch_matrices",
    "weaving.chunk_bytes_computed",
    "linalg.single_calls",
)


def _outer(spans, name: str, prefix: str) -> tuple[list[int], list[int]]:
    """Spans of a layer not caused by the same layer, split by name prefix.

    Their durations add up to the layer's time without counting a call the
    layer makes to itself twice.
    """
    hit, rest = [], []
    for i, s in enumerate(spans):
        if layer(s[NAME]) != name:
            continue
        if s[PARENT] is not None and layer(spans[s[PARENT]][NAME]) == name:
            continue
        (hit if s[NAME].startswith(prefix) else rest).append(i)
    return hit, rest


def _p50_ms(durations) -> float:
    return float(np.median(durations)) * 1e3 if durations else 0.0


def layer_metrics(spans, ops: int, op_wall_s: float, n: int) -> dict[str, float]:
    """Per-layer figures of the spans of ``ops`` operations.

    Times ending in ``_s`` and the counts are per operation; ``_ms`` figures
    are medians per call.  ``op_wall_s`` is the summed wall time of the
    operations and ``n`` the family size (for the computed chunk bytes).
    """
    selfs = self_times(spans)
    dur = [s[END] - s[START] for s in spans]

    batch, single = _outer(spans, "linalg", EIG_BATCH)
    scans = [i for i, s in enumerate(spans) if s[NAME] in SCANS]
    scan_s = sum(dur[i] for i in scans)
    eig_s = sum(dur[i] for i in batch)
    matrices = sum(spans[i][SHAPE][0] for i in batch)
    chunk_bytes = max((spans[i][SHAPE][0] * n * spans[i][SHAPE][1] ** 2 * 8 for i in batch), default=0)
    parse, render = _outer(spans, "io", "io.parse_")

    def named(name):
        return [dur[i] for i, s in enumerate(spans) if s[NAME] == name]

    out = {
        "linalg.eig_batch_s": eig_s / ops,
        "linalg.eig_batch_calls": len(batch) / ops,
        "linalg.eig_batch_matrices": matrices / ops,
        "linalg.eig_matrices_per_s": matrices / eig_s if eig_s else 0.0,
        "linalg.eig_share": covered((spans[i][START], spans[i][END]) for i in batch) / scan_s if scan_s else 0.0,
        "weaving.scan_s": scan_s / ops,
        "weaving.scan_self_s": sum(selfs[i] for i in scans) / ops,
        "weaving.weavings": matrices / ops,
        "weaving.chunk_bytes_computed": float(chunk_bytes),
        "linalg.single_s": sum(dur[i] for i in single) / ops,
        "linalg.single_calls": len(single) / ops,
        "linalg.single_share": sum(dur[i] for i in single) / op_wall_s,
        "frames.bounds_ms": _p50_ms(named("frames.frame_bounds")),
        "frames.bounds_calls": len(named("frames.frame_bounds")) / ops,
        "weaving.bounds_ms": _p50_ms(named("weaving.weaving_bounds")),
        "weaving.canonical_dual_ms": _p50_ms(named("weaving.weaving_canonical_dual")),
        "weaving.alternate_dual_ms": _p50_ms(named("weaving.weaving_alternate_dual")),
    }
    for key, name in CERTIFIERS.items():
        out[f"certify.{key}_ms"] = _p50_ms(named(name))
    out["certify.self_s"] = sum(selfs[i] for i, s in enumerate(spans) if layer(s[NAME]) == "certify") / ops
    out["io.parse_s"] = sum(dur[i] for i in parse) / ops
    out["io.render_s"] = sum(dur[i] for i in render) / ops
    out["cli.self_s"] = sum(selfs[i] for i, s in enumerate(spans) if s[NAME] == "cli.main") / ops
    return out


def single_calls_by_op(spans) -> dict[int, int]:
    """Outermost single-matrix linalg calls of each operation."""
    out: dict[int, int] = {}
    for i in _outer(spans, "linalg", EIG_BATCH)[1]:
        out[spans[i][OP]] = out.get(spans[i][OP], 0) + 1
    return out
