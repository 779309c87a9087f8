"""Spans around the calls into each majorant module, installed from outside.

Nothing in ``src/`` knows about tracing.  ``install`` replaces every
public function of the package modules (in every module namespace that
holds a reference to it), a few methods, and ``numpy.linalg.eigh`` /
``eigvalsh`` with thin wrappers that record a span: name, start, end and
parent.  Very hot leaf methods are counted rather than timed, because a
timed span would cost as much as the call it measures.

Spans are kept in memory.  ``Tracer.end_op`` folds the spans of one
operation into per-name totals (calls, inclusive time, self time) and
keeps the raw spans of the first few operations so they can be written
out at the end of the run.  Self time is a span's duration minus the
durations of its direct children; children never overlap because the
benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

#: package modules, i.e. the layers; the CLI is traced inside its own processes
LAYERS = (
    "eigenlists",
    "horn",
    "trace_class",
    "measures",
    "pinching",
    "sampling",
    "serialize",
    "cli",
)

#: methods timed like functions: (module, class, attribute, span name)
TIMED_METHODS = (
    ("horn", "HermitianMatrix", "__post_init__", "horn.HermitianMatrix"),
    ("measures", "CompactMeasure", "__post_init__", "measures.CompactMeasure"),
)

#: hot leaves that are only counted: (module, class, attribute, counter name)
COUNTED_METHODS = (
    ("measures", "CompactMeasure", "survivor", "measures.CompactMeasure.survivor"),
    ("measures", "CompactMeasure", "breakpoints", "measures.CompactMeasure.breakpoints"),
)

#: hot public functions that are only counted: (module, attribute, counter name)
COUNTED_FUNCTIONS = (("serialize", "format_float", "serialize.format_float"),)

#: numpy kernels the layers lean on, timed as children of the layer calls
NUMPY_FUNCTIONS = (("eigh", "numpy.eigh"), ("eigvalsh", "numpy.eigvalsh"))

ROOT = "op"


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, keep_ops: int = 0):
        # open spans: [name, start_ns, end_ns, parent_index]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.keep_ops = keep_ops
        self.kept: list[dict] = []
        self.ops = 0
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.direct: dict[str, list[int]] = defaultdict(list)

    # -- recording ---------------------------------------------------------

    def timed(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        wrapper.__traced__ = fn
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__traced__ = fn
        return wrapper

    def begin_op(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.spans.append([ROOT, time.monotonic_ns(), 0, -1])
        self.stack.append(0)

    def end_op(self, extra_spans: list[list] = (), extra_counts: dict | None = None) -> Counter:
        """Close the operation and fold its spans into the totals.

        ``extra_spans`` and ``extra_counts`` were recorded by child
        processes; span parents index within ``extra_spans`` and its
        roots hang off the op.  Returns the op's call counts (span names
        and counted leaves).
        """
        self.counts.update(extra_counts or {})
        self.stack.clear()
        self.spans[0][2] = time.monotonic_ns()
        base = len(self.spans)
        for name, start, end, parent in extra_spans:
            self.spans.append([name, start, end, 0 if parent < 0 else parent + base])
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans[1:]:
            child_ns[parent] += end - start
        op_counts = Counter(self.counts)
        for k, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.total_ns[name] += dur
            self.self_ns[name] += dur - child_ns[k]
            op_counts[name] += 1
            if k and spans[parent][0] in (ROOT, "cli.main"):
                self.direct[name].append(dur)
        for name, n in self.counts.items():
            self.calls[name] += n
        if len(self.kept) < self.keep_ops:
            self.kept.append({
                "op": self.ops,
                "counts": dict(self.counts),
                "spans": [
                    {"name": n, "start_ns": s, "end_ns": e, "parent": p,
                     "self_ns": (e - s) - child_ns[k]}
                    for k, (n, s, e, p) in enumerate(spans)
                ],
            })
        self.ops += 1
        return op_counts

    # -- derived figures -----------------------------------------------------

    def mean_ms(self, name: str) -> float:
        """Mean inclusive time per call, 0 when the name was never called."""
        n = self.calls[name]
        return self.total_ns[name] / n / 1e6 if n else 0.0

    def direct_ms(self, name: str) -> float:
        """Mean time of the calls made by the operation itself (or the CLI's main)."""
        durs = self.direct.get(name)
        return sum(durs) / len(durs) / 1e6 if durs else 0.0

    def layer_self_ms(self, layer: str) -> float:
        """Self time per op of every span of one module."""
        prefix = layer + "."
        ns = sum(v for k, v in self.self_ns.items() if k.startswith(prefix))
        return ns / self.ops / 1e6 if self.ops else 0.0

    def summary(self) -> dict:
        names = sorted(self.calls)
        return {
            name: {
                "calls": self.calls[name],
                "total_ms": self.total_ns[name] / 1e6,
                "self_ms": self.self_ns[name] / 1e6,
            }
            for name in names
        }


def _majorize_measure_wrapper(tracer: Tracer, fn):
    """One span per decision route, named after the ``method`` argument."""
    routes = {
        method: tracer.timed(f"measures.majorize_measure.{method}", fn)
        for method in ("hinge", "survivor", "convex_family")
    }
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        method = signature.bind(*args, **kwargs).arguments.get("method", "hinge")
        return routes.get(method, fn)(*args, **kwargs)

    wrapper.__traced__ = fn
    return wrapper


def install(tracer: Tracer):
    """Wrap the package's public functions, a few methods, and numpy's eigensolvers.

    Returns a function that puts the originals back.
    """
    package = importlib.import_module("majorant")
    modules = {layer: importlib.import_module(f"majorant.{layer}") for layer in LAYERS}
    patches: list[tuple] = []

    def patch(owner, attr: str, wrapper) -> None:
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    counted = {(layer, attr): name for layer, attr, name in COUNTED_FUNCTIONS}
    wrapped: dict[int, object] = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__ or hasattr(obj, "__traced__"):
                continue
            if (layer, attr) in counted:
                wrapped[id(obj)] = tracer.counted(counted[layer, attr], obj)
            elif obj is modules["measures"].majorize_measure:
                wrapped[id(obj)] = _majorize_measure_wrapper(tracer, obj)
            else:
                wrapped[id(obj)] = tracer.timed(f"{layer}.{attr}", obj)
    for ns in (package, *modules.values()):
        for attr, obj in list(vars(ns).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                patch(ns, attr, wrapped[id(obj)])

    for layer, cls, attr, name in TIMED_METHODS:
        owner = getattr(modules[layer], cls)
        patch(owner, attr, tracer.timed(name, getattr(owner, attr)))
    for layer, cls, attr, name in COUNTED_METHODS:
        owner = getattr(modules[layer], cls)
        patch(owner, attr, tracer.counted(name, getattr(owner, attr)))
    for attr, name in NUMPY_FUNCTIONS:
        patch(np.linalg, attr, tracer.timed(name, getattr(np.linalg, attr)))

    def uninstall() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return uninstall
