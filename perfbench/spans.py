"""Outside-in spans around pmquad's public functions.

Nothing is added inside the package: ``Tracer.install`` rebinds each traced
function, in every pmquad module that holds it, to a wrapper that records a
span (name, start, end, parent, job) and the call's work counters.  Spans
stay in memory; ``summary`` turns one pass of them into per-layer self times
and counters, and ``write`` saves them all when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import time
from collections import Counter, defaultdict


def _points(args, kwargs, result):
    xs = args[0] if args else kwargs["xs"]
    return {"points": len(xs), "crossings": int(result)}


def _nodes(args, kwargs, result):
    return {"nodes": len(args[0] if args else kwargs["points"])}


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return arguments


def _simulate_many(fn):
    arguments = _bound(fn)

    def count(args, kwargs, result):
        a = arguments(args, kwargs)
        n, reps = a["n"], a["reps"]
        return {"boxes": reps * 2**n, "labels": reps * (2**n - 1) * (3 if a["two_d"] else 2)}

    return count


def _simulate_path(fn):
    arguments = _bound(fn)

    def count(args, kwargs, result):
        a = arguments(args, kwargs)
        return {"boxes": len(a["grid"]) * 2 ** a["n"]}

    return count


def _diagnostics(fn):
    arguments = _bound(fn)
    return lambda args, kwargs, result: {"cells": 4 ** arguments(args, kwargs)["n"]}


def _apply_k(fn):
    arguments = _bound(fn)
    return lambda args, kwargs, result: {"gridpoints": arguments(args, kwargs)["f"].grid.size}


# (module, function, counter factory or None).  Order does not matter: the
# call tree gives the nesting.
LAYERS = (
    ("cli", "main", None),
    ("specfun", "constants", None),
    ("harness", "run_experiment", None),
    ("harness", "aggregate", None),
    ("harness", "variance_se", None),
    ("harness", "run_check", None),
    ("harness", "emit_csv", None),
    ("quadtree", "sample_uniform_xy", None),
    ("quadtree", "sample_poisson_xy", None),
    ("quadtree", "sample_extension_xy", None),
    ("quadtree", "sample_uniform_points", None),
    ("quadtree", "build", lambda fn: _nodes),
    ("quadtree", "profile", None),
    ("quadtree", "supremum", None),
    ("quadtree", "line_cost", lambda fn: _points),
    ("kdtree", "line_cost", lambda fn: _points),
    ("limitproc", "simulate_many", _simulate_many),
    ("limitproc", "simulate_path", _simulate_path),
    ("limitproc", "diagnostics", _diagnostics),
    ("moments", "apply_K", _apply_k),
    ("moments", "second_moment_iterates", None),
)

# Counted but not given a span: one call per scheduled block of replications.
BLOCK_FN = ("harness", "_block_worker")

MODULES = ("cli", "harness", "quadtree", "kdtree", "limitproc", "moments", "specfun", "geom")


class Tracer:
    """Installs and removes the wrappers; owns the spans they record."""

    def __init__(self, pm):
        self._modules = [pm] + [getattr(pm, m) for m in MODULES]
        self.spans = []  # [name, start_ns, end_ns, parent index, job]
        self.counters = Counter()
        self.job = ""
        self.missing = []
        self._stack = []
        self._saved = []

    def _rebind(self, original, replacement):
        for mod in self._modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._saved.append((mod, attr, original))

    def _span_wrapper(self, name, fn, count):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                # a counter that no longer fits the signature is reported, not fatal
                try:
                    counts = count(args, kwargs, result)
                except (TypeError, KeyError, AttributeError, ValueError):
                    counts = {"counter_errors": 1}
                for key, value in counts.items():
                    counters[f"{name}.{key}"] += value
            return result

        return wrapper

    def _count_wrapper(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, layers=LAYERS):
        """Wrap ``layers``; a layer the package no longer has is listed in
        ``missing`` and reads as zero."""
        for mod_name, fn_name, factory in layers:
            fn = getattr(getattr(self._modules[0], mod_name), fn_name, None)
            name = f"{mod_name}.{fn_name}"
            if fn is None:
                self.missing.append(name)
                continue
            count = factory(fn) if factory is not None else None
            self._rebind(fn, self._span_wrapper(name, fn, count))
        fn = getattr(getattr(self._modules[0], BLOCK_FN[0]), BLOCK_FN[1], None)
        if fn is None:
            self.missing.append("harness.blocks")
        else:
            self._rebind(fn, self._count_wrapper("harness.blocks", fn))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    @contextlib.contextmanager
    def installed(self, layers=LAYERS):
        self.install(layers)
        try:
            yield self
        finally:
            self.uninstall()

    def summary(self, first_span: int) -> dict:
        """Per-layer values for the spans recorded from ``first_span`` on:
        ``<name>.calls``, ``<name>.self_s``, ``<name>.wall_s``."""
        spans = self.spans[first_span:]
        child = defaultdict(int)
        for _, start, end, parent, _ in spans:
            if parent >= first_span:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans, first_span):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start - child[i]) * 1e-9
            out[f"{name}.wall_s"] += (end - start) * 1e-9
        return dict(out)

    def write(self, path) -> None:
        """All spans as gzip CSV: name,start_ns,end_ns,parent,job."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,job\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name},{start},{end},{parent},{job}\n")
