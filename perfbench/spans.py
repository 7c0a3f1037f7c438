"""Spans around the calls into segpart's layers, recorded from outside.

``install`` replaces module attributes of ``segpart.grid``, ``eigensolve``,
``monotonicity``, ``partition`` and ``io`` with timing wrappers.  Every
segpart module that imported one of those functions by name gets the
wrapper as well, so ``partition.first_dirichlet_eig`` and
``cli.optimize`` are timed like the originals.  No file of the package
changes.

A span is ``(name, start, end, parent)``.  Spans stay in memory and are
written out by the caller when the run ends.  A layer's self time is its
spans' durations minus the durations of their direct children; its
inclusive time counts only spans with no enclosing span of the same name
(``profile_for_lambda`` calls ``build_radial_profile``).

``Tracer.overhead_s`` sums the time each wrapper spends outside its span:
recording the span and running the counter hooks.  Traced wall time minus
that sum is what the same unit costs untraced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# span name -> (module, attribute) pairs it covers
LAYERS = {
    "grid.distance": [("grid", "distance_transform"), ("grid", "_distance_to")],
    "grid.dilate": [("grid", "dilate")],
    "grid.erode": [("grid", "erode")],
    "grid.norms": [("grid", "norms")],
    "eigensolve.eig": [("eigensolve", "first_dirichlet_eig")],
    "eigensolve.laplacian": [("eigensolve", "masked_laplacian")],
    "eigensolve.shooting": [("eigensolve", "radial_ground_state")],
    "eigensolve.cap": [("eigensolve", "cap_eigenvalue")],
    "eigensolve.poincare": [("eigensolve", "poincare_check")],
    "monotonicity.profile": [
        ("monotonicity", "build_radial_profile"),
        ("monotonicity", "profile_for_lambda"),
    ],
    "monotonicity.functional": [
        ("monotonicity", "mean_value_check"),
        ("monotonicity", "acf_psi_functional"),
        ("monotonicity", "cjk_product"),
    ],
    "partition.optimize": [("partition", "optimize")],
    "partition.init": [("partition", "init_partition")],
    "partition.relax": [("partition", "relax_step")],
    "partition.warmstart": [
        ("partition", "_restore_feasibility"),
        ("partition", "_state_from_supports"),
    ],
    "io.write": [("io", "atomic_write_bytes")],
}
ROOT = "workload"

# modules scanned for by-name imports of a wrapped function
_MODULES = ("", ".grid", ".eigensolve", ".monotonicity", ".partition", ".io", ".cli")

# counters a layer adds besides its call count; the call count of
# partition.init is the number of restarts
COUNTERS = {
    "eigensolve.eig.iterations": "count",
    "eigensolve.eig.nodes": "count",
    "io.write.bytes": "B",
}
CALLS_NAME = {"partition.init": "partition.restarts"}


def _eig_counts(tracer, bound, result):
    allowed = bound.arguments.get("allowed")
    nodes = bound.arguments["domain"].mask if allowed is None else allowed.nodes
    tracer.counters["eigensolve.eig.iterations"] += result.iterations
    tracer.counters["eigensolve.eig.nodes"] += int(nodes.sum())


def _relax_counts(tracer, bound, result):
    # a useful pass lowers c by more than tol_outer, the rule optimize uses
    # to count quiet passes
    old, prob = bound.arguments["state"], bound.arguments["prob"]
    drop = (old.c - result.c) / max(abs(old.c), 1e-300)
    if drop > prob.tol_outer:
        tracer.useful_passes += 1


def _write_counts(tracer, bound, result):
    tracer.counters["io.write.bytes"] += len(bound.arguments["data"])


_HOOKS = {
    "eigensolve.eig": _eig_counts,
    "partition.relax": _relax_counts,
    "io.write": _write_counts,
}


def _calls_key(name: str) -> str:
    return CALLS_NAME.get(name, f"{name}.calls")


def layer_units() -> dict:
    """Unit of every metric ``Tracer.layer_metrics`` returns."""
    units = {}
    for name in [ROOT, *LAYERS]:
        if name != ROOT:  # the root span runs once per unit
            units[_calls_key(name)] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units["partition.useful_pass_ratio"] = "ratio"
    return units


class Tracer:
    """In-memory span and counter store for one traced unit of work."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.useful_passes = 0
        self.overhead_s = 0.0
        self._stack: list[int] = []

    def span(self, name: str):
        """Context manager recording one span under the current one."""
        return _Span(self, name)

    def wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if hook:
                hook(self, sig.bind(*args, **kwargs), result)
            _, start, end, _ = self.spans[sp.idx]
            self.overhead_s += (time.perf_counter() - t0) - (end - start)
            return result

        return wrapper

    def layer_metrics(self) -> dict:
        """Calls, inclusive and self seconds per layer, plus counters."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = dict.fromkeys(layer_units(), 0)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if name != ROOT:
                out[_calls_key(name)] += 1
            out[f"{name}.self_s"] += (end - start) - child_s[idx]
            if not self._has_ancestor(idx, name):
                out[f"{name}.s"] += end - start
        out.update(self.counters)
        passes = out["partition.relax.calls"]
        out["partition.useful_pass_ratio"] = self.useful_passes / passes if passes else 0.0
        return out

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def records(self, origin: float) -> list[dict]:
        """Spans with times in seconds from ``origin``."""
        return [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p}
            for n, s, e, p in self.spans
        ]


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.idx = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent])
        t._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.idx][2] = time.perf_counter()
        t._stack.pop()
        return False


def install(tracer: Tracer):
    """Wrap every layer function in ``tracer``; returns a callable that
    puts the originals back."""
    modules = [importlib.import_module("segpart" + m) for m in _MODULES]
    originals = []
    for name, targets in LAYERS.items():
        for mod_name, attr in targets:
            fn = getattr(importlib.import_module(f"segpart.{mod_name}"), attr)
            wrapper = tracer.wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        originals.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def restore():
        for mod, key, fn in originals:
            setattr(mod, key, fn)

    return restore
