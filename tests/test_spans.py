"""The benchmark's span targets resolve on the package.

``perfbench/spans.py`` wraps segpart functions by ``(module, attribute)``
and its ``install`` fails on a missing attribute, so moving or renaming a
wrapped function would otherwise surface only in a traced benchmark run.
The module is loaded from its file, as the benchmark runner loads it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_target_resolves(spans):
    missing = [
        f"{name}: segpart.{mod}.{attr}"
        for name, targets in spans.LAYERS.items()
        for mod, attr in targets
        if not callable(getattr(importlib.import_module(f"segpart.{mod}"), attr, None))
    ]
    assert not missing


def test_install_wraps_every_target_and_restore_undoes_it(spans):
    modules = [importlib.import_module(f"segpart{m}") for m in spans._MODULES]
    before = {m.__name__: dict(vars(m)) for m in modules}
    restore = spans.install(spans.Tracer())
    try:
        for targets in spans.LAYERS.values():
            for mod, attr in targets:
                wrapper = getattr(sys.modules[f"segpart.{mod}"], attr)
                assert wrapper.__wrapped__ is before[f"segpart.{mod}"][attr]
    finally:
        restore()
    for m in modules:
        assert all(vars(m)[key] is value for key, value in before[m.__name__].items())


def test_a_traced_sweep_records_every_layer_it_runs(spans, monkeypatch):
    # a span whose target the sweep no longer calls reads 0 and times nothing
    from segpart import grid
    from segpart.partition import PartitionProblem, run_sweep

    inner = grid._holder_seminorm
    scans = []

    def counting(*args):
        scans.append(args)
        return inner(*args)

    monkeypatch.setattr(grid, "_holder_seminorm", counting)
    prob = PartitionProblem(grid.build_domain("rectangle", 32, 2.0, 1.0), k=2, r=1 / 8, seed=11)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        run_sweep(prob, [1 / 8, 1 / 16, 1 / 32, 1 / 64, 0.0])
    finally:
        restore()
    metrics = tracer.layer_metrics()
    layers = ["grid.norms", "grid.dilate", "grid.erode", "eigensolve.eig",
              "partition.optimize", "partition.init", "partition.relax", "partition.warmstart"]
    assert not [name for name in layers if metrics[spans._calls_key(name)] == 0]
    # dilation and erosion are offset unions, and no other step of a sweep
    # reads a distance, so the sweep runs no distance transform
    idle = ["grid.distance"]
    assert [metrics[spans._calls_key(name)] for name in idle] == [0] * len(idle)
    assert metrics["grid.norms.calls"] == len(scans) > 0
