"""The benchmark's span targets resolve on the package.

``perfbench/spans.py`` wraps segpart functions by ``(module, attribute)``
and its ``install`` fails on a missing attribute, so moving or renaming a
wrapped function would otherwise surface only in a traced benchmark run.
The module is loaded from its file, as the benchmark runner loads it.
"""

import importlib
import importlib.util
import json
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


# spans that no workload calls, and why; each must read 0 calls on every
# workload, so re-pointing one makes this dict shrink
IDLE = {
    "eigensolve.laplacian": "the solver builds _lattice_block, not masked_laplacian",
    "eigensolve.shooting": "no check calls radial_ground_state",
    "eigensolve.poincare": "verify batches its balls through _poincare_quotients",
}


def test_every_span_records_a_call_on_some_workload(spans, tmp_path):
    # one full-size seed-11 unit of each workload, traced as the benchmark
    # traces it; a span no workload reaches times nothing
    path = SPANS_PATH.parent / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    calls = dict.fromkeys(spans.LAYERS, 0)
    for name, workload in workloads.WORKLOADS.items():
        paths = {}
        for label, cfg in workload.configs(11, False, str(tmp_path / name)).items():
            paths[label] = str(tmp_path / f"{name}-{label}.json")
            Path(paths[label]).write_text(json.dumps(cfg), encoding="utf-8")
        ctx = workload.setup(paths, 11)
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            workload.run(ctx)
        finally:
            restore()
        metrics = tracer.layer_metrics()
        for layer in calls:
            calls[layer] += metrics[spans._calls_key(layer)]
    assert set(IDLE) <= set(spans.LAYERS)
    assert [layer for layer in spans.LAYERS if layer not in IDLE and calls[layer] == 0] == []
    assert {layer: calls[layer] for layer in IDLE} == dict.fromkeys(IDLE, 0)
