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
