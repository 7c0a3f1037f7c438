"""The benchmark's own output checks pass at full size.

``perfbench/workloads.py`` checks each unit of work against stored
references: the sweep's c_r at rtol 1e-9, the disk's lambda and the
square's closed-form oracle at rtol 1e-8, and every verify check passing.
Running one unit of each workload here makes a change that moves a
reference fail the test suite, not only a benchmark run.  The module is
loaded from its file, as the benchmark runner loads it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["sweep_rect48", "eig_n128", "verify_all"])
def test_one_unit_passes_its_checks(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    configs = workload.configs(11, False, str(tmp_path))
    paths = {}
    for label, cfg in configs.items():
        paths[label] = tmp_path / f"config-{label}.json"
        paths[label].write_text(json.dumps(cfg), encoding="utf-8")
    ctx = workload.setup({label: str(p) for label, p in paths.items()}, 11)
    attempted, failures = workload.check(ctx, workload.run(ctx))
    assert attempted > 0 and failures == []
