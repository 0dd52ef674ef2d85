"""The benchmark's hold on the library: perfbench's tracer and workloads still
find every name they look up in deconflict, and each workload's tiny inputs
pass their output checks when run through the traced API.

perfbench/ is only read: its modules are loaded from their files without
writing bytecode next to them.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
#: the seed of the benchmark's recorded runs
SEED = 5


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


spans = _load("spans")
workloads = _load("workloads")


@pytest.mark.parametrize("name", [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_tiny_workload_passes_its_checks_traced(name):
    wl = workloads.WORKLOADS[name]
    items = wl.inputs(SEED, True)
    tracer = spans.Tracer()
    api = tracer.api(workloads.Api())
    with tracer.patched(api):
        outputs = [wl.solve(api, item) for item in items]
        extra = wl.end_pass(api, outputs)
    assert tracer.take(), "the traced API recorded no span"
    failed = [item for item, out in zip(items, outputs)
              if not wl.check(api, item, out)]
    assert failed == []
    assert extra is None or wl.check_pass(outputs, extra)
