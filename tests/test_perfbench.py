"""The benchmark's hold on the library: perfbench's tracer and workloads still
find every name they look up in deconflict, each workload's tiny inputs
pass their output checks when run through the traced API, and one full
pass of each workload at the recorded seed gives its recorded digest.

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
#: the digest `perfbench/run.py --seed 5` prints for each workload; the
#: outputs it hashes do not depend on speed, so a faster program keeps them
DIGESTS = {
    "mc_sparse": "86e4e006ab37c44b",
    "mc_dense": "6a0472673ea8b8e4",
    "atlanta_sweep": "1306ca73c3005883",
    "verify": "604ffcde5cd2723b",
}
WORKLOAD_NAMES = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"]]


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


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
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


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_full_pass_keeps_the_recorded_digest(name):
    # one untimed pass over the full inputs, as run.py's first pass
    wl = workloads.WORKLOADS[name]
    api = workloads.Api()
    outputs = [wl.solve(api, item) for item in wl.inputs(SEED, False)]
    assert wl.digest(outputs, wl.end_pass(api, outputs)) == DIGESTS[name]
