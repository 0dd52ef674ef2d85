#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, in both modes.

For each workload it runs run.py --tiny with --trace 0 and --trace 1 and
checks that the run exits 0, that every metric BENCHMARK.json lists for
that mode is printed with its unit (as a "metric" line and in the final
JSON object), and that the output checks pass (correct is true). It also
checks that BENCHMARK.json and run.py name the same workloads and metrics.

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def check_run(workload, trace, expected):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, env=run.child_env(), cwd=run.ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=300)
    errors = []
    if proc.returncode != 0:
        return [f"{workload} trace {trace}: exit code {proc.returncode}"]
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts[0] == "metric":
            printed[parts[1]] = parts[3]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{workload} trace {trace}: result keys {sorted(result)}")
    if set(result["metrics"]) != set(expected):
        errors.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(result['metrics']) ^ set(expected))}")
    for name, unit in expected.items():
        entry = result["metrics"].get(name)
        if entry is None or entry["unit"] != unit or printed.get(name) != unit:
            errors.append(f"{workload} trace {trace}: {name} not printed with unit {unit}")
        elif not isinstance(entry["value"], (int, float)):
            errors.append(f"{workload} trace {trace}: {name} value {entry['value']!r}")
    if not result["correct"]:
        errors.append(f"{workload} trace {trace}: output checks failed")
    if not result["attempted"] >= 1 or not 0 <= result["failed"] <= result["attempted"]:
        errors.append(f"{workload} trace {trace}: attempted {result['attempted']}, "
                      f"failed {result['failed']}")
    if not any(line.startswith("digest ") for line in lines):
        errors.append(f"{workload} trace {trace}: no digest line")
    return errors


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    if end_to_end != run.END_TO_END or per_layer != run.PER_LAYER:
        errors.append("BENCHMARK.json metrics differ from run.py")
    workloads = [w["name"] for w in spec["workloads"]]
    if workloads != list(run.WORKLOAD_NAMES):
        errors.append(f"BENCHMARK.json workloads {workloads} differ from run.py")
    for workload in run.WORKLOAD_NAMES:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            errors += check_run(workload, trace, expected)
            print(f"{workload} trace {trace}: done", flush=True)
    for e in errors:
        print("FAIL", e)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
