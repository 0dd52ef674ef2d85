#!/usr/bin/env python3
"""Benchmark of deconflict's hot path: one workload per run, or all of them.

    python3 perfbench/run.py --workload mc_sparse --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

Workloads (see workloads.py): mc_sparse, mc_dense, atlanta_sweep, verify.
A run builds the workload's inputs from --seed and solves them in whole
passes, in a closed loop with one client, in this process, on the numpy
backend with workers=1: at least MIN_PASSES passes, and until --seconds
have elapsed. The output checks, counts and digest come from the first
pass and run outside the timed loop.

--trace 0 prints the end-to-end metrics. Solve times are each input's
fastest repeat, corrected for the machine's speed (see timing.py); the
measured figures are printed beside them on "info" lines. --trace 1 is
the separate traced run: it alternates untraced and traced passes over the
same inputs and prints the per-layer metrics (measured, not corrected) and
the tracing overhead between the two kinds of pass.

Every line but the last is for people. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import dataclasses
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from timing import Timings, run_passes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("mc_sparse", "mc_dense", "atlanta_sweep", "verify")
#: fresh interpreters launched to time set-up; the median is reported
SETUP_LAUNCHES = 5
#: an untraced run makes at least this many passes over its inputs
MIN_PASSES = 3
#: scenario.pool_speedup_w2: mc_sparse topologies per timing, and repeats
POOL_TOPOLOGIES = (100, 8)
POOL_REPEATS = 3
#: modules whose self-time share of the traced wall time is reported
MODULES = ("kinematics", "scheduler", "optimizer", "oracle", "scenario",
           "statfit", "geo", "atlanta")
#: a p90 is printed only over at least this many inputs
MIN_P90_SAMPLES = 100

END_TO_END = {
    "solves_per_s": "1/s",
    "solve_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "kinematics.forbidden_interval_us_p50": "us",
    "kinematics.forbidden_interval_us_p90": "us",
    "kinematics.pairs": "count",
    "kinematics.pairs_bounded": "count",
    "scheduler.greedy_schedule_us_p50": "us",
    "scheduler.orders": "count",
    "scheduler.bindings": "count",
    "optimizer.self_ms": "ms",
    "oracle.delta_grid_ms": "ms",
    "oracle.distance_evals": "count",
    "oracle.schedule_check_ms": "ms",
    "scenario.generate_topology_us": "us",
    "scenario.topologies": "count",
    "scenario.rejected": "count",
    "scenario.pool_speedup_w2": "x",
    "statfit.fit_report_ms": "ms",
    "statfit.samples": "count",
    "statfit.excluded_nonpositive": "count",
    "geo.load_ms": "ms",
    **{f"{m}.share": "fraction" for m in MODULES},
    "trace.overhead_frac": "fraction",
}


def child_env():
    """Environment for child interpreters: absolute src path, numpy backend."""
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["DECONFLICT_NUMBA"] = "0"
    return env


def import_deconflict():
    """Import deconflict from this checkout's src, or exit with an error."""
    if not (SRC / "deconflict" / "__init__.py").is_file():
        sys.exit(f"perfbench: no deconflict sources under {SRC}")
    os.environ["DECONFLICT_NUMBA"] = "0"
    sys.path.insert(0, str(SRC))
    import deconflict
    if Path(deconflict.__file__).resolve().parent != SRC / "deconflict":
        sys.exit(f"perfbench: imported deconflict from {deconflict.__file__}, not {SRC}")
    return deconflict


def environment(deconflict):
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": deconflict.KERNEL_BACKEND,
        "numba": "absent" if importlib.util.find_spec("numba") is None else "present",
        "nproc": len(os.sched_getaffinity(0)),
    }


def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def check_outputs(wl, api, items, first):
    """Run the output checks on the first pass: (attempted, failed, correct)."""
    outputs, extra = first
    failed = 0
    correct = True
    for item, out in zip(items, outputs):
        if not wl.check(api, item, out):
            failed += 1
            # inputs that probe a known defect count as failed, but they do
            # not clear `correct`, which flags failures anywhere else
            correct = correct and wl.known_defect(item)
    attempted = len(outputs)
    if extra is not None:  # the per-pass result (the fit) is one more operation
        attempted += 1
        if not wl.check_pass(outputs, extra):
            failed += 1
            correct = False
    return attempted, failed, correct


def measure_setup(workload, seed, tiny):
    """Median wall time of fresh interpreters that import deconflict and build inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, env=child_env(), cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def untraced(wl, items, args):
    from workloads import Api
    api = Api()
    wl.solve(api, items[0])  # warm-up, untimed
    timings, first = run_passes(lambda it: wl.solve(api, it),
                                lambda outs: wl.end_pass(api, outs),
                                items, args.seconds, MIN_PASSES)
    attempted, failed, correct = check_outputs(wl, api, items, first)
    setup_s = measure_setup(args.workload, args.seed, args.tiny)
    solve_ms = [t * 1e3 for t in timings.solve_times(corrected=True)]
    metrics = {
        "solves_per_s": len(solve_ms) / timings.pass_seconds(corrected=True),
        "solve_ms_p50": median(solve_ms),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = sum(timings.walls)
    measured_ms = [t * 1e3 for t in timings.solve_times(corrected=False)]
    print(f"solves {timings.solve_count()} in {len(timings.walls)} passes over "
          f"{len(items)} inputs, {wall:.3f} s")
    print(f"info measured solves_per_s {timings.solve_count() / wall:.4f} over all passes, "
          f"{len(measured_ms) / timings.pass_seconds(corrected=False):.4f} at fastest repeats")
    print(f"info measured solve_ms_p50 {median(measured_ms):.4f} at fastest repeats")
    if len(solve_ms) >= MIN_P90_SAMPLES:
        print(f"info solve_ms_p90 {percentile(solve_ms, 90):.4f} ms corrected, "
              f"{percentile(measured_ms, 90):.4f} ms measured (n={len(solve_ms)})")
    print(f"info failed_frac {failed / attempted:.4f} (failed {failed} of {attempted})")
    return metrics, attempted, failed, correct, first


class LayerStats:
    """Per-layer aggregates over the spans of several traced passes."""

    def __init__(self):
        self.durations = {}
        self.module_self = dict.fromkeys(MODULES, 0)
        self.optimizer_self = []
        self.wall_ns = 0.0

    def add(self, spans, wall_s):
        from spans import module_self_per_root, module_self_totals
        for name, t0, t1, _, _ in spans:
            self.durations.setdefault(name, []).append(t1 - t0)
        for module, ns in module_self_totals(spans).items():
            if module in self.module_self:
                self.module_self[module] += ns
        self.optimizer_self.extend(module_self_per_root(spans, "optimizer"))
        self.wall_ns += wall_s * 1e9

    def pct(self, name, q, unit_ns):
        return percentile(self.durations.get(name, []), q) / unit_ns


def pool_speedup(seed, tiny):
    """run_monte_carlo fastest wall time at workers=1 over workers=2, mc_sparse inputs."""
    from deconflict import run_monte_carlo
    from workloads import WORKLOADS
    base = WORKLOADS["mc_sparse"].inputs(seed, tiny)[0]
    walls = {1: [], 2: []}
    for _ in range(POOL_REPEATS):
        for workers in (1, 2):
            t0 = perf_counter()
            run_monte_carlo(n_agents=4, n_topologies=POOL_TOPOLOGIES[tiny],
                            base_seed=base, workers=workers)
            walls[workers].append(perf_counter() - t0)
    return min(walls[1]) / min(walls[2])


def traced(wl, items, args):
    from spans import Tracer, durations
    from workloads import Api
    real = Api()
    tracer = Tracer()
    tapi = tracer.api(real)
    solve = tracer.wrap("bench.solve", wl.solve)
    end_pass = tracer.wrap("bench.end_pass", wl.end_pass)
    wl.solve(real, items[0])  # warm-up, untimed
    stats = LayerStats()
    plain = Timings(len(items))
    timed = Timings(len(items))
    counts = first = None
    start = perf_counter()
    while first is None or perf_counter() - start < args.seconds:
        run_passes(lambda it: wl.solve(real, it), lambda outs: wl.end_pass(real, outs),
                   items, 0.0, 1, plain)
        tracer.counts.clear()
        with tracer.patched(tapi):
            _, pass_first = run_passes(lambda it: solve(tapi, it),
                                       lambda outs: end_pass(tapi, outs),
                                       items, 0.0, 1, timed)
        stats.add(tracer.take(), timed.walls[-1])
        if first is None:
            first, counts = pass_first, dict(tracer.counts)
    check_api = dataclasses.replace(real, schedule_is_safe=tapi.schedule_is_safe)
    attempted, failed, correct = check_outputs(wl, check_api, items, first)
    check_spans = tracer.take()
    counts.update({k: v for k, v in wl.counts(items, *first).items()
                   if k.startswith("oracle.")})
    metrics = {
        "kinematics.forbidden_interval_us_p50":
            stats.pct("kinematics.forbidden_interval", 50, 1e3),
        "kinematics.forbidden_interval_us_p90":
            stats.pct("kinematics.forbidden_interval", 90, 1e3),
        "kinematics.pairs": counts.get("kinematics.pairs", 0),
        "kinematics.pairs_bounded": counts.get("kinematics.pairs_bounded", 0),
        "scheduler.greedy_schedule_us_p50": stats.pct("scheduler.greedy_schedule", 50, 1e3),
        "scheduler.orders": counts.get("scheduler.orders", 0),
        "scheduler.bindings": counts.get("scheduler.bindings", 0),
        "optimizer.self_ms": median(stats.optimizer_self) / 1e6,
        "oracle.delta_grid_ms": stats.pct("oracle.delta_grid_min_sep_sq", 50, 1e6),
        "oracle.distance_evals": counts.get("oracle.distance_evals", 0),
        "oracle.schedule_check_ms":
            median(durations(check_spans, "oracle.schedule_is_safe")) / 1e6,
        "scenario.generate_topology_us": stats.pct("scenario.generate_topology", 50, 1e3),
        "scenario.topologies": counts.get("scenario.topologies", 0),
        "scenario.rejected": counts.get("scenario.rejected", 0),
        "scenario.pool_speedup_w2": pool_speedup(args.seed, args.tiny),
        "statfit.fit_report_ms": stats.pct("statfit.fit_report", 50, 1e6),
        "statfit.samples": counts.get("statfit.samples", 0),
        "statfit.excluded_nonpositive": counts.get("statfit.excluded_nonpositive", 0),
        "geo.load_ms": stats.pct("geo.load_missions", 50, 1e6),
        **{f"{m}.share": stats.module_self[m] / stats.wall_ns for m in MODULES},
        "trace.overhead_frac": (timed.pass_seconds(corrected=True)
                                / plain.pass_seconds(corrected=True) - 1.0),
    }
    print(f"{len(timed.walls)} traced and {len(plain.walls)} untraced passes over "
          f"{len(items)} inputs, {sum(timed.walls) + sum(plain.walls):.3f} s")
    print(f"info failed_frac {failed / attempted:.4f} (failed {failed} of {attempted})")
    return metrics, attempted, failed, correct, first


def run_one(args):
    deconflict = import_deconflict()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    items = wl.inputs(args.seed, args.tiny)
    if args.setup_only:
        return 0
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}{' tiny' if args.tiny else ''}")
    print("env " + " ".join(f"{k}={v}" for k, v in environment(deconflict).items()))
    run = traced if args.trace else untraced
    metrics, attempted, failed, correct, first = run(wl, items, args)
    for name, value in sorted(wl.counts(items, *first).items()):
        print(f"count {name} {value}")
    print(f"digest {wl.digest(*first)}")
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in its own interpreter."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace_flag in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace_flag)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True,
                                  stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few inputs per workload (for the self-test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="import deconflict and build the inputs, then exit")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
