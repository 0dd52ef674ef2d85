"""Timed passes over a workload's inputs, corrected for the machine's speed.

On a shared host the same solve can take tens of percent longer for
minutes at a time while other tenants load the processor. Two measures keep
the figures steady:

* every input is solved in several passes and its fastest repeat is kept,
  since other load only ever adds time;
* a speed probe, a fixed task that does not use deconflict, runs after
  every PROBE_EVERY_S seconds of solving. Each solve is divided by the
  fastest probe within PROBE_WINDOW_S of it and multiplied by
  PROBE_REFERENCE_S. A corrected time is thus the time the solve would take
  on a machine where the probe takes PROBE_REFERENCE_S.

The measured (uncorrected) figures are reported beside the corrected ones.
"""

import bisect
import math
from time import perf_counter

import numpy as np

#: seconds of solving between two runs of the speed probe
PROBE_EVERY_S = 0.05
#: a solve is compared with probes that end within this many seconds of it
PROBE_WINDOW_S = 0.2
#: probe time of the reference machine the corrected times refer to
PROBE_REFERENCE_S = 0.002
#: a run stops solving after this long even inside a pass
MAX_LOOP_S = 120.0


def speed_probe():
    """A fixed interpreter-bound task with small numpy calls (about 2-4 ms)."""
    x = 0.0
    for i in range(6000):
        x += math.hypot(i * 0.5, x % 7.0)
    a = np.arange(256.0)
    for _ in range(150):
        x += float(np.min(a * 0.5 + x % 3.0))
    return x


class Timings:
    """Solve latencies and speed-probe times of repeated passes over n inputs.

    Slot n holds the per-pass work done after the last input (end_pass).
    """

    def __init__(self, n_items):
        self.n_items = n_items
        self.solves = []  # (end, seconds, slot)
        self.probes = []  # (end, seconds)
        self.walls = []
        self.probe()

    def probe(self):
        t0 = perf_counter()
        speed_probe()
        t1 = perf_counter()
        self.probes.append((t1, t1 - t0))

    def add(self, slot, t0, t1):
        self.solves.append((t1, t1 - t0, slot))
        if t1 - self.probes[-1][0] >= PROBE_EVERY_S:
            self.probe()

    def best(self, corrected):
        """Fastest repeat of each slot: {slot: seconds}."""
        ends = [t for t, _ in self.probes]
        best = {}
        for t, dt, slot in self.solves:
            if corrected:
                lo = bisect.bisect_left(ends, t - dt - PROBE_WINDOW_S)
                hi = bisect.bisect_right(ends, t + PROBE_WINDOW_S)
                if lo == hi:  # no probe in the window: take the nearest one
                    lo = max(0, min(lo, len(ends) - 1))
                    hi = lo + 1
                fastest = min(d for _, d in self.probes[lo:hi])
                dt *= PROBE_REFERENCE_S / fastest
            best[slot] = min(dt, best.get(slot, math.inf))
        return best

    def solve_times(self, corrected):
        """Fastest repeat of each input, in input order."""
        best = self.best(corrected)
        return [best[i] for i in range(self.n_items) if i in best]

    def pass_seconds(self, corrected):
        """One pass with every solve, and the per-pass work, at its fastest."""
        return sum(self.best(corrected).values())

    def solve_count(self):
        return sum(1 for *_, slot in self.solves if slot < self.n_items)


def run_passes(solve, end_pass, items, seconds, min_passes, timings=None):
    """Solve `items` in whole passes: at least `min_passes`, and until `seconds` elapse.

    Only a run longer than MAX_LOOP_S stops inside a pass. Adds to and
    returns `timings`, with the first pass's (outputs, end_pass result).
    """
    timings = timings or Timings(len(items))
    first = None
    passes = 0
    start = perf_counter()
    while passes < min_passes or perf_counter() - start < seconds:
        t_pass = perf_counter()
        outputs = []
        for i, item in enumerate(items):
            t0 = perf_counter()
            outputs.append(solve(item))
            t1 = perf_counter()
            timings.add(i, t0, t1)
            if t1 - start >= MAX_LOOP_S:
                break
        t0 = perf_counter()
        extra = end_pass(outputs)
        t1 = perf_counter()
        timings.add(len(items), t0, t1)
        timings.walls.append(t1 - t_pass)
        passes += 1
        if first is None:
            first = (outputs, extra)
        if len(outputs) < len(items):
            break
    timings.probe()
    return timings, first
