"""In-memory spans and counters recorded around calls into deconflict.

Spans are taken only in the benchmark's own code: the benchmark calls the
public functions through wrappers, and for the calls the library makes
internally it swaps the module attribute the caller looks up for a wrapper,
restoring it afterwards. The library source is never changed.

A span is (name, start_ns, end_ns, parent, root); the module is the part of
the name before the first dot. A span's self time is its duration minus the
durations of its direct children.
"""

import contextlib
import dataclasses
from collections import defaultdict
from time import perf_counter_ns

from deconflict import atlanta, optimizer, scenario
from deconflict.kinematics import IntervalKind


class Tracer:
    """Span stack plus named counters for one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn, on_result=None):
        """fn wrapped so every call records a span (and, optionally, counts)."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            root = stack[0] if stack else idx
            spans.append((name, 0, 0, parent, root))
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, root)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def take(self):
        """Return the recorded spans and clear the list (no span may be open)."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    # counters recorded at the layer boundaries

    def _count_pair(self, fi):
        self.counts["kinematics.pairs"] += 1
        if fi.kind is IntervalKind.BOUNDED:
            self.counts["kinematics.pairs_bounded"] += 1

    def _count_schedule(self, schedule):
        self.counts["scheduler.orders"] += 1
        self.counts["scheduler.bindings"] += sum(len(b) for b in schedule.bindings)

    def _count_topology(self, _missions):
        self.counts["scenario.topologies"] += 1

    def _count_mc(self, result):
        self.counts["scenario.rejected"] += len(result.rejected_topologies)

    def _count_fit(self, report):
        self.counts["statfit.samples"] += report["n_samples"]
        self.counts["statfit.excluded_nonpositive"] += report["n_excluded_nonpositive"]

    def api(self, real):
        """A traced twin of the benchmark's call table `real`."""
        fi = self.wrap("kinematics.forbidden_interval",
                       real.forbidden_interval, self._count_pair)
        return dataclasses.replace(
            real,
            run_monte_carlo=self.wrap("scenario.run_monte_carlo",
                                      real.run_monte_carlo, self._count_mc),
            fit_report=self.wrap("statfit.fit_report", real.fit_report,
                                 self._count_fit),
            case_study=self.wrap("atlanta.case_study", real.case_study),
            forbidden_interval=fi,
            delta_grid_min_sep_sq=self.wrap("oracle.delta_grid_min_sep_sq",
                                            real.delta_grid_min_sep_sq),
            schedule_is_safe=self.wrap("oracle.schedule_is_safe",
                                       real.schedule_is_safe),
        )

    @contextlib.contextmanager
    def patched(self, traced_api):
        """Route the library's internal calls through span-recording wrappers."""
        fi = traced_api.forbidden_interval
        real_table = optimizer.per_order_table

        def per_order_table(missions, cfg, cap=optimizer.DEFAULT_ORDER_CAP,
                            pair_solver=None):
            return real_table(missions, cfg, cap=cap, pair_solver=fi)

        table = self.wrap("optimizer.per_order_table", per_order_table)
        swaps = [
            (scenario, "generate_topology",
             self.wrap("scenario.generate_topology", scenario.generate_topology,
                       self._count_topology)),
            (scenario, "per_order_table", table),
            (optimizer, "per_order_table", table),
            (optimizer, "greedy_schedule",
             self.wrap("scheduler.greedy_schedule", optimizer.greedy_schedule,
                       self._count_schedule)),
            (atlanta, "optimize_order",
             self.wrap("optimizer.optimize_order", atlanta.optimize_order)),
            (atlanta, "load_missions",
             self.wrap("geo.load_missions", atlanta.load_missions)),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in swaps]
        try:
            for mod, attr, fn in swaps:
                setattr(mod, attr, fn)
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def module_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Per-span self time in ns, aligned with `spans`."""
    child = [0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - c for (_, t0, t1, _, _), c in zip(spans, child)]


def durations(spans, name):
    return [t1 - t0 for n, t0, t1, _, _ in spans if n == name]


def module_self_totals(spans):
    """Total self time (ns) per module."""
    totals = defaultdict(int)
    for span, st in zip(spans, self_times(spans)):
        totals[module_of(span[0])] += st
    return totals


def module_self_per_root(spans, module):
    """Self time (ns) of `module` within each root span that touches it."""
    per_root = defaultdict(int)
    for span, st in zip(spans, self_times(spans)):
        if module_of(span[0]) == module:
            per_root[span[4]] += st
    return list(per_root.values())

