"""The benchmark's workloads: seeded inputs, the timed solve, output checks.

A solve is one Monte Carlo topology (mc_sparse, mc_dense), one Atlanta case
(atlanta_sweep) or one verified pair (verify). Each run is a closed loop
with one client: the next solve starts when the previous one returns.
Checks, counts and digests are computed outside the timed loop.
"""

import dataclasses
import hashlib
import itertools
import math

import numpy as np

from deconflict import atlanta, oracle, statfit
from deconflict.geo import minutes_to_seconds
from deconflict.kinematics import (IntervalKind, Mission, SeparationConfig,
                                   Vec2, forbidden_interval)
from deconflict.scenario import AirspaceConfig, generate_topology, run_monte_carlo
from deconflict.scheduler import greedy_schedule

U64 = 0xFFFFFFFFFFFFFFFF
#: separation radius of the reference 20 m box
UNIT_H = 1.5
UNIT_CFG = SeparationConfig(h=UNIT_H)
#: AC2 rule: delay grid step, oracle sampling step, and the boundary band
GRID = 0.05
BAND = 2.0 * UNIT_CFG.tol
#: oracle sampling step of the schedule checks (as in AC1)
SCHEDULE_DT = 0.01


@dataclasses.dataclass(frozen=True)
class Api:
    """The public deconflict functions the workloads call; traced runs swap them."""
    run_monte_carlo: object = run_monte_carlo
    fit_report: object = statfit.fit_report
    case_study: object = atlanta.case_study
    forbidden_interval: object = forbidden_interval
    delta_grid_min_sep_sq: object = oracle.delta_grid_min_sep_sq
    schedule_is_safe: object = oracle.schedule_is_safe


def digest(parts) -> str:
    return hashlib.sha256(repr(list(parts)).encode()).hexdigest()[:16]


def grid_evals(dur_a, dur_b, deps_a, deps_b, dt) -> int:
    """Distance evaluations the oracle's sampling grid makes for these windows.

    Each co-airborne window [w0, w1] is sampled at w0 + i*dt for
    i = 0..int((w1 - w0)/dt), plus w1 itself. The ternary polish of
    refine=True is not counted.
    """
    w0 = np.maximum(deps_a, deps_b)
    w1 = np.minimum(deps_a + dur_a, deps_b + dur_b)
    span = (w1 - w0)[w0 <= w1]
    return int(np.sum(np.floor(span / dt) + 2.0))


class Workload:
    """Defaults shared by the workloads."""

    def end_pass(self, api, outputs):
        """Timed work done once per pass over the inputs; None if there is none."""
        return None

    @staticmethod
    def known_defect(item):
        """True for inputs that probe a defect the program is known to have."""
        return False


class MonteCarlo(Workload):
    """run_monte_carlo one topology at a time on the 20 m box, then fit_report.

    The inputs are topology seeds base ^ k, which is exactly what one
    run_monte_carlo(n_topologies=K, base_seed=base) call would draw.
    """

    def __init__(self, n_agents, n_topologies, tiny_topologies):
        self.n_agents = n_agents
        self.sizes = (n_topologies, tiny_topologies)

    def inputs(self, seed, tiny):
        base = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
        return [(base ^ k) & U64 for k in range(self.sizes[tiny])]

    def solve(self, api, topo_seed):
        return api.run_monte_carlo(n_agents=self.n_agents, n_topologies=1,
                                   base_seed=topo_seed, mode="pooled", workers=1)

    def end_pass(self, api, results):
        return api.fit_report(np.concatenate([r.delays for r in results]))

    def check_pass(self, results, report):
        n = sum(len(r.samples) for r in results)
        return report["n_samples"] + report["n_excluded_nonpositive"] == n

    def check(self, api, topo_seed, result):
        """The best order's greedy schedule reproduces the minimum delay and is safe."""
        if result.rejected_topologies:
            return True
        missions = sorted(generate_topology(
            AirspaceConfig(n_agents=self.n_agents, seed=topo_seed)), key=lambda m: m.id)
        delays = result.delays
        rank = int(np.argmin(delays))  # samples are in lexicographic order rank
        order = next(itertools.islice(itertools.permutations(missions), rank, None))
        schedule = greedy_schedule(order, UNIT_CFG)
        if not math.isclose(schedule.total_delay / self.n_agents, float(delays[rank]),
                            rel_tol=1e-6, abs_tol=1e-6):
            return False
        return api.schedule_is_safe(list(order), schedule.departures, UNIT_H,
                                    SCHEDULE_DT)

    def counts(self, items, results, report):
        solved = [r for r in results if not r.rejected_topologies]
        pairs = self.n_agents * (self.n_agents - 1) // 2
        return {
            "scenario.topologies": len(results),
            "scenario.rejected": len(results) - len(solved),
            "kinematics.pairs": pairs * len(solved),
            "scheduler.orders": sum(len(r.samples) for r in results),
            "statfit.samples": report["n_samples"],
            "statfit.excluded_nonpositive": report["n_excluded_nonpositive"],
        }

    def digest(self, results, report):
        delays = np.concatenate([r.delays for r in results])
        return digest([np.round(delays, 6).tolist(), report["selected"]])


class AtlantaSweep(Workload):
    """atlanta.case_study(h) over the sweep h = 50, 55, ..., 1000 m.

    A full sweep takes 12-25 s, so a run solves a seeded stratified half of
    it: one of the two values in every 10 m band, 96 cases that span the
    whole range, in a seeded order.
    """

    H_VALUES = tuple(50.0 + 5.0 * i for i in range(191))
    TINY_H = (50.0, 300.0, 650.0, 1000.0)

    def __init__(self):
        self._missions = None

    def inputs(self, seed, tiny):
        rng = np.random.default_rng(seed)
        if tiny:
            hs = list(self.TINY_H)
        else:
            bands = [self.H_VALUES[i:i + 2] for i in range(0, len(self.H_VALUES), 2)]
            hs = [band[rng.integers(len(band))] for band in bands]
        return [hs[i] for i in rng.permutation(len(hs))]

    def solve(self, api, h):
        return api.case_study(h)

    def _best(self, h, rep):
        if self._missions is None:
            self._missions = {m.id: m for m in atlanta.load_missions()}
        order = rep["best"]["order"]
        deps = [minutes_to_seconds(rep["best"]["departures_min"][mid]) for mid in order]
        return [self._missions[mid] for mid in order], deps

    def check(self, api, h, rep):
        """All 24 orders were evaluated and the best schedule is safe at h."""
        missions, deps = self._best(h, rep)
        return (rep["orders_evaluated"] == math.factorial(len(missions))
                and api.schedule_is_safe(missions, deps, h, SCHEDULE_DT))

    def counts(self, items, reports, extra):
        return {
            "atlanta.cases": len(reports),
            "kinematics.pairs": 6 * len(reports),
            "scheduler.orders": sum(r["orders_evaluated"] for r in reports),
        }

    def digest(self, reports, extra):
        return digest((r["h_m"], r["best"]["order"], round(r["best"]["total_delay_min"], 6))
                      for r in reports)


# --- verify: the AC2 rule on a seeded pair stream --------------------------

BOX_SIDE = 20.0
SPEED_RANGE = (0.66, 1.89)
#: family of each pair, cycled along the stream
FAMILIES = ("generic", "generic", "generic", "sliver", "equal_velocity",
            "generic", "generic", "generic", "sliver", "same_track")


def _box_mission(rng, mid):
    while True:
        x = rng.uniform(0.0, BOX_SIDE, 4)
        if math.hypot(x[2] - x[0], x[3] - x[1]) >= 1.0:
            break
    return Mission(id=mid, origin=Vec2(x[0], x[1]), destination=Vec2(x[2], x[3]),
                   speed=rng.uniform(*SPEED_RANGE))


def make_pair(rng, family):
    """One pair of the family; "sliver" is the witness scan's known blind spot.

    A sliver pair: a flies (0,0)->(10,0) and b flies (x0,20)->(x0, h - eps),
    both at 1 m/s. With eps ~ 2e-6 the pair conflicts only for a few
    milliseconds of delay around x0 - dur_b, narrower than the 0.01 s probe
    step of the witness-scan pair solver.
    """
    if family == "sliver":
        x0 = rng.uniform(2.0, 8.0)
        eps = rng.uniform(1e-6, 3e-6)
        return (Mission("a", Vec2(0.0, 0.0), Vec2(10.0, 0.0), 1.0),
                Mission("b", Vec2(x0, 20.0), Vec2(x0, UNIT_H - eps), 1.0))
    a = _box_mission(rng, "a")
    if family == "generic":
        return a, _box_mission(rng, "b")
    if family == "equal_velocity":
        shift = Vec2(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
        return a, Mission("b", a.origin + shift, a.destination + shift, a.speed)
    if family == "same_track":
        d = a.destination - a.origin
        u = d.scaled(1.0 / d.norm())
        s0 = rng.uniform(-5.0, 5.0)
        s1 = s0 + rng.uniform(2.0, 15.0) * (1.0 if rng.random() < 0.7 else -1.0)
        return a, Mission("b", a.origin + u.scaled(s0), a.origin + u.scaled(s1),
                          rng.uniform(*SPEED_RANGE))
    raise ValueError(family)


def _classify(fi, deltas):
    """(forbidden, allowed) masks of the solver's verdict, leaving out the
    2*tol band around its endpoints."""
    if fi.kind is not IntervalKind.BOUNDED:
        return np.zeros(deltas.shape, dtype=bool), np.ones(deltas.shape, dtype=bool)
    near = (np.abs(deltas - fi.lo) <= BAND) | (np.abs(deltas - fi.hi) <= BAND)
    inside = (deltas > fi.lo) & (deltas < fi.hi)
    return inside & ~near, ~inside & ~near


class Verify(Workload):
    """forbidden_interval checked against the oracle's delta grid (AC2 rule)."""

    def __init__(self, n_pairs, tiny_pairs):
        self.sizes = (n_pairs, tiny_pairs)

    def inputs(self, seed, tiny):
        rng = np.random.default_rng(seed)
        items = []
        for i in range(self.sizes[tiny]):
            family = FAMILIES[i % len(FAMILIES)]
            items.append((family, *make_pair(rng, family)))
        return items

    def solve(self, api, item):
        _, a, b = item
        fi = api.forbidden_interval(a, b, UNIT_CFG)
        deltas = np.arange(-b.duration - 0.5, a.duration + 0.5, GRID)
        seps = api.delta_grid_min_sep_sq(a, b, deltas, GRID, refine=True)
        return fi, deltas, seps

    def check(self, api, item, out):
        """AC2 rule, plus for sliver pairs no oracle conflict at an allowed delay."""
        family, a, b = item
        fi, deltas, seps = out
        hh = UNIT_H * UNIT_H
        conflicts = seps < hh
        forbidden, allowed = _classify(fi, deltas)
        if np.any(conflicts & allowed) or np.any(~conflicts & forbidden):
            return False
        if not conflicts.any() and fi.kind is IntervalKind.BOUNDED and fi.width > 2.0 * GRID:
            return False
        if family == "sliver":
            center = b.destination.x - b.duration  # a passes x0 as b arrives
            fine = center + np.linspace(-0.02, 0.02, 401)
            fine_seps = api.delta_grid_min_sep_sq(a, b, fine, GRID, refine=True)
            if np.any((fine_seps < hh) & _classify(fi, fine)[1]):
                return False
        return True

    @staticmethod
    def known_defect(item):
        """Sliver pairs probe the pair solver's known 0.01 s blind spot."""
        return item[0] == "sliver"

    def counts(self, items, outputs, extra):
        out = {f"verify.pairs_{f}": sum(1 for it in items if it[0] == f)
               for f in dict.fromkeys(FAMILIES)}
        out["kinematics.pairs"] = len(outputs)
        out["kinematics.pairs_bounded"] = sum(
            1 for fi, _, _ in outputs if fi.kind is IntervalKind.BOUNDED)
        out["oracle.distance_evals"] = sum(
            grid_evals(a.duration, b.duration, 0.0, deltas, GRID)
            for (_, a, b), (_, deltas, _) in zip(items, outputs))
        return out

    def digest(self, outputs, extra):
        return digest((fi.kind.value, round(fi.lo, 6), round(fi.hi, 6),
                       int(np.sum(seps < UNIT_H * UNIT_H)))
                      for fi, _, seps in outputs)


WORKLOADS = {
    "mc_sparse": MonteCarlo(n_agents=4, n_topologies=200, tiny_topologies=4),
    "mc_dense": MonteCarlo(n_agents=7, n_topologies=8, tiny_topologies=1),
    "atlanta_sweep": AtlantaSweep(),
    "verify": Verify(n_pairs=160, tiny_pairs=10),
}
