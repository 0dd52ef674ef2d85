"""Shared helpers for the test suite: random-instance generators, scaled
and shifted copies of missions, the magnitude scale of the oracle's
rounding bound, a segment intersection test, the scalar greedy sweep, and
the environment for child interpreters."""

import itertools
import os
from fractions import Fraction
from pathlib import Path

import numpy as np

import deconflict
from deconflict.kinematics import ForbiddenInterval, IntervalKind, Mission, Vec2
from deconflict.scenario import SIDE, SPEED_RANGE

MIN_ROUTE_LEN = 1.0


def random_mission(rng: np.random.Generator, mid: str) -> Mission:
    while True:
        x = rng.uniform(0.0, SIDE, 4)
        if np.hypot(x[2] - x[0], x[3] - x[1]) >= MIN_ROUTE_LEN:
            break
    speed = rng.uniform(*SPEED_RANGE)
    return Mission(id=mid, origin=Vec2(x[0], x[1]),
                   destination=Vec2(x[2], x[3]), speed=speed)


def random_pair(rng: np.random.Generator, kind: str = "generic"):
    """Mission pairs: generic box pairs plus the degenerate families.

    kind "equal_velocity": identical speed and heading (zero relative
    velocity); "same_track": both missions on one line, any speeds.
    """
    a = random_mission(rng, "a")
    if kind == "generic":
        return a, random_mission(rng, "b")
    if kind == "equal_velocity":
        shift = Vec2(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
        return a, Mission(id="b", origin=a.origin + shift,
                          destination=a.destination + shift, speed=a.speed)
    if kind == "same_track":
        d = a.destination - a.origin
        u = d.scaled(1.0 / d.norm())
        s0 = rng.uniform(-5.0, 5.0)
        s1 = s0 + rng.uniform(2.0, 15.0) * (1.0 if rng.random() < 0.7 else -1.0)
        return a, Mission(id="b", origin=a.origin + u.scaled(s0),
                          destination=a.origin + u.scaled(s1),
                          speed=rng.uniform(*SPEED_RANGE))
    raise ValueError(kind)


def pair_stream(seed: int, n: int):
    """Deterministic pair mix: mostly generic, seasoned with degenerate cases."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        if i % 20 == 18:
            yield random_pair(rng, "equal_velocity")
        elif i % 20 == 19:
            yield random_pair(rng, "same_track")
        else:
            yield random_pair(rng, "generic")


def sliver_pair(x0: float, eps: float, h: float = 1.5):
    """a crosses x0 on the x axis; b flies down x = x0 and stops h - eps from it."""
    return (Mission("a", Vec2(0.0, 0.0), Vec2(10.0, 0.0), 1.0),
            Mission("b", Vec2(x0, 20.0), Vec2(x0, h - eps), 1.0))


def random_instance(rng: np.random.Generator, n: int) -> list:
    return [random_mission(rng, f"M{i + 1}") for i in range(n)]


def scaled(missions, factor: float = 1.0, shift: float = 0.0) -> list:
    """missions with every coordinate times factor plus shift, and every
    speed times factor, so each duration keeps its value up to rounding."""
    def point(p):
        return Vec2(p.x * factor + shift, p.y * factor + shift)

    return [Mission(m.id, point(m.origin), point(m.destination), m.speed * factor)
            for m in missions]


def magnitude_scale(a: Mission, ta, b: Mission, tb) -> Fraction:
    """S of the oracle's rounding bound for a departing ta and b departing
    tb, in exact arithmetic: the four origin coordinates plus the four
    velocity components times T, the largest magnitude of the two departure
    instants and the end of the co-airborne window, the earlier arrival."""
    ta, tb = Fraction(ta), Fraction(tb)
    end = min(ta + Fraction(a.duration), tb + Fraction(b.duration))
    t = max(abs(ta), abs(tb), abs(end))
    coords = sum(abs(Fraction(x)) for m in (a, b) for x in (m.origin.x, m.origin.y))
    speeds = sum(abs(Fraction(x)) for m in (a, b) for x in (m.velocity.x, m.velocity.y))
    return coords + speeds * t


def _orient(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(ax, ay, bx, by, px, py) -> bool:
    return (min(ax, bx) <= px <= max(ax, bx)
            and min(ay, by) <= py <= max(ay, by))


def segments_intersect(p1: Vec2, p2: Vec2, p3: Vec2, p4: Vec2) -> bool:
    """True when closed segments p1p2 and p3p4 share at least one point."""
    d1 = _orient(p3.x, p3.y, p4.x, p4.y, p1.x, p1.y)
    d2 = _orient(p3.x, p3.y, p4.x, p4.y, p2.x, p2.y)
    d3 = _orient(p1.x, p1.y, p2.x, p2.y, p3.x, p3.y)
    d4 = _orient(p1.x, p1.y, p2.x, p2.y, p4.x, p4.y)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0
            and (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0):
        return True
    if d1 == 0 and _on_segment(p3.x, p3.y, p4.x, p4.y, p1.x, p1.y):
        return True
    if d2 == 0 and _on_segment(p3.x, p3.y, p4.x, p4.y, p2.x, p2.y):
        return True
    if d3 == 0 and _on_segment(p1.x, p1.y, p2.x, p2.y, p3.x, p3.y):
        return True
    if d4 == 0 and _on_segment(p1.x, p1.y, p2.x, p2.y, p4.x, p4.y):
        return True
    return False


def reference_schedule(ids, pair_intervals):
    """Departures and bindings of one order by the scalar earliest-free sweep.

    pair_intervals maps (first id, second id) to a ForbiddenInterval. Each
    agent's shifted spans are swept in order of their lower end from t = 0:
    a span that starts before t and ends after it moves t to its end, and
    the first span that starts at or after t ends the sweep. Independent of
    the array step in deconflict.scheduler, which tests compare against it.
    """
    departures: list[float] = []
    bindings: list[tuple[str, ...]] = []
    for j, mid in enumerate(ids):
        spans = []
        for i in range(j):
            fi = pair_intervals[(ids[i], mid)]
            if fi.kind is IntervalKind.BOUNDED:
                spans.append((fi.lo + departures[i], fi.hi + departures[i], ids[i]))
        t = 0.0
        for lo, hi, _ in sorted(spans):
            if lo >= t:
                break
            if hi > t:
                t = hi
        departures.append(t)
        bindings.append(tuple(other for _, hi, other in spans if t == hi))
    return tuple(departures), tuple(bindings)


def reference_pairs(missions, cfg, pair_solver):
    """(first id, second id) -> ForbiddenInterval of every ordered pair, each
    unordered pair solved once and reversed as (-hi, -lo)."""
    missions = sorted(missions, key=lambda m: m.id)
    table = {}
    for i, a in enumerate(missions):
        for b in missions[i + 1:]:
            fi = pair_solver(a, b, cfg)
            table[(a.id, b.id)] = fi
            table[(b.id, a.id)] = (ForbiddenInterval.bounded(-fi.hi, -fi.lo)
                                   if fi.kind is IntervalKind.BOUNDED else fi)
    return table


def reference_row(order, pairs):
    """(order, departures, bindings, total, average) of one order from the
    scalar sweep. The total adds the departures in ascending order in a
    plain loop."""
    departures, bindings = reference_schedule(order, pairs)
    total = 0.0
    for d in sorted(departures):
        total += d
    return (order, departures, bindings, total, total / len(order))


def reference_order_table(missions, cfg, pair_solver):
    """reference_row of every order, in lexicographic id order."""
    pairs = reference_pairs(missions, cfg, pair_solver)
    return [reference_row(order, pairs)
            for order in itertools.permutations(sorted(m.id for m in missions))]


def child_env(base=None, **extra) -> dict:
    """Environment for a child interpreter that imports deconflict.

    Returns `base` (default: this process's environment) updated with
    `extra`, with the absolute directory holding the already imported
    deconflict package first on PYTHONPATH, so the child runs the same copy
    of the code whether it comes from a source tree or an install. Existing
    PYTHONPATH entries are kept after it.
    """
    env = dict(os.environ if base is None else base, **extra)
    root = str(Path(deconflict.__file__).resolve().parent.parent)
    paths = [root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env
