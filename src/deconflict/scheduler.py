"""Greedy earliest-departure assignment for a fixed flight order.

The scheduler walks the flight order. Each agent collects the forbidden span
of every already-scheduled agent, shifted by that agent's departure, and
takes the least instant t >= 0 that lies in none of them.

Forbidden spans are open, so their endpoints stay feasible: the separation
constraint is >= h and a tangent pass is allowed. The least feasible instant
is therefore 0 or the upper end of one of the spans.
"""

from dataclasses import dataclass

from .kinematics import (ForbiddenInterval, IntervalKind, SeparationConfig,
                         forbidden_interval)

#: departure sits on a forbidden-span edge within this |difference| -> binding
BINDING_TOL = 1e-9


@dataclass(frozen=True)
class Schedule:
    """Departure times for one flight order.

    entries pair each mission id with its departure (seconds, >= 0), in
    order. bindings[i] lists the earlier mission ids whose forbidden span
    edges the i-th departure sits on (its active constraints).
    """
    entries: tuple[tuple[str, float], ...]
    order: tuple[str, ...]
    bindings: tuple[tuple[str, ...], ...]

    @property
    def departures(self) -> tuple[float, ...]:
        return tuple(dep for _, dep in self.entries)

    def departure_of(self, mission_id: str) -> float:
        for mid, dep in self.entries:
            if mid == mission_id:
                return dep
        raise KeyError(mission_id)

    @property
    def total_delay(self) -> float:
        return sum(self.departures)


def compute_pair_intervals(missions, cfg: SeparationConfig,
                           pair_solver=forbidden_interval) -> dict:
    """Forbidden interval for every ordered pair of missions.

    Solves each unordered pair once and mirrors it for the reversed order,
    which keeps the two directions exactly consistent.
    """
    table: dict[tuple[str, str], ForbiddenInterval] = {}
    for i, a in enumerate(missions):
        for b in missions[i + 1:]:
            fi = pair_solver(a, b, cfg)
            table[(a.id, b.id)] = fi
            table[(b.id, a.id)] = fi.mirrored()
    return table


def greedy_schedule(order, cfg: SeparationConfig, pair_intervals=None) -> Schedule:
    """Assign each mission the earliest departure compatible with all earlier ones.

    Missions are processed in the given order. For agent j the span of every
    earlier agent i is shifted by i's departure and kept in full, including
    its negative-delay part, so the result is safe for all pairs even when
    the greedy choice reverses the departure order. The spans are swept in
    order of their lower end from t = 0: a span that starts before t and
    ends after it moves t to its end, and the first span that starts at or
    after t ends the sweep, since t lies in none of the spans left. The
    first agent always departs at t = 0.
    """
    missions = list(order)
    ids = [m.id for m in missions]
    if len(set(ids)) != len(ids):
        raise ValueError(f"mission ids must be distinct, got {ids}")
    if pair_intervals is None:
        pair_intervals = compute_pair_intervals(missions, cfg)

    departures: list[float] = []
    bindings: list[tuple[str, ...]] = []
    for j, mid in enumerate(ids):
        spans: list[tuple[float, float, str]] = []
        for i in range(j):
            fi = pair_intervals[(ids[i], mid)]
            if fi.kind is IntervalKind.BOUNDED:
                spans.append((*fi.shifted(departures[i]), ids[i]))
        t = 0.0
        for lo, hi, _ in sorted(spans):
            if lo >= t:
                break
            if hi > t:
                t = hi
        departures.append(t)
        bindings.append(tuple(other for _, hi, other in spans
                              if abs(t - hi) <= BINDING_TOL))

    return Schedule(entries=tuple(zip(ids, departures)),
                    order=tuple(ids),
                    bindings=tuple(bindings))
