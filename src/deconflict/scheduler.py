"""Greedy earliest-departure assignment for flight orders.

The scheduler walks a flight order. Each agent collects the forbidden span
of every already-scheduled agent, shifted by that agent's departure, and
takes the least instant t >= 0 that lies in none of them.

Forbidden spans are open, so their endpoints stay feasible: the separation
constraint is >= h and a tangent pass is allowed. The least feasible instant
is therefore 0 or the upper end of one of the spans.

One array step places the next agent of many partial orders at once.
`greedy_schedule` runs it on a single order; `order_tree` runs it once per
level of the permutation tree to place all N! orders. `schedules` turns
chosen rows into `Schedule` objects and finds their bindings.
"""

import functools
import operator
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .kinematics import IntervalKind, SeparationConfig, forbidden_interval

#: departure sits on a forbidden-span edge within this |difference| -> binding
BINDING_TOL = 1e-9


def total_of(departures):
    """d0 + d1 + ..., added left to right.

    Works on a sequence of floats and on the columns of a departures array
    (pass its transpose) alike, with the same float result. sum() is not
    used because it compensates from Python 3.12 on.
    """
    return functools.reduce(operator.add, departures, 0.0)


@dataclass(frozen=True)
class Schedule:
    """Departure times for one flight order.

    departures[i] is the departure (seconds, >= 0) of mission order[i].
    bindings[i] lists the earlier mission ids whose forbidden span edges
    the i-th departure sits on (its active constraints).
    """
    order: tuple[str, ...]
    departures: tuple[float, ...]
    bindings: tuple[tuple[str, ...], ...]

    @property
    def total_delay(self) -> float:
        return total_of(self.departures)

    @property
    def average_delay(self) -> float:
        """Arithmetic mean of the departure times."""
        if not self.departures:
            raise ValueError("schedule is empty")
        return self.total_delay / len(self.departures)


def pair_arrays(missions, cfg: SeparationConfig, pair_solver=forbidden_interval):
    """Forbidden spans of every ordered pair as two (n, n) arrays.

    lo[i, j], hi[i, j] bound the delays of missions[j] relative to
    missions[i]; both are NaN where the span is EMPTY and on the diagonal.
    Each unordered pair is solved once and mirrored as (-hi, -lo) for the
    reversed order, which keeps the two directions exactly consistent.
    Raises ValueError when two missions share an id.
    """
    ids = [m.id for m in missions]
    if len(set(ids)) != len(ids):
        raise ValueError(f"mission ids must be distinct, got {ids}")
    n = len(missions)
    lo = np.full((n, n), np.nan)
    hi = np.full((n, n), np.nan)
    for i, a in enumerate(missions):
        for j in range(i + 1, n):
            fi = pair_solver(a, missions[j], cfg)
            if fi.kind is IntervalKind.BOUNDED:
                lo[i, j], hi[i, j] = fi.lo, fi.hi
                back = fi.mirrored()
                lo[j, i], hi[j, i] = back.lo, back.hi
    return lo, hi


def place_next(lo, hi, prefix, deps, nxt):
    """Earliest free departure t (R,) of agent nxt[r] after the partial order prefix[r].

    prefix (R, k) holds agent indices, deps (R, k) their departures. The k
    spans of row r are shifted by the earlier departures. From t = 0, while
    some span has lo < t < hi, t moves to the largest such hi. Every move
    clears the spans it leaves behind, so k moves reach the least free
    instant.
    """
    col = nxt[:, None]
    los = lo[prefix, col] + deps
    his = hi[prefix, col] + deps
    t = np.zeros(len(nxt))
    for _ in range(prefix.shape[1]):
        inside = (los < t[:, None]) & (t[:, None] < his)
        if not inside.any():
            break
        t = np.maximum(t, np.where(inside, his, -np.inf).max(axis=1))
    return t


def order_tree(lo, hi):
    """Greedy departures of all n! orders of agents 0..n-1.

    The permutation tree is grown one level at a time: each prefix row gets
    one child per remaining agent, in ascending index order, so the last
    level lists the orders lexicographically. Returns the (n!, n) orders and
    their (n!, n) departures.
    """
    n = len(lo)
    prefix = np.empty((1, 0), dtype=np.intp)
    deps = np.empty((1, 0))
    rest = np.arange(n)[None, :]  # agents not yet placed, ascending, per row
    for k in range(n):
        m = n - k
        nxt = rest.ravel()
        rest = rest[:, [[c for c in range(m) if c != j] for j in range(m)]]
        rest = rest.reshape(len(nxt), m - 1)
        prefix = np.repeat(prefix, m, axis=0)
        deps = np.repeat(deps, m, axis=0)
        t = place_next(lo, hi, prefix, deps, nxt)
        prefix = np.concatenate((prefix, nxt[:, None]), axis=1)
        deps = np.concatenate((deps, t[:, None]), axis=1)
    return prefix, deps


def schedules(ids, hi, orders, deps) -> list[Schedule]:
    """Schedule objects for the rows of orders (R, n) and departures (R, n).

    orders indexes ids and hi, as pair_arrays built them. Position j is
    bound to each earlier position i whose span's upper end, shifted by the
    departure at i, lies within BINDING_TOL of the departure at j. The
    float operations are those of place_next, so the bindings are the edges
    the placement stopped on.
    """
    id_rows = list(map(tuple, np.array(ids, dtype=object)[orders].tolist()))
    near = [(np.abs(deps[:, j:j + 1] - (hi[orders[:, :j], orders[:, j:j + 1]]
                                        + deps[:, :j])) <= BINDING_TOL).tolist()
            for j in range(orders.shape[1])]
    return [Schedule(order=o, departures=tuple(d),
                     bindings=tuple(tuple(compress(o, m[r])) for m in near))
            for r, (o, d) in enumerate(zip(id_rows, deps.tolist()))]


def greedy_schedule(order, cfg: SeparationConfig,
                    pair_solver=forbidden_interval) -> Schedule:
    """Assign each mission the earliest departure compatible with all earlier ones.

    Missions are processed in the given order. For agent j the span of every
    earlier agent i is shifted by i's departure and kept in full, including
    its negative-delay part, so the result is safe for all pairs even when
    the greedy choice reverses the departure order. The first agent always
    departs at t = 0. Mission ids must be distinct.
    """
    missions = list(order)
    ids = [m.id for m in missions]
    lo, hi = pair_arrays(missions, cfg, pair_solver)
    row = np.arange(len(ids))[None, :]
    deps = np.empty((1, 0))
    for k in range(len(ids)):
        t = place_next(lo, hi, row[:, :k], deps, row[0, k:k + 1])
        deps = np.concatenate((deps, t[:, None]), axis=1)
    return schedules(ids, hi, row, deps)[0]
