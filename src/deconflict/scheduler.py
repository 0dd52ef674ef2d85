"""Greedy earliest-departure assignment for flight orders.

The scheduler walks a flight order. Each agent collects the forbidden span
of every already-scheduled agent, shifted by that agent's departure, and
takes the least instant t >= 0 that lies in none of them.

Forbidden spans are open, so their endpoints stay feasible: the separation
constraint is >= h and a tangent pass is allowed. The least feasible instant
is therefore 0 or the upper end of one of the spans.

One array step places the next agent of many partial orders at once.
`greedy_schedule` runs it on a single order; `order_tree` runs it once per
level of the permutation tree to place all N! orders.
"""

import functools
import operator
from dataclasses import dataclass
from itertools import chain, compress, repeat

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
        return total_of(self.departures)


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
    """Earliest free departure of agent nxt[r] after the partial order prefix[r].

    prefix (R, k) holds agent indices, deps (R, k) their departures. The k
    spans of row r are shifted by the earlier departures. From t = 0, while
    some span has lo < t < hi, t moves to the largest such hi. Every move
    clears the spans it leaves behind, so k moves reach the least free
    instant. Returns t (R,) and the (R, k) mask of the spans whose upper
    end t sits on within BINDING_TOL, in prefix order.
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
    return t, np.abs(t[:, None] - his) <= BINDING_TOL


def order_tree(lo, hi):
    """Greedy departures of all n! orders of agents 0..n-1.

    The permutation tree is grown one level at a time: each prefix row gets
    one child per remaining agent, in ascending index order, so the last
    level lists the orders lexicographically. Returns the (n!, n) orders,
    their (n!, n) departures, and per position p the (n!/(n-p-1)!, p)
    binding masks of the level that placed it; final row r descends from
    row r // (n-p-1)! of that level.
    """
    n = len(lo)
    prefix = np.empty((1, 0), dtype=np.intp)
    deps = np.empty((1, 0))
    rest = np.arange(n)[None, :]  # agents not yet placed, ascending, per row
    masks = []
    for k in range(n):
        m = n - k
        nxt = rest.ravel()
        rest = rest[:, [[c for c in range(m) if c != j] for j in range(m)]]
        rest = rest.reshape(len(nxt), m - 1)
        prefix = np.repeat(prefix, m, axis=0)
        deps = np.repeat(deps, m, axis=0)
        t, mask = place_next(lo, hi, prefix, deps, nxt)
        prefix = np.concatenate((prefix, nxt[:, None]), axis=1)
        deps = np.concatenate((deps, t[:, None]), axis=1)
        masks.append(mask)
    return prefix, deps, masks


def _spread(column, step):
    """Each item of column, step times over, as a lazy iterator."""
    return chain.from_iterable(map(repeat, column, repeat(step)))


def build_schedules(ids, orders, deps, masks) -> list[Schedule]:
    """Schedule objects for the rows of an order_tree-shaped result.

    The rows below one node of the permutation tree share that node's
    (id, departure) entry and binding tuple. Each is made once per node and
    repeated lazily into the rows, and each mask is turned into Python
    objects one position at a time.
    """
    n_rows = len(orders)
    if not masks:
        return [Schedule(entries=(), order=(), bindings=())] * n_rows
    id_rows = list(map(tuple, np.array(ids, dtype=object)[orders].tolist()))
    entry_cols, binding_cols = [], []
    for p, mask in enumerate(masks):
        step = n_rows // len(mask)
        nodes = id_rows[::step]
        entries = zip(map(operator.itemgetter(p), nodes), deps[::step, p].tolist())
        bound = list(map(tuple, map(compress, nodes, mask.tolist())))
        entry_cols.append(_spread(entries, step))
        binding_cols.append(_spread(bound, step))
    return [Schedule(entries=e, order=o, bindings=b)
            for o, e, b in zip(id_rows, zip(*entry_cols), zip(*binding_cols))]


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
    masks = []
    for k in range(len(ids)):
        t, mask = place_next(lo, hi, row[:, :k], deps, row[0, k:k + 1])
        deps = np.concatenate((deps, t[:, None]), axis=1)
        masks.append(mask)
    return build_schedules(ids, row, deps, masks)[0]
