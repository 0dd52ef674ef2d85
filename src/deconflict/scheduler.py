"""Greedy earliest-departure assignment for flight orders.

The scheduler walks a flight order. Each agent collects the forbidden span
of every already-scheduled agent, shifted by that agent's departure, and
takes the least instant t >= 0 that lies in none of them.

Forbidden spans are open, so their endpoints stay feasible: the separation
constraint is >= h and a tangent pass is allowed. The least feasible instant
is therefore 0 or the upper end of one of the spans.

One array step places one more agent into many states at once. A state
holds the departure of each agent placed so far and NaN for the others.
`greedy_schedule` runs the step on a single state per agent; `order_tree`
runs it once per level of the permutation tree, on the distinct states of
that level only, to place all N! orders, and totals each leaf state once.
`leaf_departures` reads the departures of chosen rows off their leaf
states, `order_ids` labels rows with mission ids, and `schedules` turns
rows into `Schedule` objects and finds their bindings.
"""

import functools
import operator
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .kinematics import IntervalKind, SeparationConfig, forbidden_interval


def total_of(departures):
    """The departures added left to right in ascending order.

    The total depends only on the departures, not on the order that places
    them, so orders that give every flight the same departure tie bit for
    bit. order_tree folds each leaf state's sorted row with the same
    additions, so a Schedule's total equals its row's total. sum() is not
    used because it compensates from Python 3.12 on.
    """
    return functools.reduce(operator.add, sorted(departures), 0.0)


@dataclass(frozen=True)
class Schedule:
    """Departure times for one flight order.

    departures[i] is the departure (seconds, >= 0) of mission order[i].
    bindings[i] lists the earlier mission ids whose shifted forbidden span
    ends exactly at the i-th departure (its active constraints). A delayed
    departure is always the end of at least one such span. total_delay is
    total_of(departures), the ascending sum.
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


def pair_arrays(missions, cfg: SeparationConfig):
    """Forbidden spans of every ordered pair as two (n, n) arrays.

    lo[i, j], hi[i, j] bound the delays of missions[j] relative to
    missions[i]; both are NaN where the span is EMPTY and on the diagonal.
    Each unordered pair is solved once, by this module's forbidden_interval
    as looked up at call time, and stored as (-hi, -lo) for the reversed
    order, which keeps the two directions exactly consistent. Raises
    ValueError when two missions share an id.
    """
    ids = [m.id for m in missions]
    if len(set(ids)) != len(ids):
        raise ValueError(f"mission ids must be distinct, got {ids}")
    n = len(missions)
    lo = np.full((n, n), np.nan)
    hi = np.full((n, n), np.nan)
    for i, a in enumerate(missions):
        for j in range(i + 1, n):
            fi = forbidden_interval(a, missions[j], cfg)
            if fi.kind is IntervalKind.BOUNDED:
                lo[i, j], hi[i, j] = fi.lo, fi.hi
                lo[j, i], hi[j, i] = -fi.hi, -fi.lo
    return lo, hi


@functools.lru_cache(maxsize=None)
def lexicographic_orders(n):
    """All n! orders of agents 0..n-1 as a read-only (n!, n) array, rows in
    lexicographic order.

    Built from the orders of n - 1 agents: the block that starts with agent
    j maps each shorter order's c to c + (c >= j). The cache keeps one array
    per n for the life of the process (26 MB at n = 9), and every search of
    the same n shares it.
    """
    if n == 0:
        return np.zeros((1, 0), dtype=np.intp)
    sub = lexicographic_orders(n - 1)
    first = np.arange(n)[:, None, None]
    orders = np.empty((n, len(sub), n), dtype=np.intp)
    orders[:, :, :1] = first
    np.add(sub, sub >= first, out=orders[:, :, 1:])
    orders = orders.reshape(-1, n)
    orders.flags.writeable = False
    return orders


def place_next(lo, hi, states, nxt, k):
    """Earliest free departure t (R,) of agent nxt[r] in state states[r].

    A state (n,) holds the departure of each placed agent and NaN for each
    agent not yet placed; every row of states has k agents placed. The spans
    of nxt[r] against the placed agents are shifted by their departures; a
    NaN span (EMPTY, the diagonal or an unplaced agent) never contains t.
    From t = 0, while some span has lo < t < hi, t moves to the largest such
    hi. Every move clears the spans it leaves behind, so k moves reach the
    least free instant.
    """
    # agents along axis 0, so each move's max runs across whole rows
    deps = np.ascontiguousarray(states.T)
    los = lo[:, nxt] + deps
    his = hi[:, nxt] + deps
    t = np.zeros(len(nxt))
    for _ in range(k):
        inside = (los < t) & (t < his)
        if not inside.any():
            break
        t = np.where(inside, his, t).max(axis=0)
    return t


def order_tree(lo, hi):
    """Greedy total delay of all n! orders of agents 0..n-1, and their leaves.

    The permutation tree is grown one level at a time over states, not
    prefixes: each state gets one child per agent it has not placed, in
    ascending agent order. place_next reads only the state, and its max over
    a set of floats does not depend on the order the agents were placed in,
    so prefixes that reach the same state have the same subtree. Children
    equal bit for bit are merged into one state at the levels that place
    the (k+1)-th agent for 2 <= k <= n - 3; the first two levels and the
    last two have too few repeats to pay for the merge. Until the first
    merge, prefix p of the lexicographic orders is state p and no index is
    kept; from the first merge on, each prefix keeps the index of its state.
    After the last level each leaf state's sorted row is folded column by
    column, the same additions as total_of over its departures, and every
    order reads the total of its leaf. With no merge (n <= 4) order p is
    leaf p, so the totals need no gather. Returns the (n!,) totals, the
    (S, n) leaf states and the (n!,) leaf index of each order, rows in the
    order of lexicographic_orders(n).
    """
    n = len(lo)
    # the first agent of every order departs at t = 0
    states = np.where(np.eye(n, dtype=bool), 0.0, np.nan)
    # None while prefix p is state p, which holds until the first merge
    prefix_state = None
    for k in range(1, n):
        parent, nxt = np.nonzero(np.isnan(states))
        children = states[parent]
        placed = place_next(lo, hi, children, nxt, k)
        children[np.arange(len(nxt)), nxt] = placed
        if prefix_state is not None:
            # every state has n - k free agents, so child c of state s, in
            # ascending agent order as the orders list them, is s * (n - k) + c
            prefix_state = (prefix_state[:, None] * (n - k) + np.arange(n - k)).ravel()
        if 2 <= k <= n - 3:
            keys = children.view(np.dtype((np.void, children.itemsize * n)))
            keys, merged = np.unique(keys.ravel(), return_inverse=True)
            children = keys.view(np.float64).reshape(-1, n)
            prefix_state = merged if prefix_state is None else merged[prefix_state]
        states = children
    leaf_totals = functools.reduce(operator.add, np.sort(states, axis=1).T, 0.0)
    if prefix_state is None:
        return leaf_totals, states, np.arange(len(states))
    return leaf_totals[prefix_state], states, prefix_state


def leaf_departures(leaves, leaf, rows):
    """Departures (R, n) of the lexicographic orders picked by rows.

    leaves and leaf are order_tree's; rows indexes its orders (an index
    array or a slice). Position j of a row is the departure of agent
    orders[r, j] in the row's leaf state.
    """
    orders = lexicographic_orders(leaves.shape[1])[rows]
    return leaves[leaf[rows][:, None], orders]


def order_ids(ids, orders) -> list[tuple[str, ...]]:
    """The id tuple of each row of orders (R, n), which indexes ids."""
    return list(map(tuple, np.array(ids, dtype=object)[orders].tolist()))


def schedules(ids, hi, orders, deps) -> list[Schedule]:
    """Schedule objects for the rows of orders (R, n) and departures (R, n).

    orders indexes ids and hi, as pair_arrays built them. Position j is
    bound to each earlier position i whose span's upper end, shifted by the
    departure at i, equals the departure at j. place_next returns one of
    these float sums as the departure, so the equality is exact; one
    position is compared at a time, so no (R, n, n) array is built.
    """
    id_rows = order_ids(ids, orders)
    on_edge = [(hi[orders[:, :j], orders[:, j:j + 1]] + deps[:, :j]
                == deps[:, j:j + 1]).tolist()
               for j in range(orders.shape[1])]
    return [Schedule(order=o, departures=tuple(d),
                     bindings=tuple(tuple(compress(o, m[r])) for m in on_edge))
            for r, (o, d) in enumerate(zip(id_rows, deps.tolist()))]


def greedy_schedule(order, cfg: SeparationConfig) -> Schedule:
    """Assign each mission the earliest departure compatible with all earlier ones.

    Missions are processed in the given order. For agent j the span of every
    earlier agent i is shifted by i's departure and kept in full, including
    its negative-delay part, so the result is safe for all pairs even when
    the greedy choice reverses the departure order. The first agent always
    departs at t = 0. Mission ids must be distinct.
    """
    missions = list(order)
    ids = [m.id for m in missions]
    lo, hi = pair_arrays(missions, cfg)
    n = len(ids)
    state = np.full((1, n), np.nan)
    for k in range(n):
        state[:, k] = place_next(lo, hi, state, np.array([k]), k)
    return schedules(ids, hi, np.arange(n)[None, :], state)[0]
