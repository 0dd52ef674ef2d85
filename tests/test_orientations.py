"""Is the best greedy order optimal over all schedules? A reference by
orientations, independent of the order search.

A schedule is safe when every bounded pair (i, j) has t_j - t_i <= lo[i, j]
or t_j - t_i >= hi[i, j]. Fixing one side per pair gives difference
constraints t_v >= t_u + w, and with t >= 0 their least solution is the
longest path from a source node: it minimises every departure at once, so
its total is the least of that side choice, and a positive cycle makes the
choice infeasible. The optimum is the least total over all 2^P side choices
of the P bounded pairs. The reference takes only the spans from the
scheduler (pair_arrays); it shares no other code with the order search.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from deconflict.kinematics import SeparationConfig
from deconflict.optimizer import optimize_order
from deconflict.scenario import AirspaceConfig, generate_topology
from deconflict.scheduler import order_tree, pair_arrays
from helpers import random_mission, random_pair, sliver_pair


def feasible_totals(lo, hi):
    """Total delay of the least solution of every feasible side choice of
    the bounded pairs of the (n, n) span arrays (NaN where a pair is
    EMPTY), its departures added left to right in ascending order."""
    n = len(lo)
    i, j = np.nonzero(np.triu(~np.isnan(lo), 1))
    choices = 2 ** len(i)
    upper = (np.arange(choices)[:, None] >> np.arange(len(i))) & 1 == 1
    # w[c, u, v] is the weight of edge u -> v in choice c; node n is the
    # source, with an edge of weight 0 to every agent (t >= 0). The upper
    # side is t_j >= t_i + hi, the lower side t_i >= t_j - lo
    w = np.full((choices, n + 1, n + 1), -np.inf)
    w[:, n, :n] = 0.0
    w[np.arange(choices)[:, None], np.where(upper, i, j), np.where(upper, j, i)] \
        = np.where(upper, hi[i, j], -lo[i, j])
    t = np.zeros((choices, n + 1))
    # a longest path visits at most n + 1 nodes; a choice whose times still
    # rise after n rounds has a positive cycle
    for _ in range(n):
        t = np.maximum(t, (t[:, :, None] + w).max(axis=1))
    feasible = ((t[:, :, None] + w).max(axis=1) <= t).all(axis=1)
    total = np.zeros(choices)
    for column in np.sort(t[:, :n], axis=1).T:
        total = total + column
    return total[feasible]


def span_arrays(n, spans):
    """(n, n) lo and hi arrays from {(i, j): (lo, hi)}, mirrored."""
    lo = np.full((n, n), np.nan)
    hi = np.full((n, n), np.nan)
    for (i, j), (a, b) in spans.items():
        lo[i, j], hi[i, j], lo[j, i], hi[j, i] = a, b, -b, -a
    return lo, hi


def instance(family, n, seed, h):
    """n missions: a generated topology, or a pair of one of the degenerate
    families (equal velocity, same track, sliver) among random box flights."""
    rng = np.random.default_rng(seed)
    if family == "topology":
        return generate_topology(AirspaceConfig(n_agents=n, seed=seed, h=h))
    if family == "sliver":
        pair = sliver_pair(rng.uniform(2.0, 8.0), rng.uniform(0.0, 3e-6), h)
    else:
        pair = random_pair(rng, family)
    return [*pair, *(random_mission(rng, f"M{k}") for k in range(3, n + 1))]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(family=st.sampled_from(("topology", "equal_velocity", "same_track",
                               "sliver")),
       n=st.integers(3, 5), seed=st.integers(0, 2**32 - 1),
       h=st.sampled_from((1.5, 3.0, 4.0)))
def test_best_order_is_the_orientation_optimum(family, n, seed, h):
    cfg = SeparationConfig(h=h)
    missions = sorted(instance(family, n, seed, h), key=lambda m: m.id)
    lo, hi = pair_arrays(missions, cfg)
    assert optimize_order(missions, cfg).best.total_delay \
        == feasible_totals(lo, hi).min()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(3, 5), seed=st.integers(0, 2**32 - 1))
def test_best_order_is_the_orientation_optimum_on_abstract_spans(n, seed):
    # spans drawn with no geometry behind them: lo ~ U(-3, 3), width
    # ~ U(0.1, 3), a fifth of the pairs EMPTY, each mirrored as (-hi, -lo)
    rng = np.random.default_rng(seed)
    spans = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.8:
                lo = rng.uniform(-3.0, 3.0)
                spans[i, j] = (lo, lo + rng.uniform(0.1, 3.0))
    lo, hi = span_arrays(n, spans)
    assert order_tree(lo, hi)[0].min() == feasible_totals(lo, hi).min()


def test_orientation_optimum_by_hand():
    # span (-1, 2): the second departs at 2, or the first at 1
    assert feasible_totals(*span_arrays(2, {(0, 1): (-1.0, 2.0)})).min() == 1.0
    # a chain of spans (-1, 1) with 0-2 EMPTY: 1 departs at 1, 0 and 2 at 0
    chain = {(0, 1): (-1.0, 1.0), (1, 2): (-1.0, 1.0)}
    assert feasible_totals(*span_arrays(3, chain)).min() == 1.0
    # closing the triangle needs three departures at least 1 apart: the six
    # orders of 0, 1, 2 are feasible, the two choices that run around a
    # cycle are not
    triangle = {**chain, (0, 2): (-1.0, 1.0)}
    assert feasible_totals(*span_arrays(3, triangle)).tolist() == [3.0] * 6
