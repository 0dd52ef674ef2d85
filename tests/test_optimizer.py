import functools
import hashlib
import itertools
import math
import operator
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deconflict import atlanta, oracle, scheduler
from deconflict.errors import TooManyAgents
from deconflict.kinematics import (ForbiddenInterval, Mission, SeparationConfig,
                                   Vec2, forbidden_interval)
from deconflict.optimizer import optimize_order, order_averages, per_order_table
from deconflict.scenario import AirspaceConfig, generate_topology, run_monte_carlo
from deconflict.scheduler import (Schedule, greedy_schedule, leaf_departures,
                                  lexicographic_orders, order_ids, order_tree,
                                  pair_arrays, schedules, total_of)
from helpers import (magnitude_scale, random_instance, reference_order_table,
                     reference_pairs, reference_row, scaled)

ROOT2 = math.sqrt(2.0)

# sha256 over optimize_order's totals bytes and its best and worst rows
# (order and departures as hex) on the seeded topologies of
# test_search_output_is_pinned, each total the ascending sum of its order's
# departures; one changed bit fails it
SEARCH_PIN = "499b89a62fff5872b3c523a58c30ed2b59d1ba2d7465f4a1e6b8b3735e328140"


def make_schedule(departures, ids=None):
    ids = ids or [f"m{i}" for i in range(len(departures))]
    return Schedule(order=tuple(ids), departures=tuple(departures),
                    bindings=tuple(() for _ in ids))


class TestAverageDelay:
    def test_all_zero(self):
        assert make_schedule([0.0, 0.0, 0.0]).average_delay == 0.0

    def test_crossing_pair_value(self):
        assert make_schedule([0.0, 2.12132]).average_delay == pytest.approx(1.06066)

    def test_case_study_minutes(self):
        # reference schedule rounded to 0.1 min: mean is 5.175, within
        # display rounding of the exact 5.1692 reference average
        avg = make_schedule([0.0, 5.2, 5.2, 10.3]).average_delay
        assert avg == pytest.approx(5.175)
        assert abs(avg - 5.1692) < 0.03

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_schedule([]).average_delay


class TestPerOrderTable:
    def test_two_missions_two_rows(self, parallel_pair, cfg):
        table = per_order_table(parallel_pair, cfg)
        assert len(table) == 2
        assert [r.order for r in table] == [("p1", "p2"), ("p2", "p1")]

    def test_four_missions_24_rows(self, cfg):
        missions = random_instance(np.random.default_rng(3), 4)
        table = per_order_table(missions, cfg)
        assert len(table) == 24
        best = optimize_order(missions, cfg).best
        assert min(r.total_delay for r in table) == best.total_delay

    @pytest.mark.slow
    def test_seven_missions_5040_rows(self, cfg):
        missions = random_instance(np.random.default_rng(17), 7)
        table = per_order_table(missions, cfg)
        assert len(table) == math.factorial(7)

    def test_lexicographic_enumeration(self, cfg):
        missions = random_instance(np.random.default_rng(4), 3)
        table = per_order_table(missions, cfg)
        ids = sorted(m.id for m in missions)
        expected = list(itertools.permutations(ids))
        assert [r.order for r in table] == expected

    def test_average_is_total_over_n(self, cfg):
        missions = random_instance(np.random.default_rng(8), 4)
        for r in per_order_table(missions, cfg):
            assert r.average_delay == r.total_delay / 4


class TestOptimizeOrder:
    def test_symmetric_pair_tie_breaks_lexicographically(self, cfg):
        # mirror geometry: both orders cost the same; the id-lexicographic
        # smallest order must be returned
        a = Mission("a", Vec2(0, 10), Vec2(20, 10), 1.0)
        b = Mission("b", Vec2(10, 0), Vec2(10, 20), 1.0)
        search = optimize_order([b, a], cfg)
        assert search.ids == ("a", "b")
        assert search.orders.tolist() == [[0, 1], [1, 0]]
        ab, ba = search.totals.tolist()
        assert ab == pytest.approx(ba, abs=1e-9)
        assert search.best.order == ("a", "b")
        assert set(search.optimal_orders) == {("a", "b"), ("b", "a")}

    def test_recompute_consistency(self, cfg):
        missions = random_instance(np.random.default_rng(21), 5)
        search = optimize_order(missions, cfg)
        table = per_order_table(missions, cfg)
        assert [r.order for r in table] == [
            tuple(search.ids[i] for i in row) for row in search.orders.tolist()]
        # the totals array is the fold of each row's departures, bit for bit
        assert search.totals.tolist() == [r.total_delay for r in table]
        for r in table:
            assert abs(r.total_delay - sum(r.departures)) <= 1e-9
        assert np.array_equal(search.totals / 5, order_averages(missions, cfg))

    def test_optimum_dominates_identity_order(self, cfg):
        rng = np.random.default_rng(31)
        for _ in range(10):
            missions = random_instance(rng, 4)
            search = optimize_order(missions, cfg)
            identity = greedy_schedule(missions, cfg)
            assert search.best.total_delay <= identity.total_delay + 1e-9

    def test_some_instance_beats_identity_strictly(self, cfg):
        # one slow agent crossing two others: reordering pays off somewhere
        rng = np.random.default_rng(1)
        found = False
        for _ in range(30):
            missions = random_instance(rng, 3)
            search = optimize_order(missions, cfg)
            identity = greedy_schedule(sorted(missions, key=lambda m: m.id), cfg)
            if search.best.total_delay < identity.total_delay - 1e-6:
                found = True
                break
        assert found

    def test_matches_exhaustive_enumeration(self, cfg):
        # exhaustive enumeration IS the oracle: re-derive the optimum directly
        missions = random_instance(np.random.default_rng(41), 4)
        search = optimize_order(missions, cfg)
        brute = min(
            (greedy_schedule(perm, cfg).total_delay, tuple(m.id for m in perm))
            for perm in itertools.permutations(sorted(missions, key=lambda m: m.id)))
        assert search.best.total_delay == pytest.approx(brute[0], abs=1e-12)

    def test_best_schedules_pass_oracle(self, cfg):
        rng = np.random.default_rng(55)
        for _ in range(8):
            missions = random_instance(rng, 4)
            best = optimize_order(missions, cfg).best
            missions_by_id = {m.id: m for m in missions}
            ordered = [missions_by_id[mid] for mid in best.order]
            assert oracle.schedule_is_safe(ordered, best.departures,
                                           cfg.h, 0.001)

    def test_ties_include_best(self, cfg):
        missions = random_instance(np.random.default_rng(61), 4)
        search = optimize_order(missions, cfg)
        assert search.best.order in search.optimal_orders

    def test_cap_enforced(self, cfg):
        # ten missions exceed the 9-agent cap before any pair is solved
        missions = random_instance(np.random.default_rng(71), 10)
        solved = []

        def counting(first, second, pair_cfg):
            solved.append((first.id, second.id))
            return forbidden_interval(first, second, pair_cfg)

        with mock.patch.object(scheduler, "forbidden_interval", counting):
            for search in (optimize_order, order_averages, per_order_table):
                with pytest.raises(TooManyAgents, match="9-agent"):
                    search(missions, cfg)
            assert solved == []
            order_averages(missions[:3], cfg)  # the counter sees solves
        assert len(solved) == 3

    def test_every_search_solves_through_the_scheduler_seam(self, cfg):
        # patching scheduler.forbidden_interval reaches every pair solve,
        # each unordered pair once
        missions = random_instance(np.random.default_rng(73), 4)
        solved = []

        def counting(first, second, pair_cfg):
            solved.append((first.id, second.id))
            return forbidden_interval(first, second, pair_cfg)

        with mock.patch.object(scheduler, "forbidden_interval", counting):
            for search in (greedy_schedule, per_order_table, order_averages,
                           optimize_order):
                solved.clear()
                search(missions, cfg)
                assert len(solved) == 6, search.__name__

    def test_duplicate_ids_rejected(self, cfg):
        # two missions named "x" would give rows labelled ("x", "x")
        missions = [Mission("x", Vec2(0, 0), Vec2(10, 0), 1.0),
                    Mission("x", Vec2(0, 5), Vec2(10, 5), 1.0)]
        with pytest.raises(ValueError, match="distinct"):
            optimize_order(missions, cfg)
        with pytest.raises(ValueError, match="distinct"):
            order_averages(missions, cfg)

    def test_no_missions_rejected(self, cfg):
        for search in (optimize_order, order_averages, per_order_table):
            with pytest.raises(ValueError, match="need at least one mission"):
                search([], cfg)

    def test_efficiency_gain_zero_without_conflicts(self, parallel_pair, cfg):
        search = optimize_order(parallel_pair, cfg)
        assert search.efficiency_gain == 0.0

    def test_orders_array_is_shared_and_read_only(self, cfg):
        lexicographic = [list(p) for p in itertools.permutations(range(4))]
        orders = optimize_order(random_instance(np.random.default_rng(5), 4), cfg).orders
        assert orders.tolist() == lexicographic
        with pytest.raises(ValueError):
            orders[0, 0] = 1
        order_averages(random_instance(np.random.default_rng(6), 4), cfg)
        again = optimize_order(random_instance(np.random.default_rng(7), 4), cfg)
        assert again.orders is orders
        assert orders.tolist() == lexicographic


def table_rows(table):
    return [(r.order, r.departures, r.bindings, r.total_delay, r.average_delay)
            for r in table]


def assert_search_rows_match(search, rows):
    """The totals array equals the reference totals bit for bit. The orders
    whose totals equal the least total are optimal_orders, in row order, and
    best is the first of them; worst is the first order whose total equals
    the greatest total. best and worst equal the reference rows of their
    orders in full."""
    totals = [r[3] for r in rows]
    assert search.totals.tolist() == totals
    tied = [r[0] for r in rows if r[3] == min(totals)]
    assert search.optimal_orders == tuple(tied)
    assert search.best.order == tied[0]
    assert search.worst.order == next(r[0] for r in rows
                                      if r[3] == max(totals))
    by_order = {r[0]: r for r in rows}
    for schedule in (search.best, search.worst):
        ref = by_order[schedule.order]
        assert (schedule.order, schedule.departures, schedule.bindings,
                schedule.total_delay) == ref[:4]


def _shortfall(missions, schedule, h):
    """schedule's pairs' worst shortfall below h, in units of eps * S, and
    its pair count, once schedule_is_safe passes it."""
    by_id = {m.id: m for m in missions}
    ordered = [by_id[mid] for mid in schedule.order]
    deps = schedule.departures
    assert oracle.schedule_is_safe(ordered, deps, h, 0.01), (h, schedule.order)
    seps = oracle.schedule_pair_min_seps(ordered, deps, 0.01, refine=True)
    scales = [magnitude_scale(ordered[i], deps[i], ordered[j], deps[j])
              for i, j in itertools.combinations(range(len(ordered)), 2)]
    eps = np.finfo(np.float64).eps
    return ((h - seps) / (eps * np.array(scales, dtype=float))).max(), len(scales)


def test_atlanta_schedules_pass_oracle_at_kilometre_scale():
    # the best and worst schedules fall short of h by less than ROUNDING_K
    # units of eps * S
    missions = atlanta.load_missions()
    by_id = {m.id: m for m in missions}
    worst, pairs, longest = -math.inf, 0, 0.0
    for h in range(50, 1001, 50):
        search = optimize_order(missions, SeparationConfig(h=float(h)))
        for schedule in (search.best, search.worst):
            short, n = _shortfall(missions, schedule, h)
            worst, pairs = max(worst, short), pairs + n
            flights = [(by_id[mid], t) for mid, t in
                       zip(schedule.order, schedule.departures)]
            seps = oracle.schedule_pair_min_seps(*zip(*flights), dt=0.01)
            assert np.isfinite(seps).all()  # every pair is co-airborne
            windows = [min(ta + a.duration, tb + b.duration) - max(ta, tb)
                       for (a, ta), (b, tb) in itertools.combinations(flights, 2)]
            longest = max(longest, *windows)
    print(f"worst shortfall below h: {worst:.3g} eps * S over {pairs} pairs")
    assert worst < oracle.ROUNDING_K
    # flights of 8-23 min: plain sampling at dt = 0.01 gives the longest
    # co-airborne window more samples than a CHUNK block, so that window is
    # sampled as a block of its own
    assert longest / 0.01 > oracle.CHUNK


def _schedule_families():
    """(family, missions, h): seeded box topologies at N = 3-6, and box
    topologies scaled by 2^10..2^40 (speeds and h too) or translated by
    1e3..1e12 m. Atlanta has a test of its own."""
    for n, seed, h in itertools.product(range(3, 7), range(25), (1.5, 3.0)):
        yield "box", generate_topology(AirspaceConfig(n, 61 * n + seed, h)), h
    for n, k in itertools.product(range(3, 7), (10, 20, 30, 40)):
        missions = generate_topology(AirspaceConfig(n, 7 * n + k))
        yield "scaled", scaled(missions, factor=2.0 ** k), 1.5 * 2.0 ** k
    for n, e in itertools.product(range(3, 7), (3, 6, 9, 12)):
        missions = generate_topology(AirspaceConfig(n, 5 * n + e))
        yield "translated", scaled(missions, shift=10.0 ** e), 1.5


def test_best_and_worst_schedules_clear_h_less_rounding_bound():
    # the worst shortfall below h, in units of eps * S, must stay under
    # ROUNDING_K; schedules that clear it pass schedule_is_safe
    worst, pairs = {}, 0
    for family, missions, h in _schedule_families():
        search = optimize_order(missions, SeparationConfig(h=h))
        for schedule in (search.best, search.worst):
            short, n = _shortfall(missions, schedule, h)
            worst[family] = max(worst.get(family, -math.inf), short)
            pairs += n
    print(f"worst shortfall below h in eps * S over {pairs} pairs:",
          ", ".join(f"{f} {w:.3g}" for f, w in worst.items()))
    assert max(worst.values()) < oracle.ROUNDING_K


def test_order_table_matches_reference_sweep():
    """Every row of the array placement equals the scalar sweep exactly."""
    cases = [(generate_topology(AirspaceConfig(n_agents=n, seed=97 * n + s)),
              SeparationConfig(h=1.5))
             for n in range(1, 8) for s in range(3 if n < 7 else 1)]
    cases += [(atlanta.load_missions(), SeparationConfig(h=h))
              for h in (50.0, 150.0, 300.0, 650.0, 1000.0)]
    bound_seen = 0
    for missions, cfg in cases:
        table = per_order_table(missions, cfg)
        rows = reference_order_table(missions, cfg, forbidden_interval)
        assert table_rows(table) == rows
        assert_search_rows_match(optimize_order(missions, cfg), rows)
        # departures are Python floats, as the scalar sweep makes them
        assert all(type(d) is float for r in table for d in r.departures)
        bound_seen += sum(1 for r in rows for b in r[2] if b)
        # a single order placed on its own takes the same step
        schedule = greedy_schedule(missions, cfg)
        by_id = {r[0]: r for r in rows}
        ref = by_id[tuple(m.id for m in missions)]
        assert (schedule.departures, schedule.bindings) == ref[1:3]
        assert schedule.order == ref[0]
        assert schedule.total_delay == ref[3]
    assert bound_seen > 0
    # Monte Carlo reads the same averages off the totals array, bit for bit
    for n, seed in ((4, 5), (6, 11)):
        table = per_order_table(
            generate_topology(AirspaceConfig(n_agents=n, seed=seed)),
            SeparationConfig(h=1.5))
        averages = [r.average_delay for r in table]
        pooled = run_monte_carlo(n_agents=n, n_topologies=1, base_seed=seed)
        assert pooled.delays.tolist() == averages
        optimal = run_monte_carlo(n_agents=n, n_topologies=1, base_seed=seed,
                                  mode="optimal")
        assert optimal.delays.tolist() == [min(averages)]
    # at N = 8 and 9 the tree merges states at levels 2..5 and 2..6: seeded
    # rows of the full enumeration against the scalar sweep
    rng = np.random.default_rng(89)
    cfg = SeparationConfig(h=1.5)
    for n, seed in ((8, 808), (9, 909)):
        missions = sorted(generate_topology(AirspaceConfig(n_agents=n, seed=seed)),
                          key=lambda m: m.id)
        ids = tuple(m.id for m in missions)
        lo, hi = pair_arrays(missions, cfg)
        totals, leaves, leaf = order_tree(lo, hi)
        orders = lexicographic_orders(n)
        assert totals.shape == leaf.shape == (len(orders),)
        picked = np.sort(rng.choice(len(orders), 2000, replace=False))
        pairs = reference_pairs(missions, cfg, forbidden_interval)
        rows = [reference_row(tuple(ids[i] for i in row), pairs)
                for row in orders[picked].tolist()]
        deps = leaf_departures(leaves, leaf, picked)
        assert table_rows(schedules(ids, hi, orders[picked], deps)) == rows
        # the folded totals are the ascending sums of the rows' departures
        assert totals[picked].tolist() == [total_of(row) for row in deps.tolist()]
        assert sum(1 for r in rows for b in r[2] if b) > 0
        search = optimize_order(missions, cfg)
        assert search.totals[picked].tolist() == [r[3] for r in rows]
        for schedule in (search.best, search.worst):
            assert (schedule.order, schedule.departures, schedule.bindings,
                    schedule.total_delay) == reference_row(schedule.order, pairs)[:4]


def tolerance_bindings(schedule, index, hi):
    """A schedule's bindings by the 1e-9 s rule that exact equality replaced:
    position j is bound to each earlier i with |dep_j - (hi + dep_i)| <= 1e-9,
    hi indexed by index[mission id]."""
    o = [index[mid] for mid in schedule.order]
    d = schedule.departures
    return tuple(tuple(schedule.order[i] for i in range(j)
                       if abs(d[j] - (hi[o[i], o[j]] + d[i])) <= 1e-9)
                 for j in range(len(o)))


def test_exact_bindings_equal_the_tolerance_rule():
    """On every order of seeded box topologies and on the Atlanta searches,
    no shifted span end lies within 1e-9 s of a departure without equalling
    it, and every delayed departure is bound to some earlier flight."""
    cases = []
    for h in (1.5, 3.0):
        cfg = SeparationConfig(h=h)
        for n in range(3, 7):
            for seed in range(5):
                missions = generate_topology(
                    AirspaceConfig(n_agents=n, seed=31 * n + seed, h=h))
                cases.append((missions, cfg, per_order_table(missions, cfg)))
    for h in (50.0, 300.0, 1000.0):
        missions, cfg = atlanta.load_missions(), SeparationConfig(h=h)
        search = optimize_order(missions, cfg)
        cases.append((missions, cfg, [search.best, search.worst]))
    delayed = 0
    for missions, cfg, rows in cases:
        missions = sorted(missions, key=lambda m: m.id)
        index = {m.id: k for k, m in enumerate(missions)}
        _, hi = pair_arrays(missions, cfg)
        for schedule in rows:
            assert schedule.bindings == tolerance_bindings(schedule, index, hi)
            for departure, bound in zip(schedule.departures, schedule.bindings):
                if departure > 0.0:
                    delayed += 1
                    assert bound, (schedule.order, departure)
    assert delayed > 1000


def band_rule(deps):
    """best, worst and tied row indices of departures (n!, n) by the rule
    that exact ties replaced: totals added left to right in order position,
    and every total within 1e-9 * (1 + |m|) of the extreme total m tied."""
    totals = functools.reduce(operator.add, deps.T, 0.0)
    low, high = totals.min(), totals.max()
    tied = np.flatnonzero(totals <= low + 1e-9 * (1.0 + abs(low)))
    worst = np.flatnonzero(totals >= high - 1e-9 * (1.0 + abs(high)))[0]
    return tied[0], worst, tied, totals


def test_exact_ties_equal_the_band_rule():
    """On seeded box topologies and on the Atlanta sweep, optimize_order's
    best, worst and optimal orders under exact ties of ascending totals equal
    those of left-to-right totals under the 1e-9 band."""
    cases = [(generate_topology(AirspaceConfig(n_agents=n, seed=53 * n + seed,
                                               h=h)), SeparationConfig(h=h))
             for h in (1.5, 3.0) for n in range(2, 8) for seed in range(10)]
    cases += [(atlanta.load_missions(), SeparationConfig(h=float(h)))
              for h in range(50, 1001, 50)]
    multi_tied = sums_differ = 0
    for missions, cfg in cases:
        missions = sorted(missions, key=lambda m: m.id)
        lo, hi = pair_arrays(missions, cfg)
        _, leaves, leaf = order_tree(lo, hi)
        deps = leaf_departures(leaves, leaf, slice(None))
        best, worst, tied, left_to_right = band_rule(deps)
        search = optimize_order(missions, cfg)
        ids, orders = search.ids, search.orders
        assert [search.best.order, search.worst.order] == order_ids(
            ids, orders[[best, worst]])
        assert search.optimal_orders == tuple(order_ids(ids, orders[tied]))
        multi_tied += len(tied) > 1
        sums_differ += not np.array_equal(left_to_right, search.totals)
    # most instances tie, and summation order moves some totals, so the
    # band had rounding to absorb
    assert multi_tied > len(cases) // 2
    assert sums_differ > 0


def test_search_output_is_pinned():
    digest = hashlib.sha256()
    cfg = SeparationConfig(h=1.5)
    for n in range(1, 10):
        for seed in range(3 if n < 9 else 1):
            search = optimize_order(
                generate_topology(AirspaceConfig(n_agents=n, seed=1009 * n + seed)),
                cfg)
            digest.update(search.totals.tobytes())
            for s in (search.best, search.worst):
                digest.update(f"{s.order} {[d.hex() for d in s.departures]};".encode())
    assert digest.hexdigest() == SEARCH_PIN


def test_nine_agent_search_builds_no_departures_table():
    # the search keeps totals and leaf states: at N = 9 its traced peak stays
    # below the 26 MB of a (9!, 9) float64 departures table
    missions = generate_topology(AirspaceConfig(n_agents=9, seed=909))
    cfg = SeparationConfig(h=1.5)
    # also builds the shared orders array, so the traced calls reuse it
    table_bytes = lexicographic_orders(9).size * 8
    for search in (optimize_order, order_averages):
        tracemalloc.start()
        try:
            search(missions, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table_bytes, (search.__name__, peak)


#: span ends on a grid of exact halves, so ends touch, departures repeat and
#: prefixes reach equal states
SPAN_LO = st.sampled_from([-3.0, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
SPAN_WIDTH = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.5])


@st.composite
def grid_spans(draw):
    """(n, spans) for n <= 5 agents a, b, ...; each pair conflicts or not."""
    n = draw(st.integers(1, 5))
    spans = {}
    for pair in itertools.combinations("abcde"[:n], 2):
        if draw(st.booleans()):
            lo = draw(SPAN_LO)
            spans[pair] = (lo, lo + draw(SPAN_WIDTH))
    return n, spans


class TestArrayPlacementEdges:
    """per_order_table and optimize_order on hand-made spans of a stub solver.

    spans maps (first id, second id), first < second, to (lo, hi); pairs
    not listed never conflict. Row 0 is the lexicographic order a, b, c, ...
    """

    CFG = SeparationConfig(h=1.5)

    @staticmethod
    def instance(n, spans):
        missions = [Mission(chr(ord("a") + i), Vec2(0.0, 0.0), Vec2(1.0, 0.0), 1.0)
                    for i in range(n)]

        def stub(first, second, _cfg):
            span = spans.get((first.id, second.id))
            return ForbiddenInterval.empty() if span is None else \
                ForbiddenInterval.bounded(*span)

        return missions, stub

    @classmethod
    def search(cls, n, spans):
        missions, stub = cls.instance(n, spans)
        # pair_arrays looks the pair solver up in its module on each call
        with mock.patch.object(scheduler, "forbidden_interval", stub):
            return optimize_order(missions, cls.CFG)

    @classmethod
    def table(cls, n, spans):
        missions, stub = cls.instance(n, spans)
        with mock.patch.object(scheduler, "forbidden_interval", stub):
            table = per_order_table(missions, cls.CFG)
        rows = reference_order_table(missions, cls.CFG, stub)
        assert table_rows(table) == rows
        assert_search_rows_match(cls.search(n, spans), rows)
        return table

    def test_single_agent(self):
        (row,) = self.table(1, {})
        assert row.order == ("a",)
        assert row.departures == (0.0,)
        assert row.bindings == ((),)
        assert (row.total_delay, row.average_delay) == (0.0, 0.0)

    def test_all_empty_spans(self):
        # no level merges below N = 4; at N = 6 every level collapses to one
        # state per placed set
        for n in (1, 2, 3, 4, 6):
            table = self.table(n, {})
            assert len(table) == math.factorial(n)
            for r in table:
                assert r.departures == (0.0,) * n
                assert r.bindings == ((),) * n
                assert r.total_delay == 0.0

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(grid_spans())
    def test_grid_spans_match_the_scalar_sweep(self, drawn):
        self.table(*drawn)

    def test_touching_spans_leave_their_shared_end_free(self):
        # c is pushed to 4 by b's span; a's span opens there and stays open
        table = self.table(3, {("a", "c"): (4.0, 9.0), ("b", "c"): (-1.0, 4.0)})
        first = table[0]
        assert first.departures == (0.0, 0.0, 4.0)
        assert first.bindings == ((), (), ("b",))
        # row 0 is also the worst order, so the search's worst sits on that edge
        assert first.total_delay == max(r.total_delay for r in table)

    def test_span_starting_at_zero_leaves_zero_free(self):
        first, second = self.table(2, {("a", "b"): (0.0, 4.0)})
        assert first.departures == (0.0, 0.0)
        assert first.bindings == ((), ())
        # reversed, the mirrored span (-4, 0) also leaves 0 free
        assert second.order == ("b", "a")
        assert second.departures == (0.0, 0.0)

    def test_nested_span_does_not_pull_time_back(self):
        first = self.table(3, {("a", "c"): (-1.0, 10.0), ("b", "c"): (2.0, 5.0)})[0]
        assert first.departures == (0.0, 0.0, 10.0)
        assert first.bindings == ((), (), ("a",))

    def test_chain_needs_every_move_at_the_last_level(self):
        # d must step over all three spans one after another: 0 -> 1 -> 2 -> 3
        first = self.table(4, {("a", "d"): (-1.0, 1.0), ("b", "d"): (0.5, 2.0),
                               ("c", "d"): (1.5, 3.0)})[0]
        assert first.departures == (0.0, 0.0, 0.0, 3.0)
        assert first.bindings == ((), (), (), ("c",))
        assert first.total_delay == 3.0

    def test_orders_with_the_same_departures_tie_exactly(self):
        # a pushes each of b, c, d to the end of its span, or b, c and d
        # push a to 1.0: every order's departures are {0, 0.1, 0.2, 0.7} or
        # {0, 0, 0, 1}. Added in order position, 0.2 + 0.7 + 0.1 reads one
        # ulp below 1.0; added in ascending order, all 24 totals read 1.0
        spans = {("a", "b"): (-1.0, 0.1), ("a", "c"): (-1.0, 0.2),
                 ("a", "d"): (-1.0, 0.7)}
        table = self.table(4, spans)
        assert [r.total_delay for r in table] == [1.0] * 24
        search = self.search(4, spans)
        assert search.totals.tolist() == [1.0] * 24
        assert search.optimal_orders == tuple(r.order for r in table)
        assert search.best.order == ("a", "b", "c", "d")
        assert search.best.departures == (0.0, 0.1, 0.2, 0.7)
