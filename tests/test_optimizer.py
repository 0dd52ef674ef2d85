import itertools
import math

import numpy as np
import pytest

from deconflict import atlanta, oracle
from deconflict.errors import TooManyAgents
from deconflict.kinematics import (ForbiddenInterval, Mission, SeparationConfig,
                                   Vec2, forbidden_interval)
from deconflict.optimizer import optimize_order, order_averages, per_order_table
from deconflict.scenario import AirspaceConfig, generate_topology, run_monte_carlo
from deconflict.scheduler import Schedule, greedy_schedule
from helpers import random_instance, reference_order_table

ROOT2 = math.sqrt(2.0)


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
        totals = {r.order: r.total_delay for r in search.results}
        assert totals[("a", "b")] == pytest.approx(totals[("b", "a")], abs=1e-9)
        assert search.best.order == ("a", "b")
        assert set(search.optimal_orders) == {("a", "b"), ("b", "a")}

    def test_recompute_consistency(self, cfg):
        missions = random_instance(np.random.default_rng(21), 5)
        search = optimize_order(missions, cfg)
        for r in search.results:
            assert abs(r.total_delay - sum(r.departures)) <= 1e-9

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
        missions = random_instance(np.random.default_rng(71), 4)
        with pytest.raises(TooManyAgents):
            optimize_order(missions, cfg, cap=3)

    def test_duplicate_ids_rejected(self, cfg):
        # two missions named "x" would give rows labelled ("x", "x")
        missions = [Mission("x", Vec2(0, 0), Vec2(10, 0), 1.0),
                    Mission("x", Vec2(0, 5), Vec2(10, 5), 1.0)]
        with pytest.raises(ValueError, match="distinct"):
            optimize_order(missions, cfg)
        with pytest.raises(ValueError, match="distinct"):
            order_averages(missions, cfg)

    def test_efficiency_gain_zero_without_conflicts(self, parallel_pair, cfg):
        search = optimize_order(parallel_pair, cfg)
        assert search.efficiency_gain == 0.0


def table_rows(table):
    return [(r.order, r.departures, r.bindings, r.total_delay, r.average_delay)
            for r in table]


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


class TestArrayPlacementEdges:
    """per_order_table on hand-made spans from a stub pair solver.

    spans maps (first id, second id), first < second, to (lo, hi); pairs
    not listed never conflict. Row 0 is the lexicographic order a, b, c, ...
    """

    @staticmethod
    def table(n, spans):
        missions = [Mission(chr(ord("a") + i), Vec2(0.0, 0.0), Vec2(1.0, 0.0), 1.0)
                    for i in range(n)]

        def stub(first, second, _cfg):
            span = spans.get((first.id, second.id))
            return ForbiddenInterval.empty() if span is None else \
                ForbiddenInterval.bounded(*span)

        cfg = SeparationConfig(h=1.5)
        table = per_order_table(missions, cfg, pair_solver=stub)
        assert table_rows(table) == reference_order_table(missions, cfg, stub)
        return table

    def test_single_agent(self):
        (row,) = self.table(1, {})
        assert row.order == ("a",)
        assert row.departures == (0.0,)
        assert row.bindings == ((),)
        assert (row.total_delay, row.average_delay) == (0.0, 0.0)

    def test_all_empty_spans(self):
        table = self.table(4, {})
        assert len(table) == 24
        for r in table:
            assert r.departures == (0.0,) * 4
            assert r.bindings == ((),) * 4
            assert r.total_delay == 0.0

    def test_touching_spans_leave_their_shared_end_free(self):
        # c is pushed to 4 by b's span; a's span opens there and stays open
        first = self.table(3, {("a", "c"): (4.0, 9.0), ("b", "c"): (-1.0, 4.0)})[0]
        assert first.departures == (0.0, 0.0, 4.0)
        assert first.bindings == ((), (), ("b",))

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
