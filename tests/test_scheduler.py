import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deconflict import oracle, scheduler
from deconflict.kinematics import ForbiddenInterval, Mission, SeparationConfig, Vec2
from deconflict.scheduler import greedy_schedule
from helpers import random_instance

ROOT2 = math.sqrt(2.0)


def depart_after(spans):
    """Departure and bindings of flight "x" placed after one flight per span.

    The earlier flights e0, e1, ... never conflict with each other, so all
    depart at 0; spans[i] is x's forbidden (lo, hi) relative to e{i}.
    """
    earlier = [f"e{i}" for i in range(len(spans))]
    missions = [Mission(mid, Vec2(0.0, 0.0), Vec2(1.0, 0.0), 1.0)
                for mid in earlier + ["x"]]

    def stub(first, second, _cfg):
        if second.id != "x":
            return ForbiddenInterval.empty()
        return ForbiddenInterval.bounded(*spans[earlier.index(first.id)])

    with mock.patch.object(scheduler, "forbidden_interval", stub):
        schedule = greedy_schedule(missions, SeparationConfig(h=1.5))
    assert schedule.departures[:-1] == (0.0,) * len(earlier)
    return schedule.departures[-1], schedule.bindings[-1]


class TestEarliestFreeTime:
    def test_touching_spans_leave_their_shared_end_free(self):
        # 4 closes one open span and opens the next, so it is feasible; only
        # the span ending there binds
        assert depart_after([(4.0, 9.0), (-1.0, 4.0)]) == (4.0, ("e1",))

    def test_span_starting_at_zero_leaves_zero_free(self):
        assert depart_after([(0.0, 4.0)]) == (0.0, ())

    def test_negative_span_leaves_zero_free(self):
        assert depart_after([(-7.0, -2.0)]) == (0.0, ())

    def test_overlapping_spans_chain_to_the_last_end(self):
        assert depart_after([(6.0, 11.0), (-1.0, 3.0), (2.0, 7.0)]) == (11.0, ("e0",))

    def test_nested_span_does_not_pull_time_back(self):
        assert depart_after([(-1.0, 10.0), (2.0, 5.0)]) == (10.0, ("e0",))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(0.01, 20)),
                    min_size=1, max_size=6))
    def test_matches_brute_force_least_free_time(self, raw):
        spans = [(lo, lo + w) for lo, w in raw]
        t, bound = depart_after(spans)

        def free(c):
            return c >= 0.0 and not any(lo < c < hi for lo, hi in spans)

        assert free(t)
        # the least free instant is 0 or a span's upper end
        assert t == min(c for c in [0.0] + [hi for _, hi in spans] if free(c))
        assert bound == tuple(f"e{i}" for i, (_, hi) in enumerate(spans)
                              if t == hi)


class TestGreedySchedule:
    def test_non_conflicting_all_depart_at_zero(self, parallel_pair, cfg):
        schedule = greedy_schedule(parallel_pair, cfg)
        assert schedule.departures == (0.0, 0.0)
        assert schedule.bindings == ((), ())

    def test_crossing_pair_takes_upper_tangent(self, crossing_pair, cfg):
        a, b = crossing_pair
        schedule = greedy_schedule([a, b], cfg)
        assert schedule.departures[0] == 0.0
        assert schedule.departures[1] == pytest.approx(3.0 / ROOT2, abs=1e-3)
        assert schedule.bindings[1] == ("a",)
        assert oracle.schedule_is_safe([a, b], schedule.departures, cfg.h, 0.001)

    def test_first_agent_anchored_at_zero(self, cfg):
        rng = np.random.default_rng(5)
        for _ in range(10):
            missions = random_instance(rng, 4)
            schedule = greedy_schedule(missions, cfg)
            assert schedule.departures[0] == 0.0

    def test_random_instances_pass_separation_oracle(self, cfg):
        rng = np.random.default_rng(99)
        for _ in range(25):
            missions = random_instance(rng, 5)
            schedule = greedy_schedule(missions, cfg)
            seps = oracle.schedule_pair_min_seps(missions, schedule.departures, 0.001)
            assert np.all(seps >= cfg.h - 1e-3), seps.min()

    def test_greedy_minimality(self, cfg):
        # departing 10*tol earlier than any positive assignment breaks separation
        rng = np.random.default_rng(123)
        checked = 0
        for _ in range(15):
            missions = random_instance(rng, 4)
            schedule = greedy_schedule(missions, cfg)
            deps = list(schedule.departures)
            for j, t in enumerate(deps):
                if t <= 0.0:
                    continue
                checked += 1
                nudged = deps.copy()
                nudged[j] = t - 10.0 * cfg.tol
                seps = oracle.schedule_pair_min_seps(missions, nudged, 0.001,
                                                     refine=True)
                assert float(seps.min()) < cfg.h
        assert checked >= 5

    def test_determinism(self, cfg):
        rng = np.random.default_rng(7)
        missions = random_instance(rng, 5)
        s1 = greedy_schedule(missions, cfg)
        s2 = greedy_schedule(missions, cfg)
        assert s1 == s2

    def test_empty_order_gives_empty_schedule(self, cfg):
        schedule = greedy_schedule([], cfg)
        assert (schedule.order, schedule.departures, schedule.bindings) == ((), (), ())
        assert schedule.total_delay == 0.0

    def test_duplicate_ids_rejected(self, cfg):
        m = Mission("x", Vec2(0, 0), Vec2(10, 0), 1.0)
        with pytest.raises(ValueError):
            greedy_schedule([m, m], cfg)

    def test_negative_delay_part_protects_reversed_order(self, cfg):
        # the second-scheduled agent may depart before an earlier one; the
        # full shifted span (negative part included) must still keep it safe
        slow = Mission("s", Vec2(0, 0), Vec2(30, 0), 1.0)
        fast = Mission("f", Vec2(15, -10), Vec2(15, 10), 2.0)
        schedule = greedy_schedule([slow, fast], cfg)
        assert schedule.departures == (0.0, 0.0)  # forbidden span is all positive
        assert oracle.schedule_is_safe([slow, fast], schedule.departures, cfg.h, 0.001)

    def test_schedule_accessors(self, crossing_pair, cfg):
        schedule = greedy_schedule(crossing_pair, cfg)
        assert schedule.order == ("a", "b")
        assert schedule.departures[0] == 0.0
        assert schedule.total_delay == pytest.approx(sum(schedule.departures))
        assert schedule.average_delay == schedule.total_delay / 2

