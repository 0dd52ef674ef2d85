import dataclasses
import hashlib
import math
import pickle
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deconflict import atlanta, oracle
from deconflict.kinematics import (ForbiddenInterval, IntervalKind, Mission,
                                   SeparationConfig, Vec2, forbidden_interval,
                                   min_separation_sq)
from deconflict.scheduler import greedy_schedule
from helpers import pair_stream, random_pair, sliver_pair

# sha256 over the pairs of _pinned_pairs of forbidden_interval's
# (kind, lo.hex(), hi.hex()) in both orders and of
# min_separation_sq(a, 0.3, b, 1.7).hex(); one changed bit fails the pin
SOLVER_PIN = "fc8682e1190c8c66523d551d0adb9bd38fe00ce435175e7328bde607f62561d9"

ROOT2 = math.sqrt(2.0)
EPS = 2.0 ** -52


def exact_min_separation_sq(a, t_dep_a, b, t_dep_b):
    """min_separation_sq in exact rational arithmetic over the stored floats
    (origins, velocities, durations, departures): the vertex of the squared
    gap clamped into the co-airborne window, None when the windows do not
    overlap."""
    ta, tb = Fraction(t_dep_a), Fraction(t_dep_b)
    w0 = max(ta, tb)
    w1 = min(ta + Fraction(a.duration), tb + Fraction(b.duration))
    if w0 > w1:
        return None
    vax, vay = Fraction(a.velocity.x), Fraction(a.velocity.y)
    vbx, vby = Fraction(b.velocity.x), Fraction(b.velocity.y)
    ux, uy = vax - vbx, vay - vby
    cx = Fraction(a.origin.x) - vax * ta - Fraction(b.origin.x) + vbx * tb
    cy = Fraction(a.origin.y) - vay * ta - Fraction(b.origin.y) + vby * tb
    uu = ux * ux + uy * uy
    t = -(ux * cx + uy * cy) / uu if uu else w0
    t = min(max(t, w0), w1)
    rx, ry = ux * t + cx, uy * t + cy
    return rx * rx + ry * ry


def assert_exact_within(a, t_dep_a, b, t_dep_b, bound):
    """min_separation_sq within bound * EPS of the exact minimum, relative to
    max(exact, 1); inf exactly when the windows do not overlap."""
    got = min_separation_sq(a, t_dep_a, b, t_dep_b)
    exact = exact_min_separation_sq(a, t_dep_a, b, t_dep_b)
    if exact is None:
        assert got == math.inf
    else:
        assert abs(Fraction(got) - exact) <= bound * EPS * max(exact, 1), \
            (a, t_dep_a, b, t_dep_b, got, float(exact))


class TestVec2:
    def test_arithmetic(self):
        v = Vec2(1.0, 2.0) + Vec2(3.0, -1.0)
        assert (v.x, v.y) == (4.0, 1.0)
        assert (Vec2(3.0, 4.0)).norm() == 5.0
        assert Vec2(3.0, 4.0) - Vec2(1.0, 2.0) == Vec2(2.0, 2.0)
        assert Vec2(3.0, 4.0).scaled(0.5).norm_sq() == 6.25

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            Vec2(bad, 0.0)


class TestMission:
    def test_derived_quantities(self):
        m = Mission("m", Vec2(0.0, 0.0), Vec2(3.0, 4.0), 2.5)
        assert m.duration == 2.0
        v = m.velocity
        assert v.x == pytest.approx(1.5)
        assert v.y == pytest.approx(2.0)
        # velocity and duration are set once from the fields, bit for bit
        # as the formulas give them, and take no part in repr, == or hash
        for a, b in pair_stream(55, 40):
            for m in (a, b):
                d = m.destination - m.origin
                assert m.velocity == d.scaled(m.speed / d.norm())
                assert m.duration == d.norm() / m.speed
        m = Mission("m", Vec2(1.0, 2.0), Vec2(4.0, 6.0), 2.5)
        assert repr(m) == ("Mission(id='m', origin=Vec2(x=1.0, y=2.0), "
                           "destination=Vec2(x=4.0, y=6.0), speed=2.5)")
        assert [f.name for f in dataclasses.fields(m) if f.compare] \
            == ["id", "origin", "destination", "speed"]
        assert m == Mission("m", Vec2(1.0, 2.0), Vec2(4.0, 6.0), 2.5)
        assert hash(m) == hash(Mission("m", Vec2(1.0, 2.0), Vec2(4.0, 6.0), 2.5))
        faster = dataclasses.replace(m, speed=5.0)
        assert (faster.velocity, faster.duration) == (Vec2(3.0, 4.0), 1.0)
        assert (m.velocity, m.duration) == (Vec2(1.5, 2.0), 2.0)
        copy = pickle.loads(pickle.dumps(m))
        assert (copy, copy.velocity, copy.duration) == (m, m.velocity, m.duration)
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.duration = 1.0

    def test_rejects_bad_speed(self):
        with pytest.raises(ValueError):
            Mission("m", Vec2(0, 0), Vec2(1, 0), 0.0)
        with pytest.raises(ValueError):
            Mission("m", Vec2(0, 0), Vec2(1, 0), -1.0)

    def test_rejects_zero_length_route(self):
        with pytest.raises(ValueError):
            Mission("m", Vec2(1, 2), Vec2(1, 2), 1.0)


class TestSeparationConfig:
    def test_h_is_the_only_setting(self):
        # tol is the fixed verification band, read by tests and the benchmark
        assert [f.name for f in dataclasses.fields(SeparationConfig)] == ["h"]
        assert SeparationConfig(h=1.5).tol == 1e-6
        with pytest.raises(TypeError):
            SeparationConfig(h=1.5, tol=1e-3)

    def test_rejects_non_positive_h(self):
        # the pair solver compares with h * h: inf and 1e200 overflow it,
        # 1e-200 underflows it to 0
        for h in (0.0, -1.0, math.nan, math.inf, 1e200, 1e-200):
            with pytest.raises(ValueError):
                SeparationConfig(h=h)


class TestMinSeparationSq:
    def test_crossing_collision(self, crossing_pair):
        a, b = crossing_pair
        assert min_separation_sq(a, 0.0, b, 0.0) == pytest.approx(0.0, abs=1e-12)
        # time-stepped oracle confirms
        assert oracle.sampled_min_separation_sq(a, 0.0, b, 0.0, 0.001) \
            == pytest.approx(0.0, abs=1e-5)

    def test_tangent_delay(self, crossing_pair):
        a, b = crossing_pair
        delta = 3.0 / ROOT2  # hand solution: min |R|^2 = delta^2 / 2 = h^2 at h=1.5
        assert min_separation_sq(a, 0.0, b, delta) == pytest.approx(2.25, abs=1e-6)
        assert oracle.sampled_min_separation_sq(a, 0.0, b, delta, 0.001, refine=True) \
            == pytest.approx(2.25, abs=1e-6)

    def test_parallel_constant_gap(self, parallel_pair):
        a, b = parallel_pair
        assert min_separation_sq(a, 0.0, b, 0.0) == 25.0

    def test_disjoint_windows_sentinel(self, crossing_pair):
        a, b = crossing_pair
        assert min_separation_sq(a, 0.0, b, a.duration + 1.0) == math.inf

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_departure_times(self, crossing_pair, bad):
        # a nan gap would read as no conflict in sep < h*h
        a, b = crossing_pair
        for times in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                min_separation_sq(a, times[0], b, times[1])

    def test_near_parallel_pairs_match_the_exact_minimum(self):
        # the ordered pinned pairs whose velocities differ by rounding alone:
        # at 41 delays each, the error is at most 2.2 EPS of max(exact, 1)
        # (8.2 EPS when |u|^2 <= 1e-18 read the gap at the window's start)
        near = []
        for a, b, _ in _pinned_pairs():
            for first, second in ((a, b), (b, a)):
                u = first.velocity - second.velocity
                if 0.0 < u.x * u.x + u.y * u.y <= 1e-18:
                    near.append((first, second))
        assert len(near) == 14
        for first, second in near:
            for delta in np.linspace(-second.duration, first.duration, 41):
                assert_exact_within(first, 0.0, second, float(delta), 4.0)

    def test_depends_only_on_delay_difference(self):
        for a, b in pair_stream(77, 60):
            delta = 1.7
            base = min_separation_sq(a, 0.0, b, delta)
            for shift in (5.0, 123.25):
                assert min_separation_sq(a, shift, b, shift + delta) \
                    == pytest.approx(base, rel=1e-12, abs=1e-12)


class TestForbiddenInterval:
    def test_crossing_pair(self, crossing_pair, cfg):
        a, b = crossing_pair
        fi = forbidden_interval(a, b, cfg)
        assert fi.kind is IntervalKind.BOUNDED
        assert fi.lo == pytest.approx(-3.0 / ROOT2, abs=1e-3)
        assert fi.hi == pytest.approx(3.0 / ROOT2, abs=1e-3)

    def test_parallel_empty(self, parallel_pair, cfg):
        assert forbidden_interval(*parallel_pair, cfg).kind is IntervalKind.EMPTY

    def test_identical_route_along_track(self, identical_pair, cfg):
        # along-track gap is speed*|delta| while co-airborne: conflict iff |delta| < h/speed
        fi = forbidden_interval(*identical_pair, cfg)
        assert fi.kind is IntervalKind.BOUNDED
        assert fi.lo == pytest.approx(-1.5, abs=1e-6)
        assert fi.hi == pytest.approx(1.5, abs=1e-6)
        # brute-force oracle agrees on both sides of each boundary
        a, b = identical_pair
        for delta, conflicting in ((-1.6, False), (-1.4, True), (1.4, True), (1.6, False)):
            d = oracle.sampled_min_separation_sq(a, 0.0, b, delta, 0.001, refine=True)
            assert (d < cfg.h ** 2) is conflicting

    def test_overtake_geometry_has_positive_roots(self, cfg):
        # slow agent crosses ahead; the faster one conflicts only when it
        # departs late enough to catch the crossing: both roots positive
        slow = Mission("s", Vec2(0, 0), Vec2(30, 0), 1.0)
        fast = Mission("f", Vec2(15, -10), Vec2(15, 10), 2.0)
        fi = forbidden_interval(slow, fast, cfg)
        assert fi.kind is IntervalKind.BOUNDED
        assert fi.lo > 0.0

    def test_endpoints_are_feasible_tangencies(self, cfg):
        # endpoints are always safe; interior endpoints are exact tangencies.
        # An endpoint at the edge of the co-airborne delay range resolves the
        # conflict by window disjointness instead (second agent departs as
        # the first lands), which can leave any separation >= h there.
        checked = tangent = 0
        for a, b in pair_stream(202, 300):
            fi = forbidden_interval(a, b, cfg)
            if fi.kind is not IntervalKind.BOUNDED:
                continue
            checked += 1
            for edge in (fi.lo, fi.hi):
                d = min_separation_sq(a, 0.0, b, edge)
                assert d >= cfg.h ** 2
                if -b.duration + 1e-3 < edge < a.duration - 1e-3:
                    tangent += 1
                    assert d <= cfg.h ** 2 + 1e-3
        assert checked >= 100 and tangent >= 100

    def test_spaced_topology_endpoints_are_tangent(self):
        # with vertiports no closer than h (generated topologies), every
        # bounded endpoint is a true tangency: separation exactly h there
        from deconflict.scenario import AirspaceConfig, generate_topology
        cfg = SeparationConfig(h=1.5)
        checked = 0
        for seed in range(40):
            missions = generate_topology(AirspaceConfig(n_agents=4, seed=seed))
            for i, a in enumerate(missions):
                for b in missions[i + 1:]:
                    fi = forbidden_interval(a, b, cfg)
                    if fi.kind is not IntervalKind.BOUNDED:
                        continue
                    checked += 1
                    for edge in (fi.lo, fi.hi):
                        d = min_separation_sq(a, 0.0, b, edge)
                        assert cfg.h ** 2 <= d <= cfg.h ** 2 + 1e-3, (a, b, edge, d)
        assert checked >= 50

    def test_mirror_symmetry(self, cfg):
        for a, b in pair_stream(303, 200):
            fi = forbidden_interval(a, b, cfg)
            fj = forbidden_interval(b, a, cfg)
            assert fi.kind is fj.kind
            if fi.kind is IntervalKind.BOUNDED:
                assert fj.lo == pytest.approx(-fi.hi, abs=1e-6)
                assert fj.hi == pytest.approx(-fi.lo, abs=1e-6)

    def test_no_second_forbidden_region(self, cfg):
        # outside a bounded span the separation stays >= h (grid scan)
        for a, b in pair_stream(404, 150):
            fi = forbidden_interval(a, b, cfg)
            deltas = np.arange(-b.duration - 1.0, a.duration + 1.0, 0.05)
            seps = oracle.delta_grid_min_sep_sq(a, b, deltas, 0.05, refine=True)
            for delta, d in zip(deltas, seps):
                if fi.kind is IntervalKind.BOUNDED and fi.lo < delta < fi.hi:
                    continue
                assert d >= cfg.h ** 2 - 1e-7, (a, b, delta, d)

    def test_interval_invariants(self):
        with pytest.raises(ValueError):
            ForbiddenInterval.bounded(2.0, 1.0)
        assert ForbiddenInterval.bounded(-1.0, 2.0).width == 3.0
        assert ForbiddenInterval.empty().width == 0.0


def _pinned_pairs():
    """Box pairs with their equal-velocity and same-track members, the
    sliver pairs of test_kernels, and the Atlanta pairs at h = 50 and 1000."""
    unit = SeparationConfig(h=1.5)
    cases = [(a, b, unit) for a, b in pair_stream(20260810, 400)]
    rng = np.random.default_rng(606)
    cases += [(*sliver_pair(rng.uniform(2.0, 8.0), rng.uniform(1e-6, 3e-6)), unit)
              for _ in range(40)]
    cases += [(*sliver_pair(x0, 0.0), unit)
              for x0 in np.random.default_rng(607).uniform(2.0, 8.0, 40)]
    cases += [(*sliver_pair(x0, 2e-6), unit) for x0 in (2.5, 7.25)]
    missions = atlanta.load_missions()
    cases += [(a, b, SeparationConfig(h=h)) for h in (50.0, 1000.0)
              for a, b in combinations(missions, 2)]
    return cases


@pytest.mark.parametrize("speed", [1.0 + 5e-10, 1.0 - 5e-10])
def test_far_flung_near_parallel_pair_conflicts(speed):
    """1e10 m parallel tracks 0.75 m apart at 1 and `speed` m/s, h = 1.5.

    |u|^2 is only 2.5e-19, yet the gap drifts 5 m along track over the
    flight: both agents departing together pass 0.75 m apart, so zero delay
    is forbidden in both orders, and the greedy schedule is safe.
    """
    cfg = SeparationConfig(h=1.5)
    a = Mission("a", Vec2(0.0, 0.0), Vec2(1e10, 0.0), 1.0)
    b = Mission("b", Vec2(0.0, 0.75), Vec2(1e10, 0.75), speed)
    for first, second in ((a, b), (b, a)):
        fi = forbidden_interval(first, second, cfg)
        assert fi.kind is IntervalKind.BOUNDED and fi.lo < 0.0 < fi.hi
        schedule = greedy_schedule([first, second], cfg)
        assert schedule.departures[1] > 0.0
        assert oracle.schedule_is_safe([first, second], schedule.departures,
                                       cfg.h, 1e6)
    assert_exact_within(a, 0.0, b, 3.0, 4.0)


def test_solver_output_is_pinned():
    digest = hashlib.sha256()
    for a, b, cfg in _pinned_pairs():
        for first, second in ((a, b), (b, a)):
            fi = forbidden_interval(first, second, cfg)
            digest.update(f"{fi.kind.value} {fi.lo.hex()} {fi.hi.hex()};".encode())
        digest.update(f"{min_separation_sq(a, 0.3, b, 1.7).hex()};".encode())
    assert digest.hexdigest() == SOLVER_PIN


def _scaled(m, space, speed):
    return Mission(m.id, m.origin.scaled(space), m.destination.scaled(space),
                   m.speed * speed)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("generic", "equal_velocity", "same_track")),
       h=st.sampled_from((0.5, 1.5, 3.0)),
       factors=st.sampled_from(((2.0, 1.0), (1024.0, 1.0), (1.0, 2.0), (2.0, 2.0))))
def test_power_of_two_scalings_scale_the_span_exactly(seed, kind, h, factors):
    """Positions and h scaled by f and speeds by g scale lo and hi by f / g.

    Every float operation of the solver then scales by a power of two, so
    the span's ends follow bit for bit: doubling space, or space by 1024,
    doubles them or multiplies them by 1024, doubling speeds halves them,
    and doubling both leaves them as they were.
    """
    space, speed = factors
    a, b = random_pair(np.random.default_rng(seed), kind)
    base = forbidden_interval(a, b, SeparationConfig(h=h))
    fi = forbidden_interval(_scaled(a, space, speed), _scaled(b, space, speed),
                            SeparationConfig(h=h * space))
    assert fi.kind is base.kind
    assert fi.lo == base.lo * space / speed
    assert fi.hi == base.hi * space / speed


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_bounded_interval_contains_its_conflicts(seed):
    rng = np.random.default_rng(seed)
    a, b = random_pair(rng)
    cfg = SeparationConfig(h=1.5)
    fi = forbidden_interval(a, b, cfg)
    rs = np.random.default_rng(seed + 1)
    for _ in range(20):
        delta = rs.uniform(-b.duration, a.duration)
        conflicting = min_separation_sq(a, 0.0, b, delta) < cfg.h ** 2
        if conflicting:
            assert fi.kind is IntervalKind.BOUNDED and fi.lo < delta < fi.hi
