"""Checks of the hot paths through the public entry points: the oracle's
outputs pinned bit for bit, its refined minimum against an exact reference,
its checks of the sampling step, the departure times, the input lengths and
the sample count, clamped-window edge cases, and the pair solver's
tangency, corner and sliver cases and certified endpoints, and the oracle's
independence from the solver's code."""

import ast
import hashlib
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import deconflict
from deconflict import oracle
from deconflict.kinematics import (IntervalKind, Mission, SeparationConfig, Vec2,
                                   forbidden_interval, min_separation_sq)
from helpers import (magnitude_scale, pair_stream, random_instance, scaled,
                     sliver_pair)

CFG = SeparationConfig(h=1.5)

# sha256 of the oracle's float64 output bytes on the fixed inputs below; a
# single changed bit fails these tests. The refine=False pins date from the
# per-window and per-delay-grid samplers the one row sampler replaced; the
# refine=True pins were taken when the parabolic step came to bracket the
# whole window instead of the sampled argmin +- dt, which moved each output
# by under 6e-12 of its value, and they do not depend on dt
PAIR_GRID_PIN = "4da2f8c84916b50c6e51319c7d4b54a8f8a7ff5221a28eebe310597f6b755b7b"
EDGE_GRID_PINS = {
    True: "834098798973fdf510b13d5973a93c77407670a8950ecdbbbfeaf62b8271a8d6",
    False: "7bb25b8257228795782499c7345fa3db39bebd2ec1bed20a8f9e87d7accac3e8",
}
# sha256 of pairs_min_sep_sq(..., refine=True) on _polish_rows
POLISH_PIN = "f5d4c7e76ec37c35f6d2b4652231f9a4a01073d07b791b234c74ab7e9f313ca2"
SCHEDULE_PINS = {
    (0.01, False): "e66ab366d8b99e1ce777b453b26e22d48410670b258919099d4c4b753de6e0e5",
    (0.01, True): "c03b463c9c22ee011d090a15b9a01dc849232586d71e03ab691eb731beeb6b5c",
    (0.001, False): "fac06e4d2e4c7b92f3e5abe0dc7776564c8573603cfde1edff7d2c0acf376b07",
    (0.001, True): "c03b463c9c22ee011d090a15b9a01dc849232586d71e03ab691eb731beeb6b5c",
}


def _pin(outputs):
    h = hashlib.sha256()
    for x in outputs:
        h.update(np.ascontiguousarray(x, dtype="<f8").tobytes())
    return h.hexdigest()


def test_grid_kernel_output_is_pinned():
    deltas = np.linspace(-6.0, 6.0, 25)
    assert _pin(oracle.delta_grid_min_sep_sq(a, b, deltas, 0.02, True)
                for a, b in pair_stream(32, 20)) == PAIR_GRID_PIN


def _grid(a, b, deltas, dt, refine):
    grid = oracle.delta_grid_min_sep_sq(a, b, deltas, dt, refine)
    assert grid.shape == deltas.shape and grid.dtype == np.float64
    return grid


def _edge_grids(refine):
    grids = []
    for a, b in pair_stream(36, 6):
        # past both ends the windows are disjoint; -dur_b and dur_a give
        # zero-length windows, and the grid also holds 0.0 and -0.0
        edges = np.array([-b.duration - 0.5, -b.duration, -0.0, 0.0,
                          a.duration, a.duration + 0.5])
        grid = _grid(a, b, edges, 0.02, refine)
        assert grid[0] == grid[-1] == math.inf
        assert np.isfinite(grid[1:-1]).all()
        # a fine step: the grid's samples fill several CHUNK blocks
        deltas = np.concatenate([np.linspace(-b.duration, a.duration, 15), edges])
        windows = (np.minimum(a.duration, deltas + b.duration)
                   - np.maximum(0.0, deltas))
        assert np.sum(windows[windows >= 0.0] / 0.001) > 2 * oracle.CHUNK
        grids += [grid, _grid(a, b, deltas, 0.001, refine)]
    for x0 in (2.5, 7.25):
        # perfbench's fine grid across a sliver pair's few-millisecond conflict
        a, b = sliver_pair(x0, 2e-6)
        fine = b.destination.x - b.duration + np.linspace(-0.02, 0.02, 401)
        grids.append(_grid(a, b, fine, 0.05, refine))
    return grids


@pytest.mark.parametrize("refine", [True, False])
def test_edge_grids_are_pinned(refine):
    assert _pin(_edge_grids(refine)) == EDGE_GRID_PINS[refine]


def _polish_rows():
    """Rows that refine at very different time scales in one call.

    Pairs depart at 0 s up to 1e6 s, km-scale and unit-scale, where one ulp
    of the departure is up to 1.2e-10 s; windows of zero length or of
    4e-13 s make a bracket of one instant or of a few ulps; disjoint windows
    give inf.
    """
    rng = np.random.default_rng(2207)
    rows = []
    km = [Mission(f"K{i}", Vec2(*rng.uniform(-2e4, 2e4, 2)),
                  Vec2(*rng.uniform(-2e4, 2e4, 2)), rng.uniform(10.0, 40.0))
          for i in range(6)]
    for a, b in zip(km, km[1:] + km[:1]):
        for ta in (0.0, 2e4, 5e4, 1e6):
            rows += [(a, ta, b, tb)
                     for tb in ta + rng.uniform(-b.duration, a.duration, 3)]
    for a, b in pair_stream(2207, 24):
        rows += [(a, ta, b, ta + rng.uniform(-b.duration, a.duration))
                 for ta in (0.0, 3.0, 100.0, 2e4)]
        rows += [(a, 0.0, b, a.duration), (a, 7.0, b, 7.0 - b.duration),
                 (a, 0.0, b, a.duration - 4e-13), (a, 0.0, b, a.duration + 0.5),
                 (a, 1e6, b, 1e6 - b.duration - 0.5)]
    return zip(*rows)


def test_polish_output_is_pinned():
    firsts, t_firsts, seconds, t_seconds = _polish_rows()
    seps = [oracle.pairs_min_sep_sq(firsts, t_firsts, seconds, t_seconds, dt, True)
            for dt in (0.05, 1.0)]
    assert np.isinf(seps[0]).sum() == 48
    assert _pin(seps) == POLISH_PIN


def _exact_gap(a, ta, b, tb, w0, w1):
    """The true minimum of |u t + c|^2 over the window [w0, w1] and the
    exact u and c: a departing ta and b departing tb, all in Fraction.

    u and c are exact over the stored floats, and so is the clamped vertex
    -(u.c)/|u|^2.
    """
    va, vb = a.velocity, b.velocity
    ux, uy = Fraction(va.x) - Fraction(vb.x), Fraction(va.y) - Fraction(vb.y)
    cx = (Fraction(a.origin.x) - Fraction(va.x) * ta
          - Fraction(b.origin.x) + Fraction(vb.x) * tb)
    cy = (Fraction(a.origin.y) - Fraction(va.y) * ta
          - Fraction(b.origin.y) + Fraction(vb.y) * tb)
    uu = ux * ux + uy * uy
    t = w0
    if uu:
        t = min(max(-(ux * cx + uy * cy) / uu, w0), w1)
    gx, gy = ux * t + cx, uy * t + cy
    return gx * gx + gy * gy, uu, cx, cy


def _exact_min_sq(a, ta, b, tb):
    """The true minimum of |u t + c|^2 over the co-airborne window, and the
    scale (|u| T + |c|)^2 of its rounding error, T the window's latest
    instant; None for an empty window. The window's ends are the float sums
    the oracle is asked about, max(ta, tb) and min(ta + dur_a, tb + dur_b).
    """
    w0, w1 = max(ta, tb), min(ta + a.duration, tb + b.duration)
    if w0 > w1:
        return None
    m2, uu, cx, cy = _exact_gap(a, Fraction(ta), b, Fraction(tb),
                                Fraction(w0), Fraction(w1))
    scale = math.sqrt(uu) * max(abs(w0), abs(w1)) + math.hypot(cx, cy)
    return m2, scale * scale


def _exact_rows():
    """(dt, firsts, t_firsts, seconds, t_seconds) batches: _polish_rows, AC2
    pairs (equal-velocity and same-track among them) on a coarse delay grid,
    and a sliver pair's few-millisecond conflict."""
    for dt in (0.05, 1.0):
        yield dt, *_polish_rows()
    rows = []
    for a, b in pair_stream(20260810, 40):
        rows += [(a, 0.0, b, d) for d in np.arange(-b.duration - 0.5,
                                                   a.duration + 0.5, 0.5)]
    yield 0.05, *zip(*rows)
    a, b = sliver_pair(2.5, 2e-6)
    yield 0.05, *zip(*[(a, 0.0, b, d) for d in
                       b.destination.x - b.duration + np.linspace(-0.02, 0.02, 41)])


def test_refined_oracle_is_exact_up_to_rounding():
    # the refined minimum is within 1e-11 (|u| T + |c|)^2 of the exact one;
    # plain sampling is not, so skipping the refinement fails this test
    rows = plain_misses = 0
    for dt, firsts, t_firsts, seconds, t_seconds in _exact_rows():
        exact = [_exact_min_sq(*row) for row in zip(firsts, t_firsts, seconds, t_seconds)]
        for refine in (True, False):
            seps = oracle.pairs_min_sep_sq(firsts, t_firsts, seconds, t_seconds,
                                           dt, refine)
            for sep, ex in zip(seps.tolist(), exact):
                if ex is None:
                    assert sep == math.inf
                    continue
                within = abs(Fraction(sep) - ex[0]) <= 1e-11 * ex[1]
                if refine:
                    assert within, (sep, float(ex[0]))
                    rows += 1
                else:
                    plain_misses += not within
    assert rows > 1500 and plain_misses > 100


def _far_rows():
    """(dt, firsts, t_firsts, seconds, t_seconds): box pairs translated by
    1e3..1e12 m or scaled by 2^10..2^40 (speeds too), at delays across each
    pair's window."""
    rows = []
    for k, (a, b) in enumerate(pair_stream(3003, 16)):
        for fa, fb in (scaled([a, b], shift=10.0 ** (3 + 3 * (k % 4))),
                       scaled([a, b], factor=2.0 ** (10 + 10 * (k % 4)))):
            rows += [(fa, 0.0, fb, d)
                     for d in np.linspace(-fb.duration, fa.duration, 9)]
    yield 0.05, *zip(*rows)


def _exact_shortfall(sep_sq, a, ta, b, tb):
    """How far the oracle's separation sqrt(sep_sq) lies below the true
    minimum over the exact co-airborne window, in units of eps * S; None
    for an empty exact window. The true minimum's root is bounded above to
    within 2^-200."""
    ta, tb = Fraction(ta), Fraction(tb)
    w0 = max(ta, tb)
    w1 = min(ta + Fraction(a.duration), tb + Fraction(b.duration))
    if w0 > w1:
        return None
    if sep_sq == math.inf:
        return -math.inf
    m2 = _exact_gap(a, ta, b, tb, w0, w1)[0]
    root = Fraction(math.isqrt(m2.numerator * 4 ** 200 // m2.denominator) + 1,
                    2 ** 200)
    short = root - Fraction(math.sqrt(sep_sq))
    eps = Fraction(np.finfo(np.float64).eps)
    return float(short / (eps * magnitude_scale(a, ta, b, tb)))


def test_refined_separation_clears_exact_minimum_within_rounding_bound():
    # schedule_is_safe's gate forgives ROUNDING_K * eps * S below h: the
    # refined separation never lies further below the exact minimum
    worst, rows = -math.inf, 0
    for dt, *batch in (*_exact_rows(), *_far_rows()):
        seps = oracle.pairs_min_sep_sq(*batch, dt, refine=True)
        for sep_sq, row in zip(seps.tolist(), zip(*batch)):
            short = _exact_shortfall(sep_sq, *row)
            if short is not None:
                worst = max(worst, short)
                rows += 1
    print(f"worst shortfall below the exact minimum: {worst:.3g} eps * S "
          f"over {rows} rows")
    assert rows > 2000 and worst < oracle.ROUNDING_K


def test_parallel_pair_inside_millimetre_separation_is_unsafe():
    # 2.1 mm apart at h = 3 mm: a 30 % violation the solver sees at delay 0
    a = Mission("a", Vec2(0.0, 0.0), Vec2(10.0, 0.0), 1.0)
    b = Mission("b", Vec2(0.0, 0.0021), Vec2(10.0, 0.0021), 1.0)
    fi = forbidden_interval(a, b, SeparationConfig(h=0.003))
    assert fi.kind is IntervalKind.BOUNDED and fi.lo < 0.0 < fi.hi
    assert not oracle.schedule_is_safe([a, b], [0.0, 0.0], 0.003, 0.01)


def test_schedule_verdict_does_not_depend_on_dt():
    # closest pass 0.354 m at t = 5.25 s; plain samples at dt = 4 s (0, 4, 8
    # and 10 s) come no nearer than 1.80 m
    a = Mission("a", Vec2(0.0, 0.0), Vec2(10.0, 0.0), 1.0)
    b = Mission("b", Vec2(5.5, -5.0), Vec2(5.5, 5.0), 1.0)
    for dt in (0.001, 0.01, 1.0, 4.0):
        assert not oracle.schedule_is_safe([a, b], [0.0, 0.0], 1.5, dt), dt
        # the pass is exactly sqrt(0.125) m, which clears h = sqrt(0.125)
        assert oracle.schedule_is_safe([a, b], [0.0, 0.0], 0.125 ** 0.5, dt), dt


def test_parked_mission_in_a_crossing_path_is_unsafe():
    # a at 1e-310 m/s takes an infinite time to fly its 1 m, so S must come
    # from the co-airborne window, which ends when b lands; b flies through
    # a at t = 5 s
    a = Mission("a", Vec2(0.0, 0.0), Vec2(1.0, 0.0), 1e-310)
    b = Mission("b", Vec2(-5.0, 0.0), Vec2(5.0, 0.0), 1.0)
    assert a.duration == math.inf
    assert not oracle.schedule_is_safe([a, b], [0.0, 0.0], 1.5, 0.01)


def test_schedule_check_rejects_a_magnitude_scale_beyond_float64():
    # 1e300 m/s times the 1e10 s departure overflows S, and with it the
    # sampled gap: the rounding bound cannot hold, so no verdict is given
    a = Mission("a", Vec2(0.0, 0.0), Vec2(1.0, 0.0), 1e300)
    b = Mission("b", Vec2(0.0, -1e10), Vec2(0.0, 1e10), 1.0)
    with pytest.raises(ValueError, match="magnitude scale"):
        oracle.schedule_is_safe([a, b], [1e10, 0.0], 1.5, 0.01)


def _schedules():
    """100 seeded 4-7-agent schedules with departures in [0, 15) s."""
    rng = np.random.default_rng(39)
    for k in range(100):
        missions = random_instance(rng, 4 + k % 4)
        yield missions, rng.uniform(0.0, 15.0, len(missions))


@pytest.mark.parametrize("dt, refine", list(SCHEDULE_PINS))
def test_schedule_pair_seps_are_pinned(dt, refine):
    seps = [oracle.schedule_pair_min_seps(missions, deps, dt, refine)
            for missions, deps in _schedules()]
    assert _pin(seps) == SCHEDULE_PINS[dt, refine]
    # the same rows through the row entry and the one-window entry
    missions, deps = next(_schedules())
    first, second = zip(*combinations(zip(missions, deps.tolist()), 2))
    sq = oracle.pairs_min_sep_sq(*zip(*first), *zip(*second), dt, refine)
    assert np.sqrt(sq).tolist() == seps[0].tolist()
    assert sq.tolist() == [oracle.sampled_min_separation_sq(a, ta, b, tb, dt, refine)
                           for (a, ta), (b, tb) in zip(first, second)]


def test_grid_kernel_returns_float64_of_input_shape():
    a, b = next(pair_stream(37, 1))
    deltas = np.linspace(-b.duration - 1.0, a.duration + 1.0, 1000)
    for shaped in (deltas, deltas.reshape(40, 25)):
        grid = oracle.delta_grid_min_sep_sq(a, b, shaped, 0.05)
        assert grid.dtype == np.float64
        assert grid.shape == shaped.shape
    assert np.array_equal(grid.ravel(), oracle.delta_grid_min_sep_sq(a, b, deltas, 0.05))


@pytest.mark.parametrize("dt", [0.0, -0.05, math.nan, math.inf])
def test_oracle_rejects_unusable_dt(dt):
    # inf would make the first sample nan, which a `sep < h*h` test
    # reads as no conflict
    a, b = next(pair_stream(38, 1))
    with pytest.raises(ValueError, match="dt"):
        oracle.sampled_min_separation_sq(a, 0.0, b, 0.5, dt)
    with pytest.raises(ValueError, match="dt"):
        oracle.pairs_min_sep_sq([a], [0.0], [b], [0.5], dt)
    with pytest.raises(ValueError, match="dt"):
        oracle.delta_grid_min_sep_sq(a, b, np.linspace(-1.0, 1.0, 5), dt)
    with pytest.raises(ValueError, match="dt"):
        oracle.schedule_pair_min_seps([a, b], [0.0, 0.5], dt)
    with pytest.raises(ValueError, match="dt"):
        oracle.schedule_is_safe([a], [0.0], 1.5, dt)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_oracle_rejects_non_finite_times(bad):
    # a nan departure or delay would make the sampled minimum nan, which a
    # `sep < h*h` test reads as no conflict
    a, b = next(pair_stream(38, 1))
    with pytest.raises(ValueError, match="finite"):
        oracle.sampled_min_separation_sq(a, 0.0, b, bad, 0.05)
    with pytest.raises(ValueError, match="finite"):
        oracle.sampled_min_separation_sq(a, bad, b, 0.5, 0.05)
    with pytest.raises(ValueError, match="finite"):
        oracle.pairs_min_sep_sq([a, b], [0.0, 0.0], [b, a], [0.5, bad], 0.05)
    with pytest.raises(ValueError, match="finite"):
        oracle.delta_grid_min_sep_sq(a, b, np.array([-1.0, bad, 1.0]), 0.05)
    with pytest.raises(ValueError, match="finite"):
        oracle.schedule_pair_min_seps([a, b], [0.0, bad], 0.05)
    with pytest.raises(ValueError, match="finite"):
        oracle.schedule_is_safe([a, b, a], [bad, 0.5, 1.0], 1.5, 0.05)


def test_oracle_rejects_inputs_of_unequal_length():
    a, b = next(pair_stream(39, 1))
    with pytest.raises(ValueError):
        oracle.schedule_pair_min_seps([a, b], [0.0], 0.05)
    with pytest.raises(ValueError):
        oracle.schedule_is_safe([a, b], [0.0, 0.5, 1.0], 1.5, 0.05)
    with pytest.raises(ValueError, match="length"):
        oracle.pairs_min_sep_sq([a, b], [0.0, 0.0], [b], [0.5, 1.0], 0.05)


def test_oracle_rejects_windows_beyond_int64_samples():
    # 1e300 steps of dt would wrap the int64 sample count negative
    a = Mission("a", Vec2(0.0, 0.0), Vec2(1e300, 0.0), 1.0)
    b = Mission("b", Vec2(0.0, 1.0), Vec2(1e300, 1.0), 1.0)
    with pytest.raises(ValueError, match="int64"):
        oracle.pairs_min_sep_sq([a], [0.0], [b], [0.0], 1.0)
    with pytest.raises(ValueError, match="int64"):
        oracle.delta_grid_min_sep_sq(a, b, np.array([0.0, 1.0]), 1.0, refine=False)
    with pytest.raises(ValueError, match="int64"):
        oracle.schedule_pair_min_seps([a, b], [0.0, 0.0], 1.0)
    # a refined row samples no grid: the gap is 1 m at delay 0 and
    # sqrt(2) m at delay 1, all window long
    assert oracle.delta_grid_min_sep_sq(a, b, np.array([0.0, 1.0]),
                                        1.0).tolist() == [1.0, 2.0]


def test_refined_rows_do_not_depend_on_dt():
    # a refined row brackets its whole window, whatever dt
    a, b = next(pair_stream(41, 1))
    deltas = np.linspace(-b.duration - 0.5, a.duration + 0.5, 201)
    fine = oracle.delta_grid_min_sep_sq(a, b, deltas, 0.001)
    assert fine.tobytes() == oracle.delta_grid_min_sep_sq(a, b, deltas, 4.0).tobytes()
    assert SCHEDULE_PINS[0.01, True] == SCHEDULE_PINS[0.001, True]


def test_refined_rows_do_not_depend_on_their_batch():
    # one call over more rows than 4096, which filled a (rows x 2) CHUNK
    # block when refined rows were sampled in blocks, equals each row's
    # one-row call bit for bit; the rows hold disjoint windows, zero-length
    # windows and equal-velocity pairs
    pairs = list(pair_stream(4242, 60))
    for k in range(4):
        a = Mission("p", Vec2(0.0, 0.0), Vec2(10.0, 0.0), 2.0 + k)
        pairs.append((a, Mission("q", Vec2(1.0 + k, 3.0), Vec2(11.0 + k, 3.0),
                                 2.0 + k)))
    rows = []
    for a, b in pairs:
        rows += [(a, 0.0, b, d) for d in
                 np.linspace(-b.duration - 0.5, a.duration + 0.5, 64).tolist()]
        rows += [(a, 0.0, b, -b.duration), (a, 0.0, b, a.duration)]
    assert len(rows) > 4096
    assert sum(a.velocity == b.velocity for a, _, b, _ in rows) >= 4 * 66
    batch = oracle.pairs_min_sep_sq(*zip(*rows), 0.05, refine=True)
    one = [oracle.sampled_min_separation_sq(*row, 0.05, True) for row in rows]
    assert batch.tobytes() == np.array(one).tobytes()
    disjoint = [max(ta, tb) > min(ta + a.duration, tb + b.duration)
                for a, ta, b, tb in rows]
    assert np.isinf(batch).tolist() == disjoint and sum(disjoint) >= 2 * len(pairs)


def test_refined_rows_allocate_no_samples_per_dt():
    # 1e17 s windows, 1e17 samples at dt 1.0 unrefined: a refined row
    # samples four instants and finds the crossing at t = 5e16 s
    a = Mission("a", Vec2(0.0, 0.0), Vec2(1e17, 0.0), 1.0)
    b = Mission("b", Vec2(5e16, -5e16), Vec2(5e16, 5e16), 1.0)
    assert oracle.pairs_min_sep_sq([a], [0.0], [b], [0.0], 1.0,
                                   refine=True).tolist() == [0.0]


def test_pair_min_sep_disjoint_windows():
    a, b = next(pair_stream(33, 1))
    assert min_separation_sq(a, 0.0, b, a.duration + b.duration + 1.0) == math.inf


def test_constant_gap_branch():
    # identical velocities: the gap never changes while both fly
    a = Mission("a", Vec2(0.0, 0.0), Vec2(10.0, 0.0), 1.0)
    b = Mission("b", Vec2(0.0, 3.0), Vec2(10.0, 3.0), 1.0)
    assert min_separation_sq(a, 0.0, b, 0.0) == 9.0


def test_forbidden_core_tangent_is_empty():
    # parallel offset exactly h: lateral miss equals h, strict violation never occurs
    a = Mission("a", Vec2(0.0, 0.0), Vec2(10.0, 0.0), 1.0)
    b = Mission("b", Vec2(0.0, 1.5), Vec2(10.0, 1.5), 1.0)
    assert forbidden_interval(a, b, CFG).kind is IntervalKind.EMPTY
    # b twice as fast: the gap touches h at every delay in [0, 5], never less
    b = Mission("b", Vec2(0.0, 1.5), Vec2(10.0, 1.5), 2.0)
    assert forbidden_interval(a, b, CFG).kind is IntervalKind.EMPTY


def test_forbidden_core_corner_conflict():
    # b takes off 0.5 m from where a lands: departing as a lands still
    # conflicts, at the single co-airborne instant, so hi lies just past dur_a
    a = Mission("a", Vec2(0.0, 0.0), Vec2(10.0, 0.0), 1.0)
    b = Mission("b", Vec2(10.0, 0.5), Vec2(10.0, 10.5), 1.0)
    fi = forbidden_interval(a, b, CFG)
    assert fi.kind is IntervalKind.BOUNDED
    assert 10.0 < fi.hi <= 10.0 + 1e-9


def test_sliver_conflicts_are_bounded():
    # conflicts only for a few milliseconds of delay around x0 - dur_b, as b
    # arrives just inside a's buffer while a passes under it
    rng = np.random.default_rng(606)
    cfg = SeparationConfig(h=1.5)
    hh = cfg.h * cfg.h
    for _ in range(40):
        a, b = sliver_pair(rng.uniform(2.0, 8.0), rng.uniform(1e-6, 3e-6))
        fi = forbidden_interval(a, b, cfg)
        assert fi.kind is IntervalKind.BOUNDED
        assert min_separation_sq(a, 0.0, b, fi.lo) >= hh
        assert min_separation_sq(a, 0.0, b, fi.hi) >= hh
        mid = 0.5 * (fi.lo + fi.hi)
        assert oracle.sampled_min_separation_sq(a, 0.0, b, mid, dt=1e-4,
                                                refine=True) < hh


def test_sliver_tangent_limit_is_empty():
    # eps = 0: b stops exactly h from a's track, so the closest pass is a tangency
    rng = np.random.default_rng(607)
    cfg = SeparationConfig(h=1.5)
    for x0 in rng.uniform(2.0, 8.0, 40):
        assert forbidden_interval(*sliver_pair(x0, 0.0), cfg).kind is IntervalKind.EMPTY


def test_forbidden_core_endpoints_certified_safe():
    hh = 1.5 * 1.5
    for a, b in pair_stream(34, 150):
        fi = forbidden_interval(a, b, CFG)
        if fi.kind is not IntervalKind.BOUNDED:
            continue
        assert min_separation_sq(a, 0.0, b, fi.lo) >= hh
        assert min_separation_sq(a, 0.0, b, fi.hi) >= hh
        mid = 0.5 * (fi.lo + fi.hi)
        assert min_separation_sq(a, 0.0, b, mid) < hh


def _package_imports(path):
    """(module, imported names) of every deconflict-internal import in a file.

    module is relative to the package ("kinematics"), or "" for
    `from . import x`.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "deconflict":
                    continue
                module = module.removeprefix("deconflict").lstrip(".")
            found.append((module, tuple(a.name for a in node.names)))
        elif isinstance(node, ast.Import):
            found += [(a.name.removeprefix("deconflict").lstrip("."), ())
                      for a in node.names if a.name.split(".")[0] == "deconflict"]
    return found


def test_oracle_shares_no_code_with_solver():
    src = Path(deconflict.__file__).parent
    assert _package_imports(src / "oracle.py") == [("kinematics", ("Mission",))]
    for path in src.glob("*.py"):
        for module, names in _package_imports(path):
            assert "_kernels" not in module.split(".") + list(names), path.name
