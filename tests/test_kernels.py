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
from helpers import pair_stream, random_instance, sliver_pair

CFG = SeparationConfig(h=1.5)

# sha256 of the oracle's float64 output bytes on the fixed inputs below; a
# single changed bit fails these tests. The refine=False pins date from the
# per-window and per-delay-grid samplers the one row sampler replaced; the
# refine=True pins were taken when one parabolic step replaced the ternary
# search, which moved each output by under 1.4e-11 of its value
PAIR_GRID_PIN = "eba8707dcc1f94194d8a64c9d304e1f3cfc76d092e6684cd9ac130d76081d5c3"
EDGE_GRID_PINS = {
    True: "a3d2b53d19cdebb1032fe1f02f886214e6e5957330b8e8eda8214e1abf13e77a",
    False: "7bb25b8257228795782499c7345fa3db39bebd2ec1bed20a8f9e87d7accac3e8",
}
# sha256 of pairs_min_sep_sq(..., refine=True) on _polish_rows
POLISH_PIN = "4f07c1fb815306b1fa42b2c3465e781de517ac8ce662bd942f8571a6f1265bbe"
SCHEDULE_PINS = {
    (0.01, False): "e66ab366d8b99e1ce777b453b26e22d48410670b258919099d4c4b753de6e0e5",
    (0.01, True): "4098f6098e5a61c018c59d1bb5959a3264086126fa94a47a0b9b1db50c3647c4",
    (0.001, False): "fac06e4d2e4c7b92f3e5abe0dc7776564c8573603cfde1edff7d2c0acf376b07",
    (0.001, True): "609625d2f96addf83403950e9b43f85e54c265bf76596c4ace31ce14184c8a7f",
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


def _exact_min_sq(a, ta, b, tb):
    """The true minimum of |u t + c|^2 over the co-airborne window, and the
    scale (|u| T + |c|)^2 of its rounding error, T the window's latest
    instant; None for an empty window.

    u and c are exact over the stored floats (Fraction), and so is the
    clamped vertex -(u.c)/|u|^2. The window's ends are the float sums the
    oracle is asked about, max(ta, tb) and min(ta + dur_a, tb + dur_b).
    """
    w0, w1 = max(ta, tb), min(ta + a.duration, tb + b.duration)
    if w0 > w1:
        return None
    va, vb = a.velocity, b.velocity
    ux, uy = Fraction(va.x) - Fraction(vb.x), Fraction(va.y) - Fraction(vb.y)
    cx = (Fraction(a.origin.x) - Fraction(va.x) * Fraction(ta)
          - Fraction(b.origin.x) + Fraction(vb.x) * Fraction(tb))
    cy = (Fraction(a.origin.y) - Fraction(va.y) * Fraction(ta)
          - Fraction(b.origin.y) + Fraction(vb.y) * Fraction(tb))
    uu = ux * ux + uy * uy
    t = Fraction(w0)
    if uu:
        t = min(max(-(ux * cx + uy * cy) / uu, t), Fraction(w1))
    gx, gy = ux * t + cx, uy * t + cy
    scale = math.sqrt(uu) * max(abs(w0), abs(w1)) + math.hypot(cx, cy)
    return gx * gx + gy * gy, scale * scale


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
        oracle.delta_grid_min_sep_sq(a, b, np.array([0.0, 1.0]), 1.0)
    with pytest.raises(ValueError, match="int64"):
        oracle.schedule_pair_min_seps([a, b], [0.0, 0.0], 1.0)


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
