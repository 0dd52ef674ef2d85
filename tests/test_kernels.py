"""Checks of the hot paths through the public entry points: the oracle's
outputs pinned bit for bit, its checks of the sampling step, the departure
times, the input lengths and the sample count, clamped-window edge cases,
and the pair solver's tangency, corner and sliver cases and certified
endpoints, and the oracle's independence from the solver's code."""

import ast
import hashlib
import math
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

# sha256 of the oracle's float64 output bytes on the fixed inputs below, as
# the per-window and per-delay-grid samplers gave them before the one row
# sampler replaced both; a single changed bit fails these tests
PAIR_GRID_PIN = "263d78b87eeb4ca719aede5ffc1bacf8a71a2ffc8d1168d064abe8fa4a5f550e"
EDGE_GRID_PINS = {
    True: "a275bcf05e924fed3557f290319739e4583c357d10ead7734f0c2349f4b2c7e6",
    False: "7bb25b8257228795782499c7345fa3db39bebd2ec1bed20a8f9e87d7accac3e8",
}
# sha256 of pairs_min_sep_sq(..., refine=True) on _polish_rows, taken before
# the polish dropped stopped rows from its working arrays
POLISH_PIN = "049196a96db9fcc10eb6f8016787035ceb56c6ee4e6c0a4d996f9ada88f0beee"
SCHEDULE_PINS = {
    (0.01, False): "e66ab366d8b99e1ce777b453b26e22d48410670b258919099d4c4b753de6e0e5",
    (0.01, True): "7c8d4ed5c4dbdf7d0b0b1ee62af9c2b6736ac010e5961c32921d6a09e841e315",
    (0.001, False): "fac06e4d2e4c7b92f3e5abe0dc7776564c8573603cfde1edff7d2c0acf376b07",
    (0.001, True): "a074e5b16efa2a673b98651092a05cc26a382c18158ec94e6afc8aea2bbc8e86",
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
    """Rows whose ternary polish stops at different steps in one call.

    Pairs departing at 2e4 s and later, km-scale and unit-scale, never
    narrow their bracket to 1e-12 s (one ulp of the departure is wider) and
    run all 200 steps; earlier ones stop after 61-71; windows of zero length
    or narrower than 1e-12 s start stopped; disjoint windows give inf.
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
