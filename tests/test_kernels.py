"""Checks of the hot paths through the public entry points: the oracle's
delay grid against its per-pair sampler, its checks of the sampling step,
clamped-window edge cases, and the pair solver's tangency, corner and sliver
cases and certified endpoints, and the oracle's independence from the
solver's code."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import deconflict
from deconflict import oracle
from deconflict.kinematics import (IntervalKind, Mission, SeparationConfig, Vec2,
                                   forbidden_interval, min_separation_sq)
from helpers import pair_stream

CFG = SeparationConfig(h=1.5)


def test_grid_kernel_matches_scalar_calls():
    deltas = np.linspace(-6.0, 6.0, 25)
    for a, b in pair_stream(32, 20):
        grid = oracle.delta_grid_min_sep_sq(a, b, deltas, 0.02, True)
        for d, g in zip(deltas, grid):
            assert g == oracle.sampled_min_separation_sq(a, 0.0, b, float(d), 0.02, True)


def _assert_grid_matches_scalar(a, b, deltas, dt, refine):
    grid = oracle.delta_grid_min_sep_sq(a, b, deltas, dt, refine)
    assert grid.shape == deltas.shape
    for d, g in zip(deltas.tolist(), grid.tolist()):
        assert g == oracle.sampled_min_separation_sq(a, 0.0, b, d, dt, refine), d
    return grid


@pytest.mark.parametrize("refine", [True, False])
def test_grid_kernel_matches_scalar_calls_on_edge_grids(refine):
    for a, b in pair_stream(36, 6):
        # past both ends the windows are disjoint; -dur_b and dur_a give
        # zero-length windows, and the grid also holds 0.0 and -0.0
        edges = np.array([-b.duration - 0.5, -b.duration, -0.0, 0.0,
                          a.duration, a.duration + 0.5])
        grid = _assert_grid_matches_scalar(a, b, edges, 0.02, refine)
        assert grid[0] == grid[-1] == math.inf
        assert np.isfinite(grid[1:-1]).all()
        # a fine step: the grid's samples fill several CHUNK blocks
        deltas = np.concatenate([np.linspace(-b.duration, a.duration, 15), edges])
        windows = (np.minimum(a.duration, deltas + b.duration)
                   - np.maximum(0.0, deltas))
        assert np.sum(windows[windows >= 0.0] / 0.001) > 2 * oracle.CHUNK
        _assert_grid_matches_scalar(a, b, deltas, 0.001, refine)
    for x0 in (2.5, 7.25):
        # perfbench's fine grid across a sliver pair's few-millisecond conflict
        a, b = _sliver(x0, 2e-6)
        fine = b.destination.x - b.duration + np.linspace(-0.02, 0.02, 401)
        _assert_grid_matches_scalar(a, b, fine, 0.05, refine)


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
        oracle.delta_grid_min_sep_sq(a, b, np.linspace(-1.0, 1.0, 5), dt)
    with pytest.raises(ValueError, match="dt"):
        oracle.schedule_pair_min_seps([a, b], [0.0, 0.5], dt)
    with pytest.raises(ValueError, match="dt"):
        oracle.schedule_is_safe([a], [0.0], 1.5, dt)


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


def _sliver(x0, eps, h=1.5):
    """a crosses x0 on the x axis; b flies down x = x0 and stops h - eps from it."""
    return (Mission("a", Vec2(0.0, 0.0), Vec2(10.0, 0.0), 1.0),
            Mission("b", Vec2(x0, 20.0), Vec2(x0, h - eps), 1.0))


def test_sliver_conflicts_are_bounded():
    # conflicts only for a few milliseconds of delay around x0 - dur_b, as b
    # arrives just inside a's buffer while a passes under it
    rng = np.random.default_rng(606)
    cfg = SeparationConfig(h=1.5)
    hh = cfg.h * cfg.h
    for _ in range(40):
        a, b = _sliver(rng.uniform(2.0, 8.0), rng.uniform(1e-6, 3e-6))
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
        assert forbidden_interval(*_sliver(x0, 0.0), cfg).kind is IntervalKind.EMPTY


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
