"""Kernel-level checks: the oracle's delay grid against its per-pair sampler,
clamped-window edge cases, and the pair solver's tangency, corner and sliver
cases and certified endpoints."""

import math

import numpy as np

from deconflict import _kernels as K
from deconflict import oracle
from deconflict.kinematics import (IntervalKind, Mission, SeparationConfig, Vec2,
                                   forbidden_interval, min_separation_sq,
                                   mission_row)
from helpers import pair_stream


def _rows(seed, n):
    for a, b in pair_stream(seed, n):
        yield mission_row(a), mission_row(b)


def test_grid_kernel_matches_scalar_calls():
    deltas = np.linspace(-6.0, 6.0, 25)
    for ar, br in _rows(32, 20):
        grid = K.sampled_delta_grid(*ar, *br, deltas, 0.02, True)
        for d, g in zip(deltas, grid):
            assert g == K.sampled_pair_min_sep_sq(*ar, 0.0, *br, float(d), 0.02, True)


def test_pair_min_sep_disjoint_windows():
    ar, br = next(_rows(33, 1))
    assert K.pair_min_sep_sq(*ar, 0.0, *br, ar[4] + br[4] + 1.0) == math.inf


def test_constant_gap_branch():
    # identical velocities: the gap never changes while both fly
    row = (0.0, 0.0, 1.0, 0.0, 10.0)
    other = (0.0, 3.0, 1.0, 0.0, 10.0)
    assert K.pair_min_sep_sq(*row, 0.0, *other, 0.0) == 9.0


def test_forbidden_core_tangent_is_empty():
    # parallel offset exactly h: lateral miss equals h, strict violation never occurs
    a = (0.0, 0.0, 1.0, 0.0, 10.0)
    b = (0.0, 1.5, 1.0, 0.0, 10.0)
    code, _, _ = K.forbidden_core(*a, *b, 1.5)
    assert code == 0
    # b twice as fast: the gap touches h at every delay in [0, 5], never less
    b = (0.0, 1.5, 2.0, 0.0, 5.0)
    code, _, _ = K.forbidden_core(*a, *b, 1.5)
    assert code == 0


def test_forbidden_core_corner_conflict():
    # b takes off 0.5 m from where a lands: departing as a lands still
    # conflicts, at the single co-airborne instant, so hi lies just past dur_a
    a = (0.0, 0.0, 1.0, 0.0, 10.0)
    b = (10.0, 0.5, 0.0, 1.0, 10.0)
    code, lo, hi = K.forbidden_core(*a, *b, 1.5)
    assert code == 1
    assert 10.0 < hi <= 10.0 + 1e-9


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
    for ar, br in _rows(34, 150):
        code, lo, hi = K.forbidden_core(*ar, *br, 1.5)
        if code != 1:
            continue
        assert K.delta_min_sep_sq(*ar, *br, lo) >= hh
        assert K.delta_min_sep_sq(*ar, *br, hi) >= hh
        mid = 0.5 * (lo + hi)
        assert K.delta_min_sep_sq(*ar, *br, mid) < hh

