"""Kernel-level checks: the oracle's delay grid against its per-pair sampler,
clamped-window edge cases, and the certified endpoints of the pair solver."""

import math

import numpy as np

from deconflict import _kernels as K
from deconflict.kinematics import mission_row
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
    code, _, _ = K.forbidden_core(*a, *b, 1.5, 1e-6)
    assert code == 0


def test_forbidden_core_endpoints_certified_safe():
    hh = 1.5 * 1.5
    for ar, br in _rows(34, 150):
        code, lo, hi = K.forbidden_core(*ar, *br, 1.5, 1e-6)
        if code != 1:
            continue
        assert K.delta_min_sep_sq(*ar, *br, lo) >= hh
        assert K.delta_min_sep_sq(*ar, *br, hi) >= hh
        mid = 0.5 * (lo + hi)
        assert K.delta_min_sep_sq(*ar, *br, mid) < hh

