"""Brute-force separation oracle: time-stepped sampling, no closed forms.

This is the independent check against which the analytic solvers are tested.
It only ever evaluates inter-agent distance at sampled instants (optionally
polishing the sampled minimum by local search), so it shares no code path
with the vertex/root analysis in kinematics: it takes only the Mission type
from there. A single window is sampled by one numpy evaluation; a delay grid
is sampled in (delays x samples) blocks of at most CHUNK elements, with the
same float operations in the same order as the single-window sampler, so
both give bit-identical minima.
"""

import math
from itertools import combinations

import numpy as np

from .kinematics import Mission

#: elements (delays x samples) per block of the delay-grid sampler; a window
#: with more samples than this is sampled as a block of its own
CHUNK = 1 << 13
#: shortfall below h (m) that schedule_is_safe forgives in a sampled minimum
SLACK = 1e-3


def _step(dt) -> float:
    """dt as a float, or ValueError unless it is finite and positive."""
    dt = float(dt)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"sampling step dt must be finite and > 0, got {dt!r}")
    return dt


def _flight(m: Mission):
    """(ox, oy, vx, vy, duration) of a mission, unpacked once per call."""
    v = m.velocity
    return m.origin.x, m.origin.y, v.x, v.y, m.duration


def _ternary_min(ux, uy, cx, cy, lo, hi):
    """Minimize |U t + C|^2 on [lo, hi] by ternary search (function evals only)."""
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        third = (hi - lo) / 3.0
        m1 = lo + third
        m2 = hi - third
        r1x = ux * m1 + cx
        r1y = uy * m1 + cy
        r2x = ux * m2 + cx
        r2y = uy * m2 + cy
        if r1x * r1x + r1y * r1y < r2x * r2x + r2y * r2y:
            hi = m2
        else:
            lo = m1
    t = 0.5 * (lo + hi)
    rx = ux * t + cx
    ry = uy * t + cy
    return rx * rx + ry * ry


def _sampled_sq(a, ta, b, tb, dt, refine):
    """Sampled min squared gap of flights a, b (as from _flight) departing ta, tb.

    The co-airborne window is sampled at step dt plus its far end; with
    refine=True the sampled argmin is polished by a local ternary search.
    """
    aox, aoy, avx, avy, adur = a
    box, boy, bvx, bvy, bdur = b
    w0 = max(ta, tb)
    w1 = min(ta + adur, tb + bdur)
    if w0 > w1:
        return np.inf
    ux = avx - bvx
    uy = avy - bvy
    cx = aox - avx * ta - box + bvx * tb
    cy = aoy - avy * ta - boy + bvy * tb
    # w0, w0 + dt, ... and then w1; argmin keeps the first of equal minima
    t = w0 + np.arange(int((w1 - w0) / dt) + 2) * dt
    t[-1] = w1
    rx = ux * t + cx
    ry = uy * t + cy
    d = rx * rx + ry * ry
    k = int(np.argmin(d))
    best = float(d[k])
    if refine:
        tbest = float(t[k])
        lo = max(w0, tbest - dt)
        hi = min(w1, tbest + dt)
        r = _ternary_min(ux, uy, cx, cy, lo, hi)
        if r < best:
            best = r
    return best


def sampled_min_separation_sq(a: Mission, t_dep_a: float,
                              b: Mission, t_dep_b: float,
                              dt: float, refine: bool = False) -> float:
    """Min squared co-airborne distance by sampling at step dt.

    Plain sampling overestimates the true minimum by at most the grid gap;
    refine=True polishes the argmin neighborhood by ternary search, which
    makes the estimate essentially exact for these quadratic-in-time gaps.
    Returns inf when the airborne windows do not overlap. Every entry point
    raises ValueError unless dt is finite and > 0.
    """
    return float(_sampled_sq(_flight(a), t_dep_a, _flight(b), t_dep_b,
                             _step(dt), refine))


def sampled_min_separation(a: Mission, t_dep_a: float,
                           b: Mission, t_dep_b: float,
                           dt: float, refine: bool = False) -> float:
    d = sampled_min_separation_sq(a, t_dep_a, b, t_dep_b, dt, refine)
    return float(np.sqrt(d))


def delta_grid_min_sep_sq(first: Mission, second: Mission,
                          deltas: np.ndarray, dt: float,
                          refine: bool = True) -> np.ndarray:
    """Oracle min squared separation for each relative delay in `deltas`.

    Element for element equal to sampled_min_separation_sq(first, 0.0,
    second, delta, dt, refine): every window is sampled and polished with the
    float operations of _sampled_sq, in array steps over all delays at once.
    """
    dt = _step(dt)
    aox, aoy, avx, avy, adur = _flight(first)
    box, boy, bvx, bvy, bdur = _flight(second)
    deltas = np.asarray(deltas, dtype=np.float64)
    out = np.full(deltas.shape, np.inf)
    ta = 0.0
    tb = deltas.ravel()
    # max(ta, tb) and min(ta + adur, tb + bdur), keeping Python's ties and ±0
    w0 = np.where(tb > ta, tb, ta)
    w1 = np.where(tb + bdur < ta + adur, tb + bdur, ta + adur)
    rows = np.flatnonzero(~(w0 > w1))
    if rows.size == 0:
        return out
    tb, w0, w1 = tb[rows], w0[rows], w1[rows]
    ux = avx - bvx
    uy = avy - bvy
    cx = aox - avx * ta - box + bvx * tb
    cy = aoy - avy * ta - boy + bvy * tb
    # row i samples w0 + j*dt for j < n[i] - 1 and then w1; +inf pads the rest
    n = ((w1 - w0) / dt).astype(np.int64) + 2
    best = np.empty(rows.size)
    tbest = np.empty(rows.size)
    step = max(1, CHUNK // int(n.max()))
    for s in range(0, rows.size, step):
        blk = slice(s, s + step)
        nb = n[blk]
        j = np.arange(nb.max())
        t = w0[blk, None] + j * dt
        i = np.arange(nb.size)
        t[i, nb - 1] = w1[blk]
        rx = ux * t + cx[blk, None]
        ry = uy * t + cy[blk, None]
        d = rx * rx + ry * ry
        d[j >= nb[:, None]] = np.inf
        k = np.argmin(d, axis=1)
        best[blk] = d[i, k]
        tbest[blk] = t[i, k]
    if refine:
        # _ternary_min on every row at once; a row stops once hi - lo <= 1e-12
        lo = tbest - dt
        lo = np.where(lo > w0, lo, w0)
        hi = tbest + dt
        hi = np.where(hi < w1, hi, w1)
        for _ in range(200):
            live = ~(hi - lo <= 1e-12)
            if not live.any():
                break
            third = (hi - lo) / 3.0
            m1 = lo + third
            m2 = hi - third
            r1x = ux * m1 + cx
            r1y = uy * m1 + cy
            r2x = ux * m2 + cx
            r2y = uy * m2 + cy
            left = r1x * r1x + r1y * r1y < r2x * r2x + r2y * r2y
            hi = np.where(live & left, m2, hi)
            lo = np.where(live & ~left, m1, lo)
        t = 0.5 * (lo + hi)
        rx = ux * t + cx
        ry = uy * t + cy
        r = rx * rx + ry * ry
        best = np.where(r < best, r, best)
    out.ravel()[rows] = best
    return out


def schedule_pair_min_seps(missions, departures, dt: float,
                           refine: bool = False) -> np.ndarray:
    """Per-pair sampled min separation (meters) for a full schedule.

    Output is row-major over pairs i<j in mission-list order.
    """
    dt = _step(dt)
    legs = zip(map(_flight, missions), map(float, departures), strict=True)
    return np.sqrt(np.array([_sampled_sq(a, ta, b, tb, dt, refine)
                             for (a, ta), (b, tb) in combinations(legs, 2)]))


def schedule_is_safe(missions, departures, h: float, dt: float) -> bool:
    """True when every co-airborne pair keeps separation >= h - SLACK."""
    seps = schedule_pair_min_seps(missions, departures, dt)
    return bool(np.all(seps >= h - SLACK))
