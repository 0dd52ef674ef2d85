"""Brute-force separation oracle: time-stepped sampling, no closed forms.

This is the independent check against which the analytic solvers are tested.
It only ever evaluates inter-agent distance at sampled instants (optionally
polishing the sampled minimum by local search), so it shares no code path
with the vertex/root analysis in kinematics: it takes only the Mission type
from there. Window sampling is one vectorized numpy evaluation per pair.
"""

from itertools import combinations

import numpy as np

from .kinematics import Mission


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
    Returns inf when the airborne windows do not overlap.
    """
    return float(_sampled_sq(_flight(a), t_dep_a, _flight(b), t_dep_b, dt, refine))


def sampled_min_separation(a: Mission, t_dep_a: float,
                           b: Mission, t_dep_b: float,
                           dt: float, refine: bool = False) -> float:
    d = sampled_min_separation_sq(a, t_dep_a, b, t_dep_b, dt, refine)
    return float(np.sqrt(d))


def delta_grid_min_sep_sq(first: Mission, second: Mission,
                          deltas: np.ndarray, dt: float,
                          refine: bool = True) -> np.ndarray:
    """Oracle min separation squared for each relative delay in `deltas`."""
    a = _flight(first)
    b = _flight(second)
    return np.array([_sampled_sq(a, 0.0, b, d, dt, refine)
                     for d in np.asarray(deltas, dtype=np.float64).tolist()],
                    dtype=np.float64)


def schedule_pair_min_seps(missions, departures, dt: float,
                           refine: bool = False) -> np.ndarray:
    """Per-pair sampled min separation (meters) for a full schedule.

    Output is row-major over pairs i<j in mission-list order.
    """
    legs = zip(map(_flight, missions), map(float, departures), strict=True)
    return np.sqrt(np.array([_sampled_sq(a, ta, b, tb, dt, refine)
                             for (a, ta), (b, tb) in combinations(legs, 2)]))


def schedule_is_safe(missions, departures, h: float, dt: float,
                     slack: float = 1e-3) -> bool:
    """True when every co-airborne pair keeps separation >= h - slack."""
    if len(missions) < 2:
        return True
    seps = schedule_pair_min_seps(missions, departures, dt)
    return bool(np.all(seps >= h - slack))
