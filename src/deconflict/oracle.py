"""Brute-force separation oracle: time-stepped sampling, no closed forms.

This is the independent check against which the analytic solvers are tested.
It only ever evaluates inter-agent distance at sampled instants (optionally
polishing the sampled minimum with one more sample, placed from sampled
values alone), so it shares no code path with the vertex/root analysis in
kinematics: it takes only the Mission type from there. One sampler works on
rows, one co-airborne window per row: rows are sampled in (rows x samples)
blocks of at most CHUNK elements, and with refine=True every row then takes
one parabolic step, with no loop. A single window, a delay grid and the
pairs of a schedule are each one call of it; tests pin its outputs bit for
bit.
"""

import math

import numpy as np

from .kinematics import Mission

#: elements (rows x samples) per block of the row sampler; a window with
#: more samples than this is sampled as a block of its own
CHUNK = 1 << 13
#: shortfall below h (m) that schedule_is_safe forgives in a sampled minimum
SLACK = 1e-3


def _step(dt) -> float:
    """dt as a float, or ValueError unless it is finite and positive."""
    dt = float(dt)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"sampling step dt must be finite and > 0, got {dt!r}")
    return dt


def _flights(missions) -> np.ndarray:
    """Each mission's ox, oy, vx, vy and duration, as a (5, len(missions)) array."""
    rows = []
    for m in missions:
        v = m.velocity
        rows.append((m.origin.x, m.origin.y, v.x, v.y, m.duration))
    return np.array(rows, dtype=np.float64).reshape(-1, 5).T


def _sample(a, ta, b, tb, dt, refine) -> np.ndarray:
    """Sampled min squared gap of flights a, b (as from _flights) departing
    ta, tb: one row per element of the broadcast arrays, inf where the
    co-airborne window is empty.

    A row's window is sampled at step dt plus its far end. With refine=True
    the gap is also sampled at both ends and the middle of [tbest - dt,
    tbest + dt] clipped to the window, tbest the sampled argmin, and once
    more at the vertex of the parabola through those three values, clipped
    to the bracket; the least sample is kept.
    """
    dt = _step(dt)
    ta = np.asarray(ta, dtype=np.float64)
    tb = np.asarray(tb, dtype=np.float64)
    if not (np.isfinite(ta).all() and np.isfinite(tb).all()):
        raise ValueError("departure times and delays must be finite")
    aox, aoy, avx, avy, adur = a
    box, boy, bvx, bvy, bdur = b
    w0 = np.maximum(ta, tb)
    w1 = np.minimum(ta + adur, tb + bdur)
    ux = avx - bvx
    uy = avy - bvy
    cx = aox - avx * ta - box + bvx * tb
    cy = aoy - avy * ta - boy + bvy * tb
    ux, uy, cx, cy, w0, w1 = np.broadcast_arrays(ux, uy, cx, cy, w0, w1)
    out = np.full(w0.shape, np.inf)
    rows = np.flatnonzero(~(w0 > w1))
    # row i samples w0 + j*dt for j < n[i] - 1 and then w1; +inf pads the
    # rest of its block. Widest rows first, so a block's first row is its
    # widest and sets how many rows fit in CHUNK.
    steps = (w1[rows] - w0[rows]) / dt
    if not (steps < 2.0 ** 63).all():  # also an overflowed inf or nan
        raise ValueError(f"a co-airborne window spans {steps.max()!r} steps of dt "
                         f"{dt!r}, beyond the int64 sample count")
    n = steps.astype(np.int64) + 2
    by_width = np.argsort(-n)
    rows, n = rows[by_width], n[by_width]
    ux, uy, cx, cy, w0, w1 = (x[rows] for x in (ux, uy, cx, cy, w0, w1))
    j = np.arange(n.max(initial=0))
    jdt = j * dt
    best = np.empty(rows.size)
    tbest = np.empty(rows.size)
    s = 0
    while s < rows.size:
        blk = slice(s, s + max(1, CHUNK // int(n[s])))
        nb = n[blk]
        i = np.arange(nb.size)
        t = w0[blk, None] + jdt[:nb[0]]
        t[i, nb - 1] = w1[blk]
        # (ux t + cx)^2 + (uy t + cy)^2, in place
        d = ux[blk, None] * t
        d += cx[blk, None]
        d *= d
        ry = uy[blk, None] * t
        ry += cy[blk, None]
        ry *= ry
        d += ry
        np.putmask(d, j[:nb[0]] >= nb[:, None], np.inf)
        k = np.argmin(d, axis=1)  # the first of equal minima
        best[blk] = d[i, k]
        tbest[blk] = t[i, k]
        s = blk.stop
    if refine:
        def gap(t):
            rx = ux * t + cx
            ry = uy * t + cy
            return rx * rx + ry * ry

        # the squared gap is a quadratic in t: its samples at lo, mid and
        # hi fix it, and the parabola's vertex, clipped to [lo, hi], is
        # sampled once more (a flat or concave row samples mid)
        lo = tbest - dt
        lo = np.where(lo > w0, lo, w0)
        hi = tbest + dt
        hi = np.where(hi < w1, hi, w1)
        mid = 0.5 * (lo + hi)
        f0, f1, f2 = gap(lo), gap(mid), gap(hi)
        curv = f0 - 2.0 * f1 + f2
        t = mid + np.divide((hi - lo) * (f0 - f2), 4.0 * curv,
                            out=np.zeros(rows.size), where=curv > 0.0)
        t = np.where(t > lo, t, lo)
        t = np.where(t < hi, t, hi)
        r = gap(t)
        best = np.where(r < best, r, best)
    out[rows] = best
    return out


def pairs_min_sep_sq(firsts, t_firsts, seconds, t_seconds,
                     dt: float, refine: bool = False) -> np.ndarray:
    """Min squared co-airborne distance of each row by sampling at step dt.

    Row i is firsts[i] departing t_firsts[i] against seconds[i] departing
    t_seconds[i]; the four sequences must have one length. Plain sampling
    overestimates the true minimum by at most the grid gap. The squared gap
    |u t + c|^2 (u the relative velocity, c the relative position at t = 0)
    is quadratic in t, so refine=True samples it at three instants around
    the sampled argmin and once more at the vertex of the parabola through
    them; tests check the result within 1e-11 (|u| T + |c|)^2 of the exact
    minimum, T the latest instant of the window. A row whose airborne
    windows do not overlap gives inf. Every entry point raises ValueError
    unless dt is finite and > 0, every time is finite and every window has
    fewer than 2^63 steps of dt.

    Memory grows as window / dt: a window of more than CHUNK samples is a
    block of its own, and all its samples are allocated at once. Two 1e17 m
    routes at dt 1.0 end in MemoryError, not ValueError; there is no cap
    (ROADMAP item 7, bounded inputs).
    """
    if not len(firsts) == len(t_firsts) == len(seconds) == len(t_seconds):
        raise ValueError("missions and departure times differ in length")
    return _sample(_flights(firsts), t_firsts, _flights(seconds), t_seconds,
                   dt, refine)


def sampled_min_separation_sq(a: Mission, t_dep_a: float,
                              b: Mission, t_dep_b: float,
                              dt: float, refine: bool = False) -> float:
    """pairs_min_sep_sq of the one row (a, t_dep_a, b, t_dep_b)."""
    return float(pairs_min_sep_sq([a], [t_dep_a], [b], [t_dep_b], dt, refine)[0])


def delta_grid_min_sep_sq(first: Mission, second: Mission,
                          deltas: np.ndarray, dt: float,
                          refine: bool = True) -> np.ndarray:
    """Oracle min squared separation for each relative delay in `deltas`.

    Element for element equal to sampled_min_separation_sq(first, 0.0,
    second, delta, dt, refine), as a float64 array of the shape of deltas.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    seps = _sample(_flights([first]), 0.0, _flights([second]), deltas.ravel(),
                   dt, refine)
    return seps.reshape(deltas.shape)


def schedule_pair_min_seps(missions, departures, dt: float,
                           refine: bool = False) -> np.ndarray:
    """Per-pair sampled min separation (meters) for a full schedule.

    Output is row-major over pairs i<j in mission-list order.
    """
    departures = np.asarray(departures, dtype=np.float64)
    if len(missions) != len(departures):
        raise ValueError("missions and departure times differ in length")
    f = _flights(missions)
    i, j = np.triu_indices(len(missions), 1)
    return np.sqrt(_sample(f[:, i], departures[i], f[:, j], departures[j],
                           dt, refine))


def schedule_is_safe(missions, departures, h: float, dt: float) -> bool:
    """True when every co-airborne pair keeps separation >= h - SLACK."""
    seps = schedule_pair_min_seps(missions, departures, dt)
    return bool(np.all(seps >= h - SLACK))
