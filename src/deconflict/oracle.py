"""Brute-force separation oracle: time-stepped sampling, no closed forms.

This is the independent check against which the analytic solvers are tested.
It only ever evaluates inter-agent distance at sampled instants (optionally
polishing the sampled minimum with one more sample, placed from sampled
values alone), so it shares no code path with the vertex/root analysis in
kinematics: it takes only the Mission type from there. The oracle works on
rows, one co-airborne window per row, and has one sampler per mode. Plain
sampling (refine=False, _grid) samples a window at step dt in (rows x
samples) blocks of at most CHUNK elements, so only it depends on dt, and its
memory grows as window / dt. A refined row (_bracket) samples its window's
two ends and middle and then the vertex of the parabola through them: four
samples, with no block and no loop, whatever dt. A single window, a delay
grid and the pairs of a schedule are each one call of the oracle; tests pin
its outputs bit for bit. schedule_is_safe forgives a pair's shortfall below
h only up to a rounding bound derived from that pair's own magnitudes
(ROUNDING_K).
"""

import math

import numpy as np

from .kinematics import Mission

#: elements (rows x samples) per block of plain sampling (_grid); a window
#: with more samples than this is sampled as a block of its own
CHUNK = 1 << 13

# schedule_is_safe accepts a pair when its refined min separation is at
# least h - ROUNDING_K * eps * S, eps = 2^-52 the float64 spacing at 1. For
# the pair's flights a, b departing ta, tb, S = O + V T with O = |aox| +
# |aoy| + |box| + |boy|, V = |avx| + |avy| + |bvx| + |bvy| and T the
# largest of |ta|, |tb| and |w1|, w1 = min(ta + dur_a, tb + dur_b) the end
# of the co-airborne window (the earlier arrival when no departure is
# negative). Every instant a refined row samples lies within [max(ta, tb),
# w1] up to rounding, and every sample is the squared gap at a float
# instant t, whose exact value is at least the exact window minimum m^2
# (less a slip past the window's end), so only rounding can put the result
# below m. With u = eps / 2 the unit roundoff, the bounds on what _bracket
# does are, to first order in u:
#   - instants, u V T: w0 = max(ta, tb) is exact and w1 = fl(min(ta +
#     dur_a, tb + dur_b)) is off by u T. A refined row samples w0, w1, its
#     middle fl(0.5 fl(w0 + w1)) and the vertex clipped to [w0, w1], all in
#     [w0, w1] (rounding is monotone, so w0 + w1 rounds to at most 2 w1).
#     The relative speed is at most V, so a slip of u T past the window
#     shrinks the gap by u V T.
#   - coordinates, 4 u O + 8 u V T: cx = fl(fl(fl(aox - fl(avx ta)) - box)
#     + fl(bvx tb)) is off by 3 u (|aox| + |box|) + 4 u (|avx| + |bvx|) T;
#     fl(fl(avx - bvx) t) by 2 u (|avx| + |bvx|) T; the add of the two by
#     u (|aox| + |box| + 2 (|avx| + |bvx|) T); likewise in y. The gap
#     vector is off by at most their sum over both axes, <= 8 u S.
#   - square root, 4 u S: the two squares and their sum lose at most a
#     factor (1 - u)^2 of the squared gap and the root one (1 - u), so the
#     separation is at least (1 - 2 u) of the gap's length, which is at
#     most O + 2 V T <= 2 S.
#   - gate, 2 u S: h - K eps S rounds once, by at most u h, and a pair with
#     m >= h has h <= m <= 2 S.
# That is 15 u = 7.5 eps per unit of S. Every product of two or more
# roundings, and the rounding of S itself, adds less than 1e-12 eps S, so
# 8 is the least integer bound. Overflow and subnormals are outside it:
# schedule_is_safe raises ValueError when S itself overflows.
ROUNDING_K = 8


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

    The rows whose window is not empty go to _bracket when refine is true,
    whatever dt, and to _grid at step dt otherwise.
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
    args = [x[rows] for x in (ux, uy, cx, cy, w0, w1)]
    out[rows] = _bracket(*args) if refine else _grid(*args, dt)
    return out


def _bracket(ux, uy, cx, cy, w0, w1) -> np.ndarray:
    """Refined min squared gap |u t + c|^2 of each row over [w0, w1].

    The squared gap is a convex quadratic in t: its samples at the window's
    ends and middle fix it, and the parabola's vertex, clipped to the
    window, is sampled once more (a flat row, or one that rounds concave,
    samples the middle). The lesser end sample is kept unless the vertex
    sample is smaller: four samples a row, with no grid.
    """
    def gap(t):
        rx = ux * t + cx
        ry = uy * t + cy
        return rx * rx + ry * ry

    mid = 0.5 * (w0 + w1)
    f0, f1, f2 = gap(w0), gap(mid), gap(w1)
    curv = f0 - 2.0 * f1 + f2
    t = mid + np.divide((w1 - w0) * (f0 - f2), 4.0 * curv,
                        out=np.zeros(w0.size), where=curv > 0.0)
    t = np.where(t > w0, t, w0)
    t = np.where(t < w1, t, w1)
    r = gap(t)
    best = np.minimum(f0, f2)
    return np.where(r < best, r, best)


def _grid(ux, uy, cx, cy, w0, w1, dt) -> np.ndarray:
    """Plain min squared gap |u t + c|^2 of each row, sampled at w0 + j dt
    for j < n - 1 and at w1, n = floor((w1 - w0) / dt) + 2.

    Rows are sampled in (rows x samples) blocks of at most CHUNK elements,
    widest first, so a block's first row is its widest and sets how many
    rows fit; +inf pads the rest of a row's block. Raises ValueError unless
    every window has fewer than 2^63 steps of dt.
    """
    steps = (w1 - w0) / dt
    if not (steps < 2.0 ** 63).all():  # also an overflowed inf or nan
        raise ValueError(f"a co-airborne window spans {steps.max()!r} steps "
                         f"of dt {dt!r}, beyond the int64 sample count")
    n = steps.astype(np.int64) + 2
    by_width = np.argsort(-n)
    n = n[by_width]
    ux, uy, cx, cy, w0, w1 = (x[by_width] for x in (ux, uy, cx, cy, w0, w1))
    j = np.arange(n.max(initial=0))
    jdt = j * dt
    best = np.empty(n.size)
    s = 0
    while s < n.size:
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
        best[by_width[blk]] = d.min(axis=1)
        s = blk.stop
    return best


def pairs_min_sep_sq(firsts, t_firsts, seconds, t_seconds,
                     dt: float, refine: bool = False) -> np.ndarray:
    """Min squared co-airborne distance of each row, by sampling.

    Row i is firsts[i] departing t_firsts[i] against seconds[i] departing
    t_seconds[i]; the four sequences must have one length. Plain sampling
    (refine=False) samples each window at step dt plus its far end, and
    overestimates the true minimum by at most the grid gap. The squared gap
    |u t + c|^2 (u the relative velocity, c the relative position at t = 0)
    is a convex quadratic in t, so refine=True samples it at the window's
    two ends and its middle and once more at the vertex of the parabola
    through them, whatever dt; tests check the result within
    1e-11 (|u| T + |c|)^2 of the exact minimum, T the latest instant of the
    window. A row whose airborne windows do not overlap gives inf. Every
    entry point raises ValueError unless dt is finite and > 0 and every
    time is finite; plain sampling also unless every window has fewer than
    2^63 steps of dt.

    Plain sampling's memory grows as window / dt: a window of more than
    CHUNK samples is a block of its own, and all its samples are allocated
    at once. Two 1e17 m routes at dt 1.0 end in MemoryError, not
    ValueError; there is no cap (ROADMAP item 3, bounded inputs). A refined
    row touches no block: the same rows sample four instants each, and a
    row's output does not depend on the other rows of its call.
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


def _schedule_pairs(missions, departures):
    """A schedule's flights (as from _flights), its departures as float64,
    and the indices i < j of its pairs, row-major in mission-list order."""
    departures = np.asarray(departures, dtype=np.float64)
    if len(missions) != len(departures):
        raise ValueError("missions and departure times differ in length")
    i, j = np.triu_indices(len(missions), 1)
    return _flights(missions), departures, i, j


def schedule_pair_min_seps(missions, departures, dt: float,
                           refine: bool = False) -> np.ndarray:
    """Per-pair sampled min separation (meters) for a full schedule.

    Output is row-major over pairs i<j in mission-list order.
    """
    f, departures, i, j = _schedule_pairs(missions, departures)
    return np.sqrt(_sample(f[:, i], departures[i], f[:, j], departures[j],
                           dt, refine))


def schedule_is_safe(missions, departures, h: float, dt: float) -> bool:
    """True when every co-airborne pair keeps its refined min separation
    >= h - ROUNDING_K * eps * S, eps = 2^-52 and S the pair's magnitude
    scale (see ROUNDING_K). A refined row brackets its whole window, so dt
    is validated but sets neither the verdict, nor the cost, nor the
    memory, which grows with the pair count alone. Raises
    ValueError, as the samplers do, on unusable input, and when a pair's
    S overflows float64, where the rounding bound does not hold."""
    f, departures, i, j = _schedule_pairs(missions, departures)
    ox, oy, vx, vy, dur = np.abs(f)
    ta, tb = departures[i], departures[j]
    with np.errstate(over="ignore", invalid="ignore"):
        w1 = np.minimum(ta + dur[i], tb + dur[j])
        reach = np.maximum(np.maximum(np.abs(ta), np.abs(tb)), np.abs(w1))
        scale = (ox[i] + oy[i] + ox[j] + oy[j]
                 + (vx[i] + vy[i] + vx[j] + vy[j]) * reach)
    # a non-finite departure is left to _sample, which names it
    if np.isfinite(departures).all() and not np.isfinite(scale).all():
        raise ValueError(f"a pair's magnitude scale S is {float(scale.max())!r}, "
                         "beyond float64: the oracle cannot bound its rounding")
    seps = np.sqrt(_sample(f[:, i], ta, f[:, j], tb, dt, True))
    return bool(np.all(seps >= h - ROUNDING_K * np.finfo(np.float64).eps * scale))
