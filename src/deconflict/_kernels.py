"""Numeric hot kernels: clamped closest-approach evaluation, the closed-form
forbidden-delay solver core, and the brute-force sampled-separation oracle.

The kernels are scalar float math in plain Python, except the oracle's
window sampling, which is one vectorized numpy evaluation per pair.

Missions enter kernels unpacked as scalars ``(ox, oy, vx, vy, dur)`` or as an
``(n, 5)`` float64 array in that column order.
"""

import math

import numpy as np

INF = math.inf

# |U|^2 below this means the velocities are identical for all purposes
# (drift < 3e-8 m over a 30 s window).
UU_EPS = 1e-18

# Name of the one compute backend, exported as deconflict.KERNEL_BACKEND.
BACKEND = "numpy"


def pair_min_sep_sq(aox, aoy, avx, avy, adur, ta,
                    box, boy, bvx, bvy, bdur, tb):
    """Minimum squared distance while both agents are airborne.

    Agent a flies ox,oy + v*(t-dep) for t in [dep, dep+dur]; likewise b.
    Returns inf when the airborne windows do not overlap.
    """
    w0 = max(ta, tb)
    w1 = min(ta + adur, tb + bdur)
    if w0 > w1:
        return INF
    ux = avx - bvx
    uy = avy - bvy
    cx = aox - avx * ta - box + bvx * tb
    cy = aoy - avy * ta - boy + bvy * tb
    uu = ux * ux + uy * uy
    if uu <= UU_EPS:
        # identical velocities: the gap is constant over the window
        rx = ux * w0 + cx
        ry = uy * w0 + cy
        return rx * rx + ry * ry
    tmin = -(ux * cx + uy * cy) / uu
    if tmin < w0:
        tmin = w0
    elif tmin > w1:
        tmin = w1
    rx = ux * tmin + cx
    ry = uy * tmin + cy
    return rx * rx + ry * ry


def delta_min_sep_sq(aox, aoy, avx, avy, adur,
                     box, boy, bvx, bvy, bdur, delta):
    """Min squared co-airborne distance when b departs `delta` after a."""
    return pair_min_sep_sq(aox, aoy, avx, avy, adur, 0.0,
                           box, boy, bvx, bvy, bdur, delta)


def forbidden_core(aox, aoy, avx, avy, adur,
                   box, boy, bvx, bvy, bdur, h):
    """Forbidden departure-delay span for the ordered pair (a first, b second).

    Returns (kind, lo, hi) with kind 0=empty, 1=bounded. With a departing at
    0 and b at delta, both fly at instant t exactly on the parallelogram
    0 <= t <= dur_a, t - dur_b <= delta <= t, over which the gap
    R = P0 + U t + Vb delta is affine. So {|R| <= h} is an ellipse (a strip
    when U is parallel to Vb), its intersection with the parallelogram is
    convex, and lo/hi are the least and greatest delta on it. They are found
    among three kinds of candidate: the points where an edge of the
    parallelogram crosses the circle |R| = h, the vertices inside it, and
    the ellipse's two delta-extremes when they lie inside the parallelogram.
    A span whose midpoint is conflict-free is a pure tangency and returned
    empty. Each endpoint is then stepped outward until it is conflict-free,
    so both are certified safe (tangent passes are allowed).
    """
    hh = h * h
    p0x = aox - box
    p0y = aoy - boy
    ux = avx - bvx
    uy = avy - bvy
    ax = avx * adur
    ay = avy * adur
    bx = bvx * bdur
    by = bvy * bdur
    # (delta, R) at the vertices (t, delta) = (0, -dur_b), (0, 0),
    # (dur_a, dur_a), (dur_a, dur_a - dur_b)
    v0 = (-bdur, p0x - bx, p0y - by)
    v1 = (0.0, p0x, p0y)
    v3 = (adur - bdur, p0x + ax - bx, p0y + ay - by)
    verts = (v0, v1, (adur, p0x + ax, p0y + ay), v3)
    cands = [d for d, rx, ry in verts if rx * rx + ry * ry <= hh]
    # edges: start vertex, change of R along the edge, change of delta
    for (d0, rx, ry), wx, wy, dd in ((v0, bx, by, bdur), (v3, bx, by, bdur),
                                     (v0, ax, ay, adur), (v1, ax, ay, adur)):
        ww = wx * wx + wy * wy
        cross = rx * wy - ry * wx
        disc = ww * hh - cross * cross
        if disc < 0.0:
            continue
        dot = rx * wx + ry * wy
        sq = math.sqrt(disc)
        for s in ((-dot - sq) / ww, (-dot + sq) / ww):
            if 0.0 <= s <= 1.0:
                cands.append(d0 + s * dd)
    det = ux * bvy - uy * bvx
    if det != 0.0:
        # n = (-uy, ux) is normal to U, so n.R = n.P0 + det*delta: delta is
        # extreme where R = +-h n/|n|, at (t, delta) = M^-1 (R - P0) with M
        # the matrix of columns U and Vb
        nn = math.hypot(ux, uy)
        for sign in (-1.0, 1.0):
            qx = -sign * h * uy / nn - p0x
            qy = sign * h * ux / nn - p0y
            t = (bvy * qx - bvx * qy) / det
            d = (ux * qy - uy * qx) / det
            if 0.0 <= t <= adur and t - bdur <= d <= t:
                cands.append(d)
    if not cands:
        return 0, 0.0, 0.0
    lo = min(cands)
    hi = max(cands)
    if lo >= hi or delta_min_sep_sq(aox, aoy, avx, avy, adur, box, boy,
                                    bvx, bvy, bdur, 0.5 * (lo + hi)) >= hh:
        return 0, 0.0, 0.0
    # rounding can leave an endpoint a few ulps inside the span; steps start
    # at one ulp of the durations, since near delta = 0 one ulp of the
    # endpoint itself is too small to change the separation
    first = math.ulp(max(adur, bdur))
    step = first
    while delta_min_sep_sq(aox, aoy, avx, avy, adur,
                           box, boy, bvx, bvy, bdur, lo) < hh:
        lo -= step
        step += step
    step = first
    while delta_min_sep_sq(aox, aoy, avx, avy, adur,
                           box, boy, bvx, bvy, bdur, hi) < hh:
        hi += step
        step += step
    return 1, lo, hi


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


def sampled_pair_min_sep_sq(aox, aoy, avx, avy, adur, ta,
                            box, boy, bvx, bvy, bdur, tb, dt, refine):
    """Brute-force oracle: sample the co-airborne window at step dt.

    Independent of the analytic path: no vertex formula, only distance
    evaluations. With refine=True the sampled argmin is polished by a local
    ternary search, tightening the estimate to ~1e-12.
    """
    w0 = max(ta, tb)
    w1 = min(ta + adur, tb + bdur)
    if w0 > w1:
        return INF
    ux = avx - bvx
    uy = avy - bvy
    cx = aox - avx * ta - box + bvx * tb
    cy = aoy - avy * ta - boy + bvy * tb
    n = int((w1 - w0) / dt)
    t = w0 + np.arange(n + 1) * dt
    rx = ux * t + cx
    ry = uy * t + cy
    d = rx * rx + ry * ry
    k = int(np.argmin(d))
    best = float(d[k])
    tbest = float(t[k])
    rx1 = ux * w1 + cx
    ry1 = uy * w1 + cy
    d1 = rx1 * rx1 + ry1 * ry1
    if d1 < best:
        best = d1
        tbest = w1
    if refine:
        lo = max(w0, tbest - dt)
        hi = min(w1, tbest + dt)
        r = _ternary_min(ux, uy, cx, cy, lo, hi)
        if r < best:
            best = r
    return best


def sampled_delta_grid(aox, aoy, avx, avy, adur,
                       box, boy, bvx, bvy, bdur, deltas, dt, refine):
    """Oracle min-separation-squared for each delay in `deltas` (b after a)."""
    out = np.empty(deltas.shape[0])
    for i in range(deltas.shape[0]):
        out[i] = sampled_pair_min_sep_sq(aox, aoy, avx, avy, adur, 0.0,
                                         box, boy, bvx, bvy, bdur, deltas[i],
                                         dt, refine)
    return out


def schedule_pair_min_seps(missions, deps, dt, refine):
    """Oracle min separation squared for every unordered pair of a schedule.

    `missions` is (n, 5): ox, oy, vx, vy, dur. Output is row-major over i<j.
    """
    n = missions.shape[0]
    out = np.empty(n * (n - 1) // 2)
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            out[k] = sampled_pair_min_sep_sq(
                missions[i, 0], missions[i, 1], missions[i, 2],
                missions[i, 3], missions[i, 4], deps[i],
                missions[j, 0], missions[j, 1], missions[j, 2],
                missions[j, 3], missions[j, 4], deps[j], dt, refine)
            k += 1
    return out
