"""Numeric hot kernels: clamped closest-approach evaluation, the analytic
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
# Discriminant threshold below which a root pair is a tangency, not a conflict.
DISC_EPS = 1e-12
# Probe resolution of the forbidden-delay witness scan (seconds); never fewer
# than 64 probes across the candidate span, never more than 500k.
PROBE_STEP = 0.01
MIN_PROBES = 64
MAX_PROBES = 500_000

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


def _bisect_boundary(aox, aoy, avx, avy, adur,
                     box, boy, bvx, bvy, bdur,
                     hh, safe, conf, target):
    """Shrink [safe, conf] around the conflict boundary; return the safe side.

    Invariant: delta_min_sep_sq(conf) < hh, delta_min_sep_sq(safe) >= hh.
    Works for either ordering of safe/conf.
    """
    for _ in range(100):
        if abs(conf - safe) <= target:
            break
        mid = 0.5 * (safe + conf)
        if mid == safe or mid == conf:
            break
        if delta_min_sep_sq(aox, aoy, avx, avy, adur,
                            box, boy, bvx, bvy, bdur, mid) < hh:
            conf = mid
        else:
            safe = mid
    return safe


def forbidden_core(aox, aoy, avx, avy, adur,
                   box, boy, bvx, bvy, bdur, h, tol):
    """Forbidden departure-delay span for the ordered pair (a first, b second).

    Returns (kind, lo, hi) with kind 0=empty, 1=bounded. The candidate span
    comes from the closed-form closest-approach condition; endpoints are then
    refined by bisection against the window-clamped separation criterion, so
    both returned endpoints are certified conflict-free (tangent passes are
    allowed). Finite flights make an unbounded result impossible: any delta
    outside [-dur_b, dur_a] leaves no co-airborne overlap.
    """
    hh = h * h
    lo_r = -bdur
    hi_r = adur
    ux = avx - bvx
    uy = avy - bvy
    uu = ux * ux + uy * uy
    p0x = aox - box
    p0y = aoy - boy
    if uu <= UU_EPS:
        # identical velocities: conflict iff |P0 + delta*Va| < h while the
        # windows overlap; quadratic in delta with positive leading term.
        qa = avx * avx + avy * avy
        qb = 2.0 * (avx * p0x + avy * p0y)
        qc = p0x * p0x + p0y * p0y - hh
        disc = qb * qb - 4.0 * qa * qc
        if disc < DISC_EPS:
            return 0, 0.0, 0.0
        sq = math.sqrt(disc)
        c1 = (-qb - sq) / (2.0 * qa)
        c2 = (-qb + sq) / (2.0 * qa)
    else:
        # lateral miss at unclamped closest approach: |n.P0 + delta*(n.Va)|
        # with n the unit normal of the relative velocity.
        inv = 1.0 / math.sqrt(uu)
        nx = -uy * inv
        ny = ux * inv
        a_lin = nx * avx + ny * avy
        b_lin = nx * p0x + ny * p0y
        if a_lin == 0.0:
            # same-direction tracks: lateral miss independent of delta
            if b_lin * b_lin >= hh:
                return 0, 0.0, 0.0
            c1 = lo_r
            c2 = hi_r
        else:
            r1 = (-h - b_lin) / a_lin
            r2 = (h - b_lin) / a_lin
            if r1 <= r2:
                c1 = r1
                c2 = r2
            else:
                c1 = r2
                c2 = r1
    if c1 < lo_r:
        c1 = lo_r
    if c2 > hi_r:
        c2 = hi_r
    if c1 >= c2:
        return 0, 0.0, 0.0

    # witness scan: the window clamp can only shrink the candidate span
    span = c2 - c1
    step = span / MIN_PROBES
    if step > PROBE_STEP:
        step = PROBE_STEP
    if step < span / MAX_PROBES:
        step = span / MAX_PROBES
    n_seg = int(span / step) + 1
    first = -1
    last = -1
    for i in range(n_seg + 1):
        d = c1 + span * (i / n_seg)
        if delta_min_sep_sq(aox, aoy, avx, avy, adur,
                            box, boy, bvx, bvy, bdur, d) < hh:
            if first < 0:
                first = i
            last = i
    if first < 0:
        return 0, 0.0, 0.0

    target = tol * 1e-3
    if target < 1e-12:
        target = 1e-12
    eps_out = tol if tol > 1e-9 else 1e-9
    if first == 0:
        safe_l = c1 - eps_out
    else:
        safe_l = c1 + span * ((first - 1) / n_seg)
    conf_l = c1 + span * (first / n_seg)
    lo = _bisect_boundary(aox, aoy, avx, avy, adur,
                          box, boy, bvx, bvy, bdur,
                          hh, safe_l, conf_l, target)
    if last == n_seg:
        safe_r = c2 + eps_out
    else:
        safe_r = c1 + span * ((last + 1) / n_seg)
    conf_r = c1 + span * (last / n_seg)
    hi = _bisect_boundary(aox, aoy, avx, avy, adur,
                          box, boy, bvx, bvy, bdur,
                          hh, safe_r, conf_r, target)
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
