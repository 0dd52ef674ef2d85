"""Planar constant-velocity missions and pairwise conflict analysis.

A mission is a straight flight from origin to destination at constant cruise
speed. Two airborne agents are in conflict whenever their distance drops
below the separation radius h. For an ordered pair (first, second) the set
of relative departure delays that would violate separation is a single open
span. It is computed in closed form: over the co-airborne (time, delay)
pairs, a parallelogram, the gap is affine, so the conflict region is the
intersection of that parallelogram with an ellipse, and its least and
greatest delays are the span's ends.

Separation applies only while both agents are airborne: before departure and
from arrival onward an agent occupies no airspace.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar


@dataclass(frozen=True)
class Vec2:
    """Planar vector in meters (positions) or m/s (velocities)."""
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"Vec2 components must be finite, got ({self.x}, {self.y})")

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def scaled(self, s: float) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class Mission:
    """One agent's straight-line flight at constant cruise speed.

    Velocity and flight duration are set once from the fields:
    velocity = speed * unit(destination - origin), duration = length / speed.
    They take no part in construction, repr, equality or hashing.
    """
    id: str
    origin: Vec2
    destination: Vec2
    speed: float
    velocity: Vec2 = field(init=False, repr=False, compare=False)
    duration: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.speed) and self.speed > 0.0):
            raise ValueError(f"mission {self.id!r}: speed must be positive, got {self.speed}")
        d = self.destination - self.origin
        if d.norm_sq() == 0.0:
            raise ValueError(f"mission {self.id!r}: origin and destination coincide")
        length = d.norm()
        object.__setattr__(self, "velocity", d.scaled(self.speed / length))
        object.__setattr__(self, "duration", length / self.speed)


@dataclass(frozen=True)
class SeparationConfig:
    """Separation radius h (m), the one setting of the pair solver.

    tol (s) is a fixed constant, not a field: checks of the pair solver
    against the sampled oracle skip delays within 2*tol of a span endpoint.
    The solver itself does not read it.
    """
    h: float
    tol: ClassVar[float] = 1e-6

    def __post_init__(self):
        # the solver works with h * h, which must neither overflow nor vanish
        if not (self.h > 0.0 and 0.0 < self.h * self.h < math.inf):
            raise ValueError(f"h must be positive with a finite, nonzero "
                             f"square, got {self.h}")


class IntervalKind(Enum):
    EMPTY = "empty"
    BOUNDED = "bounded"


@dataclass(frozen=True)
class ForbiddenInterval:
    """Open span of relative delays (second minus first) violating separation.

    A negative lo means some order-reversed departures also conflict. Both
    endpoints of a bounded span are themselves conflict-free: the separation
    constraint is >= h, so a tangent pass is feasible.
    """
    kind: IntervalKind
    lo: float = 0.0
    hi: float = 0.0

    def __post_init__(self):
        if self.kind is IntervalKind.BOUNDED:
            if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
                raise ValueError(f"bounded interval needs finite lo < hi, got ({self.lo}, {self.hi})")

    @classmethod
    def empty(cls) -> "ForbiddenInterval":
        return cls(IntervalKind.EMPTY)

    @classmethod
    def bounded(cls, lo: float, hi: float) -> "ForbiddenInterval":
        return cls(IntervalKind.BOUNDED, lo, hi)

    @property
    def width(self) -> float:
        if self.kind is IntervalKind.BOUNDED:
            return self.hi - self.lo
        return 0.0


def min_separation_sq(a: Mission, t_dep_a: float, b: Mission, t_dep_b: float) -> float:
    """Minimum squared distance over the co-airborne window.

    The window is [max(departures), min(arrivals)]; the quadratic |R(t)|^2 is
    evaluated at its vertex clamped into the window. Returns math.inf when
    the airborne windows do not overlap (no co-flight, no conflict possible).
    """
    if not (math.isfinite(t_dep_a) and math.isfinite(t_dep_b)):
        raise ValueError(f"departure times must be finite, got {t_dep_a} and {t_dep_b}")
    w0 = max(t_dep_a, t_dep_b)
    w1 = min(t_dep_a + a.duration, t_dep_b + b.duration)
    if w0 > w1:
        return math.inf
    va = a.velocity
    vb = b.velocity
    ux = va.x - vb.x
    uy = va.y - vb.y
    cx = a.origin.x - va.x * t_dep_a - b.origin.x + vb.x * t_dep_b
    cy = a.origin.y - va.y * t_dep_a - b.origin.y + vb.y * t_dep_b
    uu = ux * ux + uy * uy
    # only with identical velocities (uu exactly 0) is the gap constant over
    # the window; any other vertex time, however far off, is clamped into it
    tmin = -(ux * cx + uy * cy) / uu if uu > 0.0 else w0
    if tmin < w0:
        tmin = w0
    elif tmin > w1:
        tmin = w1
    rx = ux * tmin + cx
    ry = uy * tmin + cy
    return float(rx * rx + ry * ry)


def _gap_sq(d, p0x, p0y, ux, uy, uu, bvx, bvy, adur, bdur):
    """min_separation_sq(first, 0.0, second, d), bit for bit, from the pair's
    floats as forbidden_interval derives them.

    The operations and their order are min_separation_sq's, with first's
    departure fixed at 0: its window ends are max(0.0, d) and 0.0 + adur,
    which is adur, and its cx = ((aox - avx * 0.0) - box) + bvx * d differs
    from p0x + bvx * d at most in the sign of a zero, which is squared away.
    A non-finite d raises min_separation_sq's ValueError.
    """
    if not math.isfinite(d):
        raise ValueError(f"departure times must be finite, got 0.0 and {d}")
    w0 = max(0.0, d)
    w1 = min(adur, d + bdur)
    if w0 > w1:
        return math.inf
    cx = p0x + bvx * d
    cy = p0y + bvy * d
    tmin = -(ux * cx + uy * cy) / uu if uu > 0.0 else w0
    if tmin < w0:
        tmin = w0
    elif tmin > w1:
        tmin = w1
    rx = ux * tmin + cx
    ry = uy * tmin + cy
    return rx * rx + ry * ry


def forbidden_interval(first: Mission, second: Mission,
                       cfg: SeparationConfig) -> ForbiddenInterval:
    """Delays of `second` relative to `first` that violate separation.

    The endpoints are the least and greatest delay at which the gap touches
    h while both fly, exact up to rounding and returned on the safe side:
    scheduling exactly at lo or hi yields a tangent (or cleaner) pass. The
    span is always bounded: at a delay outside [-second.duration,
    first.duration] the two flights are never airborne together.

    With first departing at 0 and second at delta, both fly at instant t
    exactly on the parallelogram 0 <= t <= dur_a, t - dur_b <= delta <= t,
    over which the gap R = P0 + U t + Vb delta is affine. So {|R| <= h} is
    an ellipse (a strip when U is parallel to Vb), its intersection with the
    parallelogram is convex, and lo/hi are the least and greatest delta on
    it. They are found among three kinds of candidate: the points where an
    edge of the parallelogram crosses the circle |R| = h, the vertices
    inside it, and the ellipse's two delta-extremes when they lie inside the
    parallelogram. A span whose midpoint is conflict-free is a pure tangency
    and returned empty. Each endpoint is then stepped outward until it is
    conflict-free, so both are certified safe (tangent passes are allowed).
    The midpoint test and both steps read the gap through _gap_sq, which
    is min_separation_sq(first, 0.0, second, delta) bit for bit over the
    pair's floats computed here once.
    """
    h = cfg.h
    va = first.velocity
    vb = second.velocity
    adur = first.duration
    bdur = second.duration
    avx, avy, bvx, bvy = va.x, va.y, vb.x, vb.y
    hh = h * h
    p0x = first.origin.x - second.origin.x
    p0y = first.origin.y - second.origin.y
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
        return ForbiddenInterval.empty()
    lo = min(cands)
    hi = max(cands)
    uu = ux * ux + uy * uy
    if lo >= hi or _gap_sq(0.5 * (lo + hi), p0x, p0y, ux, uy, uu, bvx, bvy, adur, bdur) >= hh:
        return ForbiddenInterval.empty()
    # rounding can leave an endpoint a few ulps inside the span; steps start
    # at one ulp of the durations, since near delta = 0 one ulp of the
    # endpoint itself is too small to change the separation
    first_step = math.ulp(max(adur, bdur))
    step = first_step
    while _gap_sq(lo, p0x, p0y, ux, uy, uu, bvx, bvy, adur, bdur) < hh:
        lo -= step
        step += step
    step = first_step
    while _gap_sq(hi, p0x, p0y, ux, uy, uu, bvx, bvy, adur, bdur) < hh:
        hi += step
        step += step
    return ForbiddenInterval.bounded(float(lo), float(hi))
