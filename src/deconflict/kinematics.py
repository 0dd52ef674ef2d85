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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .errors import DegenerateRelativeVelocity

#: |U|^2 threshold below which a relative velocity counts as zero.
UU_EPS = _kernels.UU_EPS


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

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class Mission:
    """One agent's straight-line flight at constant cruise speed.

    Velocity and flight duration are deterministic functions of the fields:
    velocity = speed * unit(destination - origin), duration = length / speed.
    """
    id: str
    origin: Vec2
    destination: Vec2
    speed: float

    def __post_init__(self):
        if not (math.isfinite(self.speed) and self.speed > 0.0):
            raise ValueError(f"mission {self.id!r}: speed must be positive, got {self.speed}")
        if (self.destination - self.origin).norm_sq() == 0.0:
            raise ValueError(f"mission {self.id!r}: origin and destination coincide")

    @property
    def length(self) -> float:
        return (self.destination - self.origin).norm()

    @property
    def velocity(self) -> Vec2:
        d = self.destination - self.origin
        return d.scaled(self.speed / d.norm())

    @property
    def duration(self) -> float:
        return self.length / self.speed

    def position(self, t_since_departure: float) -> Vec2:
        """Position at time t after departure (valid on [0, duration])."""
        return self.origin + self.velocity.scaled(t_since_departure)


@dataclass(frozen=True)
class RelativeState:
    """Relative velocity U and relative position P at the second agent's departure."""
    U: Vec2
    P: Vec2


@dataclass(frozen=True)
class SeparationConfig:
    """Separation radius plus the width of the boundary verification band.

    h: minimum separation radius (m). tol (s): checks of the pair solver
    against the sampled oracle skip delays within 2*tol of a span endpoint.
    The solver itself does not read tol.
    """
    h: float
    tol: float = 1e-6

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError(f"h must be positive, got {self.h}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")


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

    def contains(self, delta: float) -> bool:
        """Open-interval membership: endpoints are feasible."""
        return self.kind is IntervalKind.BOUNDED and self.lo < delta < self.hi

    def mirrored(self) -> "ForbiddenInterval":
        """The interval for the swapped pair order: (lo, hi) -> (-hi, -lo)."""
        if self.kind is IntervalKind.BOUNDED:
            return ForbiddenInterval.bounded(-self.hi, -self.lo)
        return self

    def shifted(self, t: float) -> tuple[float, float]:
        """Absolute forbidden span when the first agent departs at t."""
        return self.lo + t, self.hi + t


def mission_row(m: Mission) -> tuple[float, float, float, float, float]:
    """Unpack a mission into the (ox, oy, vx, vy, dur) scalars the kernels take."""
    v = m.velocity
    return m.origin.x, m.origin.y, v.x, v.y, m.duration


def missions_array(missions) -> np.ndarray:
    """Stack missions into the (n, 5) kernel layout."""
    return np.array([mission_row(m) for m in missions], dtype=np.float64)


def relative_state(a: Mission, b: Mission, delta: float) -> RelativeState:
    """Relative kinematics of a with respect to b when b departs `delta` after a.

    U = Va - Vb; P = (origin_a + delta*Va) - origin_b, i.e. the relative
    position at b's departure instant.
    """
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    u = a.velocity - b.velocity
    p = (a.origin + a.velocity.scaled(delta)) - b.origin
    return RelativeState(U=u, P=p)


def cpa_time(rs: RelativeState) -> float:
    """Time of closest approach: where d|R(t)|^2/dt vanishes.

    R(t) = U t + P, so t_min = -(U.P)/|U|^2. May be negative (closest
    approach lies before the reference instant).

    Raises DegenerateRelativeVelocity when |U| is numerically zero; the gap
    is then constant and no unique minimizer exists.
    """
    uu = rs.U.norm_sq()
    if uu <= UU_EPS:
        raise DegenerateRelativeVelocity(
            f"relative speed {math.sqrt(uu):.3e} m/s is below the degeneracy threshold")
    return -rs.U.dot(rs.P) / uu


def min_separation_sq(a: Mission, t_dep_a: float, b: Mission, t_dep_b: float) -> float:
    """Minimum squared distance over the co-airborne window.

    The window is [max(departures), min(arrivals)]; the quadratic |R(t)|^2 is
    evaluated at its vertex clamped into the window. Returns math.inf when
    the airborne windows do not overlap (no co-flight, no conflict possible).
    """
    ar = mission_row(a)
    br = mission_row(b)
    return float(_kernels.pair_min_sep_sq(ar[0], ar[1], ar[2], ar[3], ar[4], t_dep_a,
                                          br[0], br[1], br[2], br[3], br[4], t_dep_b))


def forbidden_interval(first: Mission, second: Mission,
                       cfg: SeparationConfig) -> ForbiddenInterval:
    """Delays of `second` relative to `first` that violate separation.

    The endpoints are the least and greatest delay at which the gap touches
    h while both fly: a crossing of the buffer circle on an edge of the
    co-airborne window, a window corner inside the circle, or the unclamped
    closest approach grazing it. They are exact up to rounding and returned
    on the safe side: scheduling exactly at lo or hi yields a tangent (or
    cleaner) pass. A pure tangency is no conflict and gives an empty span.
    The span is always bounded: at a delay outside [-second.duration,
    first.duration] the two flights are never airborne together.
    """
    fr = mission_row(first)
    sr = mission_row(second)
    code, lo, hi = _kernels.forbidden_core(
        fr[0], fr[1], fr[2], fr[3], fr[4],
        sr[0], sr[1], sr[2], sr[3], sr[4],
        cfg.h)
    if code == 0:
        return ForbiddenInterval.empty()
    return ForbiddenInterval.bounded(float(lo), float(hi))
