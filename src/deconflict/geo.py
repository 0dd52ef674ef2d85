"""Geodetic points, a local-plane projection, and unit conversions.

Metro-scale routes given as latitude/longitude are mapped onto a local
equirectangular plane about a reference point: x grows eastward, y grows
northward, distances stay within 0.5 % of great-circle values at the scales
involved (well under 200 km from the reference).
"""

import math
from dataclasses import dataclass

from .errors import OutOfProjectionRange
from .kinematics import Vec2

EARTH_RADIUS_M = 6_371_000.0
PROJECTION_RANGE_M = 200_000.0
MPS_PER_MPH = 0.44704


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")


def haversine_m(p1: GeoPoint, p2: GeoPoint) -> float:
    """Great-circle distance in meters (spherical earth)."""
    lat1 = math.radians(p1.lat)
    lat2 = math.radians(p2.lat)
    dlat = lat2 - lat1
    dlon = math.radians(p2.lon - p1.lon)
    a = (math.sin(0.5 * dlat) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin(0.5 * dlon) ** 2)
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def project(p: GeoPoint, ref: GeoPoint) -> Vec2:
    """Local equirectangular projection about ref (meters, east-x north-y)."""
    if haversine_m(p, ref) > PROJECTION_RANGE_M:
        raise OutOfProjectionRange(
            f"({p.lat}, {p.lon}) is farther than {PROJECTION_RANGE_M / 1000:.0f} km "
            f"from the reference")
    dlon = p.lon - ref.lon
    # the short way round across the antimeridian
    if dlon > 180.0:
        dlon -= 360.0
    elif dlon < -180.0:
        dlon += 360.0
    x = EARTH_RADIUS_M * math.radians(dlon) * math.cos(math.radians(ref.lat))
    y = EARTH_RADIUS_M * math.radians(p.lat - ref.lat)
    return Vec2(x, y)


def mph_to_mps(v: float) -> float:
    return v * MPS_PER_MPH


def minutes_to_seconds(t: float) -> float:
    return t * 60.0


def seconds_to_minutes(t: float) -> float:
    return t / 60.0
