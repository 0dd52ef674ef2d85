import itertools
import math

import pytest

from deconflict.errors import OutOfProjectionRange
from deconflict.geo import (GeoPoint, haversine_m, minutes_to_seconds,
                            mph_to_mps, project, seconds_to_minutes)

# the eight case-study vertiports
VERTIPORTS = {
    "9GE8": GeoPoint(33.741, -84.513),
    "GA66": GeoPoint(33.810, -84.395),
    "FTY": GeoPoint(33.779, -84.521),
    "7GA6": GeoPoint(33.762, -84.396),
    "ATL": GeoPoint(33.637, -84.428),
    "GA54": GeoPoint(33.901, -84.468),
    "73GA": GeoPoint(33.883, -84.436),
    "52GA2": GeoPoint(33.538, -84.474),
}


def test_projection_of_reference_is_origin():
    ref = GeoPoint(33.7, -84.4)
    v = project(ref, ref)
    assert (v.x, v.y) == (0.0, 0.0)


def test_east_is_positive_x():
    ref = GeoPoint(33.7, -84.4)
    v = project(GeoPoint(33.7, -84.3), ref)
    assert v.x > 0.0
    assert v.y == pytest.approx(0.0, abs=1e-9)


def test_atl_to_ga54_distance_matches_haversine():
    ref = VERTIPORTS["ATL"]
    v = project(VERTIPORTS["GA54"], ref)
    dist = math.hypot(v.x, v.y)
    expected = haversine_m(VERTIPORTS["ATL"], VERTIPORTS["GA54"])
    assert dist == pytest.approx(29_600.0, rel=0.01)
    assert abs(dist - expected) / expected < 0.005


def test_all_table3_pairs_within_half_percent_of_haversine():
    lat = sum(p.lat for p in VERTIPORTS.values()) / len(VERTIPORTS)
    lon = sum(p.lon for p in VERTIPORTS.values()) / len(VERTIPORTS)
    ref = GeoPoint(lat, lon)
    proj = {k: project(p, ref) for k, p in VERTIPORTS.items()}
    for a, b in itertools.combinations(VERTIPORTS, 2):
        planar = math.hypot(proj[a].x - proj[b].x, proj[a].y - proj[b].y)
        arc = haversine_m(VERTIPORTS[a], VERTIPORTS[b])
        assert abs(planar - arc) / arc < 0.005, (a, b)


def test_projection_takes_the_short_way_across_the_antimeridian():
    # 0.2 degrees of longitude apart, across +-180: east, not 40,000 km west
    p, ref = GeoPoint(0.0, -179.9), GeoPoint(0.0, 179.9)
    v = project(p, ref)
    arc = haversine_m(p, ref)
    assert v.x > 0.0
    assert abs(math.hypot(v.x, v.y) - arc) / arc < 0.005
    v = project(ref, p)
    assert v.x < 0.0
    assert abs(math.hypot(v.x, v.y) - arc) / arc < 0.005


def test_out_of_range_rejected():
    ref = GeoPoint(33.7, -84.4)
    with pytest.raises(OutOfProjectionRange):
        project(GeoPoint(40.7, -74.0), ref)  # New York from Atlanta


def test_unit_conversions():
    assert mph_to_mps(62.4) == pytest.approx(27.895, abs=5e-4)
    assert mph_to_mps(55.5) == pytest.approx(24.811, abs=5e-4)
    assert mph_to_mps(0.0) == 0.0
    assert mph_to_mps(1.0) == 0.44704  # exact constant
    assert minutes_to_seconds(2.5) == 150.0
    assert seconds_to_minutes(150.0) == 2.5


def test_geopoint_validation():
    with pytest.raises(ValueError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, 181.0)
