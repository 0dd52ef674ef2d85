"""Versioned scenario files: JSON in, validated missions and h out.

Schema (version 1):

    {
      "version": 1,
      "units": "metric" | "geodetic",
      "separation_h": <meters>,
      "missions": [
        {"id": str, "origin": [x, y], "destination": [x, y], "speed": num},
        ...
      ]
    }

Metric scenarios carry coordinates in meters and speeds in m/s. Geodetic
scenarios carry [lat, lon] degrees and speeds in mph; they are projected
onto a local plane about the centroid of all endpoints, whose longitude is
averaged on [0, 360] when the endpoints straddle +-180 degrees. Unknown
fields are rejected so typos fail loudly. The readers return
`(missions, separation_h)` with missions in meters and m/s; there is no
writer.
"""

import json
import math

from .errors import OutOfProjectionRange, ScenarioFormatError
from .geo import GeoPoint, mph_to_mps, project
from .kinematics import Mission, Vec2

SCENARIO_VERSION = 1
_UNITS = ("metric", "geodetic")
_TOP_KEYS = {"version", "units", "separation_h", "missions"}
_MISSION_KEYS = {"id", "origin", "destination", "speed"}


def _number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"expected a number, got {value!r}", field)
    try:
        v = float(value)
    except OverflowError:  # an int of more than 308 digits
        raise ScenarioFormatError("integer too large for a float", field) from None
    if not math.isfinite(v):
        raise ScenarioFormatError(f"must be finite, got {v}", field)
    return v


def _point(value, field: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ScenarioFormatError(f"expected a [a, b] pair, got {value!r}", field)
    return _number(value[0], field), _number(value[1], field)


def _keys(obj: dict, keys: set, field=None) -> None:
    """ScenarioFormatError on a key of obj outside keys, then on one missing."""
    unknown = set(obj) - keys
    if unknown:
        raise ScenarioFormatError(f"unknown fields: {sorted(unknown)}", field)
    missing = keys - set(obj)
    if missing:
        raise ScenarioFormatError(f"missing fields: {sorted(missing)}", field)


def parse_scenario(data: dict) -> tuple[list[Mission], float]:
    """Validate a decoded scenario; return its missions and separation_h."""
    if not isinstance(data, dict):
        raise ScenarioFormatError("scenario must be a JSON object")
    _keys(data, _TOP_KEYS)
    # type check first: True == 1 and 1.0 == 1 in Python
    if type(data["version"]) is not int or data["version"] != SCENARIO_VERSION:
        raise ScenarioFormatError(
            f"unsupported version {data['version']!r} (expected {SCENARIO_VERSION})",
            "version")
    units = data["units"]
    if units not in _UNITS:
        raise ScenarioFormatError(f"units must be one of {_UNITS}, got {units!r}",
                                  "units")
    h = _number(data["separation_h"], "separation_h")
    if h <= 0.0:
        raise ScenarioFormatError(f"must be positive, got {h}", "separation_h")
    raw = data["missions"]
    if not isinstance(raw, list) or not raw:
        raise ScenarioFormatError("missions must be a non-empty list", "missions")
    specs = []
    seen = set()
    for idx, m in enumerate(raw):
        field = f"missions[{idx}]"
        if not isinstance(m, dict):
            raise ScenarioFormatError("mission must be an object", field)
        _keys(m, _MISSION_KEYS, field)
        mid = m["id"]
        if not isinstance(mid, str) or not mid:
            raise ScenarioFormatError(f"id must be a non-empty string, got {mid!r}",
                                      field)
        if mid in seen:
            raise ScenarioFormatError(f"duplicate mission id {mid!r}", field)
        seen.add(mid)
        speed = _number(m["speed"], f"{field}.speed")
        if speed <= 0.0:
            raise ScenarioFormatError(f"speed must be positive, got {speed}",
                                      f"{field}.speed")
        specs.append((mid, _point(m["origin"], f"{field}.origin"),
                      _point(m["destination"], f"{field}.destination"), speed))
    return _missions(units, specs), h


def read_scenario(path) -> tuple[list[Mission], float]:
    """Read a scenario file; return its missions and separation_h."""
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"invalid JSON: {exc}") from exc
    return parse_scenario(data)


def _missions(units: str, specs) -> list[Mission]:
    """Materialize (id, origin, destination, speed) specs in meters/seconds."""
    try:
        if units == "metric":
            return [Mission(id=mid, origin=Vec2(*origin),
                            destination=Vec2(*destination), speed=speed)
                    for mid, origin, destination, speed in specs]
        # the centroid sums origin then destination of each mission in turn
        geos = [GeoPoint(lat, lon) for _, origin, destination, _ in specs
                for lat, lon in (origin, destination)]
        lons = [g.lon for g in geos]
        if max(lons) - min(lons) > 180.0:
            # endpoints across +-180: average the longitudes on [0, 360]
            lons = [lon + 360.0 if lon < 0.0 else lon for lon in lons]
        lon = sum(lons) / len(geos)
        ref = GeoPoint(sum(g.lat for g in geos) / len(geos),
                       lon - 360.0 if lon > 180.0 else lon)
        return [Mission(id=mid,
                        origin=project(GeoPoint(*origin), ref),
                        destination=project(GeoPoint(*destination), ref),
                        speed=mph_to_mps(speed))
                for mid, origin, destination, speed in specs]
    except (ValueError, OutOfProjectionRange) as exc:
        raise ScenarioFormatError(str(exc)) from exc
