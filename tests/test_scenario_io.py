import json
from importlib import resources

import pytest

from deconflict import atlanta
from deconflict.errors import ScenarioFormatError
from deconflict.geo import GeoPoint, haversine_m, mph_to_mps
from deconflict.scenario_io import parse_scenario, read_scenario

METRIC = {
    "version": 1,
    "units": "metric",
    "separation_h": 1.5,
    "missions": [
        {"id": "a", "origin": [0.0, 10.0], "destination": [20.0, 10.0], "speed": 1.0},
        {"id": "b", "origin": [10.0, 0.0], "destination": [10.0, 20.0], "speed": 1.0},
    ],
}

GEODETIC = {
    "version": 1,
    "units": "geodetic",
    "separation_h": 150.0,
    "missions": [
        {"id": "03", "origin": [33.637, -84.428], "destination": [33.901, -84.468],
         "speed": 62.4},
        {"id": "04", "origin": [33.883, -84.436], "destination": [33.538, -84.474],
         "speed": 62.4},
    ],
}


def test_metric_parse_and_materialize():
    missions, h = parse_scenario(METRIC)
    assert h == 1.5
    assert [m.id for m in missions] == ["a", "b"]
    assert missions[0].origin.x == 0.0 and missions[0].origin.y == 10.0
    assert missions[0].speed == 1.0


def test_geodetic_projection_and_speed_conversion():
    missions, _ = parse_scenario(GEODETIC)
    assert missions[0].speed == pytest.approx(mph_to_mps(62.4))
    # ATL -> GA54 is about 29.6 km in the plane
    route = missions[0].destination - missions[0].origin
    assert route.norm() == pytest.approx(29_600.0, rel=0.01)


@pytest.mark.parametrize("mutate,field", [
    (lambda d: d.update(extra=1), "unknown top-level"),
    (lambda d: d.pop("units"), "missing units"),
    (lambda d: d.update(version=2), "version"),
    (lambda d: d.update(units="imperial"), "units value"),
    (lambda d: d.update(separation_h=0.0), "nonpositive h"),
    (lambda d: d.update(missions=[]), "empty missions"),
    (lambda d: d["missions"][0].update(color="red"), "unknown mission field"),
    (lambda d: d["missions"][0].pop("speed"), "missing mission field"),
    (lambda d: d["missions"][0].update(speed=-1.0), "nonpositive speed"),
    (lambda d: d["missions"][0].update(id=""), "empty id"),
    (lambda d: d["missions"][0].update(origin=[1.0]), "bad point"),
    (lambda d: d["missions"][0].update(speed=float("nan")), "nonfinite"),
    (lambda d: d["missions"][1].update(id="a"), "duplicate id"),
    (lambda d: d["missions"].__setitem__(0, ["a"]), "mission not an object"),
    (lambda d: d["missions"][0].update(speed=True), "boolean speed"),
    (lambda d: d["missions"][0].update(speed="fast"), "string speed"),
    # a JSON integer beyond the float range overflows float()
    (lambda d: d["missions"][0].update(speed=10**400), "huge integer speed"),
    (lambda d: d.update(separation_h=10**400), "huge integer h"),
    (lambda d: d["missions"][0].update(origin=[10**400, 0]), "huge coordinate"),
])
def test_schema_violations_rejected(mutate, field):
    data = json.loads(json.dumps(METRIC))
    mutate(data)
    with pytest.raises(ScenarioFormatError):
        parse_scenario(data)


@pytest.mark.parametrize("mutate,message,field", [
    (lambda d: d.update(extra=1, zz=2), "unknown fields: ['extra', 'zz']", None),
    (lambda d: d.pop("units"), "missing fields: ['units']", None),
    (lambda d: d["missions"][1].update(color="red"),
     "missions[1]: unknown fields: ['color']", "missions[1]"),
    (lambda d: (d["missions"][0].pop("speed"), d["missions"][0].pop("id")),
     "missions[0]: missing fields: ['id', 'speed']", "missions[0]"),
])
def test_key_errors_name_the_keys_and_the_object(mutate, message, field):
    data = json.loads(json.dumps(METRIC))
    mutate(data)
    with pytest.raises(ScenarioFormatError) as exc:
        parse_scenario(data)
    assert str(exc.value) == message
    assert exc.value.field == field


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_version_must_be_the_integer_1(version):
    data = json.loads(json.dumps(METRIC))
    data["version"] = version
    with pytest.raises(ScenarioFormatError) as exc:
        parse_scenario(data)
    assert exc.value.field == "version"


def test_zero_length_route_rejected_at_materialization():
    data = json.loads(json.dumps(METRIC))
    data["missions"][0]["destination"] = data["missions"][0]["origin"]
    with pytest.raises(ScenarioFormatError):
        parse_scenario(data)


def test_geodetic_span_beyond_projection_range_rejected():
    data = json.loads(json.dumps(GEODETIC))
    data["missions"][0]["destination"] = [40.7, -74.0]  # ~1200 km away
    with pytest.raises(ScenarioFormatError):
        parse_scenario(data)


def test_geodetic_scenario_across_the_antimeridian():
    # the centroid of endpoints on both sides of +-180 lies between them,
    # not half a world away; the missions match the same scenario shifted
    # 180 degrees onto the prime meridian
    def scenario(lon_a, lon_b):
        return {"version": 1, "units": "geodetic", "separation_h": 150.0,
                "missions": [
                    {"id": "w", "origin": [0.05, lon_a], "destination": [-0.05, lon_b],
                     "speed": 62.4},
                    {"id": "e", "origin": [-0.05, lon_b], "destination": [0.05, lon_a],
                     "speed": 62.4}]}
    across, _ = parse_scenario(scenario(179.9, -179.95))
    meridian, _ = parse_scenario(scenario(-0.1, 0.05))
    for m, n in zip(across, meridian):
        for p, q in ((m.origin, n.origin), (m.destination, n.destination)):
            assert p.x == pytest.approx(q.x, abs=1e-6)
            assert p.y == pytest.approx(q.y, abs=1e-6)
    # w flies 0.15 degrees east, across +-180
    assert across[0].origin.x < across[0].destination.x
    assert (across[0].destination - across[0].origin).norm() == pytest.approx(
        haversine_m(GeoPoint(0.05, 179.9), GeoPoint(-0.05, -179.95)), rel=0.005)


@pytest.mark.parametrize("data", [[METRIC], [], "scenario", None])
def test_scenario_must_be_an_object(data):
    with pytest.raises(ScenarioFormatError, match="scenario must be a JSON object"):
        parse_scenario(data)


def test_unreadable_file(tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):
        with pytest.raises(ScenarioFormatError, match="cannot read"):
            read_scenario(path)


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioFormatError):
        read_scenario(path)


def test_atlanta_missions_are_a_new_list_on_every_call():
    # the bundled scenario is parsed once per process, but a caller that
    # changes its list changes neither a later call nor the case study
    text = resources.files("deconflict.data").joinpath("atlanta.json").read_text()
    parsed = parse_scenario(json.loads(text))[0]
    study = atlanta.case_study(300.0)
    first = atlanta.load_missions()
    assert first == parsed
    first.reverse()
    first[0] = first.pop()
    second = atlanta.load_missions()
    assert second is not first and second == parsed
    assert atlanta.case_study(300.0) == study


@pytest.mark.parametrize("h", [50.0, 300.0, 1000.0])
def test_case_study_repeats_equal(h):
    assert atlanta.case_study(h) == atlanta.case_study(h)
