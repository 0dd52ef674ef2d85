import argparse
import hashlib
import importlib
import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from deconflict import cli
from deconflict.errors import ScenarioFormatError, TopologyRejectionExhausted
from deconflict.kinematics import SeparationConfig
from deconflict.optimizer import per_order_table
from deconflict.scenario import AirspaceConfig, generate_topology
from deconflict.scenario_io import read_scenario
from deconflict.statfit import fit_report
from helpers import child_env, pair_stream

CROSSING = {
    "version": 1,
    "units": "metric",
    "separation_h": 1.5,
    "missions": [
        {"id": "a", "origin": [0.0, 10.0], "destination": [20.0, 10.0], "speed": 1.0},
        {"id": "b", "origin": [10.0, 0.0], "destination": [10.0, 20.0], "speed": 1.0},
    ],
}

PARALLEL = {
    "version": 1,
    "units": "metric",
    "separation_h": 1.5,
    "missions": [
        {"id": "p1", "origin": [0.0, 0.0], "destination": [10.0, 0.0], "speed": 1.0},
        {"id": "p2", "origin": [0.0, 5.0], "destination": [10.0, 5.0], "speed": 1.0},
    ],
}

SAME_TRACK = {
    "version": 1,
    "units": "metric",
    "separation_h": 1.5,
    "missions": [
        {"id": "s1", "origin": [0.0, 0.0], "destination": [10.0, 0.0], "speed": 1.0},
        {"id": "s2", "origin": [0.0, 0.0], "destination": [10.0, 0.0], "speed": 1.0},
    ],
}

# sha256 of each file the CLI writes in test_cli_artifacts_are_pinned; one
# changed byte fails it
ARTIFACT_PINS = {
    "optimize/orders.csv":
        "e9f1283bc0229dcf974fbfe272d660f25424d26a4893516378dc30c82b2f896b",
    "optimize/optimize.json":
        "da26595e77511411a02eb0147fc833ea8e390caca2584a271e319364de40e659",
    "schedule/schedule.json":
        "76d91a94f7696722e59bab4e6b0f415b0f31072b891298ca4269e25ba53d0afb",
    "casestudy/casestudy.json":
        "5fd99cc50b3382bdc6ab10b4d4af714237d212e318d6b5b8ca8594f9b5090205",
}

# sha256 of each file the montecarlo and fit runs write in
# test_statistics_artifacts_are_pinned; one changed byte fails it
STATISTICS_PINS = {
    "pooled/samples.csv":
        "8592b91ce8a6ca0d819712dd8bb14353ad4a67c35f708fc776af23d113d7d2c4",
    "pooled/fit.json":
        "42421a63b2bdc942172201b5027e8c0b27c825e579700f92f65a00a106aa63c1",
    "optimal/samples.csv":
        "1bf5499d4de78eeb8894834d2e0cd371aae83189b4e81cfccf71b983dbbd1fcf",
    "optimal/fit.json":
        "6cab1b505cee6526457d0532b5a3d1c96b8ceb9dbbb463b06f5c7a9b78d77706",
    "fit/fit.json":
        "9d2ba959e8a6351a2379678dcf0dc2910224a0474bc9fd0ddd073185f52a0c9a",
}

# sha256 of the exit codes and stdout of every solve-pair run in
# test_solve_pair_output_is_pinned; one changed byte fails it
SOLVE_PAIR_PIN = "3b162efe734058fb60cdaee1415769d18606cc770109992c797a2af001a82a9c"


@pytest.fixture
def scenario_path(tmp_path):
    def write(payload, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write


def test_solve_pair_crossing(scenario_path, capsys):
    rc = cli.main(["solve-pair", "--scenario", scenario_path(CROSSING), "a", "b"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "(-2.121320, 2.121320)" in out
    assert "t = 10.000000 s" in out
    assert "min separation when scheduled at hi: 1.500000 m" in out


def test_solve_pair_parallel_empty(scenario_path, capsys):
    rc = cli.main(["solve-pair", "--scenario", scenario_path(PARALLEL), "p1", "p2"])
    assert rc == 0
    assert "none" in capsys.readouterr().out


def test_solve_pair_same_track_degenerate(scenario_path, capsys):
    rc = cli.main(["solve-pair", "--scenario", scenario_path(SAME_TRACK), "s1", "s2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "degenerate" in out
    assert "(-1.500000, 1.500000)" in out


def test_solve_pair_unknown_id_exits_2(scenario_path, capsys):
    rc = cli.main(["solve-pair", "--scenario", scenario_path(CROSSING), "a", "zz"])
    assert rc == 2
    assert "zz" in capsys.readouterr().err


def test_solve_pair_same_mission_twice_exits_2(scenario_path, capsys):
    rc = cli.main(["solve-pair", "--scenario", scenario_path(CROSSING), "a", "a"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "two different missions" in captured.err


def test_schedule_command(scenario_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = cli.main(["schedule", "--scenario", scenario_path(CROSSING),
                   "--out", str(out_dir)])
    assert rc == 0
    data = json.loads((out_dir / "schedule.json").read_text())
    assert data["departures_s"]["a"] == 0.0
    assert data["departures_s"]["b"] == pytest.approx(2.12132, abs=1e-3)
    assert data["bindings"]["b"] == ["a"]


def test_optimize_reports_consistent_totals(scenario_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = cli.main(["optimize", "--scenario", scenario_path(CROSSING),
                   "--out", str(out_dir)])
    assert rc == 0
    report = json.loads((out_dir / "optimize.json").read_text())
    assert report["orders_evaluated"] == 2
    assert report["total_delay_s"] == pytest.approx(
        sum(report["departures_s"].values()))
    csv_lines = (out_dir / "orders.csv").read_text().splitlines()
    assert csv_lines[0] == "order,total_delay_s,average_delay_s"
    assert len(csv_lines) == 3
    # each row prints the repr of the Schedule's own total and average
    missions, h = read_scenario(scenario_path(CROSSING))
    assert csv_lines[1:] == [
        f"{'>'.join(r.order)},{r.total_delay!r},{r.average_delay!r}"
        for r in per_order_table(missions, SeparationConfig(h=h))]


def test_optimize_no_conflict_zero_efficiency(scenario_path, tmp_path):
    out_dir = tmp_path / "out"
    rc = cli.main(["optimize", "--scenario", scenario_path(PARALLEL),
                   "--out", str(out_dir)])
    assert rc == 0
    report = json.loads((out_dir / "optimize.json").read_text())
    assert report["departures_s"] == {"p1": 0.0, "p2": 0.0}
    assert report["efficiency_gain"] == 0.0


def test_h_flag_overrides_scenario(scenario_path, capsys):
    # the parallel pair is clear at the file's h=1.5 but in conflict at h=10
    rc = cli.main(["solve-pair", "--scenario", scenario_path(PARALLEL),
                   "--h", "10.0", "p1", "p2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "h = 10.0 m" in out
    assert "forbidden delays: (" in out


@pytest.mark.parametrize("h", ["inf", "1e200"])
def test_h_without_finite_square_exits_2_and_writes_nothing(h, scenario_path,
                                                            tmp_path, capsys):
    # h * h overflows to inf, which the pair solver cannot compare with
    out_dir = tmp_path / "opt"
    rc = cli.main(["optimize", "--scenario", scenario_path(CROSSING),
                   "--h", h, "--out", str(out_dir)])
    assert rc == 2
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "h must be positive with a finite, nonzero square" in captured.err


def test_montecarlo_writes_samples_and_fit(tmp_path, capsys):
    out_dir = tmp_path / "mc"
    rc = cli.main(["montecarlo", "--n-agents", "3", "--topologies", "4",
                   "--seed", "42", "--mode", "pooled", "--out", str(out_dir)])
    assert rc == 0
    lines = (out_dir / "samples.csv").read_text().splitlines()
    assert lines[0] == "n_agents,topology_index,order_rank,average_delay_s"
    assert len(lines) == 1 + 4 * 6
    fit = json.loads((out_dir / "fit.json").read_text())
    assert fit["n_agents"] == 3 and fit["mode"] == "pooled"


def test_montecarlo_optimal_mode_csv_has_no_rank(tmp_path):
    out_dir = tmp_path / "mc"
    rc = cli.main(["montecarlo", "--n-agents", "3", "--topologies", "3",
                   "--seed", "1", "--mode", "optimal", "--out", str(out_dir)])
    assert rc == 0
    lines = (out_dir / "samples.csv").read_text().splitlines()
    assert lines[0] == "n_agents,topology_index,average_delay_s"
    assert len(lines) == 4


def test_montecarlo_all_rejected_exits_3_and_writes_nothing(tmp_path, capsys):
    # 14 vertiports 5.7 m apart pass the config check but jam every draw
    out_dir = tmp_path / "mc"
    args = ["montecarlo", "--n-agents", "7", "--h", "5.7", "--topologies", "2"]
    for extra in ([], ["--out", str(out_dir)]):
        assert cli.main(args + extra) == 3
        captured = capsys.readouterr()
        assert "rejected" in captured.err
        assert "nan" not in captured.out
    assert not out_dir.exists()


@pytest.mark.parametrize("extra,message", [
    # two agents at h = 0.05 never conflict: every delay is 0, none is fitted
    (["--n-agents", "2", "--h", "0.05", "--topologies", "5", "--seed", "1"],
     "need at least 2 samples, got 0"),
    (["--n-agents", "3", "--topologies", "2", "--bins", "1"],
     "need at least 2 bins, got 1"),
])
def test_montecarlo_unfittable_exits_2_and_writes_nothing(extra, message, tmp_path,
                                                         capsys):
    out_dir = tmp_path / "mc"
    assert cli.main(["montecarlo", *extra, "--out", str(out_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_montecarlo_over_cap_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "mc"
    assert cli.main(["montecarlo", "--n-agents", "10", "--topologies", "3",
                     "--out", str(out_dir)]) == 2
    assert "exceeds the 9-agent enumeration cap" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("extra,message", [
    (["--n-agents", "0"], "n_agents must be >= 1, got 0"),
    (["--n-agents", "3", "--h", "0"], "h must be positive, got 0.0"),
    (["--n-agents", "3", "--h", "nan"], "h must be positive, got nan"),
])
def test_montecarlo_bad_airspace_exits_2(extra, message, capsys):
    assert cli.main(["montecarlo", *extra, "--topologies", "2"]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_montecarlo_nonpositive_workers_exits_2(capsys):
    assert cli.main(["montecarlo", "--n-agents", "3", "--topologies", "1",
                     "--workers", "-3"]) == 2
    assert "workers" in capsys.readouterr().err


def test_fit_command_reads_samples_csv(tmp_path, capsys):
    mc_dir = tmp_path / "mc"
    cli.main(["montecarlo", "--n-agents", "4", "--topologies", "6",
              "--seed", "3", "--mode", "pooled", "--out", str(mc_dir)])
    out_dir = tmp_path / "fit"
    rc = cli.main(["fit", str(mc_dir / "samples.csv"), "--bins", "20",
                   "--out", str(out_dir)])
    assert rc == 0
    report = json.loads((out_dir / "fit.json").read_text())
    assert report["bins"] == 20
    assert "selected" in capsys.readouterr().out.lower() or report["selected"]


def test_fit_rejects_missing_column(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert cli.main(["fit", str(bad)]) == 2


@pytest.mark.parametrize("rows,message", [
    (["0.5", "0.5", "0.0"], "all 2 samples equal 0.5"),
    (["1.0", "2.0", "nan", "3.0", "4.0"], "samples must be finite"),
    (["1.0", "1.0000000000000002", "1.0000000000000004"],
     "3 samples span [1.0, 1.0000000000000004], too narrow for 50 bins"),
])
def test_fit_rejects_unfittable_samples(rows, message, tmp_path, capsys):
    csv = tmp_path / "samples.csv"
    csv.write_text("\n".join(["average_delay_s", *rows]) + "\n")
    out_dir = tmp_path / "fit"
    assert cli.main(["fit", str(csv), "--out", str(out_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_fit_of_samples_two_ulps_apart_exits_0(tmp_path, capsys):
    # the gamma shape is about 3e31, where ln k - psi(k) formed as a
    # difference of logs is rounding noise
    csv = tmp_path / "samples.csv"
    csv.write_text("average_delay_s\n1.0\n1.0000000000000002\n1.0000000000000004\n")
    out_dir = tmp_path / "fit"
    assert cli.main(["fit", str(csv), "--bins", "2", "--out", str(out_dir)]) == 0
    assert json.loads((out_dir / "fit.json").read_text())["n_samples"] == 3


def test_fit_with_a_non_finite_ssr_exits_2_and_writes_nothing(tmp_path):
    # the gamma density overflows on two samples 7e-15 apart, so its ssr is
    # inf, which strict JSON cannot hold. Run in a subprocess: here
    # filterwarnings = ["error"] would turn numpy's overflow warning into an
    # exception, and the command would exit 4 before it writes
    (tmp_path / "narrow.csv").write_text("average_delay_s\n17.0\n17.000000000000007\n")
    proc = subprocess.run([sys.executable, "-m", "deconflict.cli", "fit", "narrow.csv",
                           "--bins", "2", "--out", "d"], cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "error: output would hold a non-finite number" in proc.stderr
    assert proc.stderr.rstrip().endswith(": inf"), proc.stderr
    # a failed run prints no results: no ssr lines and no selection
    assert "selected:" not in proc.stdout
    assert "ssr" not in proc.stdout
    assert not (tmp_path / "d").exists()


def test_montecarlo_non_finite_fit_exits_2_and_writes_nothing(monkeypatch, tmp_path,
                                                              capsys):
    def inf_ssr(delays, bins):
        report = fit_report(delays, bins=bins)
        report["fits"][0]["ssr"] = math.inf
        return report

    monkeypatch.setattr(cli, "fit_report", inf_ssr)
    out_dir = tmp_path / "mc"
    assert cli.main(["montecarlo", "--n-agents", "3", "--topologies", "2",
                     "--out", str(out_dir)]) == 2
    assert "non-finite number" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("text,message", [
    (None, "cannot read"),
    ("", "samples CSV is empty"),
    ("\n\n", "samples CSV is empty"),
    ("average_delay_s\n1.0\nfast\n", "bad CSV row: could not convert"),
    ("n_agents,average_delay_s\n4,1.0\n4\n", "bad CSV row: list index"),
])
def test_fit_rejects_malformed_csv(text, message, tmp_path, capsys):
    csv = tmp_path / "samples.csv"
    if text is not None:
        csv.write_text(text)
    with pytest.raises(ScenarioFormatError, match=message):
        cli.cmd_fit(argparse.Namespace(samples_csv=str(csv), bins=20, out=None))
    assert cli.main(["fit", str(csv)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_casestudy_evaluates_24_orders(capsys):
    rc = cli.main(["casestudy", "--h", "300"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "24 orders evaluated" in out
    assert "efficiency gain" in out


def test_casestudy_negligible_h_all_zero(capsys, tmp_path):
    out_dir = tmp_path / "cs"
    rc = cli.main(["casestudy", "--h", "0.001", "--out", str(out_dir)])
    assert rc == 0
    report = json.loads((out_dir / "casestudy.json").read_text())
    assert all(v == 0.0 for v in report["best"]["departures_min"].values())
    assert report["best"]["total_delay_min"] == 0.0


def test_invalid_scenario_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 99}))
    assert cli.main(["solve-pair", "--scenario", str(path), "a", "b"]) == 2


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_non_integer_version_exits_2(version, scenario_path, capsys):
    path = scenario_path({**CROSSING, "version": version})
    assert cli.main(["solve-pair", "--scenario", path, "a", "b"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "version: unsupported version" in captured.err


@pytest.mark.parametrize("payload,message", [
    ([CROSSING], "scenario must be a JSON object"),
    ({**CROSSING, "missions": ["a"]}, "missions[0]: mission must be an object"),
    ({**CROSSING, "missions": [{**CROSSING["missions"][0], "speed": True}]},
     "missions[0].speed: expected a number, got True"),
    ({**CROSSING, "missions": [{**CROSSING["missions"][0], "speed": "fast"}]},
     "missions[0].speed: expected a number, got 'fast'"),
    ({**CROSSING, "separation_h": 10**400},
     "separation_h: integer too large for a float"),
    ({**CROSSING, "missions": [{**CROSSING["missions"][0], "origin": [0, 10**400]},
                               CROSSING["missions"][1]]},
     "missions[0].origin: integer too large for a float"),
    (None, "cannot read"),
])
def test_malformed_scenario_exits_2(payload, message, scenario_path, tmp_path,
                                    capsys):
    path = str(tmp_path / "missing.json") if payload is None else scenario_path(payload)
    assert cli.main(["schedule", "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


def test_infeasible_maps_to_exit_3(monkeypatch, scenario_path):
    def boom(args):
        raise TopologyRejectionExhausted("no valid topology within the attempt budget")
    monkeypatch.setattr(cli, "cmd_schedule", boom)
    parser_args = ["schedule", "--scenario", scenario_path(CROSSING)]
    # set_defaults bound the original handler; rebuild through main with the
    # patched module function requires dispatch through args.func, so patch
    # the parser construction instead
    monkeypatch.setattr(cli, "build_parser", lambda: _parser_with(boom))
    assert cli.main(parser_args) == 3


def _parser_with(handler):
    import argparse
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("schedule")
    p.add_argument("--scenario")
    p.set_defaults(func=handler)
    return parser


def test_console_script_is_cli_main():
    # the installed `deconflict` command runs the target named in pyproject
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads(
        (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    module, _, name = project["project"]["scripts"]["deconflict"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main


def test_unexpected_internal_error_maps_to_4(monkeypatch):
    for exc in (OSError("disk trouble"), RuntimeError("bug")):
        def boom(args, exc=exc):
            raise exc
        monkeypatch.setattr(cli, "build_parser", lambda: _parser_with(boom))
        assert cli.main(["schedule", "--scenario", "x"]) == 4


def test_cli_artifacts_are_pinned(scenario_path, tmp_path, capsys):
    # seven missions with 840 orders tied at the optimum, so optimize.json
    # lists many tied orders and orders.csv has 5,040 rows
    missions = generate_topology(AirspaceConfig(n_agents=7, seed=5))
    path = scenario_path({
        "version": 1, "units": "metric", "separation_h": 1.5,
        "missions": [{"id": m.id, "origin": [m.origin.x, m.origin.y],
                      "destination": [m.destination.x, m.destination.y],
                      "speed": m.speed} for m in missions]})
    for argv in (["optimize", "--scenario", path],
                 ["schedule", "--scenario", path],
                 ["casestudy", "--h", "300"]):
        assert cli.main(argv + ["--out", str(tmp_path / argv[0])]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ARTIFACT_PINS}
    assert digests == ARTIFACT_PINS


def test_statistics_artifacts_are_pinned(tmp_path, capsys):
    # the pooled run has 600 zero delays of 4,800, which the fit excludes;
    # the optimal run fits 95 positive samples of 100
    for argv in (["montecarlo", "--n-agents", "4", "--topologies", "200",
                  "--seed", "2026", "--out", str(tmp_path / "pooled")],
                 ["montecarlo", "--n-agents", "5", "--mode", "optimal",
                  "--topologies", "100", "--seed", "2026",
                  "--out", str(tmp_path / "optimal")],
                 ["fit", str(tmp_path / "pooled" / "samples.csv"), "--bins", "20",
                  "--out", str(tmp_path / "fit")]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "pooled" / "fit.json").read_text())[
        "n_excluded_nonpositive"] == 600
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in STATISTICS_PINS}
    assert digests == STATISTICS_PINS


def test_solve_pair_output_is_pinned(scenario_path, capsys):
    # generic, equal-velocity and same-track pairs in both orders, and every
    # ordered pair of missions leaving (+-0.0, +-0.0), whose signed zeros
    # decide the sign of a zero closest-approach time
    runs = []
    for i, pair in enumerate(pair_stream(2108, 80)):
        path = scenario_path({
            "version": 1, "units": "metric", "separation_h": 1.5,
            "missions": [{"id": mid, "origin": [m.origin.x, m.origin.y],
                          "destination": [m.destination.x, m.destination.y],
                          "speed": m.speed} for mid, m in zip("ab", pair)]},
            f"pair{i}.json")
        runs += [(path, "a", "b"), (path, "b", "a")]
    zeros = [{"id": f"z{k}", "origin": list(o), "destination": list(d), "speed": s}
             for k, (o, (d, s)) in enumerate(itertools.product(
                 itertools.product((0.0, -0.0), repeat=2),
                 [((3.0, 4.0), 1.0), ((6.0, 8.0), 2.0), ((-3.0, 4.0), 1.0),
                  ((-0.0, 5.0), 1.0)]))]
    path = scenario_path({"version": 1, "units": "metric", "separation_h": 1.5,
                          "missions": zeros}, "zeros.json")
    runs += [(path, first, second) for first, second
             in itertools.permutations([m["id"] for m in zeros], 2)]
    digest = hashlib.sha256()
    for path, first, second in runs:
        rc = cli.main(["solve-pair", "--scenario", path, first, second])
        digest.update(f"{rc}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == SOLVE_PAIR_PIN
