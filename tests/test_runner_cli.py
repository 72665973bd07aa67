"""Scenario runner configs, report shape, and the command line contract."""
import csv
import io
import json
import subprocess
import sys

import pytest

from fourvel import (ConfigError, InvalidBoostError, QuadratureError,
                     SingularPointError, config_from_dict, default_config,
                     export_report, list_scenarios, run_scenario)
from fourvel import runner
from fourvel.cli import main
from fourvel.runner import report_to_csv, report_to_json


def test_scenario_catalog_is_stable():
    assert list_scenarios() == [
        "action-path", "clifford", "dirac-coulomb-1s", "dirac-plane-wave",
        "gauge-orbit", "kg-coulomb-1s", "plane-wave", "worldline-pierce"]


def test_default_configs_are_valid():
    for name in list_scenarios():
        cfg = default_config(name)
        assert cfg.scenario == name
        assert cfg.seed == 20240817


def test_default_mode_is_central_only_for_the_hard_bound_state():
    assert default_config("dirac-coulomb-1s").method.mode == "central"
    assert default_config("plane-wave").method.mode == "analytic"


def test_config_rejects_unknown_scenario():
    with pytest.raises(ConfigError):
        default_config("warp-drive")


def test_config_from_dict_validation():
    with pytest.raises(ConfigError):
        config_from_dict({"bogus": 1}, "clifford")
    with pytest.raises(ConfigError):
        config_from_dict({"scenario": "plane-wave"}, "clifford")
    with pytest.raises(ConfigError):
        config_from_dict({"constants": {"hbar": -1.0}}, "clifford")
    with pytest.raises(ConfigError):
        config_from_dict({"constants": {"planck": 1.0}}, "clifford")
    with pytest.raises(ConfigError):
        config_from_dict({"method": {"mode": "spectral"}}, "clifford")
    with pytest.raises(ConfigError):
        config_from_dict({"fixture": {"zz": 3}}, "clifford")
    with pytest.raises(ConfigError):
        config_from_dict({"tolerances": {"not_a_check": 1e-6}}, "clifford")
    with pytest.raises(ConfigError):
        config_from_dict({"seed": -4}, "clifford")
    with pytest.raises(ConfigError):
        config_from_dict({"format": "yaml"}, "clifford")


def test_config_cloud_keys_are_checked():
    good = {"cloud": {"kind": "ray", "r_min": 0.5, "r_max": 5.0, "count": 9}}
    assert config_from_dict(good, "kg-coulomb-1s").cloud["count"] == 9
    with pytest.raises(ConfigError):
        config_from_dict({"cloud": {"kind": "shell"}}, "plane-wave")
    with pytest.raises(ConfigError):  # misspelled bound
        config_from_dict({"cloud": {"kind": "ray", "r_lo": 0.5,
                                    "r_max": 5.0, "count": 9}},
                         "kg-coulomb-1s")
    with pytest.raises(ConfigError):  # required radius missing
        config_from_dict({"cloud": {"kind": "random-ball", "count": 10}},
                         "plane-wave")


def test_config_overrides_merge_with_defaults():
    cfg = config_from_dict(
        {"fixture": {"gamma_scale": 1.5}, "seed": 7,
         "method": {"mode": "central", "h": 1e-4}}, "clifford")
    assert cfg.fixture["gamma_scale"] == 1.5
    assert cfg.fixture["n_random_p"] == 100
    assert cfg.seed == 7
    assert cfg.method.h == 1e-4


def test_report_json_shape_and_determinism():
    cfg = default_config("clifford")
    cfg = type(cfg)(**{**vars(cfg), "no_timestamp": True})
    r1 = run_scenario(cfg)
    r2 = run_scenario(cfg)
    assert report_to_json(r1) == report_to_json(r2)
    doc = json.loads(report_to_json(r1))
    assert doc["schema"] == "fourvel-report/1"
    assert doc["passed"] is True
    assert "timestamp" not in doc and "duration_s" not in doc
    assert [c["name"] for c in doc["checks"]] == [
        "clifford", "fixed_entries", "gamma_square", "factorization"]
    for c in doc["checks"]:
        assert set(c) == {"name", "linf", "l2", "tolerance", "passed",
                          "count"}
    assert doc["config"]["seed"] == 20240817


def test_report_includes_timestamp_by_default():
    report = run_scenario(default_config("clifford"))
    doc = json.loads(report_to_json(report))
    assert "timestamp" in doc and "duration_s" in doc


def test_report_rows_schema():
    report = run_scenario(default_config("worldline-pierce"))
    row = report.rows[0]
    assert set(row) == {"case", "check", "index", "x1", "x2", "x3", "t",
                        "magnitude"}


def test_csv_export_fixed_header_and_row_count():
    report = run_scenario(default_config("clifford"))
    text = report_to_csv(report)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["case", "check", "index", "x1", "x2", "x3", "t",
                       "magnitude"]
    assert len(rows) == len(report.rows) + 1


def test_export_report_dispatch():
    report = run_scenario(default_config("clifford"))
    assert export_report(report, "json").startswith("{")
    assert export_report(report, "csv").startswith("case,")
    with pytest.raises(ConfigError):
        export_report(report, "xml")


def test_seed_changes_sample_cloud_but_not_verdict():
    base = default_config("plane-wave")
    alt = type(base)(**{**vars(base), "seed": 1, "no_timestamp": True})
    r_alt = run_scenario(alt)
    r_base = run_scenario(
        type(base)(**{**vars(base), "no_timestamp": True}))
    assert r_alt.passed and r_base.passed
    assert r_alt.rows[0]["x1"] != r_base.rows[0]["x1"]


def test_tolerance_override_can_fail_a_passing_run():
    cfg = config_from_dict({"tolerances": {"gamma_square": 1e-17}},
                           "clifford")
    report = run_scenario(cfg)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"gamma_square"}


# ---------------------------------------------------------------------------
# command line, in process
# ---------------------------------------------------------------------------

def test_cli_list_and_version(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == list_scenarios()
    assert main(["version"]) == 0
    assert capsys.readouterr().out.startswith("fourvel ")


def test_cli_run_writes_report_file(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["run", "clifford", "--no-timestamp", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True


def test_cli_mode_and_step_flags(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["run", "plane-wave", "--numeric", "--h", "5e-3",
               "--no-timestamp", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["method"]["mode"] == "central"
    assert doc["config"]["method"]["h"] == 5e-3


def test_cli_config_file_failure_modes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "clifford", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["run", "clifford", "--config",
                 str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    assert main(["run", "nope"]) == 2


def test_cli_failing_check_exits_one(tmp_path, capsys):
    cfgfile = tmp_path / "detuned.json"
    cfgfile.write_text(json.dumps({"fixture": {"energy_scale": 1.01}}))
    rc = main(["run", "kg-coulomb-1s", "--config", str(cfgfile),
               "--no-timestamp", "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "FAILED" in capsys.readouterr().err


def test_cli_unwritable_output_is_config_error(capsys):
    rc = main(["run", "clifford", "--no-timestamp",
               "--out", "/nonexistent-dir/report.json"])
    assert rc == 2


def test_cli_csv_to_stdout(capsys):
    rc = main(["run", "clifford", "--no-timestamp", "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "case,check,index,x1,x2,x3,t,magnitude"


# ---------------------------------------------------------------------------
# command line, real processes
# ---------------------------------------------------------------------------

def _invoke(*args):
    return subprocess.run([sys.executable, "-m", "fourvel", *args],
                          capture_output=True, text=True)


def test_subprocess_reports_are_byte_identical():
    r1 = _invoke("run", "worldline-pierce", "--no-timestamp")
    r2 = _invoke("run", "worldline-pierce", "--no-timestamp")
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout
    json.loads(r1.stdout)


def test_subprocess_entry_point_help():
    r = _invoke("--help")
    assert r.returncode == 0
    assert "run" in r.stdout and "list" in r.stdout


# ---------------------------------------------------------------------------
# bad values and clouds are configuration errors (exit 2), never exit 1
# ---------------------------------------------------------------------------

def _run_config(tmp_path, scenario, doc):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(doc))
    return main(["run", scenario, "--config", str(cfgfile), "--no-timestamp",
                 "--out", str(tmp_path / "r.json")])


@pytest.mark.parametrize("scenario, doc", [
    ("kg-coulomb-1s", {"seed": True}),              # a bool is not a seed
    ("kg-coulomb-1s", {"no_timestamp": "false"}),   # nor a string a bool
    ("kg-coulomb-1s", {"fixture": {"z_alpha": "abc"}}),
    ("plane-wave", {"fixture": {"momenta": [[1.0, 0.0]]}}),
    ("plane-wave", {"method": {"richardson": "no"}}),
])
def test_mistyped_config_values_are_config_errors(tmp_path, capsys, scenario,
                                                  doc):
    with pytest.raises(ConfigError):
        config_from_dict(doc, scenario)
    assert _run_config(tmp_path, scenario, doc) == 2
    assert "config error" in capsys.readouterr().err


def test_typed_config_values_still_accepted():
    cfg = config_from_dict({"seed": 0, "no_timestamp": True,
                            "fixture": {"z_alpha": 0.3, "energy_scale": 1}},
                           "kg-coulomb-1s")
    assert cfg.seed == 0 and cfg.no_timestamp is True
    assert cfg.fixture["z_alpha"] == 0.3
    cfg = config_from_dict({"fixture": {"energy": 0.9, "scan_points": 5}},
                           "dirac-coulomb-1s")
    assert cfg.fixture["energy"] == 0.9


@pytest.mark.parametrize("scenario, cloud", [
    ("kg-coulomb-1s", {"kind": "ray", "r_min": 0.5, "r_max": 5.0,
                       "count": -3}),
    ("plane-wave", {"kind": "random-ball", "radius": 1.0, "count": 2.5}),
    # inside the Coulomb scenarios' exclusion radius of 0.25
    ("kg-coulomb-1s", {"kind": "ray", "r_min": 0.0, "r_max": 5.0,
                       "count": 10}),
    ("dirac-coulomb-1s", {"kind": "events", "events": [
        {"x1": 1.0, "x2": 0.0, "x3": 0.0, "t": 0.0},
        {"x1": 0.1, "x2": 0.0, "x3": 0.0, "t": 0.0}]}),
    ("plane-wave", {"kind": "events", "events": [{"x1": 1.0}]}),
])
def test_bad_clouds_exit_two(tmp_path, capsys, scenario, cloud):
    assert _run_config(tmp_path, scenario, {"cloud": cloud}) == 2
    assert "config error" in capsys.readouterr().err


def test_clouds_outside_the_exclusion_radius_still_run(tmp_path):
    doc = {"cloud": {"kind": "events", "events": [
        {"x1": 0.3, "x2": 0.4, "x3": 0.0, "t": 0.1}]}}
    assert _run_config(tmp_path, "kg-coulomb-1s", doc) == 0
    doc = {"cloud": {"kind": "random-ball", "radius": 1.0, "count": 20}}
    assert _run_config(tmp_path, "kg-coulomb-1s", doc) == 0
    assert len(json.loads((tmp_path / "r.json").read_text())["rows"]) == 160


@pytest.mark.parametrize("scenario", ["plane-wave", "kg-coulomb-1s",
                                      "dirac-plane-wave", "dirac-coulomb-1s",
                                      "gauge-orbit"])
def test_empty_cloud_runs_without_rows(tmp_path, scenario):
    doc = {"cloud": {"kind": "events", "events": []}}
    assert _run_config(tmp_path, scenario, doc) == 0
    rows = json.loads((tmp_path / "r.json").read_text())["rows"]
    # only the random spinors and the energy scan sample outside the cloud
    assert {r["check"] for r in rows} <= {"dirac_to_kg", "energy_scan"}


def test_empty_rejection_region_is_a_config_error_not_a_hang(tmp_path):
    # every point of a radius-0.1 ball lies inside the exclusion radius 0.25;
    # the timeout turns a regression into a failure instead of a hang
    cfgfile = tmp_path / "ball.json"
    cfgfile.write_text(json.dumps({"cloud": {
        "kind": "random-ball", "radius": 0.1, "count": 100}}))
    r = subprocess.run([sys.executable, "-m", "fourvel", "run",
                        "kg-coulomb-1s", "--config", str(cfgfile)],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 2
    assert "exclusion radius" in r.stderr


# a boost faster than light, a boost at light speed, and a slice above the
# circle, which is a bad input and not a failed circle_count check
@pytest.mark.parametrize("fixture", [
    {"max_boost": 1.5}, {"max_boost": 1.0}, {"ct0": 5.0}],
    ids=["max_boost=1.5", "max_boost=1.0", "ct0=5.0"])
def test_worldline_fixture_out_of_range_exits_two(tmp_path, capsys, fixture):
    doc = {"fixture": fixture}
    with pytest.raises(ConfigError):
        config_from_dict(doc, "worldline-pierce")
    assert _run_config(tmp_path, "worldline-pierce", doc) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("error", [InvalidBoostError, QuadratureError,
                                   SingularPointError])
def test_toolkit_errors_raised_by_a_scenario_exit_two(monkeypatch, capsys,
                                                      error):
    def broken(cfg, rng, col):
        raise error("raised while building the scenario")

    monkeypatch.setitem(runner._SCENARIOS, "clifford", broken)
    assert main(["run", "clifford", "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert "config error: raised while building the scenario" in err
