"""Scenario runner configs, report shape, and the command line contract."""
import csv
import hashlib
import dataclasses
import io
import json
import math
import subprocess
import sys
import warnings

import pytest

from fourvel import (ANALYTIC, ConfigError, DerivativeMethod,
                     InvalidBoostError, ParameterError, PhysicalConstants,
                     QuadratureError, SingularPointError, config_from_dict,
                     default_config, export_report, list_scenarios,
                     run_scenario)
from fourvel import core4, runner
from fourvel.cli import main
from fourvel.runner import report_to_csv, report_to_json
from fourvel.wavefunctions import SpinorWave


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
    row = json.loads(export_report(report))["rows"][0]
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
    assert (json.loads(export_report(r_alt))["rows"][0]["x1"]
            != json.loads(export_report(r_base))["rows"][0]["x1"])


def test_tolerance_override_can_fail_a_passing_run():
    cfg = config_from_dict({"tolerances": {"gamma_square": 1e-17}},
                           "clifford")
    report = run_scenario(cfg)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"gamma_square"}


def test_a_nan_magnitude_fails_its_check_wherever_it_lies():
    e = runner._ORIGIN
    for mags in ([0.0, float("nan"), 1e-20], [float("nan"), 0.0],
                 [1e-20, 0.0, float("nan")]):
        col = runner._Collector({"chk": (1e-12, 1e-12, None),
                                 "info": (None, None, None)}, ANALYTIC, {})
        for m in mags:
            col.add_case(*runner._one("case", e, chk=m, info=m))
        chk, info = col.finalize()
        assert math.isnan(chk.linf) and not chk.passed
        # a check without a tolerance stays informational
        assert math.isnan(info.linf) and info.passed
    col = runner._Collector({"chk": (1e-12, 1e-12, None)}, ANALYTIC, {})
    col.add_case(*runner._one("case", e, chk=0.0))
    col.add_case(*runner._one("case", e, chk=float("inf")))
    assert col.finalize()[0].linf == float("inf")


# each wave is read off one residual chain, which evaluates psi once per
# distinct point. A scalar chain in central mode takes psi at each
# sample's 16 stencil points and the sample itself (the ring: the values,
# read off its last column, the gradient, the Laplacian and the values of
# the chain nested in the momentum gradient) and at the 160 distinct points
# of the nested stencil (of its 256 stencil-of-stencil points, a pair
# across two axes and its swap are one point): 177 rows per sample, and
# with Richardson's second step 33 + 640 = 673. A spinor's chain reads no
# Laplacian and no nested stencil. dirac-plane-wave's random spinors are
# read only through dirac_to_kg_check, whose outer stencil is central in
# both modes, and kg_operator_on_spinor's values. Analytic mode takes psi
# at the samples, except that a chain which has built a ring (as
# dirac_to_kg_check's outer stencil does) reads its values off the ring.
_PSI_TABLES = {   # psi rows per sample of each psi call, per mode
    "scalar": {"analytic": (1,), "central": (17, 160),
               "central-richardson": (33, 640)},
    "spinor": {"analytic": (1,), "central": (17,),
               "central-richardson": (33,)},
    "random-spinors": {"analytic": (17, 1), "central": (17, 160, 1),
                       "central-richardson": (33, 640, 1)},
}


@pytest.mark.parametrize("mode", ["analytic", "central",
                                  "central-richardson"])
@pytest.mark.parametrize("scenario, waves", [("plane-wave", 3),
                                             ("kg-coulomb-1s", 1),
                                             ("dirac-plane-wave", 3),
                                             ("dirac-coulomb-1s", 1)])
def test_one_momentum_gradient_and_kg_residual_per_wave(monkeypatch, scenario,
                                                        waves, mode):
    cases = []   # (kind, samples, psi rows of each call) per chain case
    chains = runner._chains

    def counted_chains(cfg, wave, *args, **kwargs):
        kind = ("spinor" if wave.energy else "random-spinors") \
            if isinstance(wave, SpinorWave) else "scalar"
        calls, psi = [], wave.psi

        def counted(e):
            calls.append(1 if isinstance(e, core4.Event) else len(e))
            return psi(e)

        make = chains(cfg, dataclasses.replace(wave, psi=counted), *args,
                      **kwargs)

        def made(points, method):
            cases.append((kind, len(points), calls))
            return make(points, method)
        return made

    monkeypatch.setattr(runner, "_chains", counted_chains)
    method = {"mode": mode.split("-")[0],
              "richardson": mode.endswith("richardson")}
    assert run_scenario(config_from_dict({"method": method}, scenario)).passed
    assert sum(kind != "random-spinors" for kind, _, _ in cases) == waves
    for kind, samples, calls in cases:
        assert sorted(calls) == sorted(samples * rows
                                       for rows in _PSI_TABLES[kind][mode])
    if scenario == "dirac-plane-wave":
        # the random spinors are certified a block of B at a time
        block = runner._SPINOR_BLOCK
        assert [samples for kind, samples, _ in cases[waves:]] == \
            [3 * block] * (20 // block)


@pytest.mark.parametrize("momenta", [[[0, 0, 0], [1e200, 0, 0]],
                                     [[1e200, 0, 0], [0, 0, 0]]])
def test_overflowing_momentum_is_refused_in_either_order(tmp_path, capsys,
                                                         momenta):
    # the energy of 1e200 overflows; that is a bad input, refused before any
    # row is certified and without a numpy warning, whichever momentum is
    # first
    doc = {"fixture": {"momenta": momenta}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="infinite energy"):
            run_scenario(config_from_dict(doc, "plane-wave"))
        assert _run_config(tmp_path, "plane-wave", doc) == 2
    assert "infinite energy" in capsys.readouterr().err


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


# --seed meets the rule of a config file's seed
@pytest.mark.parametrize("seed, code", [(2 ** 64, 2), (2 ** 64 - 1, 0)])
def test_cli_seed_is_an_unsigned_64_bit_integer(capsys, seed, code):
    assert main(["run", "clifford", "--seed", str(seed),
                 "--no-timestamp"]) == code
    err = capsys.readouterr().err
    assert ("unsigned 64-bit integer" in err) == (code == 2)


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
    ("plane-wave", {"kind": [], "events": []}),   # an unhashable kind
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


def test_worldline_radius_with_an_infinite_square_exits_two(tmp_path, capsys):
    doc = {"fixture": {"radius": 1e200}}
    with pytest.raises(ConfigError, match="radius"):
        config_from_dict(doc, "worldline-pierce")
    assert _run_config(tmp_path, "worldline-pierce", doc) == 2
    assert "config error" in capsys.readouterr().err


# a line faster than light is a bad input: seen from the frame at v = 0.5 the
# first one lies in t = 0, so every grid point would be a root; the others
# are faster than light in other units or along other axes
@pytest.mark.parametrize("doc", [
    {"fixture": {"line_v": [2.0, 0, 0], "n_boosts": 3, "max_boost": 0.5}},
    {"fixture": {"line_v": [0, 0.8, 0.8]}},
    {"constants": {"c": 0.5}, "fixture": {"line_v": [0.3, 0.3, 0.3]}},
    {"fixture": {"line_v": [1e300, 1e300, 0]}}],
    ids=["frame-at-half-c", "diagonal", "c=0.5", "huge"])
def test_worldline_line_faster_than_light_exits_two(tmp_path, capsys, doc):
    with pytest.raises(ConfigError, match="faster than light"):
        config_from_dict(doc, "worldline-pierce")
    assert _run_config(tmp_path, "worldline-pierce", doc) == 2
    assert "faster than light" in capsys.readouterr().err


# a line at or below light speed still runs, in other units too
@pytest.mark.parametrize("doc", [
    {"fixture": {"line_v": [1.0, 0, 0]}},
    {"constants": {"c": 2.0}, "fixture": {"line_v": [1.5, 0, 0]}}],
    ids=["null", "c=2"])
def test_worldline_line_up_to_light_speed_runs(tmp_path, doc):
    assert _run_config(tmp_path, "worldline-pierce", doc) == 0


# the grazing slice at ct0 = radius is flagged tangent at every scale whose
# square is finite, not only where dt/dlambda is small in absolute terms
@pytest.mark.parametrize("radius", [10.0, 1e6, 1e10, 1e12, 1e20, 1e50, 1e100,
                                    1e150])
def test_worldline_large_radius_passes(tmp_path, radius):
    assert _run_config(tmp_path, "worldline-pierce",
                       {"fixture": {"radius": radius}}) == 0


# every count is refused above one fixed bound before any work is done
@pytest.mark.parametrize("scenario, key", [
    ("dirac-plane-wave", "n_random_spinors"), ("gauge-orbit", "n_gauges"),
    ("clifford", "n_random_p"), ("worldline-pierce", "n_boosts"),
    ("dirac-coulomb-1s", "scan_points")])
def test_fixture_count_above_the_bound_exits_two(tmp_path, capsys, scenario,
                                                 key):
    cap = runner._MAX_COUNT
    assert config_from_dict({"fixture": {key: cap}}, scenario)
    doc = {"fixture": {key: cap + 1}}
    with pytest.raises(ConfigError, match=key):
        config_from_dict(doc, scenario)
    assert _run_config(tmp_path, scenario, doc) == 2
    assert "config error" in capsys.readouterr().err
    cfg = default_config(scenario)
    cfg = dataclasses.replace(cfg, fixture={**cfg.fixture, key: cap + 1})
    with pytest.raises(ConfigError, match=key):
        run_scenario(cfg)


@pytest.mark.parametrize("scenario, cloud", [
    ("plane-wave", {"kind": "random-ball", "radius": 1.0}),
    ("kg-coulomb-1s", {"kind": "ray", "r_min": 0.5, "r_max": 5.0})])
def test_cloud_count_above_the_bound_exits_two(tmp_path, capsys, scenario,
                                               cloud):
    doc = {"cloud": {**cloud, "count": runner._MAX_COUNT + 1}}
    assert _run_config(tmp_path, scenario, doc) == 2
    assert "cloud count" in capsys.readouterr().err


def test_a_billion_random_spinors_is_refused_at_once(tmp_path):
    # the timeout turns a regression into a failure instead of a weeks-long
    # run
    cfgfile = tmp_path / "spinors.json"
    cfgfile.write_text(json.dumps({"fixture": {"n_random_spinors": 10 ** 9}}))
    r = subprocess.run([sys.executable, "-m", "fourvel", "run",
                        "dirac-plane-wave", "--config", str(cfgfile)],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 2
    assert "n_random_spinors" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("scenario, fixture", [
    ("plane-wave", {"momenta": [[0, 0, 0], [1e200, 0, 0]]}),
    ("dirac-plane-wave", {"momenta": [[0, 0, 0], [1e200, 0, 0]]}),
    ("gauge-orbit", {"p": [1e200, 0, 0]}),
])
def test_overflowing_plane_wave_energy_exits_two_quietly(tmp_path, scenario,
                                                         fixture):
    cfgfile = tmp_path / "p.json"
    cfgfile.write_text(json.dumps({"fixture": fixture}))
    r = _invoke("run", scenario, "--config", str(cfgfile), "--no-timestamp")
    assert r.returncode == 2
    assert r.stderr.startswith("fourvel: config error:")
    assert "Warning" not in r.stderr and "Traceback" not in r.stderr


# finite inputs whose arithmetic overflows on the way: numpy would warn and
# go on with inf or NaN rows
@pytest.mark.parametrize("scenario, doc", [
    ("plane-wave", {"fixture": {"momenta": [[0, 0, 0], [1e154, 0, 0]]}}),
    ("gauge-orbit", {"cloud": {"kind": "random-ball", "radius": 1e200,
                               "count": 5}}),
    ("gauge-orbit", {"cloud": {"kind": "ray", "r_min": 1.7976931348623155e308,
                               "r_max": 1.7976931348623157e308, "count": 5},
                     "fixture": {"n_gauges": 0}}),
], ids=["momentum", "random-ball", "ray"])
def test_overflowing_arithmetic_exits_two_quietly(tmp_path, capsys, scenario,
                                                  doc):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="arithmetic out of range"):
            run_scenario(config_from_dict(doc, scenario))
        assert _run_config(tmp_path, scenario, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("fourvel: config error:") and err.count("\n") == 1


@pytest.mark.parametrize("scenario", ["plane-wave", "gauge-orbit"])
def test_ray_bound_beyond_int64_runs(tmp_path, scenario):
    doc = {"cloud": {"kind": "ray", "r_min": 0.5,
                     "r_max": 100000000000000000000, "count": 5}}
    assert _run_config(tmp_path, scenario, doc) in (0, 1)
    rows = json.loads((tmp_path / "r.json").read_text())["rows"]
    assert max(r["x1"] for r in rows) == 1e20


# units whose scales (m c^2, hbar c, m c / hbar, q, c^2) overflow or
# underflow once squared are refused before any fixture is built
@pytest.mark.parametrize("value", [1e200, 1e-200])
@pytest.mark.parametrize("constant", ["c", "m", "hbar", "q"])
@pytest.mark.parametrize("scenario", list_scenarios())
def test_extreme_constants_exit_two(tmp_path, capsys, scenario, constant,
                                    value):
    doc = {"constants": {constant: value}}
    assert _run_config(tmp_path, scenario, doc) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    cfg = dataclasses.replace(default_config(scenario),
                              constants=PhysicalConstants(**{constant: value}))
    with pytest.raises(ConfigError):
        run_scenario(cfg)


# JSON integers beyond the float range are not finite numbers
@pytest.mark.parametrize("scenario, doc", [
    ("kg-coulomb-1s", {"constants": {"c": 10 ** 400}}),
    ("kg-coulomb-1s", {"fixture": {"z_alpha": 10 ** 400}}),
    ("worldline-pierce", {"fixture": {"radius": -10 ** 400}}),
], ids=["constant", "fixture", "negative-fixture"])
def test_integers_beyond_the_float_range_exit_two(tmp_path, capsys, scenario,
                                                  doc):
    assert _run_config(tmp_path, scenario, doc) == 2
    assert "config error" in capsys.readouterr().err


def test_si_constants_are_still_accepted():
    si = {"hbar": 1.054571817e-34, "c": 299792458.0, "m": 9.1093837e-31,
          "q": -1.602176634e-19}
    assert vars(config_from_dict({"constants": si}, "plane-wave").constants) \
        == si


@pytest.mark.parametrize("error", [InvalidBoostError, QuadratureError,
                                   SingularPointError])
def test_toolkit_errors_raised_by_a_scenario_exit_two(monkeypatch, capsys,
                                                      error):
    def broken(cfg, rng, events):
        raise error("raised while building the scenario")

    spec = dataclasses.replace(runner._SCENARIOS["clifford"], build=broken)
    monkeypatch.setitem(runner._SCENARIOS, "clifford", spec)
    assert main(["run", "clifford", "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert "config error: raised while building the scenario" in err


# out-of-range values of the right type: an empty energy bracket, a
# bracket with no points and a gauge polynomial of unsupported degree
@pytest.mark.parametrize("scenario, fixture", [
    ("dirac-coulomb-1s", {"scan_lo": 0.95, "scan_hi": 0.85}),
    ("dirac-coulomb-1s", {"scan_lo": 0.9, "scan_hi": 0.9}),
    ("dirac-coulomb-1s", {"scan_points": 0}),
    ("gauge-orbit", {"degree": 3}),
    ("gauge-orbit", {"degree": 0}),
], ids=["scan_lo>scan_hi", "scan_lo=scan_hi", "scan_points=0", "degree=3",
        "degree=0"])
def test_fixture_out_of_range_exits_two(tmp_path, capsys, scenario, fixture):
    doc = {"fixture": fixture}
    with pytest.raises(ConfigError):
        config_from_dict(doc, scenario)
    assert _run_config(tmp_path, scenario, doc) == 2
    assert "config error" in capsys.readouterr().err
    # a config built in code meets the same limits
    cfg = default_config(scenario)
    cfg = dataclasses.replace(cfg, fixture={**cfg.fixture, **fixture})
    with pytest.raises(ConfigError):
        run_scenario(cfg)


# a config built in code meets the rules of a config file when it is run,
# instead of letting a Python error escape or a field go unread
@pytest.mark.parametrize("changes", [
    {"fixture": {"p": [1.0, 0, 0]}},
    {"cloud": {"kind": "random-ball", "radius": 1.5}},
    {"cloud": [1, 2]},
    {"fixture": {"p": "abc", "n_gauges": 10, "degree": 2}},
    {"seed": -1},
    {"tolerances": {"nope": 1.0}},
    {"fmt": "xml"},
    {"method": DerivativeMethod("analytic", 1e-3, "no")},
    {"no_timestamp": "yes"},
], ids=["fixture-without-n_gauges", "cloud-without-count", "cloud-list",
        "p-string", "seed-negative", "unknown-tolerance", "format-xml",
        "richardson-string", "no_timestamp-string"])
def test_configs_built_in_code_are_checked_when_run(changes):
    cfg = dataclasses.replace(default_config("gauge-orbit"), **changes)
    with pytest.raises(ConfigError):
        run_scenario(cfg)


# a config built in code holds the records, not the dicts of a document;
# a dict in a record's place is refused, with every key and value in range
@pytest.mark.parametrize("field, record", [
    ("constants", {"hbar": 1.0, "c": 1.0, "m": 1.0, "q": -1.0}),
    ("method", {"mode": "analytic", "h": 1e-3, "richardson": False}),
])
def test_a_dict_in_place_of_a_record_is_refused_when_run(field, record):
    cfg = dataclasses.replace(default_config("clifford"), **{field: record})
    with pytest.raises(ConfigError, match=f"{field} must be a"):
        run_scenario(cfg)
    # the same values in a document are still read into their records
    cfg = config_from_dict({field: record}, "clifford")
    assert vars(getattr(cfg, field)) == record
    assert run_scenario(cfg).passed


def test_integer_radius_whose_square_overflows_exits_two(tmp_path, capsys):
    # an integer's square may be too large to convert to a float
    doc = {"fixture": {"radius": 10 ** 200}}
    with pytest.raises(ConfigError, match="radius"):
        config_from_dict(doc, "worldline-pierce")
    assert _run_config(tmp_path, "worldline-pierce", doc) == 2
    assert "config error" in capsys.readouterr().err


def test_default_configs_do_not_share_the_records_values():
    cfg = default_config("plane-wave")
    cfg.fixture["momenta"].append([2.0, 0.0, 0.0])
    cfg.cloud["center"][0] = 1.0
    for name in ("plane-wave", "dirac-plane-wave"):
        fresh = default_config(name)
        assert len(fresh.fixture["momenta"]) == 3
        assert fresh.cloud["center"] == [0, 0, 0, 0]


def test_scenario_name_that_is_not_a_string_is_unknown():
    with pytest.raises(ConfigError, match="unknown scenario"):
        config_from_dict({"scenario": ["clifford"]})


# the Coulomb potential fixes q*A_4, so it has no value at q = 0
@pytest.mark.parametrize("scenario", ["kg-coulomb-1s", "dirac-coulomb-1s",
                                      "action-path"])
def test_zero_charge_in_a_coulomb_scenario_exits_two(tmp_path, capsys,
                                                     scenario):
    assert _run_config(tmp_path, scenario, {"constants": {"q": 0.0}}) == 2
    assert "nonzero charge" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["clifford", "action-path",
                                      "worldline-pierce"])
def test_cloud_is_refused_where_no_cloud_is_sampled(tmp_path, capsys,
                                                    scenario):
    good = {"kind": "ray", "r_min": 0.5, "r_max": 5.0, "count": 9}
    bad = {"kind": "ray", "r_min": "x", "count": -3}
    for cloud in (good, bad):
        with pytest.raises(ConfigError, match="samples no cloud"):
            config_from_dict({"cloud": cloud}, scenario)
    assert _run_config(tmp_path, scenario, {"cloud": good}) == 2
    assert "samples no cloud" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the scenario record matches what the scenario reports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["analytic", "central"])
@pytest.mark.parametrize("scenario", list_scenarios())
def test_reported_checks_are_the_records_tolerance_keys(scenario, mode):
    cfg = default_config(scenario)
    cfg = dataclasses.replace(cfg, method=DerivativeMethod(mode))
    report = run_scenario(cfg)
    assert ({c.name for c in report.checks}
            == set(runner._SCENARIOS[scenario].checks))


# ---------------------------------------------------------------------------
# dirac-coulomb-1s: the energy scan window must hold the expected energy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("z_alpha", [0.2, 0.3])
def test_scan_window_without_the_energy_exits_two(tmp_path, capsys, z_alpha):
    # sqrt(1 - z_alpha^2) is 0.980 or 0.954, above the default [0.85, 0.95]
    doc = {"fixture": {"z_alpha": z_alpha}}
    with pytest.raises(ConfigError, match="scan window"):
        config_from_dict(doc, "dirac-coulomb-1s")
    assert _run_config(tmp_path, "dirac-coulomb-1s", doc) == 2
    err = capsys.readouterr().err
    assert "[0.85, 0.95]" in err and repr(math.sqrt(1 - z_alpha ** 2)) in err


def test_scan_window_that_holds_the_energy_passes(tmp_path):
    doc = {"fixture": {"z_alpha": 0.2, "scan_hi": 0.99}}
    assert _run_config(tmp_path, "dirac-coulomb-1s", doc) == 0


# the Dirac ground state is bound for z_alpha < 1, the scalar one only
# below 0.5, and the Coulomb potential takes any positive coupling
@pytest.mark.parametrize("mode", ["analytic", "central"])
@pytest.mark.parametrize("z_alpha", [0.7, 0.9])
def test_dirac_coulomb_certifies_couplings_past_one_half(tmp_path, z_alpha,
                                                         mode):
    energy = math.sqrt(1.0 - z_alpha ** 2)
    doc = {"method": {"mode": mode},
           "fixture": {"z_alpha": z_alpha, "scan_lo": energy - 0.05,
                       "scan_hi": energy + 0.05}}
    assert _run_config(tmp_path, "dirac-coulomb-1s", doc) == 0


@pytest.mark.parametrize("scenario", ["kg-coulomb-1s", "action-path"])
def test_scalar_coulomb_coupling_past_one_half_exits_two(tmp_path, capsys,
                                                         scenario):
    doc = {"fixture": {"z_alpha": 0.7}}
    assert _run_config(tmp_path, scenario, doc) == 2
    assert "outside (0, 0.5)" in capsys.readouterr().err


def test_default_dirac_coulomb_report_is_unchanged(capsys):
    # the sha256 of the default report (numpy 2.4 on x86-64) before the
    # scan window was checked
    assert main(["run", "dirac-coulomb-1s", "--no-timestamp"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest.startswith("54fa2ea7e16ed210")
