"""Acceptance gate.

Ten headline guarantees, one test each, every one printing a single
PASS/FAIL line so the whole gate can be read at a glance with
pytest -v -s tests/test_acceptance.py. Tolerances here are the contract;
the unit suites probe far below them.
"""
import json
import math
import subprocess
import sys

import numpy as np

from fourvel import config_from_dict, default_config, run_scenario
from fourvel.runner import report_to_json


def _line(num: int, name: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def _checks(report):
    return {c.name: c for c in report.checks}


def _run(scenario: str, doc: dict | None = None):
    if doc is None:
        cfg = default_config(scenario)
    else:
        cfg = config_from_dict(doc, scenario)
    return run_scenario(cfg)


def _invoke(*args):
    return subprocess.run([sys.executable, "-m", "fourvel", *args],
                          capture_output=True, text=True)


def test_criterion_01_clifford_algebra_exact():
    report = _run("clifford")
    ch = _checks(report)
    ok = (ch["clifford"].linf == 0.0
          and ch["fixed_entries"].linf == 0.0
          and ch["gamma_square"].count == 100
          and ch["gamma_square"].linf < 1e-12
          and ch["factorization"].linf < 1e-12
          and report.passed)
    assert _line(1, "clifford algebra", ok)


def test_criterion_02_plane_wave_residuals_both_modes():
    names = ("mass_shell", "newton", "curl_k", "divergence", "kg",
             "nonlinear")
    analytic = _run("plane-wave")
    numeric = _run("plane-wave", {"method": {"mode": "central", "h": 1e-3}})
    ch_a, ch_n = _checks(analytic), _checks(numeric)
    ok = analytic.passed and numeric.passed
    for name in names:
        ok = ok and ch_a[name].linf < 1e-12 and ch_n[name].linf < 1e-6
        ok = ok and ch_a[name].count == 300  # 3 momenta x 100 seeded events
    assert _line(2, "plane-wave residual chain", ok)


def test_criterion_03_kg_coulomb_certificate():
    report = _run("kg-coulomb-1s")
    ch = _checks(report)
    ok = (report.passed
          and ch["kg"].linf < 1e-8
          and ch["divergence_identity"].linf < 1e-8
          and ch["nonlinear_vs_mass_shell"].linf < 1e-8
          and ch["curl_k"].linf < 1e-8
          and ch["u_contract_k"].linf < 1e-10
          and ch["kg"].count == 50)
    assert _line(3, "kg coulomb bound state", ok)


def test_criterion_04_dirac_plane_wave_and_kg_link():
    report = _run("dirac-plane-wave")
    ch = _checks(report)
    ok = (report.passed
          and ch["residual_gamma"].linf < 1e-12
          and ch["residual_alphabeta"].linf < 1e-12
          and ch["form_equivalence"].linf < 1e-12
          and ch["velocity_consistency"].linf < 1e-12
          and ch["dirac_to_kg"].linf < 1e-8
          and ch["dirac_to_kg"].count == 60)  # 20 seeded spinors x 3 events
    assert _line(4, "dirac plane waves", ok)


def test_criterion_05_dirac_coulomb_energy_scan():
    report = _run("dirac-coulomb-1s")
    ch = _checks(report)
    expected = math.sqrt(1.0 - 0.4 ** 2)
    ok = (report.passed
          and report.config["method"]["mode"] == "central"
          and ch["residual_gamma"].linf < 1e-6
          and ch["energy_scan"].linf < 1e-6
          and abs(expected - 0.9165151389911680) < 1e-15)
    assert _line(5, "dirac coulomb bound state", ok)


def test_criterion_06_gauge_orbit_invariance():
    report = _run("gauge-orbit")
    ch = _checks(report)
    ok = (report.passed
          and ch["u_invariance"].linf < 1e-9
          and ch["dirac_invariance"].linf < 1e-10
          and ch["u_invariance"].count == 1000)  # 10 gauges x 100 events
    assert _line(6, "gauge orbit invariance", ok)


def test_criterion_07_action_path_independence():
    report = _run("action-path")
    ch = _checks(report)
    ok = (report.passed
          and ch["plane_reconstruction"].linf < 1e-12
          and ch["two_path_delta"].linf < 1e-8
          and ch["closed_loop"].linf < 1e-8)
    assert _line(7, "action path independence", ok)


def test_criterion_08_negative_controls_fail_loudly():
    detuned = _run("kg-coulomb-1s", {"fixture": {"energy_scale": 1.01}})
    scaled = _run("clifford", {"fixture": {"gamma_scale": 1.01}})
    ch_d, ch_s = _checks(detuned), _checks(scaled)
    ok = (not detuned.passed and not scaled.passed
          and ch_d["kg"].linf >= 0.02
          and ch_s["clifford"].linf >= 0.02)
    assert _line(8, "negative controls", ok)


def test_criterion_09_worldline_pierce_geometry():
    report = _run("worldline-pierce")
    ch = _checks(report)
    circle_rows = [r for r in json.loads(report_to_json(report))["rows"]
                   if r["check"] == "circle_position"]
    expect = math.sqrt(0.75)
    positions_ok = (len(circle_rows) == 2 and all(
        abs(abs(r["x1"]) - expect) < 1e-9 for r in circle_rows))
    signs_ok = sorted(np.sign(r["x1"]) for r in circle_rows) == [-1.0, 1.0]
    ok = (report.passed
          and ch["circle_count"].linf == 0.0
          and positions_ok and signs_ok
          and ch["line_boost_count"].count == 20
          and ch["line_boost_count"].linf == 0.0
          and ch["timelike_onshell"].linf < 1e-10)
    assert _line(9, "worldline pierce points", ok)


def test_criterion_10_cli_contract(tmp_path):
    ok = True

    # invocation 1: a green scenario exits 0 and repeats byte for byte
    r1a = _invoke("run", "clifford", "--no-timestamp")
    r1b = _invoke("run", "clifford", "--no-timestamp")
    ok = ok and r1a.returncode == 0 and r1a.stdout == r1b.stdout
    doc = json.loads(r1a.stdout)
    ok = ok and doc["passed"] is True

    # invocation 2: a failing check exits 1 and still emits the report
    detuned = tmp_path / "detuned.json"
    detuned.write_text(json.dumps({"fixture": {"energy_scale": 1.01}}))
    r2 = _invoke("run", "kg-coulomb-1s", "--config", str(detuned),
                 "--no-timestamp")
    ok = ok and r2.returncode == 1
    ok = ok and json.loads(r2.stdout)["passed"] is False

    # invocation 3: malformed configuration exits 2
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"fixture": {"z_alpha": 2.0}}))
    r3 = _invoke("run", "kg-coulomb-1s", "--config", str(broken))
    ok = ok and r3.returncode == 2 and "config error" in r3.stderr

    assert _line(10, "cli determinism and exit codes", ok)
