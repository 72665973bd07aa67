"""report_to_json writes exactly what json.dumps(sort_keys=True, indent=2)
writes for the same document, and report_to_csv what csv.writer writes.

The oracle document is built here, field by field from the report, and
encoded by the standard library's indent encoder (or its csv writer); the
library writes the rows itself, so every byte of every row is compared
against json's and csv's.
"""
import csv
import dataclasses
import io
import json
import math

import pytest

from fourvel import (DerivativeMethod, default_config, list_scenarios,
                     run_scenario)
from fourvel.runner import (CheckResult, ResidualReport, report_to_csv,
                            report_to_json)


def oracle(report) -> str:
    doc = {
        "schema": "fourvel-report/1",
        "scenario": report.scenario,
        "config": report.config,
        "checks": [{"name": c.name, "linf": c.linf, "l2": c.l2,
                    "tolerance": c.tolerance, "passed": c.passed,
                    "count": c.count} for c in report.checks],
        "rows": [dict(row) for row in report.rows],
        "passed": report.passed,
        "version": report.version,
    }
    if report.timestamp is not None:
        doc["timestamp"] = report.timestamp
        doc["duration_s"] = report.duration_s
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def csv_oracle(report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("case", "check", "index", "x1", "x2", "x3", "t",
                     "magnitude"))
    for row in report.rows:
        writer.writerow([row["case"], row["check"], row["index"],
                         repr(row["x1"]), repr(row["x2"]), repr(row["x3"]),
                         repr(row["t"]), repr(row["magnitude"])])
    return buf.getvalue()


@pytest.mark.parametrize("mode", ["analytic", "central"])
@pytest.mark.parametrize("scenario", list_scenarios())
def test_every_scenario_report_matches_the_indent_encoder(scenario, mode):
    cfg = dataclasses.replace(default_config(scenario),
                              method=DerivativeMethod(mode),
                              no_timestamp=True)
    report = run_scenario(cfg)
    assert report.rows
    assert report_to_json(report) == oracle(report)
    assert report_to_csv(report) == csv_oracle(report)


def test_timestamped_scenario_report_matches_the_indent_encoder():
    report = run_scenario(default_config("worldline-pierce"))
    assert report.timestamp is not None
    assert report_to_json(report) == oracle(report)


def _row(case="c", check="k", index=0, x1=0.5, x2=-1.25, x3=3.0, t=0.125,
         magnitude=1e-13):
    return {"case": case, "check": check, "index": index, "x1": x1,
            "x2": x2, "x3": x3, "t": t, "magnitude": magnitude}


EDGE_ROWS = (
    # -0.0 and 0.0 compare equal but print differently, in each slot
    _row(x1=0.0, x2=0.0, x3=0.0, t=0.0),
    _row(x1=-0.0, x2=0.0, x3=0.0, t=0.0),
    _row(x1=0.0, x2=-0.0, x3=0.0, t=0.0),
    _row(x1=0.0, x2=0.0, x3=-0.0, t=0.0),
    _row(x1=0.0, x2=0.0, x3=0.0, t=-0.0),
    _row(x1=0.0, x2=0.0, x3=0.0, t=0.0, magnitude=-0.0),
    _row(x1=-0.0, x2=-0.0, x3=-0.0, t=-0.0),
    _row(x1=0.0, x2=0.0, x3=0.0, t=0.0),
    # non-finite magnitudes and coordinates
    _row(magnitude=math.nan),
    _row(magnitude=math.inf),
    _row(magnitude=-math.inf),
    _row(x1=math.nan, x2=math.inf, x3=-math.inf, t=math.nan),
    _row(x1=math.nan, x2=math.inf, x3=-math.inf, t=math.nan),
    _row(x1=-math.nan, x2=0.0, x3=-0.0, t=math.inf),
    # the smallest subnormal and large, small and integral magnitudes
    _row(x1=5e-324, x2=-5e-324, x3=1e300, t=-1e300, magnitude=5e-324),
    _row(magnitude=1e300), _row(magnitude=1e16), _row(magnitude=1e-7),
    _row(magnitude=123456789.0), _row(magnitude=0.1 + 0.2),
    # labels that need escaping
    _row(case="ψ-κ ünïcode", check="quote \" and backslash \\"),
    _row(case="new\nline\ttab\rreturn", check="ctl \x00\x01\x1f\x7f"),
    _row(case="astral \U0001f600", check="rows\": []"),
    _row(case="", check="", index=12345678901234567890),
    _row(case="comma, here", check="a \"quoted\" label"),
    _row(case="", check="comma,"),
)


def _synthetic(rows, *, timestamp=None, config=None) -> ResidualReport:
    checks = (CheckResult("k", math.inf, math.nan, None, True, len(rows)),
              CheckResult("ψ", 0.0, -0.0, 1e-12, False, 0))
    return ResidualReport(
        scenario="synthetic \"scenario\"",
        config=config if config is not None else {"seed": 1},
        checks=checks, rows=tuple(rows), passed=False, version="0.1.0",
        timestamp=timestamp,
        duration_s=None if timestamp is None else 0.25)


def test_edge_rows_match_the_indent_encoder():
    report = _synthetic(EDGE_ROWS)
    text = report_to_json(report)
    assert text == oracle(report)
    assert '"x1": -0.0' in text and '"t": -0.0' in text
    assert '"magnitude": NaN' in text and '"x3": -Infinity' in text


def test_edge_rows_match_the_csv_writer():
    report = _synthetic(EDGE_ROWS)
    text = report_to_csv(report)
    assert text == csv_oracle(report)
    assert "c,k,0,-0.0,0.0,0.0,0.0," in text
    assert report_to_csv(_synthetic(())) == csv_oracle(_synthetic(()))


def test_zero_rows_match_the_indent_encoder():
    report = _synthetic(())
    assert report_to_json(report) == oracle(report)
    assert '\n  "rows": [],\n' in report_to_json(report)


def test_timestamped_synthetic_report_matches_the_indent_encoder():
    report = _synthetic(EDGE_ROWS, timestamp="2024-08-17T00:00:00Z")
    assert report_to_json(report) == oracle(report)


@pytest.mark.parametrize("rows", [(), EDGE_ROWS[:3]], ids=["empty", "rows"])
def test_config_text_that_looks_like_the_rows_key(rows):
    # strings can hold the text of the rows line, and a nested object can
    # have a "rows" key; neither is the top-level rows array
    config = {"note": '"rows": []', "nl": '\n  "rows": [],\n',
              "fixture": {"rows": [], "z": 1}, "rows": {"rows": []}}
    report = _synthetic(rows, config=config)
    assert report_to_json(report) == oracle(report)
