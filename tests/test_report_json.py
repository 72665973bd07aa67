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
import warnings

import numpy as np
import pytest

from fourvel import (ANALYTIC, DerivativeMethod, default_config,
                     list_scenarios, run_scenario)
from fourvel import runner
from fourvel.runner import (CheckResult, ResidualReport, _Collector,
                            report_to_csv, report_to_json)


def oracle(report, rows=None) -> str:
    """The report as json.dumps writes it, with its rows as _oracle_rows
    reads them off its blocks, or rows if given."""
    doc = {
        "schema": "fourvel-report/1",
        "scenario": report.scenario,
        "config": report.config,
        "checks": [{"name": c.name, "linf": c.linf, "l2": c.l2,
                    "tolerance": c.tolerance, "passed": c.passed,
                    "count": c.count} for c in report.checks],
        "rows": _oracle_rows(report.rows.blocks) if rows is None else rows,
        "passed": report.passed,
        "version": report.version,
    }
    if report.timestamp is not None:
        doc["timestamp"] = report.timestamp
        doc["duration_s"] = report.duration_s
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def csv_oracle(report, rows=None) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("case", "check", "index", "x1", "x2", "x3", "t",
                     "magnitude"))
    for row in _oracle_rows(report.rows.blocks) if rows is None else rows:
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


# quiet NaNs with other payloads and sign bits: one text, "NaN" or "nan",
# however many bit patterns the writers spell
NANS = tuple(np.array([0xfff8000000000000, 0x7ff8000000000001,
                       0xfffc0000deadbeef, 0x7ffa000000000abc],
                      np.uint64).view(np.float64).tolist())
EDGE_ROWS = (
    # -0.0 and 0.0 compare equal but print differently, in each slot
    _row(x1=0.0, x2=0.0, x3=0.0, t=0.0),
    _row(x1=-0.0, x2=0.0, x3=0.0, t=0.0),
    _row(x1=0.0, x2=-0.0, x3=0.0, t=0.0),
    _row(x1=0.0, x2=0.0, x3=-0.0, t=0.0),
    _row(x1=0.0, x2=0.0, x3=0.0, t=-0.0),
    _row(x1=0.0, x2=0.0, x3=0.0, t=0.0, magnitude=-0.0),
    _row(x1=0.0, x2=0.0, x3=0.0, t=0.0, magnitude=0.0),
    _row(x1=-0.0, x2=-0.0, x3=-0.0, t=-0.0),
    _row(x1=0.0, x2=0.0, x3=0.0, t=0.0),
    # non-finite magnitudes and coordinates
    _row(magnitude=math.nan),
    _row(magnitude=math.inf),
    _row(magnitude=-math.inf),
    _row(x1=math.nan, x2=math.inf, x3=-math.inf, t=math.nan),
    _row(x1=math.nan, x2=math.inf, x3=-math.inf, t=math.nan),
    _row(x1=-math.nan, x2=0.0, x3=-0.0, t=math.inf),
    *(_row(magnitude=nan, x1=nan) for nan in NANS),
    # the smallest subnormal and large, small and integral magnitudes
    _row(x1=5e-324, x2=-5e-324, x3=1e300, t=-1e300, magnitude=5e-324),
    _row(magnitude=1e300), _row(magnitude=1e16), _row(magnitude=1e-7),
    _row(magnitude=123456789.0), _row(magnitude=0.1 + 0.2),
    # labels that need escaping
    _row(case="ψ-κ ünïcode", check="quote \" and backslash \\"),
    _row(case="new\nline\ttab\rreturn", check="ctl \x00\x01\x1f\x7f"),
    _row(case="astral \U0001f600", check="rows\": []"),
    _row(case="", check=""),
    _row(case="comma, here", check="a \"quoted\" label"),
    _row(case="", check="comma,"),
)


def _collected(rows):
    """rows as the collector holds them: one single-row block each, whose
    magnitude keeps its sign (the collector's is an absolute value)."""
    collected = runner._Rows()
    for r in rows:
        collected.blocks.append((
            r["case"], np.array([[r["x1"], r["x2"], r["x3"], r["t"]]]),
            [(r["check"], np.array([r["magnitude"]]), None)]))
        collected.count += 1
    return collected


def _synthetic(rows, *, timestamp=None, config=None) -> ResidualReport:
    checks = (CheckResult("k", math.inf, math.nan, None, True, len(rows)),
              CheckResult("ψ", 0.0, -0.0, 1e-12, False, 0))
    collected = _collected(rows)
    # the collector hands back the rows it was given, in order
    assert len(collected) == len(rows)
    assert repr(_oracle_rows(collected.blocks)) == repr(list(rows))
    return ResidualReport(
        scenario="synthetic \"scenario\"",
        config=config if config is not None else {"seed": 1},
        checks=checks, rows=collected, passed=False, version="0.1.0",
        timestamp=timestamp,
        duration_s=None if timestamp is None else 0.25)


def test_edge_rows_match_the_indent_encoder():
    report = _synthetic(EDGE_ROWS)
    text = report_to_json(report)
    assert text == oracle(report)
    assert '"x1": -0.0' in text and '"t": -0.0' in text
    assert '"magnitude": NaN' in text and '"x3": -Infinity' in text
    assert text.count('"magnitude": NaN') == 1 + len(NANS)


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


# ---------------------------------------------------------------------------
# random blocks through the collector, against rows written out one by one
# ---------------------------------------------------------------------------

NAMES = ("alpha", "beta", "gamma", "δ, \"quoted\"")
CHECKS = NAMES + ("late", "early")   # the collector's table order
MAGNITUDES = (0.0, -0.0, math.nan, math.inf, -math.inf, 2.220446049250313e-16,
              0.1 + 0.2, 5e-324, 1e300, 123456789.0) + NANS
COORDINATES = (0.0, -0.0, math.nan, math.inf, -math.inf, 0.5, -1.25, 1e-300)


def _points(rng, k):
    """k points drawn from COORDINATES, some replaced by fresh normals."""
    points = rng.choice(COORDINATES, size=(k, 4))
    fresh = rng.random((k, 4)) < 0.3
    points[fresh] = rng.normal(size=np.count_nonzero(fresh))
    return points


def _random_blocks(rng, n=12):
    """(case, points, [(check, magnitudes, present or None)]) blocks, the
    checks in CHECKS order, with missing samples, signed zeros, NaN and
    infinities in magnitudes and coordinates, one points array in several
    blocks, equal points in different arrays, and magnitudes repeated
    within a column and across columns and blocks. The
    fixed first blocks: a check whose first sample comes after another's,
    an empty cloud, and a column with no sample at all."""
    shared = _points(rng, 5)
    blocks = [
        ("order", shared[:2], [("late", np.array([1.0, 2.0]),
                                np.array([False, True])),
                               ("early", np.array([-0.0, 0.0]), None)]),
        ("empty", np.empty((0, 4)), [("alpha", np.empty(0), None)]),
        ("absent", shared, [("beta", np.ones(5), np.zeros(5, bool)),
                            ("gamma", np.full(5, -0.0), None)]),
    ]
    drawn = [1.0, -0.0]   # every magnitude so far, to repeat
    for b in range(n):
        pick = rng.integers(3)
        points = (shared if pick == 0 else shared.copy() if pick == 1
                  else _points(rng, int(rng.integers(0, 6))))
        k = len(points)
        columns = []
        for check in sorted(rng.choice(NAMES, size=rng.integers(1, 4),
                                       replace=False), key=CHECKS.index):
            mags = rng.choice(MAGNITUDES, size=k)
            fresh = rng.random(k) < 0.3
            mags[fresh] = rng.normal(size=np.count_nonzero(fresh))
            again = rng.random(k) < 0.3
            mags[again] = rng.choice(drawn, size=np.count_nonzero(again))
            drawn += mags.tolist()
            present = rng.random(k) < 0.7 if rng.random() < 0.5 else None
            columns.append((str(check), mags, present))
        blocks.append((f"case-{b % 4}", points, columns))
    return blocks


def _oracle_rows(blocks) -> list:
    """Each block's rows, event-major and check-minor, one dict at a time."""
    rows = []
    for case, points, columns in blocks:
        for i in range(len(points)):
            x1, x2, x3, t = (float(v) for v in points[i])
            for check, mags, present in columns:
                if present is None or present[i]:
                    rows.append({"case": case, "check": check,
                                 "index": i, "x1": x1, "x2": x2,
                                 "x3": x3, "t": t,
                                 "magnitude": float(mags[i])})
    return rows


@pytest.mark.parametrize("seed", range(25))
def test_random_blocks_match_the_oracles(seed):
    blocks = _random_blocks(np.random.default_rng(seed))
    col = _Collector(dict.fromkeys(CHECKS, (1.0, 1.0, None)), ANALYTIC, {})
    for case, points, columns in blocks:
        col.add_case([case], points, lambda points, method, columns=columns: {
            check: mags if present is None else (mags, present)
            for check, mags, present in columns})
    checks = col.finalize()
    report = ResidualReport(
        scenario="random blocks", config={"seed": seed}, checks=checks,
        rows=col.rows, passed=all(c.passed for c in checks),
        version="0.1.0", timestamp=None, duration_s=None)
    # the collector keeps each magnitude's absolute value
    expected = [{**row, "magnitude": abs(row["magnitude"])}
                for row in _oracle_rows(blocks)]
    assert len(report.rows) == len(expected)
    assert report_to_json(report) == oracle(report, expected)
    assert report_to_csv(report) == csv_oracle(report, expected)

    # each check in the order of its first row; count, linf (any NaN wins)
    # and the sequential l2 sum over its magnitudes in row order
    mags = {}
    for row in expected:
        mags.setdefault(row["check"], []).append(row["magnitude"])
    assert [c.name for c in checks] == list(mags)
    assert [c.name for c in checks][:2] == ["early", "late"]
    for c in checks:
        m = mags[c.name]
        linf = math.nan if any(v != v for v in m) else max(m)
        assert (c.count, repr(c.linf), repr(c.l2)) == (len(m), repr(linf),
                                                      repr(_l2_oracle(m)))


def _squares_in_order(mags) -> float:
    """The squares summed one at a time in row order."""
    s = 0.0
    for m in mags:
        s += m * m
    return s


def _l2_oracle(mags) -> float:
    return math.sqrt(_squares_in_order(mags))


def test_l2_sums_the_squares_in_row_order():
    # 4000 magnitudes over many scales, whose exactly rounded sum of squares
    # differs from the sequential one, as the builtin sum's compensated
    # summation (Python 3.12 on) would give it; one row per magnitude
    mags = np.random.default_rng(0).lognormal(0.0, 3.0, 4000)
    assert math.fsum(mags * mags) != _squares_in_order(mags.tolist())
    col = _Collector({"chk": (None, None, None)}, ANALYTIC, {})
    col.add_case(["case"], np.zeros((len(mags), 4)),
                 lambda points, method: {"chk": mags})
    (chk,) = col.finalize()
    assert (chk.count, chk.linf, chk.l2) == (4000, max(mags),
                                             _l2_oracle(mags.tolist()))
    # a magnitude whose square overflows gives an infinite l2, silently
    col = _Collector({"chk": (None, None, None)}, ANALYTIC, {})
    col.add_case(["case"], np.zeros((2, 4)),
                 lambda points, method: {"chk": [1e200, 1.0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (chk,) = col.finalize()
    assert (chk.linf, chk.l2) == (1e200, math.inf)


def test_row_count_does_not_walk_the_rows(monkeypatch):
    report = run_scenario(default_config("gauge-orbit"))

    def walked(*args):
        raise AssertionError("len(report.rows) walked the rows")

    monkeypatch.setattr(runner, "_row_pieces", walked)
    assert len(report.rows) == 4000 and report.rows
