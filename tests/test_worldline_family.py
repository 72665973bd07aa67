"""Boosted-worldline families: one grid scan for M boosts of one worldline.

worldline._boost_family gives the one-member boosted worldlines and their t
on a lambda grid as one (M, K) array, and worldline._pierce_members scans
that array once. Each member must have the very bits of its one-member
boost_worldline and pierce_points: its t grid, roots, events, four-velocity
and tangent flag. The runner scans worldline-pierce's boosted lines in
blocks of runner._BOOST_BLOCK and must give the report of one line at a
time, whatever the block.
"""
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fourvel import (Event, InvalidBoostError, ParameterError, boost_worldline,
                     config_from_dict, export_report, make_worldline,
                     pierce_points, run_scenario)
from fourvel import runner, worldline
from fourvel.worldline import _boost_family, _pierce_members

# t = 9.7 + lam and x1 = 8 + 0.3 lam: the v = 0.5 and v = 0 frames have
# their roots off the grid, so they are bisected; the v = -0.5 frame has
# none in [-10, 10]
LINE = make_worldline("line", x0=Event(8.0, 0.0, 0.0, 9.7), v=(0.3, 0.0, 0.0))
# the v = 0 frame grazes t = 1 at the top; the others cross it twice
CIRCLE = make_worldline("circle-x1x4", radius=1.0)
FAMILIES = {
    "bisected-and-rootless": (LINE, [0.5, -0.5, 0.0], 0.0),
    "circle-with-a-tangency": (CIRCLE, [0.0, 0.3, -0.6], 1.0),
    "one-member": (LINE, [0.5], 0.0),
    "signed-zeros": (make_worldline("line", v=(0.3, 0.1, -0.2)),
                     [-0.0, 0.0], 0.0),
    "circle-c-1.5": (make_worldline("circle-x1x4", radius=0.8, c=1.5),
                     [-0.9, 0.6], 0.4),
}


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _point_bits(p) -> tuple:
    u = None if p.u is None else np.asarray(p.u).tobytes()
    e = p.event
    return (_bits(p.lam), _bits([e.x1, e.x2, e.x3, e.t]), p.classification,
            u, p.tangent)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_each_member_is_its_one_member_boost_bit_for_bit(name):
    w, speeds, t0 = FAMILIES[name]
    members, times = _boost_family(w, speeds)
    lams = np.linspace(*w.lam_range, 4097)
    grid = times(lams)
    assert grid.shape == (len(speeds), len(lams))
    found = _pierce_members(members, t0, times)
    for j, v in enumerate(speeds):
        one = boost_worldline(w, v)
        assert _bits(grid[j]) == _bits(one.position(lams).t), v
        assert members[j].params == one.params
        expected = pierce_points(one, t0)
        assert ([_point_bits(p) for p in found[j]]
                == [_point_bits(p) for p in expected]), v


def test_the_families_cover_every_kind_of_root():
    def kinds(name):
        w, speeds, t0 = FAMILIES[name]
        members, times = _boost_family(w, speeds)
        return [[(p.lam, p.tangent) for p in pts]
                for pts in _pierce_members(members, t0, times)]

    grid = np.linspace(-10.0, 10.0, 4097)
    line = kinds("bisected-and-rootless")
    assert [len(pts) for pts in line] == [1, 0, 1]
    assert line[0][0][0] not in grid and line[2][0][0] not in grid
    assert kinds("signed-zeros") == [[(0.0, False)]] * 2   # on the grid
    circle = kinds("circle-with-a-tangency")
    assert [len(pts) for pts in circle] == [1, 2, 2]
    assert circle[0][0][1] and not any(t for pts in circle[1:] for _, t in pts)


def test_one_worldline_is_its_own_one_member_scan():
    for w, t0 in [(CIRCLE, 0.5), (CIRCLE, 1.0), (LINE, 0.0)]:
        found = _pierce_members([w], t0, lambda lams: w.position(lams).t[None])
        assert ([_point_bits(p) for p in found[0]]
                == [_point_bits(p) for p in pierce_points(w, t0)])


@pytest.mark.parametrize("v", [1.0, -1.0, 1.5, math.nan, math.inf, -math.inf])
def test_a_family_refuses_any_speed_not_below_c(v):
    with pytest.raises(InvalidBoostError, match=str(v)):
        _boost_family(LINE, [0.2, v, -0.3])


@pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
def test_pierce_points_refuses_a_non_finite_plane(t0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="finite t0"):
            pierce_points(CIRCLE, t0)


def _boosted_rows(doc) -> list:
    report = run_scenario(config_from_dict(doc, "worldline-pierce"))
    return [r for r in json.loads(export_report(report))["rows"]
            if r["case"] == "boosted-line"]


# 20 lines in blocks of 4, 9 lines with a remainder of one, speeds +-0.0,
# one line, and other units; any block size gives the same rows
@pytest.mark.parametrize("doc", [
    {}, {"fixture": {"n_boosts": 9}}, {"fixture": {"max_boost": 0.0}},
    {"fixture": {"n_boosts": 1}},
    {"constants": {"c": 2.0}, "fixture": {"n_boosts": 7}}],
    ids=["default", "nine", "zero-speeds", "one", "c=2"])
def test_runner_blocks_equal_one_line_at_a_time(monkeypatch, doc):
    rows = {}
    for block in (1, 3, runner._BOOST_BLOCK, 20):
        monkeypatch.setattr(runner, "_BOOST_BLOCK", block)
        rows[block] = [(r["check"], r["index"], _bits(
            [r["x1"], r["x2"], r["x3"], r["t"], r["magnitude"]]))
            for r in _boosted_rows(doc)]
    assert all(r == rows[1] for r in rows.values())

    # and they are the rows of pierce_points on each boosted line alone
    cfg = config_from_dict(doc, "worldline-pierce")
    c = cfg.constants.c
    line = make_worldline("line", v=cfg.fixture["line_v"], c=c)
    vmax = cfg.fixture["max_boost"] * c
    expected = []
    for i, v in enumerate(np.linspace(-vmax, vmax, cfg.fixture["n_boosts"])):
        pts = pierce_points(boost_worldline(line, float(v)), 0.0)
        e = pts[0].event
        expected.append(("line_boost_count", i,
                         _bits([e.x1, e.x2, e.x3, e.t, abs(len(pts) - 1)])))
    assert [r for r in rows[1] if r[0] == "line_boost_count"] == expected


def test_a_default_run_evaluates_the_boosted_grids_once_per_block(monkeypatch):
    calls = []
    make = runner.make_worldline

    def counting(kind, **params):
        w = make(kind, **params)
        if kind != "line":
            return w

        def position(lam):
            if isinstance(lam, np.ndarray):
                calls.append(lam.shape)
            return w.position(lam)

        return worldline.Worldline(w.kind, position, w.velocity, w.lam_range,
                                   w.c, w.params)

    monkeypatch.setattr(runner, "make_worldline", counting)
    run_scenario(config_from_dict({}, "worldline-pierce"))
    assert calls == [(4097,)] * math.ceil(20 / runner._BOOST_BLOCK)
    assert len(calls) < 20


def _traced_peak(doc, scenario, export=True):
    cfg = config_from_dict(doc, scenario)
    run_scenario(cfg)   # first-call caches are not the run's memory
    tracemalloc.start()
    try:
        report = run_scenario(cfg)
        if export:
            export_report(report, "json")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_worldline_memory_stays_under_a_default_plane_wave_run():
    assert _traced_peak({}, "worldline-pierce") <= _traced_peak(
        {}, "plane-wave")


# a gauge block is counted in evaluated rows, stencil rows included, so a
# central run holds no more than a central plane-wave run
@pytest.mark.parametrize("richardson", [False, True])
def test_central_gauge_memory_stays_under_a_central_plane_wave_run(
        richardson):
    method = {"method": {"mode": "central", "richardson": richardson}}
    assert _traced_peak(method, "gauge-orbit", export=False) <= _traced_peak(
        method, "plane-wave", export=False)
