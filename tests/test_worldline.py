"""Worldline catalog, classification, and constant-time pierce points."""
import csv
import io
import math

import numpy as np
import pytest

from fourvel import (DegenerateParameterError, Event, InvalidBoostError,
                     ParameterError, Worldline, boost_worldline,
                     classify_speed, contract, make_worldline, pierce_points)
from fourvel.worldline import write_pierce_csv


def test_line_classification_by_speed():
    assert classify_speed(make_worldline("line", v=(0.5, 0, 0)), 0.0) \
        == "timelike"
    assert classify_speed(make_worldline("line", v=(2.0, 0, 0)), 0.0) \
        == "spacelike"
    assert classify_speed(make_worldline("line", v=(1.0, 0, 0)), 0.0) \
        == "null"
    # the null verdict survives a different unit system
    assert classify_speed(make_worldline("line", v=(3.0, 0, 0), c=3.0), 1.0) \
        == "null"


def test_circle_alternates_timelike_and_spacelike():
    w = make_worldline("circle-x1x4", radius=1.0)
    assert classify_speed(w, 0.0) == "timelike"
    assert classify_speed(w, math.pi / 2) == "spacelike"
    assert classify_speed(w, math.pi) == "timelike"
    assert classify_speed(w, math.pi / 4) == "null"


def test_classify_rejects_vanishing_tangent():
    w = Worldline("pause", lambda lam: Event(0, 0, 0, lam ** 3),
                  lambda lam: np.array([0.0, 0.0, 0.0, 3 * lam ** 2]),
                  (-1.0, 1.0), 1.0, {})
    with pytest.raises(DegenerateParameterError):
        classify_speed(w, 0.0)


@pytest.mark.parametrize("c", [1.0, 2.5])
def test_pierce_four_velocity_is_normalized_at_any_c(c):
    # a timelike crossing's u is the proper-time tangent, u.u = -c^2
    for v in ((0.3, 0.1, -0.2), (0.0, 0.0, 0.0), (0.7, 0.0, 0.5)):
        w = make_worldline("line", v=[c * x for x in v], c=c)
        (p,) = pierce_points(w, 0.3)
        assert contract(p.u, p.u).real == pytest.approx(-c * c, abs=1e-12)
    (p,) = pierce_points(make_worldline("line", v=(2 * c, 0, 0), c=c), 0.0)
    assert p.classification == "spacelike" and p.u is None


def test_circle_pierce_two_points_positions():
    # slice height 0.5 meets the circle at lam = pi/6 and 5 pi/6, both on
    # timelike arcs (within pi/4 of the crossing axis)
    w = make_worldline("circle-x1x4", radius=1.0)
    pts = pierce_points(w, 0.5)
    assert len(pts) == 2
    x1s = sorted(p.event.x1 for p in pts)
    expect = math.sqrt(1.0 - 0.25)
    assert x1s[0] == pytest.approx(-expect, abs=1e-9)
    assert x1s[1] == pytest.approx(expect, abs=1e-9)
    for p in pts:
        assert abs(p.event.t - 0.5) < 1e-9
        assert not p.tangent
        assert p.classification == "timelike"
        assert p.u is not None
        assert contract(p.u, p.u).real == pytest.approx(-1.0, abs=1e-10)


def test_circle_pierce_spacelike_arc_has_no_u():
    # above sin(pi/4) the crossings land on the spacelike arcs
    w = make_worldline("circle-x1x4", radius=1.0)
    pts = pierce_points(w, 0.9)
    assert len(pts) == 2
    for p in pts:
        assert p.classification == "spacelike"
        assert p.u is None


def test_circle_grazing_contact_is_flagged_tangent():
    w = make_worldline("circle-x1x4", radius=1.0)
    top = pierce_points(w, 1.0)
    assert len(top) == 1
    assert top[0].tangent
    assert top[0].lam == pytest.approx(math.pi / 2, abs=1e-6)
    assert pierce_points(w, 1.5) == []
    bottom = pierce_points(w, -1.0)
    assert len(bottom) == 1 and bottom[0].tangent


def test_pierce_lambda_accuracy():
    w = make_worldline("circle-x1x4", radius=1.0)
    for p in pierce_points(w, 0.5):
        # residual of the defining equation at the reported parameter
        assert abs(math.sin(p.lam) - 0.5) < 1e-11


def test_monotone_line_has_single_pierce_under_any_boost():
    line = make_worldline("line", v=(0.3, 0.1, -0.2))
    for v in np.linspace(-0.99, 0.99, 21):
        boosted = boost_worldline(line, float(v))
        pts = pierce_points(boosted, 0.0)
        assert len(pts) == 1
        assert pts[0].classification == "timelike"


# line velocities in units of c, up to |v| = c: at rest, the worldline
# scenario's default, others along and across x1, and lightlike ones
LINE_VS = [(0.0, 0.0, 0.0), (0.3, 0.1, -0.2), (0.9, 0.0, 0.0),
           (-0.6, 0.5, 0.3), (0.0, 0.7, -0.7), (1.0, 0.0, 0.0),
           (-1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.6, 0.0, 0.8)]


@pytest.mark.parametrize("c", [1.0, 1.7, 2.0])
@pytest.mark.parametrize("v", LINE_VS)
def test_a_boosted_straight_line_pierces_a_time_slice_at_most_once(v, c):
    # t is linear in lambda on a boosted straight line, so the worldline
    # scenario reads one event per line
    line = make_worldline("line", v=[c * x for x in v], c=c)
    for s in np.linspace(-0.99, 0.99, 9) * c:
        assert len(pierce_points(boost_worldline(line, float(s)), 0.0)) <= 1


def test_boost_rejects_lightspeed():
    line = make_worldline("line", v=(0.0, 0.0, 0.0))
    with pytest.raises(InvalidBoostError):
        boost_worldline(line, 1.0)


def test_boost_moves_pierce_position_consistently():
    # boosting the line then slicing at t' = 0 must agree with slicing the
    # original at the mapped time; for a line through the origin both give
    # the origin
    line = make_worldline("line", v=(0.4, 0.0, 0.0))
    boosted = boost_worldline(line, 0.6)
    pt = pierce_points(boosted, 0.0)[0]
    assert abs(pt.event.x1) < 1e-9 and abs(pt.event.t) < 1e-9


def test_shifted_parameter_window_same_geometry():
    # the closed curve is insensitive to where the parameter interval sits
    w = make_worldline("circle-x1x4", radius=1.0,
                       lam_range=(-2 * math.pi, 0.0))
    pts = pierce_points(w, 0.5)
    assert len(pts) == 2
    assert sorted(round(abs(p.event.x1), 9) for p in pts) \
        == [round(math.sqrt(0.75), 9)] * 2


def test_degenerate_parameter_interval_rejected():
    with pytest.raises(ParameterError):
        make_worldline("circle-x1x4", radius=1.0,
                       lam_range=(2 * math.pi, 0.0))


def test_unknown_worldline_kind():
    with pytest.raises(ParameterError):
        make_worldline("spiral")


def test_pierce_csv_round_trip():
    w = make_worldline("circle-x1x4", radius=1.0)
    pts = pierce_points(w, 0.5)
    buf = io.StringIO()
    write_pierce_csv(pts, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["lambda", "x1", "x2", "x3", "t", "class"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[5] == "timelike"
        assert float(row[4]) == pytest.approx(0.5, abs=1e-9)
    # tangential contacts carry a marker in the class column
    buf2 = io.StringIO()
    write_pierce_csv(pierce_points(w, 1.0), buf2)
    tag = list(csv.reader(io.StringIO(buf2.getvalue())))[1][5]
    assert tag.endswith("/tangent")
