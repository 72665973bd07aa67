"""Worldline positions and boosts on lambda arrays, and the pierce-point scan.

A lambda array must give, row for row, the very bits of the one-lambda
Event, and the array boost the bits of the Event boost. pierce_points is
compared with an oracle written here: a scan that evaluates closed forms
of t(lambda) one lambda at a time and shares no code with the library.
"""
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from fourvel import (Event, EventArray, ParameterError, Worldline, boost_x1,
                     boost_worldline, classify_speed, make_worldline,
                     pierce_points)
from fourvel import worldline

X0 = Event(0.7, -1.2, 0.4, 2.5)
LINE_V = (0.3, 0.1, -0.2)


def _catalog():
    base = {
        "line": make_worldline("line", x0=X0, v=LINE_V),
        # a line faster than c = 1.5
        "fast": make_worldline("line", x0=X0, v=(2.0, 0.5, -0.3), c=1.5),
        "circle-x1x4": make_worldline("circle-x1x4", radius=1.3, c=2.0),
    }
    boosted = {f"{name}-boosted": boost_worldline(w, -0.6 * w.c)
               for name, w in base.items()}
    return {**base, **boosted}


CATALOG = _catalog()


def _bits(row) -> bytes:
    return np.asarray(row, dtype=float).tobytes()


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_position_on_a_lambda_array_matches_each_lambda_bit_for_bit(name):
    w = CATALOG[name]
    lo, hi = w.lam_range
    rng = np.random.default_rng(7)
    lams = np.concatenate([np.linspace(lo, hi, 33),
                           rng.uniform(lo - 1.0, hi + 1.0, 32)])
    batch = w.position(lams)
    assert isinstance(batch, EventArray)
    assert batch.shape == (len(lams), 4)
    for k in range(len(lams)):
        e = w.position(lams[k])
        assert isinstance(e, Event)
        assert _bits(batch[k]) == _bits([e.x1, e.x2, e.x3, e.t]), k


@pytest.mark.parametrize("v, c", [(0.6, 1.0), (-0.99, 1.0), (1.2, 1.5)])
def test_boost_of_an_event_array_matches_each_event_bit_for_bit(v, c):
    rng = np.random.default_rng(11)
    points = EventArray(rng.uniform(-3.0, 3.0, size=(40, 4)))
    boosted = boost_x1(points, v, c)
    assert isinstance(boosted, EventArray)
    assert boosted.shape == (40, 4)
    for k in range(len(points)):
        e = boost_x1(points.event(k), v, c)
        assert _bits(boosted[k]) == _bits([e.x1, e.x2, e.x3, e.t]), k


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_non_finite_lambda_array_is_rejected(name, bad):
    with np.errstate(invalid="ignore"), pytest.raises(ParameterError):
        CATALOG[name].position(np.array([0.0, bad, 0.5]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_non_finite_lambda_is_refused_before_it_is_evaluated(name, bad):
    # no math domain error for one lambda, no numpy warning for an array
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError):
            CATALOG[name].position(bad)
        with pytest.raises(ParameterError):
            CATALOG[name].position(np.array([0.0, bad]))


# ---------------------------------------------------------------------------
# pierce_points against a per-lambda oracle scan
# ---------------------------------------------------------------------------

def _oracle(t_of, dt_of, lam_range, t0, grid=4096):
    """(lambda, tangent) of every crossing of t(lambda) = t0, sorted.

    Exact grid zeros, sign changes refined by Brent's method, and grid
    extrema that touch t0 refined by a bounded minimization of |f|; a
    touching extremum within two cells of a root found already is that
    root. A root is tangent where |dt/dlambda| < 1e-6.
    """
    lo, hi = lam_range
    lams = [float(x) for x in np.linspace(lo, hi, grid + 1)]
    f = [t_of(lam) - t0 for lam in lams]
    cell = (hi - lo) / grid
    roots = [lam for lam, fk in zip(lams, f) if fk == 0.0]
    for k in range(grid):
        if (f[k] < 0.0 < f[k + 1]) or (f[k + 1] < 0.0 < f[k]):
            roots.append(brentq(lambda x: t_of(x) - t0, lams[k], lams[k + 1],
                                xtol=1e-14))
    for k in range(1, grid):
        left, right = f[k] - f[k - 1], f[k + 1] - f[k]
        if left == 0.0 or (left > 0) == (right > 0):
            continue
        best = minimize_scalar(lambda x: abs(t_of(x) - t0),
                               bounds=(lams[k - 1], lams[k + 1]),
                               method="bounded", options={"xatol": 1e-12})
        if (abs(t_of(best.x) - t0) < 1e-10
                and all(abs(best.x - r) >= 2 * cell for r in roots)):
            roots.append(float(best.x))
    return [(r, abs(dt_of(r)) < 1e-6) for r in sorted(roots)]


def _circle_case(t0, start=0.0):
    # from start = 0 the grid holds pi/2 and 3 pi/2, where t touches +-1
    # exactly; a shifted window leaves the touch between grid points
    w = make_worldline("circle-x1x4", radius=1.0,
                       lam_range=(start, start + 2 * math.pi))
    return (f"circle-from{start}", w, math.sin, math.cos, t0)


def _boosted_line_case(v, t0):
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    a1, a4 = X0.x1, X0.t

    def t_of(lam):
        return gamma * ((a4 + lam) - v * (a1 + lam * LINE_V[0]))

    def dt_of(lam):
        return gamma * (1.0 - v * LINE_V[0])

    w = boost_worldline(make_worldline("line", x0=X0, v=LINE_V), v)
    return (f"line-boost{v:+}", w, t_of, dt_of, t0)


def _spacelike_line_case(t0):
    # t = lambda on a line faster than c = 1.5
    w = make_worldline("line", v=(2.0, 0.5, -0.3), lam_range=(0.0, 1.0),
                       c=1.5)
    return ("spacelike-line-c1.5", w, lambda lam: lam, lambda lam: 1.0, t0)


BOOSTED_CIRCLE = (1.2, 1.5, 0.6)  # radius, c, boost


def _boosted_circle_t(lam):
    radius, c, v = BOOSTED_CIRCLE
    gamma = 1.0 / math.sqrt(1.0 - (v / c) ** 2)
    return gamma * (radius * math.sin(lam) / c - v * radius * math.cos(lam)
                    / c ** 2)


def _boosted_circle_dt(lam):
    radius, c, v = BOOSTED_CIRCLE
    gamma = 1.0 / math.sqrt(1.0 - (v / c) ** 2)
    return gamma * (radius * math.cos(lam) / c + v * radius * math.sin(lam)
                    / c ** 2)


def _boosted_circle_case(t0):
    # the boosted time turns back on the spacelike arcs, so over one and a
    # quarter turns a slice can cross the curve 3 times
    radius, c, v = BOOSTED_CIRCLE
    w = boost_worldline(make_worldline("circle-x1x4", radius=radius, c=c,
                                       lam_range=(0.0, 2.5 * math.pi)), v)
    return ("circle-c1.5-boosted", w, _boosted_circle_t, _boosted_circle_dt,
            t0)


def _boosted_circle_turn():
    """The boosted time at its maximum, where dt/dlambda = 0:
    lambda = pi/2 + atan(v / c), the only one in the window."""
    radius, c, v = BOOSTED_CIRCLE
    return _boosted_circle_t(math.pi / 2 + math.atan(v / c))


PIERCE_CASES = [
    _circle_case(0.5),
    _circle_case(1.0),    # grazes the top of the circle
    _circle_case(-1.0),   # grazes the bottom
    _circle_case(0.0),    # t(0) is an exact grid zero; t(pi) is 1.2e-16
    _circle_case(1.5),    # above the circle: no crossing
    _circle_case(1.0, start=0.3),
    _circle_case(-1.0, start=0.3),
    _circle_case(0.5, start=0.3),
    _boosted_line_case(0.99, 0.0),
    _boosted_line_case(-0.99, 0.0),
    _boosted_line_case(0.99, 3.1),
    _spacelike_line_case(0.37),
    _spacelike_line_case(0.0),     # the first grid point
    _boosted_circle_case(0.5),
    _boosted_circle_case(_boosted_circle_turn()),  # a touch
]


@pytest.mark.parametrize("name, w, t_of, dt_of, t0", PIERCE_CASES,
                         ids=[f"{c[0]}@{c[4]}" for c in PIERCE_CASES])
def test_pierce_points_match_the_oracle_scan(name, w, t_of, dt_of, t0):
    want = _oracle(t_of, dt_of, w.lam_range, t0)
    got = pierce_points(w, t0)
    assert len(got) == len(want), (got, want)
    for p, (lam, tangent) in zip(got, want):
        assert p.tangent == tangent
        assert p.lam == pytest.approx(lam, abs=1e-6 if tangent else 1e-9)
        assert p.event.t == pytest.approx(t0, abs=1e-9)


def test_oracle_cases_cover_every_root_kind():
    found = [_oracle(t_of, dt_of, w.lam_range, t0)
             for _, w, t_of, dt_of, t0 in PIERCE_CASES]
    assert [len(roots) for roots in found] == [2, 1, 1, 2, 0, 1, 1, 2,
                                               1, 1, 1, 1, 1, 3, 1]
    assert [sum(t for _, t in roots) for roots in found] == [
        0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1]


@pytest.mark.parametrize("name, w, t0", [
    ("circle", make_worldline("circle-x1x4", radius=1.0), 1.0),
    ("boosted-line", boost_worldline(make_worldline("line", v=LINE_V), 0.5),
     0.0),
])
def test_pierce_points_scans_the_grid_in_one_array_call(name, w, t0,
                                                        monkeypatch):
    shapes = []

    def position(lam):
        if np.ndim(lam):
            shapes.append(np.shape(lam))
        return w.position(lam)

    counted = Worldline(w.kind, position, w.velocity, w.lam_range, w.c,
                        w.params)
    assert len(pierce_points(counted, t0)) == 1
    assert shapes == [(4097,)]
    monkeypatch.setattr(worldline, "_GRID", 64)
    pierce_points(counted, t0)
    assert shapes == [(4097,), (65,)]


# the tangent and everything built on it refuse a non-finite lambda as
# position does, with no math domain error first
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_non_finite_lambda_is_refused_by_the_tangent(name, bad):
    w = CATALOG[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (w.velocity, lambda lam: classify_speed(w, lam)):
            with pytest.raises(ParameterError, match="not finite"):
                call(bad)


# the tangent tolerances follow the slice's t-scale: a circle of any radius
# grazed at its top gives one tangent root there
@pytest.mark.parametrize("radius", [1e-6, 1.0, 10.0, 1e6, 1e12, 1e50, 1e150,
                                    1e154])
def test_grazing_contact_is_tangent_at_every_scale(radius):
    w = make_worldline("circle-x1x4", radius=radius)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = pierce_points(w, radius)
        crossing = pierce_points(w, 0.5 * radius)
    assert len(top) == 1 and top[0].tangent
    assert top[0].lam == pytest.approx(math.pi / 2, abs=1e-6)
    assert len(crossing) == 2 and not any(p.tangent for p in crossing)


# the slope tolerance follows the grid's own |dt/dlambda|, not the size of
# t: a unit-slope line crossed far from t = 0, or over a long lambda range,
# is a transversal crossing
@pytest.mark.parametrize("w, t0", [
    (make_worldline("line", x0=Event(0.0, 0.0, 0.0, 1e6)), 1e6),
    (make_worldline("line", lam_range=(-1e7, 1e7)), 0.0),
    (make_worldline("line", x0=Event(0.0, 0.0, 0.0, -1e12),
                    lam_range=(-1e7, 1e7)), -1e12 + 3.0),
])
def test_transversal_crossing_is_not_tangent_at_any_t_offset(w, t0):
    points = pierce_points(w, t0)
    assert len(points) == 1 and not points[0].tangent
