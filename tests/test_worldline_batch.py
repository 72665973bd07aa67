"""Worldline positions and boosts on lambda arrays, and the pierce-point scan.

A lambda array must give, row for row, the very bits of the one-lambda
Event, and the array boost the bits of the Event boost. pierce_points is
compared with an oracle written here: a scan that evaluates closed forms
of t(lambda) one lambda at a time and shares no code with the library.
"""
import math

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from fourvel import (Event, EventArray, ParameterError, Worldline, boost_x1,
                     boost_worldline, make_worldline, pierce_points)

X0 = Event(0.7, -1.2, 0.4, 2.5)
LINE_V = (0.3, 0.1, -0.2)


def _catalog():
    base = {
        "line": make_worldline("line", x0=X0, v=LINE_V),
        "helix": make_worldline("helix", radius=0.8, omega=3.0, c=1.5),
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


def _helix_case(t0):
    return ("helix", make_worldline("helix", radius=0.8, omega=3.0),
            lambda lam: lam, lambda lam: 1.0, t0)


SPACELIKE_HELIX = (0.5, 4.0, 0.9)  # radius, omega, boost; R omega = 2 > c


def _spacelike_helix_t(lam):
    radius, omega, v = SPACELIKE_HELIX
    return (lam - v * radius * math.cos(omega * lam)) / math.sqrt(1 - v * v)


def _spacelike_helix_dt(lam):
    radius, omega, v = SPACELIKE_HELIX
    return ((1 + v * radius * omega * math.sin(omega * lam))
            / math.sqrt(1 - v * v))


def _boosted_spacelike_helix_case(t0):
    # the boosted time turns back, so a slice can cross the curve 3 times
    radius, omega, v = SPACELIKE_HELIX
    w = boost_worldline(make_worldline("helix", radius=radius, omega=omega,
                                       lam_range=(0.0, 2.0)), v)
    return ("helix-spacelike-boosted", w, _spacelike_helix_t,
            _spacelike_helix_dt, t0)


def _spacelike_helix_turn():
    """The boosted time at its local maximum, where dt/dlambda = 0:
    sin(omega lambda) = -1 / (v R omega) with cos(omega lambda) < 0."""
    radius, omega, v = SPACELIKE_HELIX
    lam = (math.pi + math.asin(1 / (v * radius * omega))) / omega
    return _spacelike_helix_t(lam)


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
    _helix_case(0.37),
    _helix_case(0.0),     # the first grid point
    _boosted_spacelike_helix_case(2.7),
    _boosted_spacelike_helix_case(_spacelike_helix_turn()),  # a touch
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
                                               1, 1, 1, 1, 1, 3, 2]
    assert [sum(t for _, t in roots) for roots in found] == [
        0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1]


@pytest.mark.parametrize("name, w, t0", [
    ("circle", make_worldline("circle-x1x4", radius=1.0), 1.0),
    ("boosted-line", boost_worldline(make_worldline("line", v=LINE_V), 0.5),
     0.0),
])
def test_pierce_points_scans_the_grid_in_one_array_call(name, w, t0):
    shapes = []

    def position(lam):
        if np.ndim(lam):
            shapes.append(np.shape(lam))
        return w.position(lam)

    counted = Worldline(w.kind, position, w.velocity, w.lam_range, w.c,
                        w.params)
    assert len(pierce_points(counted, t0)) == 1
    assert shapes == [(4097,)]
    pierce_points(counted, t0, grid=64)
    assert shapes == [(4097,), (65,)]
