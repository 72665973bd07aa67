"""Parametrized worldlines, boosts, and constant-time pierce points.

A worldline is a curve lambda -> Event over a closed parameter interval,
with an analytic tangent (dx1, dx2, dx3, dt)/dlambda. Like a fixture on a
point array, its position must also evaluate a 1-D lambda array
elementwise with numpy, giving the (K, 4) EventArray of its events.
Intersections with a hyperplane t = t0 are found by evaluating
t(lambda) - t0 on a uniform grid in one call, bracketing sign changes and
bisecting; an extremum that touches zero without a sign change is reported
as a tangency. Roots separated by less than one grid cell can be missed;
the default grid has 4096 cells.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core4 import Event, EventArray, boost_x1, contract, four_vector
from .errors import DegenerateParameterError, InvalidBoostError, ParameterError

_CUSP_TOL = 1e-14
_NULL_TOL = 1e-12


@dataclass(frozen=True)
class Worldline:
    kind: str
    # lambda -> Event; a 1-D lambda array -> EventArray, elementwise numpy
    position: Callable[[float], Event]
    velocity: Callable[[float], np.ndarray]  # (dx1, dx2, dx3, dt)/dlambda
    lam_range: tuple
    c: float = 1.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        lo, hi = self.lam_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ParameterError(f"bad parameter interval {self.lam_range}")

    def tangent4(self, lam: float) -> np.ndarray:
        """Tangent as a 4-vector, fourth slot i*c*dt/dlambda."""
        v = np.asarray(self.velocity(lam), dtype=float)
        return four_vector(v[0], v[1], v[2], 1j * self.c * v[3])


def _lib(lam):
    """numpy for a lambda array; math for one lambda, so Events hold Python
    floats and a bisection step pays no numpy dispatch."""
    return np if isinstance(lam, np.ndarray) else math


def _at(lam, x1, x2, x3, t):
    """The Event at one lambda, or the EventArray of a lambda array's
    events (constant coordinates broadcast); finiteness is checked once."""
    if not isinstance(lam, np.ndarray):
        return Event(x1, x2, x3, t)
    return EventArray(np.stack(np.broadcast_arrays(x1, x2, x3, t), axis=-1))


def make_worldline(kind: str, *, c: float = 1.0, **params) -> Worldline:
    """Catalog constructors.

    line:        x0 (Event, default origin), v (3-velocity), lam_range;
                 X = x0 + lam * (v, 1)
    helix:       radius, omega, lam_range; X = (R cos w lam, R sin w lam, 0, lam)
    circle-x1x4: radius, lam_range; X = (R cos lam, 0, 0, t = R sin lam / c),
                 a closed curve in the x1 - x4 plane that alternates between
                 timelike and spacelike arcs
    """
    if kind == "line":
        x0 = params.get("x0", Event(0, 0, 0, 0))
        v = np.asarray(params.get("v", (0, 0, 0)), dtype=float)
        if v.shape != (3,) or not np.all(np.isfinite(v)):
            raise ParameterError("line velocity must be a finite 3-vector")
        lam_range = tuple(params.get("lam_range", (-10.0, 10.0)))
        vel = np.array([v[0], v[1], v[2], 1.0])

        def position(lam):
            return _at(lam, x0.x1 + lam * v[0], x0.x2 + lam * v[1],
                       x0.x3 + lam * v[2], x0.t + lam)

        return Worldline("line", position, lambda lam: vel, lam_range, c,
                         {"v": tuple(v), "x0": x0})

    if kind == "helix":
        radius = float(params.get("radius", 1.0))
        omega = float(params.get("omega", 2 * math.pi))
        if radius <= 0 or not math.isfinite(omega):
            raise ParameterError("helix needs radius > 0 and finite omega")
        lam_range = tuple(params.get("lam_range", (0.0, 1.0)))

        def position(lam):
            m = _lib(lam)
            return _at(lam, radius * m.cos(omega * lam),
                       radius * m.sin(omega * lam), 0.0, lam)

        def velocity(lam: float) -> np.ndarray:
            return np.array([-radius * omega * math.sin(omega * lam),
                             radius * omega * math.cos(omega * lam), 0.0, 1.0])

        return Worldline("helix", position, velocity, lam_range, c,
                         {"radius": radius, "omega": omega})

    if kind == "circle-x1x4":
        radius = float(params.get("radius", 1.0))
        if radius <= 0:
            raise ParameterError("circle needs radius > 0")
        lam_range = tuple(params.get("lam_range", (0.0, 2 * math.pi)))

        def position(lam):
            m = _lib(lam)
            return _at(lam, radius * m.cos(lam), 0.0, 0.0,
                       radius * m.sin(lam) / c)

        def velocity(lam: float) -> np.ndarray:
            return np.array([-radius * math.sin(lam), 0.0, 0.0,
                             radius * math.cos(lam) / c])

        return Worldline("circle-x1x4", position, velocity, lam_range, c,
                         {"radius": radius})

    raise ParameterError(f"unknown worldline kind {kind!r}")


def boost_worldline(w: Worldline, v: float) -> Worldline:
    """Same curve seen from a frame moving at v along x1."""
    c = w.c
    if not math.isfinite(v) or abs(v) >= c:
        raise InvalidBoostError(f"boost speed {v} not below c = {c}")
    gamma = 1.0 / math.sqrt(1.0 - (v / c) ** 2)

    def position(lam):
        return boost_x1(w.position(lam), v, c)

    def velocity(lam: float) -> np.ndarray:
        d = np.asarray(w.velocity(lam), dtype=float)
        return np.array([gamma * (d[0] - v * d[3]), d[1], d[2],
                         gamma * (d[3] - v * d[0] / c ** 2)])

    return Worldline(w.kind, position, velocity, w.lam_range, c,
                     {**w.params, "boost": v})


def classify_speed(w: Worldline, lam: float, *,
                   null_tol: float = _NULL_TOL) -> str:
    """'timelike' | 'null' | 'spacelike' from the tangent self-contraction."""
    t4 = w.tangent4(lam)
    if float(np.max(np.abs(t4))) < _CUSP_TOL:
        raise DegenerateParameterError(f"vanishing tangent at lambda = {lam}")
    s2 = contract(t4, t4).real
    if abs(s2) < null_tol:
        return "null"
    return "timelike" if s2 < 0 else "spacelike"


def four_velocity(w: Worldline, lam: float) -> np.ndarray:
    """Proper-time normalized tangent; timelike points only.
    Satisfies contract(u, u) = -c^2 by construction."""
    t4 = w.tangent4(lam)
    s2 = contract(t4, t4).real
    if s2 >= 0:
        raise ParameterError(
            f"four_velocity needs a timelike point, contraction = {s2}")
    dtau_dlam = math.sqrt(-s2) / w.c
    return t4 / dtau_dlam


@dataclass(frozen=True)
class PiercePoint:
    lam: float
    event: Event
    classification: str
    u: Optional[np.ndarray]      # proper-time 4-velocity, timelike only
    tangent: bool = False        # double root: curve touches the plane


def pierce_points(w: Worldline, t0: float, *, grid: int = 4096,
                  lam_tol: float = 1e-12, tangent_tol: float = 1e-10,
                  tangent_slope_tol: float = 1e-6) -> list:
    """All intersections of the worldline with the hyperplane t = t0.

    Sign changes of f = t(lambda) - t0 over the grid are bisected to width
    lam_tol; local extrema of f with |f| < tangent_tol catch double roots
    that never change sign. Any root where |dt/dlambda| < tangent_slope_tol
    is flagged as a tangential (grazing) contact. Results sorted by lambda.
    """
    lo, hi = w.lam_range
    lams = np.linspace(lo, hi, grid + 1)
    f = w.position(lams).t - t0

    def bisect(a: float, b: float) -> float:
        fa = w.position(a).t - t0
        while b - a > lam_tol:
            mid = 0.5 * (a + b)
            fm = w.position(mid).t - t0
            if fm == 0.0:
                return mid
            if (fa < 0) != (fm < 0):
                b = mid
            else:
                a, fa = mid, fm
        return 0.5 * (a + b)

    roots = [float(lams[i]) for i in np.flatnonzero(f == 0.0)]
    roots += [bisect(float(lams[i]), float(lams[i + 1]))
              for i in np.flatnonzero(f[:-1] * f[1:] < 0.0)]

    # double roots: refine each discrete extremum of f, keep those touching 0
    cell = (hi - lo) / grid
    df = np.diff(f)
    turns = (df[:-1] != 0.0) & ((df[:-1] < 0) != (df[1:] < 0))
    for i in np.flatnonzero(turns) + 1:
        a, b = float(lams[i - 1]), float(lams[i + 1])
        for _ in range(200):  # ternary search on |f|
            m1 = a + (b - a) / 3
            m2 = b - (b - a) / 3
            if abs(w.position(m1).t - t0) < abs(w.position(m2).t - t0):
                b = m2
            else:
                a = m1
            if b - a < lam_tol:
                break
        lam_star = 0.5 * (a + b)
        f_star = w.position(lam_star).t - t0
        if abs(f_star) < tangent_tol:
            if not any(abs(lam_star - l) < 2 * cell for l in roots):
                roots.append(lam_star)

    points = []
    for lam in sorted(roots):
        cls = classify_speed(w, lam)
        u = four_velocity(w, lam) if cls == "timelike" else None
        slope = abs(float(np.asarray(w.velocity(lam), dtype=float)[3]))
        points.append(PiercePoint(lam=lam, event=w.position(lam),
                                  classification=cls, u=u,
                                  tangent=slope < tangent_slope_tol))
    return points


PIERCE_CSV_HEADER = ("lambda", "x1", "x2", "x3", "t", "class")


def write_pierce_csv(points, path) -> None:
    """Pierce-point list as CSV with the fixed column set.

    path may be a filename or an open text stream.
    """
    if hasattr(path, "write"):
        _write_pierce_rows(points, path)
        return
    with open(path, "w", newline="") as fh:
        _write_pierce_rows(points, fh)


def _write_pierce_rows(points, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(PIERCE_CSV_HEADER)
    for p in points:
        writer.writerow([repr(p.lam), repr(p.event.x1), repr(p.event.x2),
                         repr(p.event.x3), repr(p.event.t),
                         p.classification + ("/tangent" if p.tangent else "")])
