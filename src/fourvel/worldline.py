"""Parametrized worldlines, boosts, and constant-time pierce points.

A worldline is a curve lambda -> Event over a closed parameter interval,
with an analytic tangent (dx1, dx2, dx3, dt)/dlambda. Like a fixture on a
point array, its position must also evaluate a 1-D lambda array
elementwise with numpy, giving the (K, 4) EventArray of its events.
Intersections with a hyperplane t = t0 are found by evaluating
t(lambda) - t0 on a uniform grid in one call, bracketing sign changes and
bisecting; an extremum that touches zero without a sign change is reported
as a tangency. Roots separated by less than one grid cell can be missed;
the grid has _GRID = 4096 cells.
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
# pierce_points: grid cells, bisection width, and the tangency tolerances
_GRID = 4096
_LAM_TOL = 1e-12
_TANGENT_TOL = 1e-10
_TANGENT_SLOPE_TOL = 1e-6


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


def _tangent4(v: np.ndarray, c: float) -> np.ndarray:
    """The tangent 4-vector of the velocity v = (dx1, dx2, dx3, dt)/dlambda."""
    return four_vector(v[0], v[1], v[2], 1j * c * v[3])


def _lib(lam):
    """numpy for a lambda array; math for one lambda, so Events hold Python
    floats and a bisection step pays no numpy dispatch. A non-finite lambda
    is refused before any coordinate is evaluated from it."""
    if isinstance(lam, np.ndarray):
        finite, lib = bool(np.all(np.isfinite(lam))), np
    else:
        finite, lib = math.isfinite(lam), math
    if not finite:
        raise ParameterError(f"worldline parameter {lam} is not finite")
    return lib


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

        def velocity(lam: float) -> np.ndarray:
            _lib(lam)
            return vel

        def position(lam):
            _lib(lam)   # refuses a non-finite lambda
            return _at(lam, x0.x1 + lam * v[0], x0.x2 + lam * v[1],
                       x0.x3 + lam * v[2], x0.t + lam)

        return Worldline("line", position, velocity, lam_range, c,
                         {"v": tuple(v), "x0": x0})

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
            _lib(lam)
            return np.array([-radius * math.sin(lam), 0.0, 0.0,
                             radius * math.cos(lam) / c])

        return Worldline("circle-x1x4", position, velocity, lam_range, c,
                         {"radius": radius})

    raise ParameterError(f"unknown worldline kind {kind!r}")


def boost_worldline(w: Worldline, v: float) -> Worldline:
    """Same curve seen from a frame moving at v along x1."""
    return _boost_family(w, [v])[0][0]


def _boost_family(w: Worldline, speeds: list) -> tuple:
    """boost_worldline(w, v) for each of M speeds, and times(lams), all
    their t on a lambda array as one (M, K) array: w is evaluated once, and
    row j boosted by boost_x1's arithmetic, its gamma on Python floats."""
    c = w.c
    for v in speeds:
        if not math.isfinite(v) or abs(v) >= c:
            raise InvalidBoostError(f"boost speed {v} not below c = {c}")
    gammas = [1.0 / math.sqrt(1.0 - (v / c) ** 2) for v in speeds]

    def member(v: float, gamma: float) -> Worldline:
        def position(lam):
            return boost_x1(w.position(lam), v, c)

        def velocity(lam: float) -> np.ndarray:
            d = np.asarray(w.velocity(lam), dtype=float)
            return np.array([gamma * (d[0] - v * d[3]), d[1], d[2],
                             gamma * (d[3] - v * d[0] / c ** 2)])

        return Worldline(w.kind, position, velocity, w.lam_range, c,
                         {**w.params, "boost": v})

    def times(lams: np.ndarray) -> np.ndarray:
        p = w.position(lams)
        v_col, g_col = (np.array(x, dtype=float)[:, None]
                        for x in (speeds, gammas))
        return g_col * (p.t - v_col * p.x1 / c ** 2)

    return [member(v, gamma) for v, gamma in zip(speeds, gammas)], times


def classify_speed(w: Worldline, lam: float) -> str:
    """'timelike' | 'null' | 'spacelike' from the tangent self-contraction."""
    return _speed_class(
        _tangent4(np.asarray(w.velocity(lam), dtype=float), w.c), lam)[0]


def _speed_class(t4: np.ndarray, lam: float):
    """classify_speed of the tangent t4 at lam, and t4's self-contraction."""
    if float(np.max(np.abs(t4))) < _CUSP_TOL:
        raise DegenerateParameterError(f"vanishing tangent at lambda = {lam}")
    s2 = contract(t4, t4).real
    if abs(s2) < _NULL_TOL:
        return "null", s2
    return ("timelike" if s2 < 0 else "spacelike"), s2


@dataclass(frozen=True)
class PiercePoint:
    lam: float
    event: Event
    classification: str
    u: Optional[np.ndarray]      # proper-time 4-velocity, timelike only
    tangent: bool = False        # double root: curve touches the plane


def pierce_points(w: Worldline, t0: float) -> list:
    """All intersections of the worldline with the hyperplane t = t0.

    Sign changes of f = t(lambda) - t0 over a grid of _GRID cells are
    bisected to width _LAM_TOL; local extrema of f with |f| < _TANGENT_TOL
    catch double roots that never change sign. Any root where |dt/dlambda|
    < _TANGENT_SLOPE_TOL is flagged as a tangential (grazing) contact.
    _TANGENT_TOL is relative to the slice's t-scale, the largest of |t0|
    and |t| over the grid, since t carries rounding error in proportion to
    it; _TANGENT_SLOPE_TOL is relative to the grid's largest |dt/dlambda|,
    which a shift in t leaves unchanged. Results sorted by lambda.
    """
    return _pierce_members([w], t0, lambda lams: w.position(lams).t[None])[0]


def _pierce_members(members: list, t0: float, times: Callable) -> list:
    """pierce_points of M worldlines on members[0]'s lam_range from one grid
    scan of times(lams), their t as an (M, len(lams)) array. Member j's
    tolerances come from row j, and its roots are refined and assembled on
    members[j] alone, so its list has the bits of its pierce_points."""
    if not math.isfinite(t0):
        raise ParameterError(f"pierce_points needs a finite t0, not {t0!r}")
    lo, hi = members[0].lam_range
    lams = np.linspace(lo, hi, _GRID + 1)
    cell = (hi - lo) / _GRID
    t = times(lams)   # [member, grid point]
    peaks, steps = (np.abs(x).max(axis=1).tolist()
                    for x in (t, np.diff(t, axis=1)))
    f = t - t0
    cross = np.sign(f)   # a product of two f values may overflow or underflow
    cross = cross[:, :-1] * cross[:, 1:] < 0.0
    df = np.diff(f, axis=1)
    row, col = np.divmod(np.flatnonzero(   # a flat index is cheap to find
        (df[:, :-1] != 0.0) & ((df[:, :-1] < 0) != (df[:, 1:] < 0))),
        _GRID - 1)

    def bisect(w: Worldline, a: float, b: float) -> float:
        fa = w.position(a).t - t0
        while b - a > _LAM_TOL:
            mid = 0.5 * (a + b)
            fm = w.position(mid).t - t0
            if fm == 0.0:
                return mid
            if (fa < 0) != (fm < 0):
                b = mid
            else:
                a, fa = mid, fm
        return 0.5 * (a + b)

    found = []
    for j, (w, peak, step) in enumerate(zip(members, peaks, steps)):
        tol = _TANGENT_TOL * (max(abs(t0), peak) or 1.0)
        roots = [float(lams[i]) for i in np.flatnonzero(f[j] == 0.0)]
        roots += [bisect(w, float(lams[i]), float(lams[i + 1]))
                  for i in np.flatnonzero(cross[j])]
        # double roots: refine each discrete extremum of f, keep those
        # touching 0; around one, f stays within its two steps of f[i] (a
        # quadratic's extremum within an eighth of that), so a larger |f[i]|
        # is skipped
        for i in col[row == j] + 1:
            if abs(f[j, i]) - (abs(df[j, i - 1]) + abs(df[j, i])) > tol:
                continue
            a, b = float(lams[i - 1]), float(lams[i + 1])
            for _ in range(200):  # ternary search on |f|
                m1 = a + (b - a) / 3
                m2 = b - (b - a) / 3
                if abs(w.position(m1).t - t0) < abs(w.position(m2).t - t0):
                    b = m2
                else:
                    a = m1
                if b - a < _LAM_TOL:
                    break
            lam_star = 0.5 * (a + b)
            f_star = w.position(lam_star).t - t0
            if abs(f_star) < tol:
                if not any(abs(lam_star - l) < 2 * cell for l in roots):
                    roots.append(lam_star)

        slope_tol = _TANGENT_SLOPE_TOL * (step / cell or 1.0)
        points = []
        for lam in sorted(roots):   # one tangent read per root
            v = np.asarray(w.velocity(lam), dtype=float)
            t4 = _tangent4(v, w.c)
            cls, s2 = _speed_class(t4, lam)   # then the proper-time u
            u = t4 / (math.sqrt(-s2) / w.c) if cls == "timelike" else None
            points.append(PiercePoint(lam=lam, event=w.position(lam),
                                      classification=cls, u=u,
                                      tangent=abs(float(v[3])) < slope_tol))
        found.append(points)
    return found


PIERCE_CSV_HEADER = ("lambda", "x1", "x2", "x3", "t", "class")


def write_pierce_csv(points, fh) -> None:
    """Pierce-point list as CSV with the fixed column set, written to the
    open text stream fh."""
    writer = csv.writer(fh)
    writer.writerow(PIERCE_CSV_HEADER)
    for p in points:
        writer.writerow([repr(p.lam), repr(p.event.x1), repr(p.event.x2),
                         repr(p.event.x3), repr(p.event.t),
                         p.classification + ("/tangent" if p.tangent else "")])
