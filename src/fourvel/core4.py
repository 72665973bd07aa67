"""4-vector kinematics and differentiation in the imaginary-time convention.

Events store the real coordinates (x1, x2, x3, t). The imaginary fourth
coordinate x4 = i*c*t is never stored: the factor i is folded analytically
into the derivative operator, d_4 = (1/(i*c)) d_t, and into the fourth
component of displacement 4-vectors, dx_4 = i*c*dt. With that bookkeeping
the scalar product of two 4-vectors is a plain subscript sum with no metric
tensor, and timelike vectors contract to negative values.

Derivatives are evaluated either from a field's analytic evaluators or by
4th-order central differences.

A field is evaluated at one Event or at a (K, 4) EventArray of points. The
central-difference engine builds the stencil points (_stencil_points),
calls the field once on all of them (_evaluate) and combines the values
(_grad4, _laplace4), so central-mode fields must evaluate a point array row
by row. grad4_numeric and laplace4_numeric are one call each; the residual
chain shares one call between its gradient, its Laplacian and the values
of a nested stencil.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InvalidBoostError, NearZeroWavefunctionError, ParameterError

# |psi| threshold below which dlog-style divisions refuse to proceed.
# Fixtures are O(1) on their standard domains; sweep drivers rescale this
# by the max |psi| seen over the active sample cloud.
DEFAULT_EPS_PSI = 1e-12

# A 4-vector is a complex ndarray of shape (4,), a Matrix4 of shape (4, 4).
# Index order is (1, 2, 3, 4) -> array slots (0, 1, 2, 3); slot 3 carries
# the folded-i fourth component.


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit system for a run. Defaults are natural units with q = -1."""

    hbar: float = 1.0
    c: float = 1.0
    m: float = 1.0
    q: float = -1.0

    def __post_init__(self):
        for name in ("hbar", "c", "m", "q"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        if self.hbar <= 0 or self.c <= 0 or self.m <= 0:
            raise ParameterError("hbar, c, m must be positive")


NATURAL_UNITS = PhysicalConstants()


@dataclass(frozen=True)
class Event:
    """Spacetime sample point with real coordinates."""

    x1: float
    x2: float
    x3: float
    t: float

    def __post_init__(self):
        for v in (self.x1, self.x2, self.x3, self.t):
            if not math.isfinite(v):
                raise ParameterError(f"non-finite event coordinate in {self!r}")

    @property
    def spatial(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3])

    @property
    def r(self) -> float:
        return math.sqrt(self.x1 ** 2 + self.x2 ** 2 + self.x3 ** 2)

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3, self.t])

    def shifted(self, axis: int, delta: float) -> "Event":
        """New event displaced by delta along coordinate axis 0..3 (3 = t)."""
        coords = [self.x1, self.x2, self.x3, self.t]
        coords[axis] += delta
        return Event(*coords)


class EventArray(np.ndarray):
    """K events as one (K, 4) float array of (x1, x2, x3, t) rows.

    It exposes Event's accessors (x1, x2, x3, t, spatial, r, as_array) row
    by row, so a field written with numpy operations on those accessors
    evaluates a whole batch in one call. Construction checks the shape and
    finiteness once for the batch. Arithmetic on it gives plain arrays.
    """

    def __new__(cls, points):
        arr = np.asarray(points, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ParameterError(
                f"event array needs shape (K, 4), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("non-finite event coordinate in event array")
        return arr.view(cls)

    def __array_wrap__(self, arr, context=None, return_scalar=False):
        arr = arr.view(np.ndarray)
        return arr[()] if return_scalar else arr

    @property
    def x1(self) -> np.ndarray:
        return self.as_array()[..., 0]

    @property
    def x2(self) -> np.ndarray:
        return self.as_array()[..., 1]

    @property
    def x3(self) -> np.ndarray:
        return self.as_array()[..., 2]

    @property
    def t(self) -> np.ndarray:
        return self.as_array()[..., 3]

    @property
    def spatial(self) -> np.ndarray:
        return self.as_array()[..., :3]

    @property
    def r(self) -> np.ndarray:
        return np.sqrt(self.x1 ** 2 + self.x2 ** 2 + self.x3 ** 2)

    def as_array(self) -> np.ndarray:
        return self.view(np.ndarray)

    def event(self, k: int) -> Event:
        return Event(*(float(v) for v in self.as_array()[k]))


def _zeros(e, *shape, dtype=complex) -> np.ndarray:
    """Zeros shaped like a field value at e: shape for one Event, (K, *shape)
    for a (K, 4) batch."""
    lead = () if isinstance(e, Event) else np.shape(e)[:-1]
    return np.zeros(lead + shape, dtype=dtype)


def _member_blocks(rows, members: int) -> np.ndarray:
    """rows (K, ...) as (members, K / members, ...): block j is member j's."""
    if len(rows) % members:
        raise ParameterError(f"{len(rows)} points do not split into "
                             f"{members} equal blocks")
    return rows.reshape((members, len(rows) // members) + rows.shape[1:])


def _col(x, depth: int = 1) -> np.ndarray:
    """x with depth trailing unit axes, so a per-point scalar broadcasts
    against per-point vectors (depth 1) or matrices (depth 2)."""
    return np.asarray(x)[(...,) + (None,) * depth]


def _first(flags, e):
    """(k, Event) of the first point of e whose flag is set, flags holding
    one flag per point; None when no flag is set."""
    if not np.count_nonzero(flags):
        return None
    k = int(np.flatnonzero(flags)[0])
    return k, (e if isinstance(e, Event) else EventArray(e).event(k))


def _require_nonzero(values, e, eps_psi: float) -> None:
    """Raise NearZeroWavefunctionError at the first point of e where
    |values| <= eps_psi; values holds one entry, or one spinor, per point."""
    mags = abs(values)
    if np.ndim(mags) > (0 if isinstance(e, Event) else 1):
        mags = np.min(mags, axis=-1)
    first = _first(mags <= eps_psi, e)
    if first:
        k, where = first
        raise NearZeroWavefunctionError(where, float(np.ravel(mags)[k]),
                                        eps_psi)


def four_vector(a1, a2, a3, a4) -> np.ndarray:
    return np.array([a1, a2, a3, a4], dtype=complex)


def contract(a, b):
    """Plain subscript sum a_mu b_mu over the last axis. No metric, no
    conjugation. Two 4-vectors give a complex; stacks of them, an array."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[-1:] != (4,) or b.shape[-1:] != (4,):
        raise ParameterError("contract expects two 4-vectors")
    out = np.sum(a * b, axis=-1)
    return complex(out) if out.ndim == 0 else out


def four_displacement(e_from: Event, e_to: Event, c: float = 1.0) -> np.ndarray:
    """Displacement 4-vector between events, fourth slot i*c*dt."""
    return four_vector(
        e_to.x1 - e_from.x1,
        e_to.x2 - e_from.x2,
        e_to.x3 - e_from.x3,
        1j * c * (e_to.t - e_from.t),
    )


def boost_x1(e, v: float, c: float = 1.0):
    """Standard boost along x1 with speed v; |v| >= c rejected. e is one
    Event, or a (K, 4) batch boosted row by row into an EventArray."""
    if not math.isfinite(v) or abs(v) >= c:
        raise InvalidBoostError(f"boost speed {v} not below c = {c}")
    gamma = 1.0 / math.sqrt(1.0 - (v / c) ** 2)
    single = isinstance(e, Event)
    p = e if single else EventArray(e)
    x1 = gamma * (p.x1 - v * p.t)
    t = gamma * (p.t - v * p.x1 / c ** 2)
    if single:
        return Event(x1, p.x2, p.x3, t)
    return EventArray(np.column_stack([x1, p.x2, p.x3, t]))


# ---------------------------------------------------------------------------
# derivative engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativeMethod:
    """How derivatives are taken: fixture closed forms or central stencils.

    mode "analytic" uses the field's own grad4/laplace4 evaluators; mode
    "central" uses 4th-order central differences with step h (same step on
    the t axis, appropriate for fixtures with characteristic scale ~1).
    richardson combines the h and h/2 stencils for two extra orders, but at
    h = 1e-3 the rounding floor of a nested stencil (about eps/h^2) is
    already above its truncation error, so it makes nested checks worse:
    central dirac-plane-wave dirac_to_kg goes from 4.34e-10 to 2.13e-9 and
    kg-coulomb-1s curl_k from 6.43e-11 to 3.28e-10. Use it with a larger h.
    """

    mode: str = "analytic"
    h: float = 1e-3
    richardson: bool = False

    def __post_init__(self):
        if self.mode not in ("analytic", "central"):
            raise ParameterError(f"unknown derivative mode {self.mode!r}")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ParameterError("step h must be positive and finite")

    @property
    def steps(self) -> tuple:
        """Stencil steps: h, and h / 2 for Richardson."""
        return (self.h, self.h / 2) if self.richardson else (self.h,)

    @property
    def rows_per_point(self) -> int:
        """Points a derivative evaluates per point, the point included."""
        return 1 if self.mode == "analytic" else 16 * len(self.steps) + 1


ANALYTIC = DerivativeMethod("analytic")


def central(h: float = 1e-3, richardson: bool = False) -> DerivativeMethod:
    return DerivativeMethod("central", h, richardson)


# Stencil nodes in units of h, in the order the points are evaluated.
_NODES = np.array([2.0, 1.0, -1.0, -2.0])


def _rdiv(z: np.ndarray, x: float) -> np.ndarray:
    """z / x for a complex array z and a real x, dividing the real and the
    imaginary parts separately, as Python divides a complex by a float.
    numpy's complex division would multiply by 1/x, which rounds differently.
    """
    z = np.ascontiguousarray(z, dtype=complex)
    return (z.view(np.float64) / x).view(complex)


def _shifts(steps) -> np.ndarray:
    """(16 len(steps), 4) stencil shifts, row (axis, level, node) moving one
    coordinate by node * step and adding a zero to the others."""
    offsets = np.multiply.outer(np.asarray(steps, dtype=float), _NODES)
    return (np.eye(4)[:, None, None, :]
            * offsets[None, :, :, None]).reshape(-1, 4)


def _stencil_points(e, steps) -> np.ndarray:
    """The stencil around each of the K base points of e (one Event or a
    (K, 4) batch), then the point itself: (K, 16 len(steps) + 1, 4)."""
    base = (np.array([[e.x1, e.x2, e.x3, e.t]]) if isinstance(e, Event)
            else EventArray(e).as_array())[:, None]
    return np.concatenate([base + _shifts(steps), base], axis=1)


def _evaluate(f, points) -> np.ndarray:
    """f called once on every row of (K, n, 4) points, which it must
    evaluate row by row; one value of any shape S per row, (K, n, *S)."""
    rows = points.reshape(-1, 4)
    values = np.asarray(f(rows.view(EventArray)), dtype=complex)
    if values.ndim == 0 or values.shape[0] != len(rows):
        raise ParameterError(
            f"field returned shape {values.shape} for {len(rows)} points; "
            "central differences need a field that evaluates a (K, 4) "
            "point array row by row")
    return values.reshape(points.shape[:2] + values.shape[1:])


def _grad4(v, steps, c: float) -> np.ndarray:
    """The gradient (K, 4, *S) from f at _stencil_points, v (K, n, *S);
    slot 3 is (1/(i*c)) d_t."""
    v = v[:, :16 * len(steps)].reshape((len(v), 4, len(steps), 4)
                                       + v.shape[2:])
    d = [_rdiv(-v[:, :, i, 0] + 8 * v[:, :, i, 1] - 8 * v[:, :, i, 2]
               + v[:, :, i, 3], 12 * step) for i, step in enumerate(steps)]
    # Richardson: both stencils are O(h^4), and 16/15 cancels the h^4 term
    out = _rdiv(16 * d[1] - d[0], 15) if len(d) > 1 else d[0]
    out[:, 3] = _rdiv(-1j * out[:, 3], c)  # d_t / (i c)
    return out


def _laplace4(v, steps, c: float) -> np.ndarray:
    """The 4-Laplacian (K, *S) from f at _stencil_points, v (K, n, *S)."""
    mid = v[:, -1, None]
    v = v[:, :-1].reshape((len(v), 4, len(steps), 4) + v.shape[2:])
    d = [_rdiv(-v[:, :, i, 0] + 16 * v[:, :, i, 1] - 30 * mid
               + 16 * v[:, :, i, 2] - v[:, :, i, 3], 12 * step * step)
         for i, step in enumerate(steps)]
    d2 = _rdiv(16 * d[1] - d[0], 15) if len(d) > 1 else d[0]
    return d2[:, 0] + d2[:, 1] + d2[:, 2] - _rdiv(d2[:, 3], c ** 2)


@cache
def _nested_pairs(levels: int) -> tuple:
    """(outer, inner, at) of a stencil of stencils with `levels` steps: the
    pairs of stencil rows whose inner axis is not below the outer one, and
    where each pair of the full table, flattened, is among them. For axes
    a != b, (x + s e_a) + t e_b is (x + t e_b) + s e_a bit for bit."""
    axis = np.arange(16 * levels) // (4 * levels)
    kept = axis[:, None] <= axis
    at = np.cumsum(kept).reshape(kept.shape) - 1   # row-major, among kept
    pairs = (*np.nonzero(kept), np.where(kept, at, at.T).ravel())
    for table in pairs:   # the cache hands the same arrays to every caller
        table.setflags(write=False)
    return pairs


def grad4_numeric(f, e, h: float, c: float = 1.0,
                  richardson: bool = False) -> np.ndarray:
    """Central-difference gradient; slot 3 is (1/(i*c)) d_t.

    f may return values of any shape S. For one Event the result has shape
    (4, *S); for a (K, 4) batch, (K, 4, *S). Each derivative is
    (-f(+2h) + 8 f(+h) - 8 f(-h) + f(-2h)) / (12 h), error O(h^4).
    """
    steps = central(h, richardson).steps
    out = _grad4(_evaluate(f, _stencil_points(e, steps)[:, :-1]), steps, c)
    return out[0] if isinstance(e, Event) else out


def laplace4_numeric(f, e, h: float, c: float = 1.0,
                     richardson: bool = False):
    """Central-difference 4-Laplacian: sum d_mu d_mu = lap3 - (1/c^2) d_t^2.

    Each second derivative is
    (-f(+2h) + 16 f(+h) - 30 f(0) + 16 f(-h) - f(-2h)) / (12 h^2), O(h^4).
    Shapes follow grad4_numeric without the derivative axis.
    """
    steps = central(h, richardson).steps
    out = _laplace4(_evaluate(f, _stencil_points(e, steps)), steps, c)
    return out[0] if isinstance(e, Event) else out


def differentiate(f, e, order: str, method: DerivativeMethod = ANALYTIC,
                  *, c: float = 1.0):
    """Evaluate grad4 or laplace4 of a scalar field f at event e.

    e is one Event or a (K, 4) batch of points; batch results carry a
    leading K axis. f is a callable Event -> complex that, for central
    mode, also evaluates a point array elementwise; for analytic mode it
    must carry grad4/laplace4 evaluator attributes (fixtures do).
    """
    if order not in ("grad4", "laplace4"):
        raise ParameterError(f"unknown derivative order {order!r}")

    if method.mode == "analytic":
        evaluator = getattr(f, order, None)
        if evaluator is None:
            raise ParameterError(
                f"field {f!r} has no analytic {order} evaluator; "
                "use a central-difference method"
            )
        out = np.asarray(evaluator(e), dtype=complex)
    elif order == "grad4":
        out = grad4_numeric(f, e, method.h, c, method.richardson)
    else:
        out = laplace4_numeric(f, e, method.h, c, method.richardson)
    return complex(out) if out.ndim == 0 else out


def _potential_gradient(a_field, e, method: DerivativeMethod = ANALYTIC,
                        c: float = 1.0) -> np.ndarray:
    """G[mu, nu] = d_mu A_nu at e, from the potential's analytic gradient
    or by central differences of its values."""
    if method.mode == "analytic":
        return np.asarray(a_field.grad(e), dtype=complex)
    return grad4_numeric(a_field.a, e, method.h, c, method.richardson)


def field_strength(a_field, e: Event, method: DerivativeMethod = ANALYTIC,
                   *, c: float = 1.0) -> np.ndarray:
    """Antisymmetric tensor F[mu, nu] = d_mu A_nu - d_nu A_mu at e.

    Antisymmetrized after evaluation, so F + F^T vanishes identically even
    on the numeric path.
    """
    grad = _potential_gradient(a_field, e, method, c)
    return grad - np.swapaxes(grad, -1, -2)
