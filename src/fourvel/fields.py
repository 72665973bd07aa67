"""Electromagnetic 4-potentials and gauge transformations.

Potentials follow the folded-i convention of core4: the fourth component
A_4 = i*phi/c is purely imaginary for a physical scalar potential phi, and
the stored gradient G[mu, nu] = d_mu A_nu applies d_4 = (1/(i*c)) d_t.

Potentials and gauge functions take one Event or a (K, 4) EventArray and
evaluate it elementwise; batch results carry a leading K axis.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from numbers import Number
from typing import Callable

import numpy as np

from .core4 import (ANALYTIC, DerivativeMethod, Event, NATURAL_UNITS,
                    PhysicalConstants, _col, _member_blocks,
                    _potential_gradient, _zeros)
from .errors import ParameterError
from .wavefunctions import ScalarWave, _outer, _radius


class PotentialField:
    """4-potential with value and analytic-gradient evaluators.

    a(e) returns the 4-vector A_mu(e); grad(e) the matrix d_mu A_nu, each
    a fresh array the caller owns. Build instances through the factory
    functions below; sums of potentials compose with +, and a sum is taken
    into its left term's array.
    """

    def __init__(self, kind: str, a: Callable, grad: Callable, params=None):
        self.kind = kind
        self._a = a
        self._grad = grad
        self.params = dict(params or {})

    def a(self, e: Event) -> np.ndarray:
        return np.asarray(self._a(e), dtype=complex)

    def grad(self, e: Event) -> np.ndarray:
        return np.asarray(self._grad(e), dtype=complex)

    def __add__(self, other: "PotentialField") -> "PotentialField":
        if not isinstance(other, PotentialField):
            return NotImplemented
        return PotentialField(
            "sum",
            lambda e: operator.iadd(self.a(e), other.a(e)),
            lambda e: operator.iadd(self.grad(e), other.grad(e)),
            {"terms": (self.kind, other.kind)},
        )

    def __repr__(self):
        return f"PotentialField(kind={self.kind!r}, params={self.params!r})"


def zero_potential() -> PotentialField:
    return PotentialField("zero", lambda e: _zeros(e, 4),
                          lambda e: _zeros(e, 4, 4))


def coulomb_potential(z_alpha: float,
                      constants: PhysicalConstants = NATURAL_UNITS) -> PotentialField:
    """Attractive point-charge potential with coupling strength z_alpha.

    Chosen so that q*A_4 = -i*z_alpha*hbar/r regardless of the sign of q,
    i.e. the interaction energy is -z_alpha*hbar*c/r. Spatial components
    vanish; the field is static, so the Lorenz condition holds exactly.
    """
    if not (0.0 < z_alpha < math.inf):
        raise ParameterError(f"z_alpha = {z_alpha} outside (0, inf)")
    if constants.q == 0:
        raise ParameterError("Coulomb potential needs a nonzero charge q")
    k = -z_alpha * constants.hbar / constants.q  # A_4 = i k / r

    def a(e: Event) -> np.ndarray:
        r = _radius(e, "Coulomb potential")
        out = _zeros(e, 4)
        out[..., 3] = 1j * (k / r)
        return out

    def grad(e: Event) -> np.ndarray:
        r = _radius(e, "Coulomb potential")
        g = _zeros(e, 4, 4)
        # d_i (i k/r) = -i k x_i / r^3; static, so row 4 stays zero
        g[..., :3, 3] = 1j * (-k * e.spatial / _col(r ** 3))
        return g

    return PotentialField("coulomb", a, grad,
                          {"z_alpha": z_alpha, "q": constants.q})


# ---------------------------------------------------------------------------
# gauge functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugeFunction:
    """Real scalar gauge generator chi with folded-i derivative evaluators."""

    chi: Callable[[Event], float]
    grad4: Callable[[Event], np.ndarray]
    hess4: Callable[[Event], np.ndarray]
    degree: int = 0

    def laplace4(self, e: Event) -> complex:
        return np.trace(self.hess4(e), axis1=-2, axis2=-1)


def _read_only(v):
    if isinstance(v, np.ndarray):   # a view: the body's own array stays as is
        (v := v.view()).flags.writeable = False
    return v


def _last_points_memo(body: Callable) -> Callable:
    """body(e), kept for the last point set while the key stays the same:
    whether e is one Event or a batch, its shape and the float64 bytes of
    its points, all a body may read. So -0.0 and 0.0 get distinct keys and
    points changed in place a new one. Cached arrays are read-only: an
    array result is returned as a fresh copy, which the caller owns, and a
    tuple's arrays as they are."""
    last = (None, None)

    def evaluator(e):
        nonlocal last
        arr = e.as_array()
        key = (isinstance(e, Event), arr.shape, arr.tobytes())
        seen, out = last
        if key != seen:
            out = body(e)
            out = (tuple(map(_read_only, out)) if isinstance(out, tuple)
                   else _read_only(out))
            last = key, out
        return out.copy() if isinstance(out, np.ndarray) else out
    return evaluator


def _monomial_sum(poly: dict, x: tuple):
    """Sum of co * x1**n1 * x2**n2 * x3**n3 * t**nt over poly's
    {(n1, n2, n3, nt): co}, terms added left to right from 0.0, powers
    multiplied left to right, with no exact unit factor (x**0, x**1, 1.0*)."""
    acc = 0.0
    for ex, co in poly.items():
        v = None
        for base, n in zip(x, ex):
            if n:
                p = base if n == 1 else base ** n
                v = p if v is None else v * p
        acc = acc + (co if v is None else co * v)
    return acc


def polynomial_gauge(terms: dict, c: float = 1.0) -> GaugeFunction:
    """Gauge generator from monomial terms {(n1, n2, n3, nt): coeff}.

    Exponents refer to (x1, x2, x3, t) and must be non-negative integers (int
    or numpy integer); coefficients must be finite and real, a complex with
    zero imaginary part included. Anything else raises ParameterError. All
    derivatives are exact, with each t-derivative picking up 1/(i*c); the
    terms are differentiated here, once per axis and once per axis pair.
    Only grad4, read for each derivative of a gauged wave, keeps a memo: its
    result for the last points, while their float64 bytes stay the same.
    Every array chi, grad4 and hess4 return is a fresh copy.
    """
    table = {}
    for key, coeff in terms.items():
        try:
            expo = tuple(operator.index(n) for n in key)
            z = complex(coeff) if isinstance(coeff, Number) else math.nan
        except (TypeError, OverflowError):
            expo, z = (), math.nan
        if len(expo) != 4 or min(expo) < 0 or z.imag != 0 \
                or not math.isfinite(z.real):
            raise ParameterError(f"bad gauge term {key!r}: {coeff!r}; need 4 "
                                 "integer exponents >= 0 and a finite real")
        table[expo] = z.real
    return _polynomial_gauge_members(list(table), [list(table.values())], c)


def _polynomial_gauge_members(expos: list, coeffs, c: float) -> GaugeFunction:
    """polynomial_gauge of the monomials expos with a (M, len(expos)) table
    of finite real coefficients, one row per member. The member axis pairs
    with the points: member j of M takes the j-th of M equal, contiguous
    blocks of rows (so of every base-major stencil), and K % M != 0 is
    refused."""
    coeffs = np.asarray(coeffs)
    if (coeffs.shape[1:] != (len(expos),) or len(coeffs) == 0
            or coeffs.dtype.kind not in "iuf"
            or not np.all(np.isfinite(coeffs))):
        raise ParameterError("gauge coefficients must be a finite real table "
                             "of one row per member and one column per term")
    members = len(coeffs)
    # [member, row of its block]: each coefficient column broadcasts over
    # its member's rows
    table = dict(zip(expos, coeffs.astype(float).T[:, :, None]))

    def diff(poly: dict, axis: int) -> dict:
        # d/dx_axis term by term; a term free of x_axis drops out, and no
        # two terms merge, since lowering one exponent is injective
        return {ex[:axis] + (ex[axis] - 1,) + ex[axis + 1:]: co * ex[axis]
                for ex, co in poly.items() if ex[axis]}

    def evaluate(poly: dict, n_t: int, x: tuple, shaped: Callable):
        # divided by (i c)^n_t, each division rounded as for a Python complex
        acc = shaped(_monomial_sum(poly, x))
        if n_t == 1:
            return -1j * (acc / c)
        return -(acc / c) / c if n_t == 2 else acc

    first = [diff(table, ax) for ax in range(4)]
    second = {(a1, a2): diff(first[a1], a2)
              for a1 in range(4) for a2 in range(a1, 4)}

    def split(body: Callable) -> Callable:
        def evaluator(e):
            # the coordinates per member block, Python floats for one Event,
            # and the map from per-member values back to one value per point
            arr = e.as_array()
            blocks = _member_blocks(arr.reshape(-1, 4), members)
            x = (tuple(arr.tolist()) if isinstance(e, Event)
                 else tuple(np.moveaxis(blocks, -1, 0)))
            return body(e, x, lambda v: np.broadcast_to(
                v, blocks.shape[:2]).reshape(arr.shape[:-1]))
        return evaluator

    @split
    def chi(e: Event, x: tuple, shaped: Callable) -> float:
        # + zeros turns -0.0 into 0.0, and one Event's value into a scalar
        return evaluate(table, 0, x, shaped) + _zeros(e, dtype=float)

    @_last_points_memo
    @split
    def grad4(e: Event, x: tuple, shaped: Callable) -> np.ndarray:
        out = _zeros(e, 4)
        for ax, poly in enumerate(first):
            out[..., ax] = evaluate(poly, ax == 3, x, shaped)
        return out

    @split
    def hess4(e: Event, x: tuple, shaped: Callable) -> np.ndarray:
        out = _zeros(e, 4, 4)
        for (a1, a2), poly in second.items():
            out[..., a1, a2] = out[..., a2, a1] = evaluate(
                poly, (a1 == 3) + (a2 == 3), x, shaped)
        return out

    return GaugeFunction(chi, grad4, hess4, max(map(sum, expos), default=0))


def pure_gauge_potential(chi: GaugeFunction) -> PotentialField:
    """A_mu = d_mu chi. Its field strength vanishes identically."""
    return PotentialField("pure-gauge",
                          lambda e: chi.grad4(e),
                          lambda e: chi.hess4(e),
                          {"degree": chi.degree})


def lorenz_gauge_residual(a_field: PotentialField, e: Event,
                          method: DerivativeMethod = ANALYTIC, *,
                          c: float = 1.0) -> complex:
    """d_mu A_mu at e, per point; zero for a Lorenz-gauge potential."""
    grad = _potential_gradient(a_field, e, method, c)
    return np.trace(grad, axis1=-2, axis2=-1)


def gauge_transform(a_field: PotentialField, psi: ScalarWave,
                    chi: GaugeFunction,
                    constants: PhysicalConstants = NATURAL_UNITS):
    """Return (A', psi') = (A + d chi, psi * exp(i q chi / hbar)).

    The transformed wave keeps analytic evaluators, composed exactly from
    the originals, so both derivative modes remain available. psi is any
    ScalarWave, a SpinorWave included: chi and its derivatives get one unit
    axis after the point axis for each value axis of the wave, so a spinor's
    components are transformed in one expression. Each evaluator asks chi
    only for what it reads, and psi' has psi's class. psi, chi and the
    factor are evaluated once per point set for psi' and its derivatives.
    """
    if not isinstance(psi, ScalarWave):
        raise ParameterError(f"cannot gauge-transform {type(psi).__name__}")
    a_prime = a_field + pure_gauge_potential(chi)
    iq_h = 1j * constants.q / constants.hbar

    def at(e):
        # psi at e, the factor exp(i q chi / hbar), and the index that lifts
        # chi and its derivatives at e over psi's value axes
        value, x = psi.psi(e), chi.chi(e)
        lift = ((slice(None),) * np.ndim(x)
                + (None,) * (np.ndim(value) - np.ndim(x)))
        return value, np.exp(iq_h * x[lift]), lift
    gauged = _last_points_memo(at)

    def psi_p(e):
        value, g, _ = gauged(e)
        return value * g

    def grad_p(e):
        value, g, lift = gauged(e)
        out = _col(value * iq_h) * chi.grad4(e)[lift]
        np.add(psi.grad4(e), out, out=out)
        return np.multiply(_col(g), out, out=out)

    def lap_p(e):
        value, g, lift = gauged(e)
        dchi = chi.grad4(e)[lift]
        dpsi = psi.grad4(e)
        return g * (
            psi.laplace4(e)
            + 2 * iq_h * np.sum(dpsi * dchi, axis=-1)
            + value * (iq_h * chi.laplace4(e)[lift]
                       + iq_h ** 2 * np.sum(dchi * dchi, axis=-1))
        )

    hess_p = None
    if psi.hess4 is not None:
        def hess_p(e):
            value, g, lift = gauged(e)
            dchi = chi.grad4(e)[lift]
            dpsi = psi.grad4(e)
            return _col(g, 2) * (
                psi.hess4(e)
                + iq_h * (_outer(dpsi, dchi) + _outer(dchi, dpsi))
                + _col(value, 2) * (iq_h * chi.hess4(e)[lift]
                                    + iq_h ** 2 * _outer(dchi, dchi))
            )

    return a_prime, replace(psi, label=psi.label + "+gauge", psi=psi_p,
                            grad4=grad_p, laplace4=lap_p, hess4=hess_p,
                            params=dict(psi.params))
