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
from dataclasses import dataclass
from numbers import Number
from typing import Callable

import numpy as np

from .core4 import (ANALYTIC, Event, NATURAL_UNITS, PhysicalConstants, _col,
                    _potential_gradient, _zeros)
from .errors import ParameterError
from .wavefunctions import ScalarWave, SpinorWave, _outer, _radius


class PotentialField:
    """4-potential with value and analytic-gradient evaluators.

    a(e) returns the 4-vector A_mu(e); grad(e) the matrix d_mu A_nu.
    Build instances through the factory functions below; sums of potentials
    compose with +.
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
            lambda e: self.a(e) + other.a(e),
            lambda e: self.grad(e) + other.grad(e),
            {"terms": (self.kind, other.kind)},
        )

    def __repr__(self):
        return f"PotentialField(kind={self.kind!r}, params={self.params!r})"


def zero_potential() -> PotentialField:
    return PotentialField("zero", lambda e: _zeros(e, 4),
                          lambda e: _zeros(e, 4, 4))


def constant_potential(components) -> PotentialField:
    a = np.asarray(components, dtype=complex)
    if a.shape != (4,):
        raise ParameterError("constant potential needs 4 components")
    return PotentialField("constant", lambda e: _zeros(e, 4) + a,
                          lambda e: _zeros(e, 4, 4),
                          {"components": tuple(a)})


def coulomb_potential(z_alpha: float,
                      constants: PhysicalConstants = NATURAL_UNITS) -> PotentialField:
    """Attractive point-charge potential with coupling strength z_alpha.

    Chosen so that q*A_4 = -i*z_alpha*hbar/r regardless of the sign of q,
    i.e. the interaction energy is -z_alpha*hbar*c/r. Spatial components
    vanish; the field is static, so the Lorenz condition holds exactly.
    """
    if not (0.0 < z_alpha <= 0.5):
        raise ParameterError(
            f"z_alpha = {z_alpha} outside (0, 0.5]; the scalar bound-state "
            "fixture exponent is real only in that range"
        )
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


def polynomial_gauge(terms: dict, c: float = 1.0) -> GaugeFunction:
    """Gauge generator from monomial terms {(n1, n2, n3, nt): coeff}.

    Exponents refer to (x1, x2, x3, t) and must be non-negative integers (int
    or numpy integer); coefficients must be finite and real, a complex with
    zero imaginary part included. Anything else raises ParameterError. All
    derivatives are exact, with each t-derivative picking up 1/(i*c); the
    terms are differentiated here, once per axis and once per axis pair.
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

    def diff(poly: dict, axis: int) -> dict:
        # d/dx_axis term by term; a term free of x_axis drops out, and no
        # two terms merge, since lowering one exponent is injective
        return {ex[:axis] + (ex[axis] - 1,) + ex[axis + 1:]: co * ex[axis]
                for ex, co in poly.items() if ex[axis]}

    def evaluate(poly: dict, n_t: int, x: tuple):
        # the terms summed left to right, zero powers skipped (exact, as
        # x**0 == 1.0 and 1.0 * v == v), then divided by (i c)^n_t with
        # each division rounded as for a Python complex
        acc = 0.0
        for ex, co in poly.items():
            v = 1.0
            for base, n in zip(x, ex):
                if n:
                    v = v * base ** n
            acc += co * v
        if n_t == 1:
            return -1j * (acc / c)
        return -(acc / c) / c if n_t == 2 else acc

    first = [diff(table, ax) for ax in range(4)]
    second = {(a1, a2): diff(first[a1], a2)
              for a1 in range(4) for a2 in range(a1, 4)}

    def chi(e: Event) -> float:
        # + zeros keeps a batch's shape when every term is a constant
        return evaluate(table, 0, (e.x1, e.x2, e.x3, e.t)) \
            + _zeros(e, dtype=float)

    def grad4(e: Event) -> np.ndarray:
        x = (e.x1, e.x2, e.x3, e.t)
        out = _zeros(e, 4)
        for ax, poly in enumerate(first):
            out[..., ax] = evaluate(poly, ax == 3, x)
        return out

    def hess4(e: Event) -> np.ndarray:
        x = (e.x1, e.x2, e.x3, e.t)
        out = _zeros(e, 4, 4)
        for (a1, a2), poly in second.items():
            out[..., a1, a2] = out[..., a2, a1] = evaluate(
                poly, (a1 == 3) + (a2 == 3), x)
        return out

    return GaugeFunction(chi, grad4, hess4, max(map(sum, table), default=0))


def pure_gauge_potential(chi: GaugeFunction) -> PotentialField:
    """A_mu = d_mu chi. Its field strength vanishes identically."""
    return PotentialField("pure-gauge",
                          lambda e: chi.grad4(e),
                          lambda e: chi.hess4(e),
                          {"degree": chi.degree})


def lorenz_gauge_residual(a_field: PotentialField, e: Event, method=None,
                          *, c: float = 1.0) -> complex:
    """d_mu A_mu at e, per point; zero for a Lorenz-gauge potential."""
    grad = _potential_gradient(a_field, e, method or ANALYTIC, c)
    return np.trace(grad, axis1=-2, axis2=-1)


def gauge_transform(a_field: PotentialField, psi, chi: GaugeFunction,
                    constants: PhysicalConstants = NATURAL_UNITS):
    """Return (A', psi') = (A + d chi, psi * exp(i q chi / hbar)).

    The transformed wave keeps analytic evaluators, composed exactly from
    the originals, so both derivative modes remain available. Works on
    scalar waves and componentwise on spinor waves.
    """
    a_prime = a_field + pure_gauge_potential(chi)

    iq_h = 1j * constants.q / constants.hbar

    def transform_scalar(wave: ScalarWave) -> ScalarWave:
        def psi_p(e):
            return wave.psi(e) * np.exp(iq_h * chi.chi(e))

        def grad_p(e):
            g = np.exp(iq_h * chi.chi(e))
            return _col(g) * (wave.grad4(e)
                              + _col(wave.psi(e) * iq_h) * chi.grad4(e))

        def lap_p(e):
            g = np.exp(iq_h * chi.chi(e))
            dchi = chi.grad4(e)
            dpsi = wave.grad4(e)
            return g * (
                wave.laplace4(e)
                + 2 * iq_h * np.sum(dpsi * dchi, axis=-1)
                + wave.psi(e) * (iq_h * chi.laplace4(e)
                                 + iq_h ** 2 * np.sum(dchi * dchi, axis=-1))
            )

        hess_p = None
        if wave.hess4 is not None:
            def hess_p(e):
                g = np.exp(iq_h * chi.chi(e))
                dchi = chi.grad4(e)
                dpsi = wave.grad4(e)
                return _col(g, 2) * (
                    wave.hess4(e)
                    + iq_h * (_outer(dpsi, dchi) + _outer(dchi, dpsi))
                    + _col(wave.psi(e), 2) * (iq_h * chi.hess4(e)
                                              + iq_h ** 2 * _outer(dchi, dchi))
                )

        return ScalarWave(
            label=wave.label + "+gauge",
            psi=psi_p,
            grad4=grad_p,
            laplace4=lap_p,
            hess4=hess_p,
            energy=wave.energy,
            params=dict(wave.params),
        )

    if isinstance(psi, SpinorWave):
        comps = tuple(transform_scalar(comp) for comp in psi.components)
        psi_prime = SpinorWave(label=psi.label + "+gauge", components=comps,
                               energy=psi.energy, params=dict(psi.params))
    elif isinstance(psi, ScalarWave):
        psi_prime = transform_scalar(psi)
    else:
        raise ParameterError(f"cannot gauge-transform {type(psi).__name__}")
    return a_prime, psi_prime
