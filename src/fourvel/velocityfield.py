"""Velocity-field extraction and the residual chain built on it.

The local 4-velocity of a charged particle is read off a wavefunction
through m u_mu + q A_mu = -i hbar (d_mu psi)/psi. Everything else here is
a diagnostic of that field: the mass-shell contraction, the force-law
residual, the curl of the canonical momentum, the divergence (source term)
with an independent cross-evaluation, the linear and nonlinear wave-equation
residuals, and the action integral whose gradient reproduces the momentum.

Derivatives of the extracted field are taken either from the fixture's
analytic second derivatives (mode "analytic") or by nesting central
stencils over the extraction evaluator (mode "central"); the two paths
share no code beyond the extraction formula itself.

Every residual takes one Event or a (K, 4) EventArray and evaluates the
whole batch in one pass of array expressions; an Event is the K = 1 case
without the leading axis. Per-point quantities (normalizations, near-zero
guards) are taken row by row, and a guard raises at the first offending row.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core4 import (ANALYTIC, DEFAULT_EPS_PSI, DerivativeMethod, Event,
                    EventArray, NATURAL_UNITS, PhysicalConstants, _col,
                    _evaluate, _first, _grad4, _laplace4, _nested_pairs,
                    _potential_gradient, _require_nonzero, _shifts,
                    _stencil_points, contract, differentiate,
                    four_displacement)
from .errors import (InsufficientComponentsError, ParameterError,
                     QuadratureError)
from .wavefunctions import SpinorWave, _outer

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
_SEG_TOL = 1e-10   # action_integral's convergence test per segment
_MAX_DEPTH = 20    # and its bisection budget, past which it raises


def _trace(m) -> np.ndarray:
    """Trace over the last two axes, one value per point."""
    return np.trace(m, axis1=-2, axis2=-1)


def _matvec(m, v) -> np.ndarray:
    """m @ v for one matrix and one vector per point."""
    return (m @ v[..., None])[..., 0]


def _normalized(out, values, e, eps_psi: float):
    """out divided, point by point, by the largest |psi_k| there; raises
    NearZeroWavefunctionError at the first point where that is <= eps_psi."""
    scale = np.max(np.abs(values), axis=-1)
    _require_nonzero(scale, e, eps_psi)
    return out / _col(scale)


@dataclass(frozen=True)
class DivergenceResult:
    """Two independent evaluations of d_mu (m u_mu), and d_mu A_mu.

    For a (K, 4) batch each field holds one entry per point; for a spinor,
    one per component, and lorenz_residual one on a unit component axis.
    """

    value: complex              # trace of the momentum gradient, A removed
    independent: complex        # -i hbar (laplace4 psi/psi - dlog.dlog)
    lorenz_residual: complex    # d_mu A_mu at the same event

    @property
    def mismatch(self):
        return abs(self.value - self.independent)


class _Chain:
    """One wave and one potential on one point set e (an Event or a (K, 4)
    batch). Every quantity of the residual chain is read off the same psi,
    d psi and laplace4 psi, and each is evaluated at most once, on first
    read. A chain lives for one kernel call or one wave of a scenario. In
    central mode it evaluates psi once per distinct point: at e (value), at
    e's stencil points and e (ring) and, for a nested stencil, at the
    canonical second-ring points of a chain on the stencil points (outer).

    The wave is a ScalarWave or a SpinorWave, whose component axis follows
    the point axis in both modes (grad [..., k, mu], gp [..., k, mu, nu]);
    A and dA are lifted over it, so each component reads as a scalar wave.

    dlog = (d_mu psi)/psi is formed from the gradient, never through a
    complex logarithm (branch cuts), and raises NearZeroWavefunctionError
    at the first point where |psi| <= eps_psi.
    """

    def __init__(self, psi, a_field, e, method: DerivativeMethod,
                 constants: PhysicalConstants,
                 eps_psi: float = DEFAULT_EPS_PSI, outer=None):
        self.psi, self.a_field, self.e = psi, a_field, e
        self.method, self.constants, self.eps_psi = method, constants, eps_psi
        self.outer = outer   # the chain on whose stencil points e lies

    @cached_property
    def value(self):
        return self.psi(self.e)

    @cached_property
    def ring(self):
        """e's stencil points, then e, (K, 16 L + 1, 4) for L steps, and psi
        there, for the gradient, the Laplacian and a nested chain's values."""
        points = _stencil_points(self.e, self.method.steps)
        return points, _evaluate(self.psi, points)

    def stencil(self, read: str | None = None):
        """Central first-derivative stencil over e of psi or, given read, of
        that property of a chain on the stencil points, whose own stencil
        takes psi at the pairs of _nested_pairs only; a spinor's component
        axis goes before mu, as in analytic mode: [..., k, mu, ...]."""
        steps, mu = self.method.steps, 0 if isinstance(self.e, Event) else 1
        n = (self.outer or self).ring[0].shape[1] - 1   # points before e
        if read:
            points, values = self.ring
            inner = _Chain(self.psi, self.a_field,
                           points[:, :n].reshape(-1, 4).view(EventArray),
                           self.method, self.constants, self.eps_psi, self)
            inner.value = values[:, :n].reshape((-1,) + values.shape[2:])
            v = getattr(inner, read)
            v = v.reshape((-1, n) + v.shape[1:])
        elif self.outer:
            first, second, at = _nested_pairs(len(steps))
            # take, unlike [:, first], gives a contiguous copy; the points
            # are built as (x + s e_a) + t e_b and freed once psi has run
            v = self.outer.ring[0].take(first, axis=1)
            v += _shifts(steps)[second]
            v = _evaluate(self.psi, v)
            v = v.take(at, axis=1).reshape((-1, n) + v.shape[2:])
        else:
            v = self.ring[1]
        d = _grad4(v, steps, self.constants.c)
        d = d if mu else d[0]   # one Event: no batch axis before mu
        return (np.swapaxes(d, mu, mu + 1) if isinstance(self.psi, SpinorWave)
                else d)

    @cached_property
    def grad(self):
        if self.method.mode == "central":
            return self.stencil()
        return differentiate(self.psi, self.e, "grad4", self.method)

    @cached_property
    def lap(self):
        if self.method.mode == "analytic":
            return differentiate(self.psi, self.e, "laplace4", self.method)
        out = _laplace4(self.ring[1], self.method.steps, self.constants.c)
        if isinstance(self.e, Event):   # as differentiate gives it
            out = out[0] if out.ndim > 1 else complex(out[0])
        return out

    @cached_property
    def dlog(self):
        _require_nonzero(self.value, self.e, self.eps_psi)
        return self.grad / _col(self.value)

    @cached_property
    def ddlog(self):
        """d_mu d_mu ln psi."""
        dl = self.dlog
        return self.lap / self.value - contract(dl, dl)

    @cached_property
    def a(self):
        a = self.a_field.a(self.e)
        return a[..., None, :] if isinstance(self.psi, SpinorWave) else a

    @cached_property
    def ga(self):
        """d_mu A_nu."""
        ga = _potential_gradient(self.a_field, self.e, self.method,
                                 self.constants.c)
        return ga[..., None, :, :] if isinstance(self.psi, SpinorWave) else ga

    @cached_property
    def momentum(self):
        """P = m u + q A = -i hbar dlog."""
        return -1j * self.constants.hbar * self.dlog

    @cached_property
    def u(self):
        return (self.momentum - self.constants.q * self.a) / self.constants.m

    @cached_property
    def gp(self):
        """G[mu, nu] = d_mu P_nu.

        Analytic mode needs the fixture's full second-derivative matrix:
        d_mu P_nu = -i hbar (hess_{mu nu}/psi - dlog_mu dlog_nu). Central
        mode nests first-derivative stencils over the momentum of a chain on
        the stencil points instead, so the two paths are independent.
        """
        psi, constants = self.psi, self.constants
        if self.method.mode == "central":
            return self.stencil("momentum")
        if psi.hess4 is None:
            raise ParameterError(
                f"{psi.label}: no analytic second derivatives; use central mode")
        dl = self.dlog  # the near-zero guard, before hess4 is divided by psi
        return -1j * constants.hbar * (psi.hess4(self.e) / _col(self.value, 2)
                                       - _outer(dl, dl))

    @cached_property
    def mass_shell(self):
        return contract(self.u, self.u) + self.constants.c ** 2

    @cached_property
    def curl_k(self):
        return self.gp - np.swapaxes(self.gp, -1, -2)

    @cached_property
    def raw_newton(self):
        u, m, q = self.u, self.constants.m, self.constants.q
        du = (self.gp - q * self.ga) / m  # du[mu, nu] = d_mu u_nu
        convective = _matvec(np.swapaxes(du, -1, -2), u)  # u_nu d_nu u_mu
        f = self.ga - np.swapaxes(self.ga, -1, -2)  # F[mu, nu]
        return convective - (q / m) * _matvec(f, u)

    @cached_property
    def newton(self):
        scale = np.linalg.norm(self.u, axis=-1)
        return self.raw_newton / _col(np.where(scale > 0, scale, 1.0))

    @cached_property
    def divergence(self) -> DivergenceResult:
        gp = self.gp
        lorenz = _trace(self.ga)
        return DivergenceResult(_trace(gp) - self.constants.q * lorenz,
                                -1j * self.constants.hbar * self.ddlog,
                                lorenz)

    @cached_property
    def raw_kg(self):
        hbar, c, m, q = (self.constants.hbar, self.constants.c,
                         self.constants.m, self.constants.q)
        value, grad, lap, a = self.value, self.grad, self.lap, self.a
        div_a = _trace(self.ga)
        return (-hbar ** 2 * lap
                + 1j * hbar * q * div_a * value
                + 2j * hbar * q * contract(a, grad)
                + q ** 2 * contract(a, a) * value
                + (m * c) ** 2 * value)

    @cached_property
    def kg(self):
        raw = self.raw_kg
        _require_nonzero(self.value, self.e, self.eps_psi)
        return raw / self.value

    @cached_property
    def nonlinear(self):
        return self.kg + self.constants.hbar ** 2 * self.ddlog

    # spinor waves only (see dirac); the residuals are normalized at each
    # point by that point's largest component magnitude

    @cached_property
    def pop(self):
        """pop[..., mu, k] = (-i hbar d_mu - q A_mu) psi_k."""
        grad, qa = self.grad, self.value[..., :, None] * self.a
        out = -1j * self.constants.hbar * grad
        out -= np.multiply(self.constants.q, qa, out=qa)
        return np.swapaxes(out, -1, -2)

    @cached_property
    def raw_gamma(self):
        """gamma_mu pop_mu - i m c psi."""
        from .dirac import _STANDARD as g  # dirac builds on this module
        pop, m, c = self.pop, self.constants.m, self.constants.c
        return sum(pop[..., mu, :] @ g.gammas[mu].T
                   for mu in range(4)) - 1j * m * c * self.value

    @cached_property
    def residual_gamma(self):
        return _normalized(self.raw_gamma, self.value, self.e, self.eps_psi)

    @cached_property
    def residual_alphabeta(self):
        from .dirac import _STANDARD as g
        pop, m, c = self.pop, self.constants.m, self.constants.c
        res = (1j * c * pop[..., 3, :]
               + c * sum(pop[..., n, :] @ g.alphas[n].T for n in range(3))
               + m * c ** 2 * (self.value @ g.beta.T))
        return _normalized(res, self.value, self.e, self.eps_psi)

    @cached_property
    def admissible(self):
        return np.abs(self.value) > self.eps_psi

    @cached_property
    def component_u(self):
        """u of every component, NaN where it is not admissible."""
        dlog = self.grad / _col(np.where(self.admissible, self.value, 1.0))
        u = (-1j * self.constants.hbar * dlog
             - self.constants.q * self.a) / self.constants.m
        u[~self.admissible] = np.nan
        return u

    @cached_property
    def velocity_deviation(self):
        """Worst |u_i - u_j| per point; fmax skips the NaN pairs."""
        u = self.component_u
        return np.fmax.reduce(np.abs(u[..., :, None, :] - u[..., None, :, :]),
                              axis=(-3, -2, -1))

    @cached_property
    def velocity_consistency(self):
        """What spinor_velocity_consistency returns."""
        counts = np.count_nonzero(self.admissible, axis=-1)
        first = _first(counts < 2, self.e)
        if first:
            raise InsufficientComponentsError(
                f"only {np.ravel(counts)[first[0]]} component(s) above "
                f"threshold at {first[1]}")
        # a component enters where it is admissible at some row, or at
        # every row of an empty batch
        rows = self.admissible.reshape(-1, 4)
        keep = np.all(rows, axis=0) | np.any(rows, axis=0)
        return ([(k, self.component_u[..., k, :]) for k in range(4)
                 if keep[k]], self.velocity_deviation)


def canonical_momentum(
        psi, a_field, e: Event, method: DerivativeMethod = ANALYTIC, *,
        constants: PhysicalConstants = NATURAL_UNITS) -> np.ndarray:
    """P_mu = m u_mu + q A_mu = -i hbar dlog(psi)_mu at one Event or at
    each row of a (K, 4) batch; dlog = (d_mu psi)/psi raises
    NearZeroWavefunctionError where |psi| <= DEFAULT_EPS_PSI."""
    return _Chain(psi, a_field, e, method, constants).momentum


def extract_u(psi, a_field, e: Event, method: DerivativeMethod = ANALYTIC, *,
              constants: PhysicalConstants = NATURAL_UNITS) -> np.ndarray:
    """4-velocity u_mu = (-i hbar dlog(psi)_mu - q A_mu) / m at one Event
    or at each row of a (K, 4) batch."""
    return _Chain(psi, a_field, e, method, constants).u


def mass_shell_residual(
        psi, a_field, e: Event, method: DerivativeMethod = ANALYTIC, *,
        constants: PhysicalConstants = NATURAL_UNITS) -> complex:
    """contract(u, u) + c^2, per point; zero exactly on shell."""
    return _Chain(psi, a_field, e, method, constants).mass_shell


def momentum_gradient(
        psi, a_field, e: Event, method: DerivativeMethod = ANALYTIC, *,
        constants: PhysicalConstants = NATURAL_UNITS) -> np.ndarray:
    """G[mu, nu] = d_mu P_nu for the canonical momentum P = m u + q A,
    per point, from the fixture's hess4 (analytic mode) or by nesting
    stencils over the momentum (central mode, two calls of psi)."""
    return _Chain(psi, a_field, e, method, constants).gp


def curl_k(psi, a_field, e: Event, method: DerivativeMethod = ANALYTIC, *,
           constants: PhysicalConstants = NATURAL_UNITS) -> np.ndarray:
    """K[mu, nu] = d_mu P_nu - d_nu P_mu; vanishes for any single-valued
    phase, which is what makes the action integral path independent."""
    return _Chain(psi, a_field, e, method, constants).curl_k


def newton_residual(
        psi, a_field, e: Event, method: DerivativeMethod = ANALYTIC, *,
        constants: PhysicalConstants = NATURAL_UNITS) -> np.ndarray:
    """Force-law residual u_nu d_nu u_mu - (q/m) F_mu_nu u_nu, normalized
    at each point by that point's |u|."""
    return _Chain(psi, a_field, e, method, constants).newton


def divergence_mu(
        psi, a_field, e: Event, method: DerivativeMethod = ANALYTIC, *,
        constants: PhysicalConstants = NATURAL_UNITS) -> DivergenceResult:
    """Source term d_mu (m u_mu), evaluated two independent ways; they
    agree where lorenz_residual, d_mu A_mu, is zero (mismatch |q d.A|)."""
    return _Chain(psi, a_field, e, method, constants).divergence


def kg_residual(psi, a_field, e: Event, method: DerivativeMethod = ANALYTIC, *,
                constants: PhysicalConstants = NATURAL_UNITS) -> complex:
    """Linear wave-equation residual [(-i hbar d - q A)^2 + m^2 c^2] psi / psi.

    The squared operator is expanded once (product rule) so only laplace4,
    grad4, the potential values, and its divergence are needed.
    """
    return _Chain(psi, a_field, e, method, constants).kg


def nonlinear_wave_residual(
        psi, a_field, e: Event, method: DerivativeMethod = ANALYTIC, *,
        constants: PhysicalConstants = NATURAL_UNITS) -> complex:
    """Residual of the wave equation with the hbar^2 d_mu d_mu ln psi
    correction restored; equals m^2 * mass_shell_residual identically in
    Lorenz gauge, on shell or off."""
    return _Chain(psi, a_field, e, method, constants).nonlinear


# ---------------------------------------------------------------------------
# action integral
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionResult:
    phi: complex                 # integral of (m u + q A) . dx along the path
    theta: complex               # offset matching the wave at the start point
    reconstruction_error: float  # |exp(i(phi+theta)/hbar) - psi(end)| / |psi(end)|
    n_segments: int              # accepted quadrature panels over all legs


def _gl(f, edges) -> list:
    """10-point Gauss-Legendre sums over the panels between consecutive
    edges, the nodes of all panels passed to f in one array; each panel's
    weighted sum runs in node order."""
    lo, hi = np.asarray(edges[:-1]), np.asarray(edges[1:])
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_NODES
    values = f(nodes.ravel()).reshape(nodes.shape)
    return [h * sum(_GL_WEIGHTS * v) for h, v in zip(half.tolist(), values)]


def _adaptive(f, a: float, b: float, whole: complex, tol: float,
              depth: int, panels: list) -> complex:
    mid = 0.5 * (a + b)
    left, right = _gl(f, [a, mid, b])
    if abs(left + right - whole) < tol:
        panels[0] += 1
        return left + right
    if depth <= 0:
        raise QuadratureError(
            f"segment quadrature not converged on [{a}, {b}]")
    return (_adaptive(f, a, mid, left, tol / 2, depth - 1, panels)
            + _adaptive(f, mid, b, right, tol / 2, depth - 1, panels))


def action_integral(
        psi, a_field, path, method: DerivativeMethod = ANALYTIC, *,
        constants: PhysicalConstants = NATURAL_UNITS) -> ActionResult:
    """Line integral of (m u_mu + q A_mu) dx_mu along a polyline of events.

    dx_4 = i c dt, consistent with the folded-i convention. Each straight
    segment is integrated by 10-point Gauss-Legendre panels, bisected
    adaptively until the segment estimate moves by less than _SEG_TOL.
    The returned theta makes exp(i (phi + theta)/hbar) a prediction of
    psi at the path end; the relative error of that prediction is reported.
    psi is a scalar wave: a SpinorWave raises ParameterError.
    """
    if isinstance(psi, SpinorWave):
        raise ParameterError(f"{psi.label}: the action integral needs a "
                             "scalar wave, not a spinor")
    path = list(path)
    if len(path) < 2:
        raise ParameterError("path needs at least two events")
    m, q, hbar, c = constants.m, constants.q, constants.hbar, constants.c

    phi = 0.0 + 0.0j
    panels = [0]
    for e0, e1 in zip(path[:-1], path[1:]):
        delta = four_displacement(e0, e1, c)
        base = e0.as_array()
        step = e1.as_array() - base

        def integrand(s: np.ndarray) -> np.ndarray:
            """(m u + q A) . delta at base + s * step, for each s."""
            points = EventArray(base + s[:, None] * step)
            u = extract_u(psi, a_field, points, method, constants=constants)
            return np.sum((m * u + q * a_field.a(points)) * delta, axis=-1)

        whole, = _gl(integrand, [0.0, 1.0])
        phi += _adaptive(integrand, 0.0, 1.0, whole, _SEG_TOL, _MAX_DEPTH,
                         panels)

    start_val = complex(psi(path[0]))
    _require_nonzero(start_val, path[0], DEFAULT_EPS_PSI)
    theta = -1j * hbar * np.log(start_val)
    end_val = complex(psi(path[-1]))
    _require_nonzero(end_val, path[-1], DEFAULT_EPS_PSI)
    predicted = np.exp(1j * (phi + theta) / hbar)
    err = abs(predicted - end_val) / abs(end_val)
    return ActionResult(phi, complex(theta), float(err), panels[0])

