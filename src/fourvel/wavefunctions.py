"""Analytic wavefunction fixtures with closed-form derivatives.

Every fixture supplies psi, grad4, and laplace4 evaluators (all but the
Dirac-Coulomb spinor also the full second-derivative matrix hess4) so the
extraction and residual operators can run without finite differencing.
laplace4 is written from an independently derived closed form, not as the
trace of hess4; agreement of the two is itself a consistency check
exercised by the tests.

Fixtures are deliberately unnormalized: every residual downstream is scale
free (divided by psi or a component magnitude).

Every evaluator takes one Event or a (K, 4) EventArray and works elementwise
with numpy, so the central-difference engine can evaluate all its stencil
points in one call; batch results carry a leading K axis. A spinor is a
ScalarWave whose values carry its four components on one more axis after
the point axis, so every evaluator of a spinor is one call as well. A
closed-form fixture computes what its evaluators share once per call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .core4 import (Event, NATURAL_UNITS, PhysicalConstants, _col,
                    _member_blocks, _zeros)
from .errors import ParameterError, SingularPointError

_SINGULAR_R = 1e-12


def _outer(a, b) -> np.ndarray:
    """np.outer over the last axis of per-point vectors."""
    return a[..., :, None] * b[..., None, :]


def _radius(e, what: str = "bound-state fixture"):
    """|x| at each point of e; raises SingularPointError at the origin."""
    r = e.r
    if np.count_nonzero(r <= _SINGULAR_R):
        raise SingularPointError(
            f"{what} evaluated at r = {float(np.min(r))}")
    return r


@dataclass(frozen=True)
class ScalarWave:
    """Scalar field with analytic evaluators. Callable: wave(e) -> psi(e)."""

    label: str
    psi: Callable[[Event], complex]
    grad4: Callable[[Event], np.ndarray]
    laplace4: Callable[[Event], complex]
    hess4: Optional[Callable[[Event], np.ndarray]] = None
    energy: Optional[float] = None
    params: dict = field(default_factory=dict)

    def __call__(self, e: Event) -> complex:
        return self.psi(e)


@dataclass(frozen=True)
class SpinorWave(ScalarWave):
    """4-component wave: a ScalarWave whose evaluators carry the components
    on the axis after the point axis, psi [..., k], grad4 [..., k, mu],
    laplace4 [..., k] and hess4 [..., k, mu, nu], so one call evaluates all
    four. The residual chain keeps that layout in both modes, and each
    scalar kernel reads component k as a scalar wave of its own."""

    def values(self, e: Event) -> np.ndarray:
        return self.psi(e)


# ---------------------------------------------------------------------------
# free plane wave
# ---------------------------------------------------------------------------

def _plane_wave_parts(p, constants: PhysicalConstants):
    """Energy, log-gradient g, Laplacian factor and phase evaluator of the
    positive-energy plane wave exp(i(p.x - E t)/hbar)."""
    p = np.asarray(p, dtype=float)
    if p.shape != (3,) or not np.all(np.isfinite(p)):
        raise ParameterError("momentum must be a finite 3-vector")
    hbar, c, m = constants.hbar, constants.c, constants.m
    with np.errstate(over="ignore"):
        E = math.sqrt(float(p @ p) * c ** 2 + (m * c ** 2) ** 2)
    if not math.isfinite(E):
        raise ParameterError(
            f"momentum {p.tolist()} gives an infinite energy")

    # d_mu psi = g_mu psi; slot 3 already folds the 1/(i c) factor
    g = np.array([1j * p[0] / hbar, 1j * p[1] / hbar, 1j * p[2] / hbar,
                  -E / (hbar * c)], dtype=complex)
    lap_coeff = (m * c / hbar) ** 2  # from the dispersion relation

    def phase(e: Event) -> complex:
        # vecdot rounds like p @ e.spatial for one event and for a batch
        return np.exp(1j * ((np.vecdot(e.spatial, p) - E * e.t) / hbar))

    return p, E, g, lap_coeff, phase


def plane_wave(p, constants: PhysicalConstants = NATURAL_UNITS) -> ScalarWave:
    """exp(i(p.x - E t)/hbar) on the positive-energy branch E = +sqrt(...)."""
    p, E, g, lap_coeff, psi = _plane_wave_parts(p, constants)
    return ScalarWave(
        label=f"plane-wave p=({p[0]:g},{p[1]:g},{p[2]:g})",
        psi=psi,
        grad4=lambda e: g * _col(psi(e)),
        laplace4=lambda e: lap_coeff * psi(e),
        hess4=lambda e: np.outer(g, g) * _col(psi(e), 2),
        energy=E,
        params={"p": tuple(p), "energy": E},
    )


# ---------------------------------------------------------------------------
# scalar (Klein-Gordon) Coulomb ground state
# ---------------------------------------------------------------------------

def kg_coulomb_1s(z_alpha: float,
                  constants: PhysicalConstants = NATURAL_UNITS,
                  energy_scale: float = 1.0) -> ScalarWave:
    """Ground state of the scalar wave equation in the Coulomb potential.

    psi = r^(gamma-1) exp(-lambda r) exp(-i E t / hbar) with
    gamma = (1 + sqrt(1 - 4 z_alpha^2)) / 2, lambda = E z_alpha/(gamma hbar c),
    E = m c^2 / sqrt(1 + z_alpha^2 / gamma^2). The exponent gamma is real
    only for z_alpha < 1/2 (strict).

    energy_scale != 1 multiplies E and re-derives lambda from it. That keeps
    the 1/r^2 and 1/r structure of the radial equation satisfied while
    breaking the constant term, so a detuned fixture fails the wave-equation
    residual cleanly; used as a negative control.
    """
    if not (0.0 < z_alpha < 0.5):
        raise ParameterError(
            f"z_alpha = {z_alpha} outside (0, 0.5): bound-state exponent "
            "becomes complex"
        )
    if not (math.isfinite(energy_scale) and energy_scale > 0):
        raise ParameterError("energy_scale must be positive")
    hbar, c, m = constants.hbar, constants.c, constants.m
    gamma = 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * z_alpha ** 2))
    E0 = m * c ** 2 / math.sqrt(1.0 + (z_alpha / gamma) ** 2)
    E = energy_scale * E0
    lam = E * z_alpha / (gamma * hbar * c)
    g4 = -E / (hbar * c)  # dlog slot 3

    def parts(e: Event):
        """r and psi at each point."""
        r = _radius(e)
        return r, r ** (gamma - 1.0) * np.exp(-lam * r) * np.exp(
            -1j * (E * e.t / hbar))

    def grad4(e: Event) -> np.ndarray:
        r, value = parts(e)
        lr = (gamma - 1.0) / r - lam  # radial log-derivative R'/R
        out = _zeros(e, 4)
        out[..., :3] = _col(lr) * e.spatial / _col(r) * _col(value)
        out[..., 3] = g4 * value
        return out

    def laplace4(e: Event) -> complex:
        r, value = parts(e)
        return (gamma * (gamma - 1.0) / r ** 2 - 2.0 * lam * gamma / r
                + lam ** 2 + g4 ** 2) * value

    def hess4(e: Event) -> np.ndarray:
        r, value = parts(e)
        n = e.spatial / _col(r)
        lr = (gamma - 1.0) / r - lam
        rpp = lr ** 2 - (gamma - 1.0) / r ** 2  # R''/R
        out = _zeros(e, 4, 4)
        out[..., :3, :3] = (_col(rpp, 2) * _outer(n, n)
                            + _col(lr, 2) * (np.eye(3) - _outer(n, n))
                            / _col(r, 2)) * _col(value, 2)
        out[..., :3, 3] = _col(lr) * n * g4 * _col(value)
        out[..., 3, :3] = out[..., :3, 3]
        out[..., 3, 3] = g4 ** 2 * value
        return out

    return ScalarWave(f"kg-coulomb-1s za={z_alpha:g}", lambda e: parts(e)[1],
                      grad4, laplace4, hess4, E,
                      {"z_alpha": z_alpha, "gamma": gamma, "lambda": lam,
                       "energy": E, "energy_scale": energy_scale})


# ---------------------------------------------------------------------------
# Dirac plane wave
# ---------------------------------------------------------------------------

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def dirac_plane_wave(p, spin: str = "up",
                     constants: PhysicalConstants = NATURAL_UNITS) -> SpinorWave:
    """Positive-energy free spinor: upper 2-spinor chi, lower
    c (sigma.p) chi / (E + m c^2), common phase exp(i(p.x - E t)/hbar)."""
    if spin not in ("up", "down"):
        raise ParameterError(f"spin must be 'up' or 'down', got {spin!r}")
    p, E, g, lap_coeff, phase = _plane_wave_parts(p, constants)
    c, m = constants.c, constants.m
    chi = np.array([1, 0], dtype=complex) if spin == "up" else \
        np.array([0, 1], dtype=complex)
    sigma_p = sum(p[n] * _SIGMA[n] for n in range(3))
    lower = c * (sigma_p @ chi) / (E + m * c ** 2)
    w = np.concatenate([chi, lower])

    def psi(e: Event) -> np.ndarray:
        return w * _col(phase(e))

    return SpinorWave(
        label=f"dirac-plane-wave p=({p[0]:g},{p[1]:g},{p[2]:g}) {spin}",
        psi=psi,
        grad4=lambda e: g * _col(psi(e)),
        laplace4=lambda e: lap_coeff * psi(e),
        hess4=lambda e: np.outer(g, g) * _col(psi(e), 2),
        energy=E,
        params={"p": tuple(p), "spin": spin, "energy": E},
    )


# ---------------------------------------------------------------------------
# Dirac-Coulomb ground state
# ---------------------------------------------------------------------------

def dirac_coulomb_1s(z_alpha: float,
                     constants: PhysicalConstants = NATURAL_UNITS,
                     energy: Optional[float] = None) -> SpinorWave:
    """Spin-up ground state of the Dirac equation in the Coulomb potential.

    Radial profile r^(s-1) exp(-lambda r) with s = sqrt(1 - z_alpha^2).
    At the bound-state energy E = m c^2 sqrt(1 - z_alpha^2) the decay
    constant is lambda = z_alpha m c / hbar and the small components carry
    the constant ratio lambda hbar c / (E + m c^2) = (1 - s)/z_alpha
    relative to the large one.

    Passing energy= builds the same ansatz around a trial energy (lambda
    and the component ratio re-derived from it); the residual then vanishes
    only at the true eigenvalue, which is what the energy-scan oracle
    exploits.
    """
    if not (0.0 < z_alpha < 1.0):
        raise ParameterError(f"z_alpha = {z_alpha} outside (0, 1)")
    hbar, c, m = constants.hbar, constants.c, constants.m
    s = math.sqrt(1.0 - z_alpha ** 2)
    E = s * m * c ** 2 if energy is None else float(energy)
    if not (0.0 < E < m * c ** 2):
        raise ParameterError(f"trial energy {E} outside (0, m c^2)")
    lam = math.sqrt((m * c ** 2) ** 2 - E ** 2) / (hbar * c)
    ratio = lam * hbar * c / (E + m * c ** 2)
    g4 = -E / (hbar * c)
    harm_grad = np.array([[0, 0, 1], [1, 1j, 0]], dtype=complex)

    # components (G, 0, i ratio H x3, i ratio H (x1 + i x2)) T with
    # G = r^(s-1) exp(-lam r), H = r^(s-2) exp(-lam r) and T the time factor;
    # for a degree-1 solid harmonic Y, lap3(H Y) = Y H ((s-2)(s+1)/r^2
    # - 2 lam s / r + lam^2)
    def parts(e: Event):
        """r, G T, i ratio H T and each small component's (Y, grad Y)."""
        r = _radius(e)
        decay = np.exp(-lam * r)
        tf = np.exp(-1j * (E * e.t / hbar))
        return (r, r ** (s - 1.0) * decay * tf,
                1j * ratio * r ** (s - 2.0) * decay * tf,
                tuple(zip((e.x3 + 0j, e.x1 + 1j * e.x2), harm_grad)))

    def psi(e: Event) -> np.ndarray:
        _, large, small, harms = parts(e)
        return np.stack([large, _zeros(e)] + [small * y for y, _ in harms],
                        axis=-1)

    def grad4(e: Event) -> np.ndarray:
        r, large, small, harms = parts(e)
        out = _zeros(e, 4, 4)
        out[..., 0, :3] = (_col((s - 1.0) / r - lam) * e.spatial / _col(r)
                           * _col(large))
        out[..., 0, 3] = g4 * large
        lh = (s - 2.0) / r - lam  # H'/H
        for k, (y, dy) in enumerate(harms, 2):
            out[..., k, :3] = _col(small) * (dy + _col(y * lh) * e.spatial
                                             / _col(r))
            out[..., k, 3] = g4 * small * y
        return out

    def laplace4(e: Event) -> np.ndarray:
        r, large, small, harms = parts(e)
        k_large, k_small = (a / r ** 2 - 2.0 * lam * s / r + lam ** 2 + g4 ** 2
                            for a in (s * (s - 1.0), (s - 2.0) * (s + 1.0)))
        return np.stack([k_large * large, _zeros(e)]
                        + [k_small * small * y for y, _ in harms], axis=-1)

    return SpinorWave(
        f"dirac-coulomb-1s za={z_alpha:g}", psi, grad4, laplace4, None, E,
        {"z_alpha": z_alpha, "s": s, "lambda": lam, "ratio": ratio,
         "energy": E})


# ---------------------------------------------------------------------------
# smooth non-solution fields for operator-identity checks
# ---------------------------------------------------------------------------

def gaussian_polynomial_wave(linear, center, widths,
                             constants: PhysicalConstants = NATURAL_UNITS,
                             label: str = "gaussian-poly") -> ScalarWave:
    """(c0 + c.x) * exp(-sum a_i (x_i - b_i)^2) over all four coordinates.

    Not a solution of anything; a smooth field with exact derivatives for
    exercising operator identities off shell. Parameters with leading axes
    (linear (..., 5), center and widths (..., 4)) give one wave per
    parameter row, evaluated together: the values then carry those axes
    after the point axis, before any derivative axes.
    """
    lin = np.asarray(linear, dtype=complex)
    b = np.asarray(center, dtype=float)
    a = np.asarray(widths, dtype=float)
    if (lin.shape[-1:] != (5,) or b.shape != lin.shape[:-1] + (4,)
            or a.shape != b.shape):
        raise ParameterError("need 5 linear coeffs, 4 centers, 4 widths")
    if np.any(a <= 0):
        raise ParameterError("widths must be positive")
    return _one_member(_gaussian_polynomial_members(
        lin[None], b[None], a[None], constants.c, label))


def _gaussian_polynomial_members(lin, b, a, c: float,
                                 label: str) -> ScalarWave:
    """gaussian_polynomial_wave of parameters whose first axis pairs with the
    points: member j of M takes the j-th of M equal, contiguous blocks of
    rows (so of every base-major stencil), and K % M != 0 is refused. Sums
    over the coordinates are written out in np.sum's order (README)."""
    params = {"center": tuple(b.tolist()), "widths": tuple(a.tolist())}
    # [coordinate, member, parameter axes, row]: rows contiguous, innermost
    fold = np.reshape([1, 1, 1, 1 / (1j * c)], (4,) + (1,) * lin.ndim)
    lin0 = lin[..., :1] + 0.0   # np.sum's 0.0 start: (lin0 + 0.0) + s
    lin1, b, a = (np.moveaxis(v, -1, 0)[..., None]
                  for v in (lin[..., 1:], b, a))
    param_axes = (slice(None),) * 2 + (None,) * (lin.ndim - 2)

    def parts(e: Event):   # also the map from member blocks to the points
        x = e.as_array()   # one Event is one row
        g = _member_blocks(x.reshape(-1, 4), len(lin)).transpose(
            2, 0, 1).copy()[param_axes]
        poly = lin0 + ((lin1[0] * g[0] + lin1[1] * g[1])
                       + (lin1[2] * g[2] + lin1[3] * g[3]))
        d = g - b
        q = a * d
        q *= d   # (a * d) * d in one array
        gauss = np.exp(-(((q[0] + q[1]) + q[2]) + q[3]))

        def shaped(v, n=0):   # v is [n derivative axes, member, params, row]
            return v.transpose(n, -1, *range(n + 1, v.ndim - 1), *range(
                n)).reshape(x.shape[:-1] + v.shape[n + 1:-1] + v.shape[:n])[()]
        return d, poly, gauss, shaped

    def psi(e: Event) -> complex:
        _, poly, gauss, shaped = parts(e)
        return shaped(poly * gauss)

    def grad4(e: Event) -> np.ndarray:
        d, poly, gauss, shaped = parts(e)
        raw = (lin1 - 2.0 * a * d * poly) * gauss  # d/dx_i
        return shaped(raw * fold, 1)

    def laplace4(e: Event) -> complex:
        d, poly, gauss, shaped = parts(e)
        raw = (-2.0 * a * d * lin1 * 2.0
               + poly * (4.0 * a ** 2 * d * d - 2.0 * a)) * gauss
        # slot 3 is a plain t-derivative; fold^2 = -1/c^2 for that slot
        return shaped(((0.0 + raw[0]) + raw[1]) + raw[2] - raw[3] / c ** 2)

    def hess4(e: Event) -> np.ndarray:
        d, poly, gauss, shaped = parts(e)
        ad = a * d
        raw = (-2.0 * (a[:, None] * np.eye(4).reshape((4,) + fold.shape))
               * poly - 2.0 * (ad[:, None] * lin1) - 2.0 * (lin1[:, None] * ad)
               + 4.0 * (ad[:, None] * ad) * poly) * gauss
        return shaped(raw * (fold[:, None] * fold), 2)

    return ScalarWave(label=label, psi=psi, grad4=grad4, laplace4=laplace4,
                      hess4=hess4, params=params)


def _one_member(wave: ScalarWave) -> ScalarWave:
    """A one-member wave, its params without the member axis."""
    return replace(wave, params={k: tuple(v[0]) for k, v in wave.params.items()})


# (low, high) of the uniform slots of a random spinor component: magnitude,
# phase, 4 real and 4 imaginary linear coefficients, 4 centers, 4 widths
_SPINOR_LOW, _SPINOR_HIGH = np.repeat([[0.5, 0.0, -0.3, -0.3, -0.5, 0.1],
                                       [1.5, 2 * math.pi, 0.3, 0.3, 0.5, 0.4]],
                                      [1, 1, 4, 4, 4, 4], axis=1)
_SPINOR_DRAW = (4, 18)   # one random spinor's uniform [0, 1) numbers


def random_spinor_family(draws,
                         constants: PhysicalConstants = NATURAL_UNITS) -> SpinorWave:
    """Non-solution spinors paired with the points, one member per (4, 18)
    uniform draw, scaled per slot as rng.uniform scales it: four
    gaussian-polynomial components with O(1) constant terms, so no zero near
    the ball."""
    u = _SPINOR_LOW + (_SPINOR_HIGH - _SPINOR_LOW) * np.reshape(
        draws, (-1,) + _SPINOR_DRAW)   # one (4, 18) draw is one member
    lin = np.concatenate([u[..., :1] * np.exp(1j * u[..., 1:2]),
                          u[..., 2:6] + 1j * u[..., 6:10]], axis=-1)
    return SpinorWave(**vars(_gaussian_polynomial_members(
        lin, u[..., 10:14], u[..., 14:], constants.c, "random-smooth-spinor")))


def random_smooth_spinor(rng: np.random.Generator,
                         constants: PhysicalConstants = NATURAL_UNITS) -> SpinorWave:
    """The one-member random_spinor_family of one rng.random((4, 18)) draw."""
    return _one_member(random_spinor_family(rng.random(_SPINOR_DRAW), constants))
