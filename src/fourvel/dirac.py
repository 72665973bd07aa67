"""Clifford algebra construction and spinor-equation residuals.

The 4x4 matrix set is the standard representation: alpha_n off-diagonal
Pauli blocks, beta = diag(1, 1, -1, -1), gamma_n = -i beta alpha_n,
gamma_4 = beta. All entries are exactly 0, +-1, or +-i, so the
anticommutator check is exact integer arithmetic in floating point.

The first-order equation comes in two equivalent layouts: the compact
"gamma" form gamma_mu (-i hbar d_mu - q A_mu) Psi - i m c Psi, and the
Hamiltonian-style "alphabeta" form
i c (-i hbar d_4 - q A_4) Psi + c alpha_n (-i hbar d_n - q A_n) Psi
+ beta m c^2 Psi. Left-multiplying the gamma form by i c beta gives the
alphabeta form, so residual_gamma = M residual_alphabeta with the constant
invertible matrix M = -(i/c) beta exposed as form_relation_matrix().

The spinor residuals take one Event or a (K, 4) EventArray, like the scalar
ones in velocityfield; each point is normalized by its own largest
component magnitude. A SpinorWave evaluates all four components in one
call, so each derivative a residual needs is one analytic call or one
stencil over the spinor's values, never a loop over components.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core4 import (ANALYTIC, DEFAULT_EPS_PSI, DerivativeMethod, Event,
                    NATURAL_UNITS, PhysicalConstants, _col,
                    _first, _require_nonzero, grad4_numeric)
from .errors import (InsufficientComponentsError, ParameterError,
                     UnsupportedConfigurationError)
from .wavefunctions import _SIGMA, SpinorWave

_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)


@dataclass(frozen=True)
class GammaSet:
    representation: str
    alphas: tuple       # three 4x4 matrices
    beta: np.ndarray
    gammas: tuple       # four 4x4 matrices, gammas[3] = beta


def gamma_matrices(representation: str = "dirac-standard") -> GammaSet:
    if representation != "dirac-standard":
        raise ParameterError(f"unknown representation {representation!r}")
    alphas = tuple(
        np.block([[_Z2, s], [s, _Z2]]) for s in _SIGMA
    )
    beta = np.diag([1, 1, -1, -1]).astype(complex)
    gammas = tuple(-1j * beta @ a for a in alphas) + (beta,)
    return GammaSet(representation, alphas, beta, gammas)


def _read_only(g: GammaSet) -> GammaSet:
    for mat in g.alphas + g.gammas + (g.beta,):
        mat.flags.writeable = False
    return g


# default matrix set of the residuals, built once
_STANDARD = _read_only(gamma_matrices())


def clifford_residual(g: GammaSet) -> float:
    """Largest entry of gamma_mu gamma_nu + gamma_nu gamma_mu - 2 delta I
    over all index pairs; exactly zero for a true representation."""
    gammas = np.array(g.gammas)
    prod = gammas[:, None] @ gammas[None, :]   # [mu, nu]: gamma_mu gamma_nu
    target = 2.0 * np.eye(4)[:, :, None, None] * np.eye(4)
    return float(np.max(np.abs(prod + np.swapaxes(prod, 0, 1) - target)))


def gamma_dot(g: GammaSet, p) -> np.ndarray:
    """gamma_mu p_mu for one 4-vector, or one matrix per row of an (N, 4)
    stack."""
    p = np.asarray(p, dtype=complex)
    if p.ndim not in (1, 2) or p.shape[-1] != 4:
        raise ParameterError(
            "gamma contraction needs a 4-vector or an (N, 4) stack")
    return sum(p[..., mu, None, None] * g.gammas[mu] for mu in range(4))


def factorization_residual(g: GammaSet, p,
                           constants: PhysicalConstants = NATURAL_UNITS):
    """Entrywise deviation of (gamma.P + i m c)(gamma.P - i m c) from
    (P.P + m^2 c^2) I; zero whenever the anticommutators close. A float
    for one 4-vector, one value per row for an (N, 4) stack."""
    mc = constants.m * constants.c
    gp = gamma_dot(g, p)
    eye = np.eye(4, dtype=complex)
    product = (gp + 1j * mc * eye) @ (gp - 1j * mc * eye)
    p = np.asarray(p, dtype=complex)
    scalar = np.sum(p * p, axis=-1) + mc ** 2
    out = np.max(np.abs(product - _col(scalar, 2) * eye), axis=(-2, -1))
    return float(out) if out.ndim == 0 else out


def form_relation_matrix(constants: PhysicalConstants = NATURAL_UNITS,
                         g: GammaSet | None = None) -> np.ndarray:
    """M with residual_gamma = M @ residual_alphabeta; M = -(i/c) beta."""
    g = g or _STANDARD
    return -(1j / constants.c) * g.beta


def _grads(spinor: SpinorWave, e, method: DerivativeMethod, c: float):
    """d_mu psi_k(e) as [..., k, mu]: the analytic evaluator, or in central
    mode one stencil over the values of all four components."""
    if method.mode == "analytic":
        return spinor.grad4(e)
    return np.swapaxes(grad4_numeric(spinor.values, e, method.h, c,
                                     method.richardson), -1, -2)


def _operator_values(spinor: SpinorWave, a, e, method: DerivativeMethod,
                     constants):
    """psi_k(e) and pop[..., mu, k] = (-i hbar d_mu - q A_mu) psi_k(e) for
    all k, mu, given the potential's values a at e. e is one Event or a
    (K, 4) batch."""
    values = spinor.values(e)
    pop = (-1j * constants.hbar * _grads(spinor, e, method, constants.c)
           - constants.q * (values[..., :, None] * a[..., None, :]))
    return values, np.swapaxes(pop, -1, -2)


def _apply(mat: np.ndarray, v) -> np.ndarray:
    """mat @ v for the spinor v of every point."""
    return v @ mat.T


def _gamma_form(g: GammaSet, pop, values, m: float, c: float):
    """gamma_mu pop_mu - i m c psi at one point or a batch of points."""
    return sum(_apply(g.gammas[mu], pop[..., mu, :]) for mu in range(4)) \
        - 1j * m * c * values


def _normalized(out, values, e, eps_psi: float):
    """out divided, point by point, by the largest |psi_k| there; raises
    NearZeroWavefunctionError at the first point where that is <= eps_psi."""
    scale = np.max(np.abs(values), axis=-1)
    _require_nonzero(scale, e, eps_psi)
    return out / _col(scale)


def dirac_residual(spinor: SpinorWave, a_field, e: Event,
                   method: DerivativeMethod = ANALYTIC, form: str = "gamma", *,
                   constants: PhysicalConstants = NATURAL_UNITS,
                   eps_psi: float = DEFAULT_EPS_PSI,
                   g: GammaSet | None = None) -> np.ndarray:
    """First-order equation residual at e, normalized at each point by
    that point's largest component magnitude. form selects the matrix
    layout; see module notes for the fixed linear map between the two."""
    if form not in ("gamma", "alphabeta"):
        raise ParameterError(f"unknown form {form!r}")
    g = g or _STANDARD
    m, c = constants.m, constants.c
    values, pop = _operator_values(spinor, a_field.a(e), e, method,
                                   constants)
    if form == "gamma":
        res = _gamma_form(g, pop, values, m, c)
    else:
        res = (1j * c * pop[..., 3, :]
               + c * sum(_apply(g.alphas[n], pop[..., n, :]) for n in range(3))
               + m * c ** 2 * _apply(g.beta, values))
    return _normalized(res, values, e, eps_psi)


def spinor_velocity_consistency(spinor: SpinorWave, a_field, e: Event,
                                method: DerivativeMethod = ANALYTIC, *,
                                constants: PhysicalConstants = NATURAL_UNITS,
                                eps_psi: float = DEFAULT_EPS_PSI):
    """Extract u independently from every component with |psi_k| above
    threshold and report the worst pairwise componentwise deviation. The
    formula of extract_u is applied to all four components at once, from
    one evaluation of the values and the gradients.

    Needs at least two admissible components at every point, and raises
    InsufficientComponentsError at the first point that has fewer. For
    exact plane waves all components share one phase and the deviation is
    at rounding level; for bound states the small components carry angular
    structure and the deviation is a real, finite number worth recording.

    Returns (per_component, deviation): (k, u) for every component that is
    admissible somewhere, and the worst deviation. For a (K, 4) batch u has
    one row per point (NaN where component k is below threshold) and the
    deviation is one value per point.
    """
    values = spinor.values(e)
    admissible = np.abs(values) > eps_psi
    counts = np.count_nonzero(admissible, axis=-1)
    first = _first(counts < 2, e)
    if first:
        k, where = first
        raise InsufficientComponentsError(
            f"only {np.ravel(counts)[k]} component(s) above threshold at "
            f"{where}")
    # extract_u of every component at once, dividing only where it is
    # admissible; the other entries are NaN
    dlog = (_grads(spinor, e, method, constants.c)
            / _col(np.where(admissible, values, 1.0)))
    u = (-1j * constants.hbar * dlog
         - constants.q * a_field.a(e)[..., None, :]) / constants.m
    u[~admissible] = np.nan
    # a component enters where it is admissible at every row (an empty
    # batch rules none out) or at some row
    rows = admissible.reshape(-1, 4)
    keep = np.all(rows, axis=0) | np.any(rows, axis=0)
    per_component = [(k, u[..., k, :]) for k in range(4) if keep[k]]
    # |u_i - u_j| over every pair of components; fmax skips the NaN pairs
    # of rows where one of the two is below threshold
    us = np.stack([u for _, u in per_component], axis=-2)
    pairs = np.abs(us[..., :, None, :] - us[..., None, :, :])
    deviation = np.fmax.reduce(pairs, axis=(-3, -2, -1))
    return per_component, deviation


def kg_operator_on_spinor(spinor: SpinorWave, e: Event, *,
                          constants: PhysicalConstants = NATURAL_UNITS,
                          eps_psi: float = DEFAULT_EPS_PSI) -> np.ndarray:
    """Free second-order operator (-hbar^2 d.d + m^2 c^2) applied
    componentwise from analytic laplacians, normalized like dirac_residual."""
    hbar, m, c = constants.hbar, constants.m, constants.c
    values = spinor.values(e)
    return _normalized(-hbar ** 2 * spinor.laplace4(e)
                       + (m * c) ** 2 * values, values, e, eps_psi)


def dirac_to_kg_check(spinor: SpinorWave, a_field, e: Event,
                      method: DerivativeMethod = ANALYTIC, *,
                      constants: PhysicalConstants = NATURAL_UNITS,
                      eps_psi: float = DEFAULT_EPS_PSI,
                      g: GammaSet | None = None) -> np.ndarray:
    """Apply (gamma.(-i hbar d) + i m c) to (gamma.(-i hbar d) - i m c) Psi.

    Free fields only (the squared operator with a potential picks up field
    terms this toolkit does not model). The inner first-order operator uses
    the component gradients directly; the outer derivative is taken by
    central stencils (with the method's step and Richardson setting) over
    that intermediate field, so the result can be compared against
    kg_operator_on_spinor as an independent evaluation. Output normalized
    at each point by that point's largest component magnitude.
    """
    if a_field is not None and a_field.kind != "zero":
        raise UnsupportedConfigurationError(
            "squared-operator check supports only A = 0")
    g = g or _STANDARD
    hbar, m, c = constants.hbar, constants.m, constants.c

    def first_order(points) -> np.ndarray:
        values, pop = _operator_values(spinor, np.zeros(4), points, method,
                                       constants)
        return _gamma_form(g, pop, values, m, c)

    # outer pass: gamma.(-i hbar d) + i m c on the intermediate field
    d = grad4_numeric(first_order, e, method.h, c, method.richardson)
    out = sum((_apply(g.gammas[mu], -1j * hbar * d[..., mu, :])
               for mu in range(4)), 1j * m * c * first_order(e))
    return _normalized(out, spinor.values(e), e, eps_psi)
