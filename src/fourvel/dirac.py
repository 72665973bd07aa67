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

The spinor residuals take one Event or a (K, 4) EventArray and normalize
each point by its own largest component magnitude. Like the scalar ones,
each is one read of velocityfield's residual chain, which takes a spinor's
gradient once, analytically or by one stencil, for all of its checks, and
also the outer stencil of dirac_to_kg_check; every stencil of the chain
puts the component axis before mu.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core4 import (ANALYTIC, DEFAULT_EPS_PSI, DerivativeMethod, Event,
                    NATURAL_UNITS, PhysicalConstants, _col)
from .errors import ParameterError, UnsupportedConfigurationError
from .fields import zero_potential
from .velocityfield import _Chain, _normalized
from .wavefunctions import _SIGMA, SpinorWave

_Z2 = np.zeros((2, 2), dtype=complex)


@dataclass(frozen=True)
class GammaSet:
    representation: str
    alphas: tuple       # three 4x4 matrices
    beta: np.ndarray
    gammas: tuple       # four 4x4 matrices, gammas[3] = beta


def gamma_matrices() -> GammaSet:
    alphas = tuple(
        np.block([[_Z2, s], [s, _Z2]]) for s in _SIGMA
    )
    beta = np.diag([1, 1, -1, -1]).astype(complex)
    gammas = tuple(-1j * beta @ a for a in alphas) + (beta,)
    return GammaSet("dirac-standard", alphas, beta, gammas)


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


def form_relation_matrix(
        constants: PhysicalConstants = NATURAL_UNITS) -> np.ndarray:
    """M with residual_gamma = M @ residual_alphabeta; M = -(i/c) beta."""
    return -(1j / constants.c) * _STANDARD.beta


def dirac_residual(spinor: SpinorWave, a_field, e: Event,
                   method: DerivativeMethod = ANALYTIC, form: str = "gamma", *,
                   constants: PhysicalConstants = NATURAL_UNITS) -> np.ndarray:
    """First-order equation residual at e, normalized at each point by
    that point's largest component magnitude. form selects the matrix
    layout; see module notes for the fixed linear map between the two."""
    if form not in ("gamma", "alphabeta"):
        raise ParameterError(f"unknown form {form!r}")
    chain = _Chain(spinor, a_field, e, method, constants)
    return chain.residual_gamma if form == "gamma" else chain.residual_alphabeta


def spinor_velocity_consistency(spinor: SpinorWave, a_field, e: Event,
                                method: DerivativeMethod = ANALYTIC, *,
                                constants: PhysicalConstants = NATURAL_UNITS):
    """Extract u independently from every component with |psi_k| above
    threshold, all four at once, and report the worst pairwise
    componentwise deviation.

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
    return _Chain(spinor, a_field, e, method, constants).velocity_consistency


def kg_operator_on_spinor(
        spinor: SpinorWave, e: Event, *,
        constants: PhysicalConstants = NATURAL_UNITS) -> np.ndarray:
    """Free second-order operator (-hbar^2 d.d + m^2 c^2) applied
    componentwise from analytic laplacians, normalized like dirac_residual."""
    hbar, m, c = constants.hbar, constants.m, constants.c
    values = spinor.values(e)
    return _normalized(-hbar ** 2 * spinor.laplace4(e)
                       + (m * c) ** 2 * values, values, e, DEFAULT_EPS_PSI)


def dirac_to_kg_check(
        spinor: SpinorWave, a_field, e: Event,
        method: DerivativeMethod = ANALYTIC, *,
        constants: PhysicalConstants = NATURAL_UNITS) -> np.ndarray:
    """Apply (gamma.(-i hbar d) + i m c) to (gamma.(-i hbar d) - i m c) Psi.

    Free fields only (the squared operator with a potential picks up field
    terms this toolkit does not model). The inner first-order operator is
    a chain's raw_gamma at the points asked for; the outer derivative is
    that chain's central stencil (with the method's step and Richardson
    setting) over raw_gamma on the stencil points, so it can be compared
    against kg_operator_on_spinor as an independent evaluation. Output
    normalized at each point by that point's largest component magnitude.
    """
    if a_field is not None and a_field.kind != "zero":
        raise UnsupportedConfigurationError(
            "squared-operator check supports only A = 0")
    hbar, m, c = constants.hbar, constants.m, constants.c
    chain = _Chain(spinor, zero_potential(), e, method, constants)
    # outer pass: gamma.(-i hbar d) + i m c on the intermediate field
    d = chain.stencil("raw_gamma")  # [..., k, mu]
    out = sum((-1j * hbar * d[..., mu] @ _STANDARD.gammas[mu].T
               for mu in range(4)), 1j * m * c * chain.raw_gamma)
    return _normalized(out, chain.value, e, DEFAULT_EPS_PSI)
