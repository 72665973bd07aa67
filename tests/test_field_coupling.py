"""The terms that couple a wave to its potential, where they can fail.

A pure gauge A = d chi of a degree-2 chi has d.A != 0, so the Klein-Gordon
and Newton residuals of a gauge-transformed plane wave, and the divergence
identity with its q d.A term, each depend on the sign of a coupling term.
The Newton field identity raw_newton = 1/2 d(u.u) holds for every wave and
every potential, since the canonical momentum is a gradient; it is checked
on the Coulomb bound state, where F != 0, against a stencil written here.
"""
import numpy as np
import pytest

from fourvel import (ANALYTIC, EventArray, NATURAL_UNITS, PhysicalConstants,
                     central, contract, coulomb_potential, divergence_mu,
                     extract_u, gauge_transform, kg_coulomb_1s, kg_residual,
                     newton_residual, plane_wave, polynomial_gauge,
                     zero_potential)
from fourvel.velocityfield import _Chain

# NATURAL_UNITS and tools/report_hashes.py's UNITS, where c, hbar and q
# show in every term
UNITS = {"natural": NATURAL_UNITS,
         "units": PhysicalConstants(hbar=1.3, c=1.7, m=0.8, q=-0.6)}
METHODS = {"analytic": ANALYTIC, "central": central()}
# plane-wave's tolerances: the gauged wave solves the same equations
TOLERANCES = {"analytic": 1e-12, "central": 1e-6}


def _gauged(consts):
    """A plane wave moved by chi = 0.2 x1^2 + 0.3 x1 x2 - 0.1 x3 t, whose
    d.A = box chi = 0.4 at every point."""
    chi = polynomial_gauge({(2, 0, 0, 0): 0.2, (1, 1, 0, 0): 0.3,
                            (0, 0, 1, 1): -0.1}, consts.c)
    return gauge_transform(zero_potential(), plane_wave((0.6, -0.3, 0.2),
                                                        consts), chi, consts)


@pytest.mark.parametrize("units", UNITS)
@pytest.mark.parametrize("mode", METHODS)
def test_the_coupling_terms_are_gauge_covariant(units, mode):
    consts, method, tol = UNITS[units], METHODS[mode], TOLERANCES[mode]
    a, wave = _gauged(consts)
    points = EventArray(np.random.default_rng(4).uniform(-1, 1, (20, 4)))
    kw = {"constants": consts}
    div = divergence_mu(wave, a, points, method, **kw)
    np.testing.assert_allclose(div.lorenz_residual, 0.4, atol=1e-6)
    assert np.max(np.abs(kg_residual(wave, a, points, method, **kw))) <= tol
    assert np.max(np.abs(newton_residual(wave, a, points, method,
                                         **kw))) <= tol
    # the divergence identity outside Lorenz gauge
    gap = div.value - (div.independent - consts.q * div.lorenz_residual)
    assert np.max(np.abs(gap)) <= tol


def _half_gradient_of_u_squared(wave, a, points, consts, h=1e-4):
    """1/2 d_mu (u.u) from analytic u by the 4th-order central stencil
    (-f(2h) + 8 f(h) - 8 f(-h) + f(-2h)) / 12h; slot 3 is d_t / (i c)."""
    def uu(shifted):
        u = extract_u(wave, a, EventArray(shifted), ANALYTIC,
                      constants=consts)
        return contract(u, u)

    out = np.empty((len(points), 4), dtype=complex)
    for mu in range(4):
        step = np.eye(4)[mu] * h
        out[:, mu] = (-uu(points + 2 * step) + 8 * uu(points + step)
                      - 8 * uu(points - step) + uu(points - 2 * step)) / (
                          12 * h)
    out[:, 3] /= 1j * consts.c
    return 0.5 * out


@pytest.mark.parametrize("units", UNITS)
@pytest.mark.parametrize("mode", METHODS)
def test_newton_is_half_the_gradient_of_u_squared(units, mode):
    consts = UNITS[units]
    wave = kg_coulomb_1s(0.4, consts)
    a = coulomb_potential(0.4, consts)
    rng = np.random.default_rng(6)
    direction = rng.normal(size=(12, 3))
    radius = rng.uniform(0.5, 1.5, (12, 1))
    points = np.column_stack([
        radius * direction / np.linalg.norm(direction, axis=1, keepdims=True),
        rng.uniform(-1, 1, 12)])
    raw = _Chain(wave, a, EventArray(points), METHODS[mode], consts).raw_newton
    want = _half_gradient_of_u_squared(wave, a, points, consts)
    assert np.min(np.max(np.abs(raw), axis=1)) > 0.05   # not 0 = 0 here
    assert np.max(np.abs(raw - want)) <= 1e-8
