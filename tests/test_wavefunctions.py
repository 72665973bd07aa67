"""Fixture catalog checks.

Every closed-form evaluator is cross-examined two ways: against an
independent hand-derived oracle (dispersion relations, radial equations
with finite-difference derivatives, eigenvalue identities) and against
direct central differences of the psi evaluator itself.
"""
import math

import numpy as np
import pytest

from fourvel import (Event, NATURAL_UNITS, ParameterError, PhysicalConstants,
                     dirac_coulomb_1s, dirac_plane_wave,
                     gaussian_polynomial_wave, kg_coulomb_1s, plane_wave,
                     random_smooth_spinor)
from fourvel.core4 import grad4_numeric, laplace4_numeric

def _stencil_d(fn, e, axis, h=1e-3):
    # 4th order first derivative of a scalar closure along one coordinate
    vals = [fn(e.shifted(axis, k * h)) for k in (-2, -1, 1, 2)]
    return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)


def _stencil_d2(fn, e, axis, h=1e-3):
    vals = [fn(e.shifted(axis, k * h)) for k in (-2, -1, 0, 1, 2)]
    return (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3]
            - vals[4]) / (12 * h * h)


# ---------------------------------------------------------------------------
# free plane wave
# ---------------------------------------------------------------------------

def test_plane_wave_modulus_is_one():
    wave = plane_wave((0.3, -0.2, 0.1))
    rng = np.random.default_rng(3)
    for _ in range(50):
        e = Event(*rng.uniform(-5, 5, 4))
        assert abs(wave(e)) == pytest.approx(1.0, abs=1e-15)


def test_plane_wave_positive_energy_dispersion():
    consts = PhysicalConstants(hbar=2.0, c=3.0, m=0.5)
    p = np.array([0.4, -0.8, 1.1])
    wave = plane_wave(p, consts)
    e_expected = math.sqrt(np.dot(p, p) * consts.c ** 2
                           + (consts.m * consts.c ** 2) ** 2)
    assert wave.energy == pytest.approx(e_expected)


def test_plane_wave_dlog_vector():
    consts = NATURAL_UNITS
    p = np.array([1.0, 0.0, 0.0])
    wave = plane_wave(p, consts)
    e = Event(0.7, 0.2, -0.4, 1.3)
    g = wave.grad4(e) / wave(e)
    assert g[0] == pytest.approx(1j * p[0] / consts.hbar)
    assert g[3] == pytest.approx(-wave.energy / (consts.hbar * consts.c))


def test_plane_wave_laplacian_equals_mass_term():
    # on shell: lap4 psi = (m c / hbar)^2 psi
    consts = PhysicalConstants(hbar=1.5, c=2.0, m=0.7)
    wave = plane_wave((0.2, 0.5, -0.1), consts)
    e = Event(0.4, -0.1, 0.9, 0.3)
    ratio = wave.laplace4(e) / wave(e)
    assert ratio == pytest.approx((consts.m * consts.c / consts.hbar) ** 2,
                                  abs=1e-13)


def test_plane_wave_analytic_derivatives_match_stencils():
    consts = NATURAL_UNITS
    wave = plane_wave((0.6, -0.3, 0.2), consts)
    rng = np.random.default_rng(5)
    for _ in range(10):
        e = Event(*rng.uniform(-2, 2, 4))
        g_num = grad4_numeric(wave, e, 1e-3, consts.c)
        np.testing.assert_allclose(g_num, wave.grad4(e), atol=1e-9)
        lap_num = laplace4_numeric(wave, e, 1e-3, consts.c)
        assert abs(lap_num - wave.laplace4(e)) < 1e-8


def test_plane_wave_hessian_trace_consistency():
    wave = plane_wave((0.3, 0.1, -0.5))
    e = Event(1.0, 0.2, 0.0, -0.7)
    h = wave.hess4(e)
    np.testing.assert_allclose(h, h.T, atol=0.0)
    assert np.trace(h) == pytest.approx(wave.laplace4(e), abs=1e-14)


# ---------------------------------------------------------------------------
# Klein-Gordon Coulomb ground state
# ---------------------------------------------------------------------------

def test_kg_coulomb_radial_equation_oracle():
    # independent check: with R(r) the radial factor, the stationary wave
    # solves R''/R + (2/r) R'/R = (m c/hbar)^2 - E^2/(hbar c)^2
    #   - 2 E za / (hbar c r) - za^2 / r^2, derivatives taken by stencils
    za = 0.4
    consts = NATURAL_UNITS
    wave = kg_coulomb_1s(za, consts)
    e_level = wave.energy
    hbar, c, m = consts.hbar, consts.c, consts.m

    def radial(ev):
        # on the positive x1 axis, x1 plays the role of r
        return abs(wave(ev))

    for r in (0.6, 1.0, 2.2, 4.0):
        ev = Event(r, 0.0, 0.0, 0.0)
        d1 = _stencil_d(radial, ev, 0, h=1e-3)
        d2 = _stencil_d2(radial, ev, 0, h=1e-3)
        lhs = d2 / radial(ev) + (2.0 / r) * d1 / radial(ev)
        rhs = ((m * c / hbar) ** 2 - (e_level / (hbar * c)) ** 2
               - 2.0 * e_level * za / (hbar * c * r) - za ** 2 / r ** 2)
        assert lhs == pytest.approx(rhs, abs=1e-6)


def test_kg_coulomb_energy_level():
    # E = m c^2 / sqrt(1 + (za/gamma)^2), gamma = (1 + sqrt(1 - 4 za^2))/2
    za = 0.4
    wave = kg_coulomb_1s(za, NATURAL_UNITS)
    gamma = 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * za * za))
    assert wave.energy == pytest.approx(1.0 / math.sqrt(1.0 + (za / gamma) ** 2))


def test_kg_coulomb_detuned_energy_breaks_the_radial_equation():
    za = 0.4
    consts = NATURAL_UNITS
    wave = kg_coulomb_1s(za, consts, energy_scale=1.01)
    e_level = wave.energy

    def radial(ev):
        return abs(wave(ev))

    r = 1.0
    ev = Event(r, 0.0, 0.0, 0.0)
    d1 = _stencil_d(radial, ev, 0)
    d2 = _stencil_d2(radial, ev, 0)
    lhs = d2 / radial(ev) + (2.0 / r) * d1 / radial(ev)
    rhs = (1.0 - e_level ** 2 - 2.0 * e_level * za / r - za ** 2 / r ** 2)
    # the decay rate is re-derived from the detuned energy, so only the
    # constant term of the radial identity survives detuning
    assert abs(lhs - rhs) > 1e-3


def test_kg_coulomb_derivatives_match_stencils():
    wave = kg_coulomb_1s(0.4, NATURAL_UNITS)
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = rng.uniform(-2, 2, 3)
        if np.linalg.norm(x) < 0.5:
            continue
        e = Event(x[0], x[1], x[2], rng.uniform(-1, 1))
        g_num = grad4_numeric(wave, e, 1e-3, 1.0)
        np.testing.assert_allclose(g_num, wave.grad4(e), atol=1e-7)
        lap_num = laplace4_numeric(wave, e, 1e-3, 1.0)
        assert abs(lap_num - wave.laplace4(e)) < 1e-5
        h = wave.hess4(e)
        np.testing.assert_allclose(h, h.T, atol=1e-14)
        assert np.trace(h) == pytest.approx(wave.laplace4(e), abs=1e-12)


def test_kg_coulomb_rejects_strong_coupling():
    with pytest.raises(ParameterError):
        kg_coulomb_1s(0.51, NATURAL_UNITS)


# ---------------------------------------------------------------------------
# Dirac plane wave
# ---------------------------------------------------------------------------

def _dirac_matrices():
    zero = np.zeros((2, 2), dtype=complex)
    eye = np.eye(2, dtype=complex)
    sig = (np.array([[0, 1], [1, 0]], dtype=complex),
           np.array([[0, -1j], [1j, 0]], dtype=complex),
           np.array([[1, 0], [0, -1]], dtype=complex))
    alphas = [np.block([[zero, s], [s, zero]]) for s in sig]
    beta = np.block([[eye, zero], [zero, -eye]])
    return alphas, beta


def test_dirac_plane_wave_is_a_hamiltonian_eigenvector():
    # (c alpha.p + beta m c^2) w = E w, a pure matrix identity independent
    # of any derivative machinery
    consts = PhysicalConstants(hbar=1.0, c=2.0, m=0.8)
    alphas, beta = _dirac_matrices()
    for p in ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, -0.2, 0.1]):
        for spin in ("up", "down"):
            spinor = dirac_plane_wave(p, spin, consts)
            w = spinor.values(Event(0, 0, 0, 0))
            h_mat = (consts.c * sum(pi * a for pi, a in zip(p, alphas))
                     + beta * consts.m * consts.c ** 2)
            np.testing.assert_allclose(h_mat @ w, spinor.energy * w,
                                       atol=1e-13)


def test_dirac_plane_wave_component_gradients():
    consts = NATURAL_UNITS
    spinor = dirac_plane_wave((0.3, -0.2, 0.1), "up", consts)
    rng = np.random.default_rng(13)
    for _ in range(5):
        e = Event(*rng.uniform(-1, 1, 4))
        # the stencil of the whole spinor is [mu, k]
        g_num = grad4_numeric(spinor, e, 1e-3, consts.c)
        np.testing.assert_allclose(g_num.T, spinor.grad4(e), atol=1e-9)


def test_spinor_laplacians_are_the_trace_of_their_hessians():
    e = Event(0.1, -0.2, 0.3, 0.05)
    for spinor in (dirac_plane_wave((0.3, -0.2, 0.1), "down", NATURAL_UNITS),
                   random_smooth_spinor(np.random.default_rng(4),
                                        NATURAL_UNITS)):
        hess = spinor.hess4(e)
        assert hess.shape == (4, 4, 4)   # [k, mu, nu]
        np.testing.assert_allclose(np.trace(hess, axis1=-2, axis2=-1),
                                   spinor.laplace4(e), atol=1e-12)


def test_dirac_plane_wave_rejects_unknown_spin():
    with pytest.raises(ParameterError):
        dirac_plane_wave((0, 0, 0), "sideways", NATURAL_UNITS)


# ---------------------------------------------------------------------------
# Dirac Coulomb ground state
# ---------------------------------------------------------------------------

def test_dirac_coulomb_solves_the_hamiltonian_pointwise():
    # independent oracle: apply H = -i hbar c alpha.grad + beta m c^2
    #   - za hbar c / r with stencil spatial derivatives of the component
    # closures and compare against E psi
    za = 0.4
    consts = NATURAL_UNITS
    spinor = dirac_coulomb_1s(za, consts)
    e_level = spinor.energy
    assert e_level == pytest.approx(math.sqrt(1.0 - za * za))

    alphas, beta = _dirac_matrices()
    hbar, c, m = consts.hbar, consts.c, consts.m

    for ev in (Event(0.8, 0.0, 0.0, 0.0), Event(0.5, -0.6, 0.4, 0.3),
               Event(-1.2, 0.9, 1.5, -0.2)):
        psi = spinor.values(ev)
        grad_sp = np.array([_stencil_d(spinor, ev, axis)
                            for axis in range(3)]).T   # [k, n]
        h_psi = (-1j * hbar * c * sum(alphas[n] @ grad_sp[:, n]
                                      for n in range(3))
                 + beta @ psi * m * c ** 2
                 - za * hbar * c / ev.r * psi)
        np.testing.assert_allclose(h_psi, e_level * psi, atol=1e-7)


def test_dirac_coulomb_energy_override_detunes_the_solution():
    za = 0.4
    consts = NATURAL_UNITS
    nominal = math.sqrt(1.0 - za * za)
    spinor = dirac_coulomb_1s(za, consts, energy=0.88)
    assert spinor.energy == pytest.approx(0.88)

    alphas, beta = _dirac_matrices()
    ev = Event(1.0, 0.0, 0.0, 0.0)
    psi = spinor.values(ev)
    grad_sp = np.array([_stencil_d(spinor, ev, axis) for axis in range(3)]).T
    h_psi = (-1j * sum(alphas[n] @ grad_sp[:, n] for n in range(3))
             + beta @ psi - za / ev.r * psi)
    assert np.max(np.abs(h_psi - spinor.energy * psi)) > 1e-3
    assert abs(0.88 - nominal) > 0.03


def test_dirac_coulomb_component_gradients_match_stencils():
    spinor = dirac_coulomb_1s(0.4, NATURAL_UNITS)
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = rng.uniform(0.5, 1.5, 3) * rng.choice([-1.0, 1.0], 3)
        ev = Event(x[0], x[1], x[2], rng.uniform(-1, 1))
        g_num = grad4_numeric(spinor, ev, 1e-3, 1.0)
        np.testing.assert_allclose(g_num.T, spinor.grad4(ev), atol=1e-6)


def test_dirac_coulomb_coupling_range():
    with pytest.raises(ParameterError):
        dirac_coulomb_1s(1.0, NATURAL_UNITS)
    with pytest.raises(ParameterError):
        dirac_coulomb_1s(-0.1, NATURAL_UNITS)


# ---------------------------------------------------------------------------
# synthetic smooth fields
# ---------------------------------------------------------------------------

def test_gaussian_polynomial_wave_derivatives():
    consts = NATURAL_UNITS
    wave = gaussian_polynomial_wave(
        linear=(0.3, -0.2, 0.1, 0.4, 0.2j), center=(0.1, 0.0, -0.2, 0.3),
        widths=(0.2, 0.3, 0.25, 0.15), constants=consts)
    rng = np.random.default_rng(23)
    for _ in range(8):
        e = Event(*rng.uniform(-0.4, 0.4, 4))
        g_num = grad4_numeric(wave, e, 1e-3, consts.c)
        np.testing.assert_allclose(g_num, wave.grad4(e), atol=1e-7)
        lap_num = laplace4_numeric(wave, e, 1e-3, consts.c)
        assert abs(lap_num - wave.laplace4(e)) < 1e-5


def test_random_smooth_spinor_is_reproducible_and_consistent():
    s1 = random_smooth_spinor(np.random.default_rng(42), NATURAL_UNITS)
    s2 = random_smooth_spinor(np.random.default_rng(42), NATURAL_UNITS)
    e = Event(0.1, -0.2, 0.3, 0.05)
    np.testing.assert_array_equal(s1.values(e), s2.values(e))
    g_num = grad4_numeric(s1, e, 1e-3, 1.0)
    np.testing.assert_allclose(g_num.T, s1.grad4(e), atol=1e-7)
