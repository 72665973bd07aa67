"""Kinematics layer: events, contractions, boosts, derivative operators."""
import math

import numpy as np
import pytest

from fourvel import (DerivativeMethod, Event, InvalidBoostError,
                     ParameterError, PhysicalConstants, boost_x1, central,
                     contract, field_strength, four_displacement,
                     four_vector, polynomial_gauge, pure_gauge_potential,
                     zero_potential)
from fourvel.core4 import grad4_numeric, laplace4_numeric


def test_event_accessors():
    e = Event(1.0, 2.0, -3.0, 0.5)
    np.testing.assert_array_equal(e.spatial, [1.0, 2.0, -3.0])
    assert e.r == pytest.approx(math.sqrt(14.0))
    np.testing.assert_array_equal(e.as_array(), [1.0, 2.0, -3.0, 0.5])
    shifted = e.shifted(3, 0.25)
    assert shifted.t == 0.75 and shifted.x1 == 1.0


def test_event_rejects_non_finite_coordinates():
    with pytest.raises(ParameterError):
        Event(math.nan, 0.0, 0.0, 0.0)


def test_four_vector_and_displacement_time_slot():
    v = four_vector(1.0, 0.0, 0.0, 1j * 3.0 * 2.0)
    assert v[3] == pytest.approx(6.0j)
    d = four_displacement(Event(0, 0, 0, 0), Event(1, 0, 0, 2.0), c=3.0)
    assert d[3] == pytest.approx(6.0j)
    assert d[0] == pytest.approx(1.0)


def test_contract_is_plain_component_sum():
    a = np.array([1.0, 2.0, 3.0, 4.0j])
    b = np.array([1.0, 1.0, 1.0, 2.0j])
    # no conjugation, no metric factors: the i's multiply through
    assert contract(a, b) == pytest.approx(1 + 2 + 3 - 8)


def test_contract_rejects_wrong_shapes():
    with pytest.raises(ParameterError):
        contract(np.zeros(3), np.zeros(4))


def test_displacement_interval_is_lorentz_invariant():
    c = 2.0
    e1 = Event(0.1, -0.4, 0.2, 0.0)
    e2 = Event(1.0, 0.3, -0.2, 0.9)
    d = four_displacement(e1, e2, c)
    s2 = contract(d, d)
    for v in (-1.5, -0.3, 0.0, 0.7, 1.9):
        db = four_displacement(boost_x1(e1, v, c), boost_x1(e2, v, c), c)
        assert contract(db, db) == pytest.approx(s2, abs=1e-12)


def test_boost_rejects_superluminal_frames():
    with pytest.raises(InvalidBoostError):
        boost_x1(Event(0, 0, 0, 0), 1.0, c=1.0)
    with pytest.raises(InvalidBoostError):
        boost_x1(Event(0, 0, 0, 0), -2.5, c=2.0)


def test_constants_validation():
    with pytest.raises(ParameterError):
        PhysicalConstants(hbar=0.0)
    with pytest.raises(ParameterError):
        PhysicalConstants(c=-1.0)
    with pytest.raises(ParameterError):
        PhysicalConstants(m=math.inf)


def _poly_field(c):
    # psi = x1^2 x2 + 3 x3 - t^2, smooth and zero-free nowhere special
    def psi(e):
        return e.x1 ** 2 * e.x2 + 3.0 * e.x3 - e.t ** 2

    def grad(e):
        return np.array([2.0 * e.x1 * e.x2, e.x1 ** 2, 3.0,
                         -2.0 * e.t / (1j * c)])

    def lap(e):
        return 2.0 * e.x2 - (-2.0) / c ** 2

    return psi, grad, lap


def test_central_gradient_matches_polynomial_exactly():
    # 4th order stencil differentiates cubics without truncation error
    c = 1.3
    psi, grad, _ = _poly_field(c)
    e = Event(0.7, -0.4, 1.1, 0.6)
    num = grad4_numeric(psi, e, 1e-2, c)
    np.testing.assert_allclose(num, grad(e), atol=1e-11)


def test_central_laplacian_matches_polynomial():
    c = 1.3
    psi, _, lap = _poly_field(c)
    e = Event(0.7, -0.4, 1.1, 0.6)
    num = laplace4_numeric(psi, e, 1e-2, c)
    assert num == pytest.approx(lap(e), abs=1e-9)


def test_central_on_oscillatory_field_converges_at_fourth_order():
    c = 1.0
    k = np.array([1.0, -0.7, 0.3])

    def psi(e):
        return np.exp(1j * (k[0] * e.x1 + k[1] * e.x2 + k[2] * e.x3 - 0.9 * e.t))

    e = Event(0.2, 0.1, -0.3, 0.4)
    exact = 1j * np.array([k[0], k[1], k[2], -0.9 / (1j * c)]) * psi(e)
    err = []
    for h in (2e-2, 1e-2):
        num = grad4_numeric(psi, e, h, c)
        err.append(np.max(np.abs(num - exact)))
    order = math.log(err[0] / err[1]) / math.log(2.0)
    assert order > 3.7


def test_richardson_extrapolation_tightens_the_estimate():
    c = 1.0

    def psi(e):
        return np.exp(0.9 * e.x1 - 0.3 * e.t)

    e = Event(0.3, 0.0, 0.0, 0.1)
    plain = grad4_numeric(psi, e, 2e-2, c)
    extra = grad4_numeric(psi, e, 2e-2, c, richardson=True)
    exact = np.array([0.9, 0.0, 0.0, -0.3 / (1j * c)]) * psi(e)
    assert np.max(np.abs(extra - exact)) < 0.02 * np.max(np.abs(plain - exact))


def test_method_validation():
    with pytest.raises(ParameterError):
        DerivativeMethod("spectral")
    with pytest.raises(ParameterError):
        DerivativeMethod("central", h=0.0)
    with pytest.raises(ParameterError):
        DerivativeMethod("central", h=-1e-3)


def test_field_strength_antisymmetric_for_any_potential():
    rng = np.random.default_rng(7)
    coeff = rng.normal(size=(4, 4))

    from fourvel import PotentialField

    def a(e):
        x = e.as_array()
        x4 = np.array([x[0], x[1], x[2], 1j * x[3]])
        return coeff @ x4

    def grad(e):
        g = coeff.astype(complex).copy().T
        g[3] *= 1j  # chain rule through x4 = i c t with c = 1
        return g

    field = PotentialField("linear", a, grad, {})
    f = field_strength(field, Event(0.3, -0.2, 0.8, 0.1),
                       DerivativeMethod("analytic"), c=1.0)
    np.testing.assert_allclose(f + f.T, 0.0, atol=0.0)


def test_field_strength_zero_for_constant_potential():
    # the degree-1 gauge's A = (0.1, 0.2, -0.3, 0.4j): A_4 = -i k_t / c
    field = pure_gauge_potential(polynomial_gauge(
        {(1, 0, 0, 0): 0.1, (0, 1, 0, 0): 0.2, (0, 0, 1, 0): -0.3,
         (0, 0, 0, 1): -0.4}))
    f = field_strength(field, Event(1, 2, 3, 4), central(1e-3), c=1.0)
    np.testing.assert_allclose(f, 0.0, atol=1e-12)
    f0 = field_strength(zero_potential(), Event(0, 0, 0, 0),
                        DerivativeMethod("analytic"), c=1.0)
    np.testing.assert_array_equal(f0, np.zeros((4, 4)))
