import numpy as np
import pytest

from fourvel import (ANALYTIC, Event, NATURAL_UNITS, ParameterError,
                     PhysicalConstants, SingularPointError, central,
                     constant_potential, coulomb_potential, extract_u,
                     field_strength, gauge_transform, lorenz_gauge_residual,
                     plane_wave, polynomial_gauge, pure_gauge_potential,
                     zero_potential)

E0 = Event(1.0, 0.0, 0.0, 0.0)


def test_coulomb_q_times_a4_is_charge_independent():
    # the physical coupling q*A_4 = -i z_alpha hbar / r must not depend on
    # the sign or size of q
    for q in (-1.0, 1.0, -0.5, 2.0):
        consts = PhysicalConstants(q=q)
        field = coulomb_potential(0.4, consts)
        qa4 = q * field.a(E0)[3]
        assert qa4 == pytest.approx(-0.4j)


def test_coulomb_field_strength_value():
    # hand value: A_4 = k/r with q k = -i z_alpha hbar, so at (1,0,0)
    # q F_14 = q d_1 A_4 = -q k x1 / r^3 = +i z_alpha hbar = 0.4j
    consts = NATURAL_UNITS
    field = coulomb_potential(0.4, consts)
    f = field_strength(field, E0, ANALYTIC, c=consts.c)
    assert consts.q * f[0, 3] == pytest.approx(0.4j)
    assert f[0, 3] == pytest.approx(0.4j / consts.q)
    np.testing.assert_allclose(f, -f.T, atol=0.0)
    # numeric stencil agrees
    fn = field_strength(field, E0, central(1e-4), c=consts.c)
    np.testing.assert_allclose(fn, f, atol=1e-10)


def test_coulomb_rejects_bad_coupling_and_singular_points():
    with pytest.raises(ParameterError):
        coulomb_potential(0.0, NATURAL_UNITS)
    with pytest.raises(ParameterError):
        coulomb_potential(0.6, NATURAL_UNITS)
    field = coulomb_potential(0.3, NATURAL_UNITS)
    with pytest.raises(SingularPointError):
        field.a(Event(0.0, 0.0, 0.0, 1.0))
    with pytest.raises(SingularPointError):
        field.grad(Event(1e-13, 0.0, 0.0, 0.0))


def test_coulomb_rejects_zero_charge():
    # the coupling q*A_4 is fixed, so A_4 = coupling / q has no value at q = 0
    with pytest.raises(ParameterError):
        coulomb_potential(0.4, PhysicalConstants(q=0.0))


def test_coulomb_satisfies_lorenz_gauge():
    field = coulomb_potential(0.4, NATURAL_UNITS)
    for e in (E0, Event(0.3, -0.2, 0.5, 1.7), Event(-2.0, 0.1, 0.0, -0.4)):
        assert abs(lorenz_gauge_residual(field, e, ANALYTIC, c=1.0)) == 0.0
        assert abs(lorenz_gauge_residual(field, e, central(1e-4), c=1.0)) \
            < 1e-8


def test_potential_sum_adds_values_and_gradients():
    f1 = constant_potential((1.0, 0.0, 0.0, 0.5j))
    f2 = coulomb_potential(0.2, NATURAL_UNITS)
    s = f1 + f2
    np.testing.assert_allclose(s.a(E0), f1.a(E0) + f2.a(E0))
    np.testing.assert_allclose(s.grad(E0), f1.grad(E0) + f2.grad(E0))


def test_polynomial_gauge_derivatives_are_exact():
    c = 1.3
    chi = polynomial_gauge({(2, 0, 0, 0): 0.5, (0, 1, 0, 1): -0.2,
                            (0, 0, 0, 2): 0.7, (1, 0, 1, 0): 0.3}, c)
    e = Event(0.4, -1.1, 0.6, 0.9)

    # value by direct monomial evaluation
    expected = (0.5 * e.x1 ** 2 - 0.2 * e.x2 * e.t + 0.7 * e.t ** 2
                + 0.3 * e.x1 * e.x3)
    assert chi.chi(e) == pytest.approx(expected)

    # gradient slot 3 carries 1/(i c) per t-derivative
    g = chi.grad4(e)
    assert g[0] == pytest.approx(1.0 * e.x1 + 0.3 * e.x3)
    assert g[3] == pytest.approx((-0.2 * e.x2 + 1.4 * e.t) / (1j * c))

    h = chi.hess4(e)
    np.testing.assert_allclose(h, h.T, atol=0.0)
    assert h[0, 0] == pytest.approx(1.0)
    assert h[3, 3] == pytest.approx(1.4 / (1j * c) ** 2)
    assert h[1, 3] == pytest.approx(-0.2 / (1j * c))
    assert chi.laplace4(e) == pytest.approx(np.trace(h))


def test_polynomial_gauge_validation():
    with pytest.raises(ParameterError):
        polynomial_gauge({(1, 0, 0): 1.0})
    with pytest.raises(ParameterError):
        polynomial_gauge({(1, 0, 0, 0): 1.0j})


def test_pure_gauge_potential_has_zero_field_strength():
    chi = polynomial_gauge({(1, 0, 0, 1): 0.8, (0, 2, 0, 0): -0.4}, 1.0)
    field = pure_gauge_potential(chi)
    for e in (E0, Event(0.2, 0.7, -0.3, 1.2)):
        f = field_strength(field, e, ANALYTIC, c=1.0)
        np.testing.assert_allclose(f, 0.0, atol=1e-15)


def test_gauge_transform_preserves_velocity_field():
    consts = NATURAL_UNITS
    wave = plane_wave((0.7, -0.1, 0.4), consts)
    a0 = zero_potential()
    chi = polynomial_gauge({(1, 1, 0, 0): 0.3, (0, 0, 2, 0): -0.6,
                            (0, 0, 0, 1): 0.9}, consts.c)
    a1, wave1 = gauge_transform(a0, wave, chi, consts)
    rng = np.random.default_rng(11)
    for _ in range(25):
        e = Event(*rng.uniform(-2, 2, 4))
        u0 = extract_u(wave, a0, e, ANALYTIC, constants=consts)
        u1 = extract_u(wave1, a1, e, ANALYTIC, constants=consts)
        np.testing.assert_allclose(u1, u0, atol=1e-12)


def test_gauge_transform_grad_and_laplacian_are_consistent():
    # the transformed closed forms must agree with direct stencils applied
    # to the transformed psi evaluator
    consts = NATURAL_UNITS
    wave = plane_wave((0.5, 0.2, -0.3), consts)
    chi = polynomial_gauge({(2, 0, 0, 0): 0.25, (0, 1, 0, 1): 0.5}, consts.c)
    _, wave1 = gauge_transform(zero_potential(), wave, chi, consts)
    from fourvel import differentiate
    e = Event(0.3, -0.8, 0.2, 0.6)
    g_closed = wave1.grad4(e)
    g_num = differentiate(wave1, e, "grad4", central(1e-3), c=consts.c)
    np.testing.assert_allclose(g_num, g_closed, atol=1e-9)
    lap_closed = wave1.laplace4(e)
    lap_num = differentiate(wave1, e, "laplace4", central(1e-3), c=consts.c)
    assert abs(lap_num - lap_closed) < 1e-7
