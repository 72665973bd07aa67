"""Extraction and residual chain.

The defining identities connecting the diagnostics are exercised on waves
where every term is nontrivial, not only on exact solutions: the operator
decomposition holds for any smooth wave, so random synthetic fields probe
it off shell.
"""
import dataclasses
import math

import numpy as np
import pytest

from fourvel import (ANALYTIC, Event, EventArray, NATURAL_UNITS,
                     NearZeroWavefunctionError, ParameterError,
                     PhysicalConstants, QuadratureError, action_integral,
                     canonical_momentum, central, contract, coulomb_potential,
                     curl_k, divergence_mu, extract_u,
                     gaussian_polynomial_wave, kg_coulomb_1s, kg_residual,
                     lorenz_gauge_residual, mass_shell_residual,
                     momentum_gradient, newton_residual,
                     nonlinear_wave_residual, plane_wave,
                     random_smooth_spinor, zero_potential)
from fourvel import velocityfield
from fourvel.core4 import grad4_numeric
from fourvel.velocityfield import _Chain

A0 = zero_potential()
C = NATURAL_UNITS


def _random_wave(rng):
    lin = rng.uniform(-0.3, 0.3, 5) + 1j * rng.uniform(-0.3, 0.3, 5)
    return gaussian_polynomial_wave(
        linear=tuple(lin), center=tuple(rng.uniform(-0.3, 0.3, 4)),
        widths=tuple(rng.uniform(0.15, 0.4, 4)), constants=C)


def test_extracted_u_on_plane_wave_is_classical_four_velocity():
    p = np.array([1.0, 0.0, 0.0])
    wave = plane_wave(p, C)
    e_level = wave.energy
    u = extract_u(wave, A0, Event(0.3, 0.1, -0.2, 0.7), ANALYTIC, constants=C)
    # u = (p/m, i E/(m c)) for the free particle
    np.testing.assert_allclose(u[:3], p / C.m, atol=1e-14)
    assert u[3] == pytest.approx(1j * e_level / (C.m * C.c), abs=1e-14)
    assert contract(u, u) == pytest.approx(-C.c ** 2, abs=1e-13)


def test_canonical_momentum_includes_the_potential():
    wave = plane_wave((0.5, 0.0, 0.0), C)
    field = coulomb_potential(0.4, C)
    e = Event(1.2, 0.0, 0.0, 0.0)
    p_can = canonical_momentum(wave, field, e, ANALYTIC, constants=C)
    u = extract_u(wave, field, e, ANALYTIC, constants=C)
    np.testing.assert_allclose(p_can, C.m * u + C.q * field.a(e), atol=1e-14)


def test_mass_shell_vanishes_only_on_shell():
    wave = plane_wave((0.7, -0.2, 0.4), C)
    ms = mass_shell_residual(wave, A0, Event(0, 0, 0, 0), ANALYTIC,
                             constants=C)
    assert abs(ms) < 1e-13
    rng = np.random.default_rng(31)
    off = _random_wave(rng)
    ms_off = mass_shell_residual(off, A0, Event(0.1, 0.0, -0.1, 0.05),
                                 ANALYTIC, constants=C)
    assert abs(ms_off) > 1e-3


def test_curl_k_vanishes_for_any_scalar_wave():
    # P is a log-gradient up to the potential, so its curl cancels exactly
    # even off shell
    rng = np.random.default_rng(37)
    for _ in range(10):
        wave = _random_wave(rng)
        e = Event(*rng.uniform(-0.2, 0.2, 4))
        k = curl_k(wave, A0, e, ANALYTIC, constants=C)
        assert np.max(np.abs(k)) < 1e-12


def test_newton_residual_equals_half_gradient_of_u_squared():
    # with curl K = 0 the residual reduces to (1/2) d_mu contract(u, u);
    # compare against stencils of the extracted field itself
    rng = np.random.default_rng(41)
    wave = _random_wave(rng)
    e = Event(0.05, -0.1, 0.08, 0.02)

    def u_sq(ev):
        u = extract_u(wave, A0, ev, ANALYTIC, constants=C)
        return contract(u, u)

    grad_usq = grad4_numeric(u_sq, e, 1e-3, C.c)
    res = _Chain(wave, A0, e, ANALYTIC, C).raw_newton
    np.testing.assert_allclose(res, 0.5 * grad_usq, atol=1e-8)


def test_newton_normalization_divides_by_speed_scale():
    wave = kg_coulomb_1s(0.4, C)
    field = coulomb_potential(0.4, C)
    e = Event(1.5, 0.0, 0.0, 0.0)
    raw = _Chain(wave, field, e, ANALYTIC, C).raw_newton
    u = extract_u(wave, field, e, ANALYTIC, constants=C)
    scaled = newton_residual(wave, field, e, ANALYTIC, constants=C)
    np.testing.assert_allclose(scaled, raw / np.linalg.norm(u), atol=1e-14)


def test_momentum_gradient_analytic_vs_central():
    # entries blow up near zeros of the polynomial factor, so compare in
    # relative terms
    rng = np.random.default_rng(43)
    for _ in range(5):
        wave = _random_wave(rng)
        e = Event(*rng.uniform(-0.2, 0.2, 4))
        gp_a = momentum_gradient(wave, A0, e, ANALYTIC, constants=C)
        gp_c = momentum_gradient(wave, A0, e, central(1e-3), constants=C)
        scale = np.max(np.abs(gp_a)) + 1.0
        assert np.max(np.abs(gp_c - gp_a)) / scale < 1e-6


def test_momentum_gradient_requires_hessian_for_analytic_mode():
    def psi(e):
        return 1.0

    from fourvel import ScalarWave
    bare = ScalarWave("bare", psi, lambda e: np.zeros(4, complex),
                      lambda e: 0.0)
    with pytest.raises(ParameterError):
        momentum_gradient(bare, A0, Event(0, 0, 0, 0), ANALYTIC, constants=C)


def test_divergence_two_evaluation_paths_agree():
    rng = np.random.default_rng(47)
    for _ in range(10):
        wave = _random_wave(rng)
        e = Event(*rng.uniform(-0.2, 0.2, 4))
        div = divergence_mu(wave, A0, e, ANALYTIC, constants=C)
        assert abs(div.lorenz_residual) < 1e-10
        assert div.mismatch < 1e-10
        # off shell the divergence itself need not vanish
        assert np.isfinite(abs(div.value))


def test_kg_decomposes_into_mass_shell_and_divergence():
    # kg = m^2 * mass_shell - i hbar * div(m u), valid for any smooth wave
    rng = np.random.default_rng(53)
    for _ in range(10):
        wave = _random_wave(rng)
        e = Event(*rng.uniform(-0.2, 0.2, 4))
        kg = kg_residual(wave, A0, e, ANALYTIC, constants=C)
        ms = mass_shell_residual(wave, A0, e, ANALYTIC, constants=C)
        div = divergence_mu(wave, A0, e, ANALYTIC, constants=C)
        rebuilt = C.m ** 2 * ms - 1j * C.hbar * div.value
        assert kg == pytest.approx(rebuilt, abs=1e-12)


def test_nonlinear_wave_equals_mass_shell_term_in_lorenz_gauge():
    rng = np.random.default_rng(59)
    for _ in range(10):
        wave = _random_wave(rng)
        e = Event(*rng.uniform(-0.2, 0.2, 4))
        nl = nonlinear_wave_residual(wave, A0, e, ANALYTIC, constants=C)
        ms = mass_shell_residual(wave, A0, e, ANALYTIC, constants=C)
        assert nl == pytest.approx(C.m ** 2 * ms, abs=1e-12)


def test_kg_residual_normalization_modes():
    wave = kg_coulomb_1s(0.3, C)
    field = coulomb_potential(0.3, C)
    e = Event(2.0, 0.0, 0.0, 0.0)
    raw = _Chain(wave, field, e, ANALYTIC, C).raw_kg
    per_psi = kg_residual(wave, field, e, ANALYTIC, constants=C)
    assert per_psi == pytest.approx(raw / complex(wave(e)), abs=1e-13)


def test_near_zero_wave_raises_with_context():
    def psi(e):
        return complex(e.x1)

    from fourvel import ScalarWave
    wave = ScalarWave("node", psi, lambda e: np.array([1, 0, 0, 0], complex),
                      lambda e: 0.0)
    with pytest.raises(NearZeroWavefunctionError) as exc:
        extract_u(wave, A0, Event(0.0, 1.0, 0.0, 0.0), ANALYTIC, constants=C)
    assert exc.value.magnitude == 0.0


def test_dlog_guards_against_near_zero_values():
    def psi(e):
        return e.x1  # vanishes on the x1 = 0 plane

    with pytest.raises(NearZeroWavefunctionError):
        canonical_momentum(psi, A0, Event(1e-15, 0, 0, 0), central(1e-3),
                           constants=C)


def test_dlog_does_not_unwrap_phase():
    # on a plane wave the log-derivative must stay exactly linear in k even
    # when the phase itself has wound through many turns
    k = 5.0

    def psi(e):
        return np.exp(1j * k * e.x1)

    for x in (0.1, 2.0, 40.0):
        p = canonical_momentum(psi, A0, Event(x, 0, 0, 0), central(1e-3),
                               constants=C)
        assert p[0] == pytest.approx(C.hbar * k, abs=1e-8)


# every public kernel is one read of a fresh residual chain: each returns
# the same bits as the matching quantity of one chain shared by all reads,
# which is how a scenario reads a wave
_SHARED = [
    ("plane-wave", lambda: (plane_wave((0.6, -0.3, 0.2), C), A0)),
    ("kg-coulomb-1s", lambda: (kg_coulomb_1s(0.4, C),
                               coulomb_potential(0.4, C))),
]
_POINTS = [[0.5, 0.3, -0.2, 0.1], [1.2, -0.4, 0.6, -0.3],
           [-0.7, 0.9, 0.1, 0.4]]


@pytest.mark.parametrize("points", [Event(*_POINTS[0]), EventArray(_POINTS)],
                         ids=["event", "batch"])
@pytest.mark.parametrize("method", [ANALYTIC, central(1e-3)],
                         ids=lambda m: m.mode)
@pytest.mark.parametrize("name, fixture", _SHARED, ids=[n for n, _ in _SHARED])
def test_shared_gradient_and_kg_are_bit_identical(name, fixture, method,
                                                  points):
    wave, field = fixture()
    args = (wave, field, points, method)
    kw = {"constants": C}
    chain = _Chain(*args, C)
    reads = [
        (canonical_momentum(*args, **kw), chain.momentum),
        (extract_u(*args, **kw), chain.u),
        (mass_shell_residual(*args, **kw), chain.mass_shell),
        (momentum_gradient(*args, **kw), chain.gp),
        (curl_k(*args, **kw), chain.curl_k),
        (newton_residual(*args, **kw), chain.newton),
        (kg_residual(*args, **kw), chain.kg),
        (nonlinear_wave_residual(*args, **kw), chain.nonlinear),
        (lorenz_gauge_residual(field, points, method, c=C.c),
         chain.divergence.lorenz_residual),
    ]
    own = divergence_mu(*args, **kw)
    reads += [(getattr(own, f.name), getattr(chain.divergence, f.name))
              for f in dataclasses.fields(own)]
    for alone, shared in reads:
        assert np.array_equal(alone, shared)
    # the Coulomb potential makes the d_mu A_nu term of newton live
    assert np.any(field.grad(points) != 0) == (name == "kg-coulomb-1s")


# ---------------------------------------------------------------------------
# action integral
# ---------------------------------------------------------------------------

def test_action_reconstructs_plane_wave_phase():
    wave = plane_wave((1.0, 0.0, 0.0), C)
    res = action_integral(wave, A0, [Event(0, 0, 0, 0), Event(1, 0, 0, 0)],
                          ANALYTIC, constants=C)
    # straight spatial chord at fixed time: phase advance is p dx = 1
    assert res.phi == pytest.approx(1.0, abs=1e-12)
    assert res.reconstruction_error < 1e-12


def test_action_timelike_leg_picks_up_energy():
    wave = plane_wave((0.0, 0.0, 0.0), C)
    dt = 0.7
    res = action_integral(wave, A0, [Event(0, 0, 0, 0), Event(0, 0, 0, dt)],
                          ANALYTIC, constants=C)
    # m u_4 dx_4 = (i m c)(i c dt) = -m c^2 dt = -E dt for the rest state
    assert res.phi == pytest.approx(-wave.energy * dt, abs=1e-12)
    assert res.reconstruction_error < 1e-12


def test_action_closed_loop_vanishes():
    wave = plane_wave((0.6, -0.2, 0.3), C)
    loop = [Event(0, 0, 0, 0), Event(1, 1, 0, 0.3), Event(0, 2, 1, 0.1),
            Event(0, 0, 0, 0)]
    res = action_integral(wave, A0, loop, ANALYTIC, constants=C)
    assert abs(res.phi) < 1e-12


def test_action_path_independence_for_bound_state():
    za = 0.4
    wave = kg_coulomb_1s(za, C)
    field = coulomb_potential(za, C)
    direct = action_integral(wave, field,
                             [Event(1, 0, 0, 0), Event(3, 0, 0, 0)],
                             ANALYTIC, constants=C)
    detour = action_integral(wave, field,
                             [Event(1, 0, 0, 0), Event(1, 2, 0, 0),
                              Event(3, 2, 0, 0), Event(3, 0, 0, 0)],
                             ANALYTIC, constants=C)
    assert direct.phi == pytest.approx(detour.phi, abs=1e-10)
    assert direct.reconstruction_error < 1e-10
    assert detour.reconstruction_error < 1e-10


def test_action_subdivision_responds_to_tolerance(monkeypatch):
    # rational-over-gaussian field: the pole of the polynomial factor at
    # x1 = -10/3 limits one-panel accuracy on a [-2, 2] chord to about
    # 1e-10, so the default tolerance forces bisection; the exact answer
    # is -i log(psi(end)/psi(start)) = -i log 4
    wave = gaussian_polynomial_wave((1.0, 0.3, 0, 0, 0), (0, 0, 0, 0),
                                    (0.5, 0.3, 0.3, 0.3), C)
    path = [Event(-2, 0, 0, 0), Event(2, 0, 0, 0)]
    strict = action_integral(wave, A0, path, ANALYTIC, constants=C)
    monkeypatch.setattr(velocityfield, "_SEG_TOL", 1e-4)
    loose = action_integral(wave, A0, path, ANALYTIC, constants=C)
    assert loose.n_segments == 1
    assert strict.n_segments > 1
    assert strict.phi == pytest.approx(-1j * math.log(4.0), abs=1e-10)
    assert strict.reconstruction_error < 1e-10


def test_action_rejects_degenerate_paths():
    wave = plane_wave((1, 0, 0), C)
    with pytest.raises(ParameterError):
        action_integral(wave, A0, [Event(0, 0, 0, 0)], ANALYTIC, constants=C)


def test_action_refuses_a_spinor():
    # the phase of one wave is integrated; a spinor has one per component
    spinor = random_smooth_spinor(np.random.default_rng(0), C)
    with pytest.raises(ParameterError, match="spinor"):
        action_integral(spinor, A0,
                        [Event(1, 0, 0, 0), Event(1.2, 0.1, 0, 0.1)],
                        ANALYTIC, constants=C)


def test_action_quadrature_failure_is_reported(monkeypatch):
    wave = kg_coulomb_1s(0.4, C)
    field = coulomb_potential(0.4, C)
    monkeypatch.setattr(velocityfield, "_SEG_TOL", 1e-30)
    monkeypatch.setattr(velocityfield, "_MAX_DEPTH", 6)
    with pytest.raises(QuadratureError):
        # unreachable tolerance with a shallow depth budget must surface
        # as an error, not a silent bad answer
        action_integral(wave, field,
                        [Event(0.4, 0, 0, 0), Event(4, 0, 0, 0)],
                        ANALYTIC, constants=C)
