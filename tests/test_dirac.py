import math

import numpy as np
import pytest

from fourvel import (ANALYTIC, DEFAULT_EPS_PSI, Event, EventArray,
                     InsufficientComponentsError, NATURAL_UNITS,
                     NearZeroWavefunctionError, PhysicalConstants,
                     UnsupportedConfigurationError, central,
                     clifford_residual, coulomb_potential,
                     dirac_coulomb_1s, dirac_plane_wave, dirac_residual,
                     dirac_to_kg_check, factorization_residual,
                     form_relation_matrix, gamma_dot, gamma_matrices,
                     kg_operator_on_spinor, random_smooth_spinor,
                     extract_u, spinor_velocity_consistency, zero_potential,
                     SpinorWave, curl_k, divergence_mu,
                     gaussian_polynomial_wave, kg_residual, momentum_gradient,
                     newton_residual, nonlinear_wave_residual,
                     polynomial_gauge, pure_gauge_potential)
from fourvel.runner import _build_cloud
from fourvel.velocityfield import _Chain

A0 = zero_potential()
C = NATURAL_UNITS
E0 = Event(0.0, 0.0, 0.0, 0.0)
# the constant A = (0.2, -0.1, 0.3, 0.15j) of a degree-1 gauge, whose
# A_4 = -i k_t / c takes k_t = -0.15 c
A_CONST = pure_gauge_potential(polynomial_gauge(
    {(1, 0, 0, 0): 0.2, (0, 1, 0, 0): -0.1, (0, 0, 1, 0): 0.3,
     (0, 0, 0, 1): -0.15 * C.c}, C.c))


def test_clifford_closure_is_exact():
    g = gamma_matrices()
    assert clifford_residual(g) == 0.0


def test_gamma_entries_are_quarter_turns():
    # every entry lies in {0, 1, -1, i, -i} with no roundoff
    g = gamma_matrices()
    allowed = {0.0, 1.0, -1.0, 1j, -1j}
    for mat in g.gammas + g.alphas + (g.beta,):
        for entry in np.asarray(mat).flat:
            assert complex(entry) in allowed


def test_gamma4_is_beta_and_gamma1_corners():
    g = gamma_matrices()
    np.testing.assert_array_equal(g.gammas[3], np.diag([1, 1, -1, -1]))
    np.testing.assert_array_equal(g.gammas[3], g.beta)
    assert g.gammas[0][0, 3] == -1j
    assert g.gammas[0][3, 0] == 1j


def test_anticommutators_with_random_vectors():
    g = gamma_matrices()
    rng = np.random.default_rng(61)
    eye = np.eye(4, dtype=complex)
    for _ in range(100):
        p = rng.normal(size=4) + 1j * rng.normal(size=4)
        gp = gamma_dot(g, p)
        np.testing.assert_allclose(gp @ gp, complex(np.sum(p * p)) * eye,
                                   atol=1e-12)


def test_factorization_residual_seeded():
    g = gamma_matrices()
    consts = PhysicalConstants(m=0.7, c=1.4)
    rng = np.random.default_rng(67)
    for _ in range(100):
        p = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert factorization_residual(g, p, consts) < 1e-12


def test_residual_zero_on_plane_wave_solutions():
    for p in ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, -0.2, 0.1]):
        spinor = dirac_plane_wave(p, "up", C)
        for form in ("gamma", "alphabeta"):
            res = dirac_residual(spinor, A0, Event(0.4, -0.1, 0.2, 0.7),
                                 ANALYTIC, form, constants=C)
            assert np.max(np.abs(res)) < 1e-13


def test_form_relation_between_residual_conventions():
    # the two operator orderings act on the same first-order data, so
    # their residual vectors are related by a constant matrix even for
    # waves that solve nothing, with any constant potential switched on
    m_rel = form_relation_matrix(C)
    field = A_CONST
    rng = np.random.default_rng(71)
    for _ in range(10):
        spinor = random_smooth_spinor(rng, C)
        e = Event(*rng.uniform(-0.3, 0.3, 4))
        rg = dirac_residual(spinor, field, e, ANALYTIC, "gamma", constants=C)
        ra = dirac_residual(spinor, field, e, ANALYTIC, "alphabeta",
                            constants=C)
        np.testing.assert_allclose(rg, m_rel @ ra, atol=1e-13)


def test_residual_analytic_vs_central_on_bound_state():
    za = 0.4
    spinor = dirac_coulomb_1s(za, C)
    field = coulomb_potential(za, C)
    for ev in (Event(0.8, 0.0, 0.0, 0.0), Event(0.6, -0.5, 0.9, 0.4)):
        res_a = dirac_residual(spinor, field, ev, ANALYTIC, constants=C)
        res_c = dirac_residual(spinor, field, ev, central(1e-3), constants=C)
        assert np.max(np.abs(res_a)) < 1e-13
        assert np.max(np.abs(res_c)) < 1e-6


def test_velocity_consistency_plane_wave():
    spinor = dirac_plane_wave((0.3, -0.2, 0.1), "up", C)
    per_comp, dev = spinor_velocity_consistency(spinor, A0, E0, ANALYTIC,
                                                constants=C)
    assert dev < 1e-13
    assert len(per_comp) >= 2
    # every admissible component reproduces the classical 4-velocity
    for _, u in per_comp:
        assert u[0] == pytest.approx(0.3 / C.m, abs=1e-12)


def test_velocity_consistency_needs_two_components():
    spinor = dirac_plane_wave((0.0, 0.0, 0.0), "up", C)
    with pytest.raises(InsufficientComponentsError):
        spinor_velocity_consistency(spinor, A0, E0, ANALYTIC, constants=C)


def test_bound_state_component_velocities_disagree_at_hbar_scale():
    # the per-component extraction is only collective for the bound state;
    # the spread is a real O(hbar/(m r)) effect, not numerical noise
    za = 0.4
    spinor = dirac_coulomb_1s(za, C)
    field = coulomb_potential(za, C)
    ev = Event(0.5, 0.0, 0.0, 0.0)
    _, dev = spinor_velocity_consistency(spinor, field, ev, ANALYTIC,
                                         constants=C)
    assert dev == pytest.approx(C.hbar / (C.m * ev.r), rel=0.2)


def test_dirac_to_kg_second_order_identity():
    rng = np.random.default_rng(73)
    for _ in range(10):
        spinor = random_smooth_spinor(rng, C)
        e = Event(*rng.uniform(-0.4, 0.4, 4))
        squared = dirac_to_kg_check(spinor, A0, e, ANALYTIC, constants=C)
        direct = kg_operator_on_spinor(spinor, e, constants=C)
        np.testing.assert_allclose(squared, direct, atol=1e-8)


def test_dirac_to_kg_zero_on_solutions():
    spinor = dirac_plane_wave((0.5, 0.1, -0.3), "down", C)
    squared = dirac_to_kg_check(spinor, A0, Event(0.2, 0.0, -0.1, 0.3),
                                ANALYTIC, constants=C)
    np.testing.assert_allclose(squared, 0.0, atol=1e-8)


def test_dirac_to_kg_requires_zero_potential():
    spinor = dirac_plane_wave((0.1, 0.0, 0.0), "up", C)
    field = pure_gauge_potential(polynomial_gauge({(1, 0, 0, 0): 0.1}))
    with pytest.raises(UnsupportedConfigurationError):
        dirac_to_kg_check(spinor, field, E0, ANALYTIC, constants=C)


def test_dirac_to_kg_outer_pass_honours_richardson():
    # both stencil passes must extrapolate; with only the inner one doing
    # so, the outer pass's O(h^4) error would keep the two settings close
    rng = np.random.default_rng(79)
    spinor = random_smooth_spinor(rng, C)
    e = Event(*rng.uniform(-0.4, 0.4, 4))
    direct = kg_operator_on_spinor(spinor, e, constants=C)
    dev = {}
    for rich in (False, True):
        squared = dirac_to_kg_check(spinor, A0, e, central(2e-2, rich),
                                    constants=C)
        dev[rich] = np.max(np.abs(squared - direct))
    assert dev[True] < 0.02 * dev[False]


def test_residuals_reuse_one_read_only_gamma_set(monkeypatch):
    # the default matrices are built once at import, not on every call
    from fourvel import dirac

    def rebuilt(*args):
        raise AssertionError("gamma_matrices() called per residual")

    monkeypatch.setattr(dirac, "gamma_matrices", rebuilt)
    spinor = dirac_plane_wave((0.3, -0.2, 0.1), "up", C)
    e = Event(0.4, -0.1, 0.2, 0.7)
    assert np.max(np.abs(dirac_residual(spinor, A0, e, ANALYTIC,
                                        constants=C))) < 1e-13
    dirac_to_kg_check(spinor, A0, e, ANALYTIC, constants=C)
    form_relation_matrix(C)
    shared = dirac._STANDARD
    with pytest.raises(ValueError):
        shared.gammas[0][0, 0] = 1.0
    assert clifford_residual(shared) == 0.0


# the spinor kernels are reads of one residual chain, as the scalar ones are
@pytest.mark.parametrize("points", [E0, EventArray([[0.5, 0.3, -0.2, 0.1],
                                                    [1.2, -0.4, 0.6, -0.3]])],
                         ids=["event", "batch"])
@pytest.mark.parametrize("method", [ANALYTIC, central(1e-3)],
                         ids=lambda m: m.mode)
def test_spinor_kernels_are_reads_of_one_chain(method, points):
    spinor = dirac_plane_wave((0.3, -0.2, 0.1), "up", C)
    args = (spinor, A_CONST, points, method)
    chain = _Chain(*args, C, DEFAULT_EPS_PSI)
    assert np.array_equal(dirac_residual(*args, constants=C),
                          chain.residual_gamma)
    assert np.array_equal(dirac_residual(*args, "alphabeta", constants=C),
                          chain.residual_alphabeta)
    per_comp, dev = spinor_velocity_consistency(*args, constants=C)
    shared, shared_dev = chain.velocity_consistency
    assert np.array_equal(dev, shared_dev)
    assert [k for k, _ in per_comp] == [k for k, _ in shared] == [0, 2, 3]
    for (_, u), (_, v) in zip(per_comp, shared):
        assert np.array_equal(u, v)


_SPINOR_POINTS = [[0.5, 0.3, -0.2, 0.1], [1.2, -0.4, 0.6, -0.3],
                  [-0.7, 0.9, 0.1, 0.4], [0.3, -0.6, 0.8, -0.2],
                  [-0.4, -0.5, -0.9, 0.6]]


def _spinor_and_components(rng):
    """A spinor of four gaussian-polynomial parameter rows, built as
    random_smooth_spinor builds one, and each row's scalar wave, built on
    its own by gaussian_polynomial_wave from the same row."""
    lin = np.column_stack([rng.uniform(0.5, 1.5, 4)
                           * np.exp(1j * rng.uniform(0, 2 * math.pi, 4)),
                           rng.uniform(-0.3, 0.3, (4, 4))
                           + 1j * rng.uniform(-0.3, 0.3, (4, 4))])
    center = rng.uniform(-0.5, 0.5, (4, 4))
    widths = rng.uniform(0.1, 0.4, (4, 4))
    spinor = SpinorWave(**vars(gaussian_polynomial_wave(lin, center, widths,
                                                        C)))
    return spinor, [gaussian_polynomial_wave(lin[k], center[k], widths[k], C)
                    for k in range(4)]


# a cubic gauge: its div A and dA vary from point to point, so an unlifted
# potential term lined up with the component axis would show at K = 4
_CUBIC_GAUGE = pure_gauge_potential(polynomial_gauge(
    {(3, 0, 0, 0): 0.4, (1, 2, 0, 0): -0.3, (0, 0, 1, 1): 0.2}, C.c))


@pytest.mark.parametrize("k", [1, 4, 5, "event"])
def test_spinor_u_lifts_the_potential_over_the_components(k):
    # A has one 4-vector per point, the spinor's u one per point and
    # component; with K = 4 points an unlifted A would line its point axis
    # up with the component axis, and with K = 5 it would not broadcast
    spinor = random_smooth_spinor(np.random.default_rng(83), C)
    field = coulomb_potential(0.3, C)
    points = (Event(*_SPINOR_POINTS[0]) if k == "event"
              else EventArray(_SPINOR_POINTS[:k]))
    u = extract_u(spinor, field, points, constants=C)
    per_comp, _ = spinor_velocity_consistency(spinor, field, points,
                                              constants=C)
    assert [c for c, _ in per_comp] == [0, 1, 2, 3]
    for c, uc in per_comp:
        assert np.array_equal(u[..., c, :], uc)
    # every kernel of the chain gives, at component c of a spinor, what the
    # scalar kernel gives on that component alone, in both modes and with
    # the component axis before mu: gp and curl_k [..., c, mu, nu]
    spinor, comps = _spinor_and_components(np.random.default_rng(84))
    pick = ((lambda r, c: r[c]) if k == "event"
            else (lambda r, c: r[:, c]))
    for method in (central(1e-3), ANALYTIC):
        for kernel in (momentum_gradient, curl_k, newton_residual,
                       kg_residual, nonlinear_wave_residual, divergence_mu):
            whole = kernel(spinor, _CUBIC_GAUGE, points, method, constants=C)
            for c, comp in enumerate(comps):
                alone = kernel(comp, _CUBIC_GAUGE, points, method,
                               constants=C)
                if kernel is divergence_mu:
                    # one Lorenz residual per point, on a unit component axis
                    assert whole.lorenz_residual.shape == (
                        np.shape(alone.lorenz_residual) + (1,))
                    pairs = [(pick(whole.value, c), alone.value),
                             (pick(whole.independent, c), alone.independent),
                             (whole.lorenz_residual[..., 0],
                              alone.lorenz_residual)]
                else:
                    pairs = [(pick(whole, c), alone)]
                for got, want in pairs:
                    assert np.shape(got) == np.shape(want)
                    if method is ANALYTIC:
                        assert np.array_equal(got, want)
                    else:
                        assert np.max(np.abs(got - want)) <= 1e-12


def test_spinor_near_zero_guard_names_the_point():
    # component 1 of the spin-up 1s state vanishes everywhere; the guard
    # must blame the first point, not the flat index of the component
    spinor = dirac_coulomb_1s(0.3, C)
    field = coulomb_potential(0.3, C)
    rows = [[0.6, 0.7, 0.8, 0.0], [0.2, -0.5, 0.4, 0.3]]
    for k in (2, 1):
        with pytest.raises(NearZeroWavefunctionError) as info:
            extract_u(spinor, field, EventArray(rows[:k]), constants=C)
        assert info.value.event == Event(*rows[0])
        assert info.value.magnitude == 0.0


@pytest.mark.parametrize("method", [ANALYTIC, central(1e-3)],
                         ids=lambda m: m.mode)
@pytest.mark.parametrize("cloud", [
    {"kind": "ray", "r_min": 0.5, "r_max": 5.0, "count": 50, "t": 0.0},
    {"kind": "ray", "r_min": 0.5, "r_max": 68.0, "count": 40, "t": 0.0}],
    ids=["default-ray", "far-ray"])
def test_full_cloud_velocity_deviation_matches_the_usable_subset(cloud,
                                                                 method):
    # a stencil at one point never reads another base point, so the
    # deviation of a chain on the whole cloud, taken at the points with two
    # admissible components, is the deviation of the kernel on those points
    events = _build_cloud(cloud, np.random.default_rng(0), 0.25)
    spinor = dirac_coulomb_1s(0.4, C)
    field = coulomb_potential(0.4, C)
    chain = _Chain(spinor, field, events, method, C, DEFAULT_EPS_PSI)
    usable = np.count_nonzero(chain.admissible, axis=-1) >= 2
    assert 0 < np.count_nonzero(usable) <= len(events)
    _, dev = spinor_velocity_consistency(
        spinor, field, EventArray(events[usable]), method, constants=C)
    assert np.array_equal(chain.velocity_deviation[usable], dev)
