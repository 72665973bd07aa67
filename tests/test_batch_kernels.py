"""Residual kernels on a (K, 4) batch against row-by-row Event calls.

Every residual kernel takes one Event or a batch of points. A 5-row batch
must give, row by row, what the kernel returns for that row's Event (the
oracle of test_batch_equivalence), to 1e-12 relative to the row's largest
entry, in analytic and in central mode. The fields fall by about six decades
in |psi| from the first row to the last, so a kernel that normalized by one
scale for the whole batch, instead of each row's own, would be off by up to
1e6 on the small rows. A batch holding failing rows must fail the way its
first failing row's Event fails. Every public kernel's parameters are
pinned by name and default, and the package's public names are pinned.
"""
import inspect

import numpy as np
import pytest

import fourvel
from fourvel import (ANALYTIC, DEFAULT_EPS_PSI, EventArray,
                     InsufficientComponentsError, NATURAL_UNITS,
                     NearZeroWavefunctionError, ScalarWave, SpinorWave,
                     action_integral, canonical_momentum, central,
                     coulomb_potential, curl_k,
                     dirac_coulomb_1s, dirac_plane_wave, dirac_residual,
                     dirac_to_kg_check, divergence_mu, extract_u,
                     gaussian_polynomial_wave, kg_operator_on_spinor,
                     kg_residual, lorenz_gauge_residual, mass_shell_residual,
                     momentum_gradient, newton_residual,
                     nonlinear_wave_residual, pierce_points,
                     polynomial_gauge, pure_gauge_potential,
                     spinor_velocity_consistency, zero_potential)

C = NATURAL_UNITS
RTOL = 1e-12
METHODS = [ANALYTIC, central(1e-3)]
KW = {"constants": C}

# gaussian envelope exp(-|x|^2): |psi| is about 1 on the first row and
# about 5e-7 on the last
ROWS = EventArray([[0.1, 0.2, -0.1, 0.05], [0.8, -0.4, 0.3, 0.2],
                   [1.5, 0.9, -0.6, -0.3], [2.2, -1.2, 1.0, 0.4],
                   [3.0, 1.8, -1.4, -0.6]])
ORIGIN, UNIT = (0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0)


def _wave(linear, label="envelope"):
    """One envelope wave per row of linear; four rows make a spinor."""
    shape = np.shape(linear)[:-1] + (4,)
    return gaussian_polynomial_wave(linear, np.broadcast_to(ORIGIN, shape),
                                    np.broadcast_to(UNIT, shape), C,
                                    label=label)


WAVE = _wave((1.0, 0.3, -0.2, 0.1, 0.2j))
SPINOR = SpinorWave(**vars(_wave([
    (1.0, 0.3, -0.2, 0.1, 0.2j), (0.5j, -0.1, 0.2, 0.3, 0.1),
    (0.7, 0.2j, 0.1, -0.3, 0.0), (-0.4, 0.1, 0.1j, 0.2, -0.1)],
    "envelope-spinor")))
# Coulomb field strength, a pure-gauge part with nonzero divergence, and a
# constant offset (the linear terms, A_4 = -i k_t / c with k_t = -0.05 c),
# so every term of every kernel is exercised
FIELD = (coulomb_potential(0.4, C)
         + pure_gauge_potential(polynomial_gauge(
             {(2, 0, 0, 0): 0.3, (0, 1, 0, 1): -0.2, (0, 0, 0, 2): 0.1}, C.c))
         + pure_gauge_potential(polynomial_gauge(
             {(1, 0, 0, 0): 0.1, (0, 1, 0, 0): -0.2, (0, 0, 1, 0): 0.3,
              (0, 0, 0, 1): -0.05 * C.c}, C.c)))
A0 = zero_potential()


def _divergence(wave, e, m):
    res = divergence_mu(wave, FIELD, e, m, **KW)
    return np.stack([res.value, res.independent, res.lorenz_residual],
                    axis=-1)


def _consistency(spinor, e, m):
    per_component, deviation = spinor_velocity_consistency(
        spinor, FIELD, e, m, **KW)
    return np.concatenate([np.asarray(deviation)[..., None]]
                          + [u for _, u in per_component], axis=-1)


# kernel name -> (scalar or spinor kernel, call(field, e, method))
KERNELS = {
    "mass_shell_residual": ("scalar", lambda w, e, m: mass_shell_residual(
        w, FIELD, e, m, **KW)),
    "momentum_gradient": ("scalar", lambda w, e, m: momentum_gradient(
        w, FIELD, e, m, **KW)),
    "curl_k": ("scalar", lambda w, e, m: curl_k(w, FIELD, e, m, **KW)),
    "newton_residual": ("scalar", lambda w, e, m: newton_residual(
        w, FIELD, e, m, **KW)),
    "divergence_mu": ("scalar", _divergence),
    "kg_residual": ("scalar", lambda w, e, m: kg_residual(
        w, FIELD, e, m, **KW)),
    "nonlinear_wave_residual": ("scalar", lambda w, e, m:
                                nonlinear_wave_residual(w, FIELD, e, m, **KW)),
    "lorenz_gauge_residual": ("scalar", lambda w, e, m: lorenz_gauge_residual(
        FIELD, e, m, c=C.c)),
    "dirac_residual.gamma": ("spinor", lambda s, e, m: dirac_residual(
        s, FIELD, e, m, "gamma", **KW)),
    "dirac_residual.alphabeta": ("spinor", lambda s, e, m: dirac_residual(
        s, FIELD, e, m, "alphabeta", **KW)),
    "kg_operator_on_spinor": ("spinor", lambda s, e, m: kg_operator_on_spinor(
        s, e, **KW)),
    "dirac_to_kg_check": ("spinor", lambda s, e, m: dirac_to_kg_check(
        s, A0, e, m, **KW)),
    "spinor_velocity_consistency": ("spinor", _consistency),
}


def _field_for(kind):
    return WAVE if kind == "scalar" else SPINOR


def test_rows_span_six_decades_of_psi():
    for values in (np.abs(WAVE(ROWS)), np.max(np.abs(SPINOR.values(ROWS)),
                                              axis=-1)):
        assert values[0] / values[-1] > 1e6


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.mode)
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_batch_matches_event_calls_row_by_row(name, method):
    kind, call = KERNELS[name]
    field = _field_for(kind)
    batch = np.asarray(call(field, ROWS, method))
    assert batch.shape[0] == len(ROWS)
    for k in range(len(ROWS)):
        row = np.asarray(call(field, ROWS.event(k), method))
        assert batch[k].shape == row.shape
        scale = float(np.max(np.abs(row)))
        assert scale > 0
        assert float(np.max(np.abs(batch[k] - row))) <= RTOL * scale, (
            f"row {k}")


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.mode)
def test_consistency_rows_with_different_admissible_components(method):
    # component 2 of the Dirac-Coulomb state is proportional to x3: it drops
    # out on the middle row, which still has components 0 and 3
    spinor, field = dirac_coulomb_1s(0.4, C), coulomb_potential(0.4, C)
    rows = EventArray([[0.5, 0.2, 0.3, 0.1], [0.7, -0.4, 0.0, 0.2],
                       [0.3, 0.6, -0.5, -0.3]])
    per_component, deviation = spinor_velocity_consistency(
        spinor, field, rows, method, **KW)
    us = dict(per_component)
    assert sorted(us) == [0, 2, 3]
    assert np.isnan(us[2][1]).all() and not np.isnan(us[2][[0, 2]]).any()
    for k in range(len(rows)):
        per_row, dev_row = spinor_velocity_consistency(
            spinor, field, rows.event(k), method, **KW)
        assert abs(deviation[k] - dev_row) <= RTOL * dev_row
        assert [c for c, _ in per_row] == ([0, 3] if k == 1 else [0, 2, 3])
        for comp, u in per_row:
            assert np.max(np.abs(us[comp][k] - u)) <= RTOL * np.max(np.abs(u))


def _component(spinor, k):
    """Component k of a spinor as a ScalarWave of its own."""
    return ScalarWave(f"{spinor.label}[{k}]",
                      psi=lambda e: spinor.psi(e)[..., k],
                      grad4=lambda e: spinor.grad4(e)[..., k, :],
                      laplace4=lambda e: spinor.laplace4(e)[..., k])


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.mode)
def test_consistency_is_extract_u_of_each_admissible_component(method):
    # oracle: extract_u of each component on the rows where it is above
    # threshold, the loop the stacked evaluation replaced; bit for bit
    spinor, field = dirac_coulomb_1s(0.4, C), coulomb_potential(0.4, C)
    rows = EventArray([[0.5, 0.2, 0.3, 0.1], [0.7, -0.4, 0.0, 0.2],
                       [0.3, 0.6, -0.5, -0.3], [-0.2, 0.0, 0.0, 0.4]])
    per_component, deviation = spinor_velocity_consistency(
        spinor, field, rows, method, **KW)
    admissible = np.abs(spinor.values(rows)) > DEFAULT_EPS_PSI
    assert admissible[:, 2].tolist() == [True, False, True, False]
    assert [k for k, _ in per_component] == [0, 2, 3]
    for k, u in per_component:
        keep = admissible[:, k]
        want = np.full((len(rows), 4), np.nan, dtype=complex)
        want[keep] = extract_u(_component(spinor, k), field,
                               EventArray(rows.as_array()[keep]), method,
                               **KW)
        assert np.array_equal(u, want, equal_nan=True)
    assert deviation.shape == (len(rows),) and np.isfinite(deviation).all()


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.mode)
def test_consistency_of_an_empty_batch_keeps_every_component(method):
    # no row rules a component out, so all four enter, as extract_u of each
    # gives them on no rows
    empty = EventArray(np.zeros((0, 4)))
    spinor = dirac_plane_wave((0.0, 0.0, 0.0), "up", C)   # lower pair zero
    per_component, deviation = spinor_velocity_consistency(
        spinor, A0, empty, method, **KW)
    assert [k for k, _ in per_component] == [0, 1, 2, 3]
    for k, u in per_component:
        want = extract_u(_component(spinor, k), A0, empty, method, **KW)
        assert u.shape == want.shape == (0, 4)
    assert deviation.shape == (0,)


def _failure(call, field, e, method):
    """(type, message) of what call raises at e, or None."""
    try:
        call(field, e, method)
    except (NearZeroWavefunctionError, InsufficientComponentsError) as exc:
        return type(exc), str(exc)
    return None


# x1 * envelope vanishes on the x1 = 0 plane; rows 1 and 3 lie on it
NODE_ROWS = EventArray([[0.4, 0.2, -0.1, 0.05], [0.0, -0.4, 0.3, 0.2],
                        [1.1, 0.9, -0.6, -0.3], [0.0, 0.5, 0.2, -0.1],
                        [-0.7, 0.3, 0.1, 0.4]])
NODE_WAVE = _wave((0.0, 1.0, 0.0, 0.0, 0.0), "node")
NODE_SPINOR = SpinorWave(**vars(_wave(
    [(0.0, scale, 0.0, 0.0, 0.0) for scale in (1.0, 0.5j, -0.3, 0.2)],
    "node-spinor")))


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.mode)
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_batch_fails_like_its_first_failing_row(name, method):
    kind, call = KERNELS[name]
    field = NODE_WAVE if kind == "scalar" else NODE_SPINOR
    failures = [_failure(call, field, NODE_ROWS.event(k), method)
                for k in range(len(NODE_ROWS))]
    first = next((f for f in failures if f is not None), None)
    assert _failure(call, field, NODE_ROWS, method) == first


def test_near_zero_rows_raise_at_the_first_offending_row():
    # the kernels that divide by psi in analytic mode all raise here
    for name, (kind, call) in KERNELS.items():
        if name == "lorenz_gauge_residual":
            continue
        field = NODE_WAVE if kind == "scalar" else NODE_SPINOR
        expected = (InsufficientComponentsError
                    if name == "spinor_velocity_consistency"
                    else NearZeroWavefunctionError)
        with pytest.raises(expected) as exc:
            call(field, NODE_ROWS, ANALYTIC)
        if expected is NearZeroWavefunctionError:
            assert exc.value.event == NODE_ROWS.event(1), name
        else:
            assert str(NODE_ROWS.event(1)) in str(exc.value)


# the near-zero threshold, the normalizations and the quadrature and pierce
# tolerances are module constants; no kernel takes them as keywords
_SCALAR = ["psi", "a_field", "e", ("method", ANALYTIC), ("constants", C)]
_SPINOR = ["spinor"] + _SCALAR[1:]
SIGNATURES = {f.__name__: (f, params) for f, params in [
    (canonical_momentum, _SCALAR), (extract_u, _SCALAR),
    (mass_shell_residual, _SCALAR), (momentum_gradient, _SCALAR),
    (curl_k, _SCALAR), (newton_residual, _SCALAR), (divergence_mu, _SCALAR),
    (kg_residual, _SCALAR), (nonlinear_wave_residual, _SCALAR),
    (action_integral, ["psi", "a_field", "path", ("method", ANALYTIC),
                       ("constants", C)]),
    (dirac_residual, ["spinor", "a_field", "e", ("method", ANALYTIC),
                      ("form", "gamma"), ("constants", C)]),
    (spinor_velocity_consistency, _SPINOR),
    (kg_operator_on_spinor, ["spinor", "e", ("constants", C)]),
    (dirac_to_kg_check, _SPINOR),
    (lorenz_gauge_residual, ["a_field", "e", ("method", ANALYTIC),
                             ("c", 1.0)]),
    (pierce_points, ["w", "t0"])]}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_kernel_parameters_are_pinned(name):
    kernel, params = SIGNATURES[name]
    want = [p if isinstance(p, tuple) else (p, inspect.Parameter.empty)
            for p in params]
    assert [(p.name, p.default) for p in
            inspect.signature(kernel).parameters.values()] == want


# a name leaves or joins the package's API only by editing this list
PUBLIC_NAMES = [
    "ANALYTIC", "ActionResult", "CheckResult", "ConfigError",
    "DEFAULT_EPS_PSI", "DegenerateParameterError", "DerivativeMethod",
    "DivergenceResult", "Event", "EventArray", "FourvelError", "GammaSet",
    "GaugeFunction", "InsufficientComponentsError", "InvalidBoostError",
    "NATURAL_UNITS", "NearZeroWavefunctionError", "ParameterError",
    "PhysicalConstants", "PiercePoint", "PotentialField", "QuadratureError",
    "ResidualReport", "ScalarWave", "ScenarioConfig", "SingularPointError",
    "SpinorWave", "UnsupportedConfigurationError", "Worldline",
    "action_integral", "boost_worldline", "boost_x1", "canonical_momentum",
    "central", "classify_speed", "clifford_residual", "config_from_dict",
    "contract", "core4", "coulomb_potential", "curl_k", "default_config",
    "dirac", "dirac_coulomb_1s", "dirac_plane_wave", "dirac_residual",
    "dirac_to_kg_check", "divergence_mu", "errors", "export_report",
    "extract_u", "factorization_residual", "field_strength", "fields",
    "form_relation_matrix", "four_displacement", "four_vector", "gamma_dot",
    "gamma_matrices", "gauge_transform", "gaussian_polynomial_wave",
    "kg_coulomb_1s", "kg_operator_on_spinor", "kg_residual",
    "list_scenarios", "lorenz_gauge_residual", "make_worldline",
    "mass_shell_residual", "momentum_gradient", "newton_residual",
    "nonlinear_wave_residual", "pierce_points", "plane_wave",
    "polynomial_gauge", "pure_gauge_potential", "random_smooth_spinor",
    "random_spinor_family", "run_scenario", "runner",
    "spinor_velocity_consistency", "velocityfield", "wavefunctions",
    "worldline", "write_pierce_csv", "zero_potential"]


def test_public_names_are_pinned():
    assert sorted(fourvel.__all__) == PUBLIC_NAMES
