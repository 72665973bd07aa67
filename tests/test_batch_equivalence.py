"""Batches of points against the one-Event path.

Every fixture, potential and gauge evaluator, given a (K, 4) EventArray,
must return what it returns row by row for the matching Events, to 1e-14
relative to each row's largest entry (numpy's array exp and power may round
differently from the scalar ones by an ulp). A batch holding a singular or
near-zero row must fail the way that row's Event fails.
"""
import numpy as np
import pytest

from fourvel import (ANALYTIC, Event, NATURAL_UNITS,
                     NearZeroWavefunctionError, ParameterError,
                     SingularPointError, canonical_momentum, central,
                     contract, coulomb_potential, dirac_coulomb_1s,
                     dirac_plane_wave, extract_u, gauge_transform,
                     gaussian_polynomial_wave, kg_coulomb_1s, plane_wave,
                     polynomial_gauge, pure_gauge_potential,
                     random_smooth_spinor, zero_potential)
from fourvel.core4 import EventArray
from fourvel.velocityfield import _Chain

C = NATURAL_UNITS
RTOL = 1e-14
_RNG = np.random.default_rng(103)
# spatial radius in [0.3, 2] keeps every row off the Coulomb singularity
_DIRS = _RNG.normal(size=(9, 3))
_DIRS /= np.linalg.norm(_DIRS, axis=1, keepdims=True)
POINTS = EventArray(np.column_stack([
    _DIRS * _RNG.uniform(0.3, 2.0, (9, 1)), _RNG.uniform(-1.0, 1.0, 9)]))
A0 = zero_potential()


def _rows_match(fn, points=POINTS):
    batch = np.asarray(fn(points))
    rows = [np.asarray(fn(points.event(k))) for k in range(len(points))]
    assert batch.shape == (len(points),) + rows[0].shape
    for k, row in enumerate(rows):
        scale = float(np.max(np.abs(row)))
        assert float(np.max(np.abs(batch[k] - row))) <= RTOL * scale


def _chi():
    return polynomial_gauge({(0, 0, 0, 0): 0.3, (1, 0, 0, 0): -0.2,
                             (0, 1, 0, 1): 0.4, (0, 0, 2, 0): -0.25,
                             (1, 0, 0, 1): 0.15, (0, 0, 0, 2): 0.35}, C.c)


def _scalar_waves():
    wave = plane_wave((0.3, -0.2, 0.1), C)
    return {
        "plane-wave": wave,
        "kg-coulomb-1s": kg_coulomb_1s(0.4, C),
        "kg-coulomb-1s-detuned": kg_coulomb_1s(0.4, C, energy_scale=1.01),
        "gaussian-poly": gaussian_polynomial_wave(
            (0.3, -0.2, 0.1, 0.4, 0.2j), (0.1, 0.0, -0.2, 0.3),
            (0.2, 0.3, 0.25, 0.15), C),
        "gauge-transformed": gauge_transform(A0, wave, _chi(), C)[1],
    }


def _spinors():
    spinor = dirac_plane_wave((0.3, -0.2, 0.1), "up", C)
    return {
        "dirac-plane-wave-up": spinor,
        "dirac-plane-wave-down": dirac_plane_wave((1.0, 0.0, 0.0), "down", C),
        "dirac-coulomb-1s": dirac_coulomb_1s(0.4, C),
        "dirac-coulomb-1s-trial": dirac_coulomb_1s(0.4, C, energy=0.9),
        "random-smooth-spinor": random_smooth_spinor(
            np.random.default_rng(7), C),
        "gauge-transformed": gauge_transform(A0, spinor, _chi(), C)[1],
    }


def _potentials():
    coulomb = coulomb_potential(0.4, C)
    # A = (0.1, -0.2, 0.3, 0.05j) from a degree-1 gauge: A_4 = -i k_t / c
    constant = pure_gauge_potential(polynomial_gauge(
        {(1, 0, 0, 0): 0.1, (0, 1, 0, 0): -0.2, (0, 0, 1, 0): 0.3,
         (0, 0, 0, 1): -0.05 * C.c}, C.c))
    return {"zero": A0, "constant": constant, "coulomb": coulomb,
            "sum": constant + coulomb,
            "pure-gauge": pure_gauge_potential(_chi())}


@pytest.mark.parametrize("name", sorted(_scalar_waves()))
def test_scalar_fixture_evaluators_match_row_by_row(name):
    wave = _scalar_waves()[name]
    _rows_match(wave)
    for evaluator in (wave.grad4, wave.laplace4, wave.hess4):
        if evaluator is not None:
            _rows_match(evaluator)


@pytest.mark.parametrize("name", sorted(_spinors()))
def test_spinor_fixture_evaluators_match_row_by_row(name):
    spinor = _spinors()[name]
    for evaluator in (spinor.values, spinor.grad4, spinor.laplace4,
                      spinor.hess4):
        if evaluator is not None:
            _rows_match(evaluator)


@pytest.mark.parametrize("name", sorted(_potentials()))
def test_potentials_match_row_by_row(name):
    field = _potentials()[name]
    _rows_match(field.a)
    _rows_match(field.grad)


def test_polynomial_gauge_matches_row_by_row():
    chi = _chi()
    for evaluator in (chi.chi, chi.grad4, chi.hess4, chi.laplace4):
        _rows_match(evaluator)
    # a constant-only gauge still returns one value per row
    _rows_match(polynomial_gauge({(0, 0, 0, 0): 1.5}).chi)


def test_extraction_entry_points_match_row_by_row():
    wave = _scalar_waves()["kg-coulomb-1s"]
    field = coulomb_potential(0.4, C)
    for method in (ANALYTIC, central(1e-3)):
        _rows_match(lambda e: extract_u(wave, field, e, method, constants=C))
        _rows_match(lambda e: _Chain(wave, field, e, method, C).lap)
    u = extract_u(wave, field, POINTS, ANALYTIC, constants=C)
    np.testing.assert_array_equal(contract(u, u),
                                  [contract(row, row) for row in u])


def test_event_array_accessors_follow_event():
    for k in range(len(POINTS)):
        e = POINTS.event(k)
        assert POINTS.x1[k] == e.x1 and POINTS.t[k] == e.t
        np.testing.assert_array_equal(POINTS.spatial[k], e.spatial)
        np.testing.assert_array_equal(POINTS.as_array()[k], e.as_array())
        assert POINTS.r[k] == pytest.approx(e.r, rel=1e-15)
    with pytest.raises(ParameterError):
        EventArray(np.zeros((3, 3)))
    with pytest.raises(ParameterError):
        EventArray([[0.0, np.nan, 0.0, 0.0]])


def _with_row(points, row):
    return EventArray(np.vstack([points, row]))


def test_singular_row_fails_like_its_event():
    origin = [0.0, 0.0, 0.0, 0.4]
    batch = _with_row(POINTS, origin)
    kg = kg_coulomb_1s(0.4, C)
    evaluators = [coulomb_potential(0.4, C).a, coulomb_potential(0.4, C).grad,
                  kg.psi, kg.grad4, kg.laplace4, kg.hess4,
                  dirac_coulomb_1s(0.4, C).values]
    for evaluator in evaluators:
        with pytest.raises(SingularPointError):
            evaluator(Event(*origin))
        with pytest.raises(SingularPointError):
            evaluator(batch)


@pytest.mark.parametrize("method", [ANALYTIC, central(1e-3)])
def test_near_zero_row_fails_like_its_event(method):
    # psi = x1 * gaussian vanishes on the x1 = 0 plane
    wave = gaussian_polynomial_wave((0, 1, 0, 0, 0), (0.1, 0.0, -0.2, 0.3),
                                    (0.2, 0.3, 0.25, 0.15), C)
    node = [0.0, 0.3, -0.1, 0.2]
    batch = _with_row(POINTS, node)
    for e in (Event(*node), batch):
        with pytest.raises(NearZeroWavefunctionError) as exc:
            extract_u(wave, A0, e, method, constants=C)
        assert exc.value.event == Event(*node)
    with pytest.raises(NearZeroWavefunctionError) as exc:
        canonical_momentum(wave, A0, batch, method, constants=C)
    assert exc.value.event == Event(*node)
