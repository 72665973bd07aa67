"""The central-difference engine against an independent per-point loop.

The reference below shifts one Event at a time with Event.shifted and
combines the stencil rows in plain Python, the way the engine's arithmetic
is specified. The engine evaluates the same points as one batch per field
call, so the two agree to rounding: 1e-12 relative for single stencils and
1e-9 relative for nested ones, fixed before the comparison was first run.

The residual chain evaluates psi once per distinct point of a nested
stencil. Its results must equal, bit for bit, those of the full nested
stencil: the public grad4_numeric over a fresh chain on the stencil points.
"""
import dataclasses

import numpy as np
import pytest

from fourvel import (DerivativeMethod, Event, NATURAL_UNITS, ParameterError,
                     central, coulomb_potential, curl_k, dirac_coulomb_1s,
                     dirac_plane_wave, dirac_to_kg_check, gauge_transform,
                     gaussian_polynomial_wave, kg_coulomb_1s,
                     momentum_gradient, newton_residual, plane_wave,
                     polynomial_gauge, random_smooth_spinor,
                     random_spinor_family, zero_potential)
from fourvel.core4 import EventArray, grad4_numeric, laplace4_numeric
from fourvel.dirac import dirac_residual
from fourvel.velocityfield import _Chain
from fourvel.wavefunctions import SpinorWave

C = NATURAL_UNITS
H = 2e-2
SINGLE_RTOL = 1e-12
NESTED_RTOL = 1e-9


def _ref_first(f, e, axis, h):
    vals = [np.asarray(f(e.shifted(axis, k * h)), dtype=complex)
            for k in (2, 1, -1, -2)]
    return (-vals[0] + 8 * vals[1] - 8 * vals[2] + vals[3]) / (12 * h)


def _ref_second(f, e, axis, h):
    vals = [np.asarray(f(e.shifted(axis, k * h)), dtype=complex)
            for k in (2, 1, 0, -1, -2)]
    return (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3]
            - vals[4]) / (12 * h * h)


def _ref_grad(f, e, h, c=1.0, richardson=False):
    rows = []
    for axis in range(4):
        d = _ref_first(f, e, axis, h)
        if richardson:
            d = (16 * _ref_first(f, e, axis, h / 2) - d) / 15
        rows.append(d / (1j * c) if axis == 3 else d)
    return np.stack(rows)


def _ref_laplace(f, e, h, c=1.0, richardson=False):
    """The 4-Laplacian and the largest of the four terms it sums; rounding
    is relative to that term, since the sum can cancel (harmonic fields)."""
    total, scale = 0, 0.0
    for axis in range(4):
        d = _ref_second(f, e, axis, h)
        if richardson:
            d = (16 * _ref_second(f, e, axis, h / 2) - d) / 15
        d = d if axis < 3 else -d / c ** 2
        total = total + d
        scale = max(scale, float(np.max(np.abs(d))))
    return total, scale


def _close(got, want, rtol, scale=None):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if scale is None:
        scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= rtol * scale


def _fields():
    rng = np.random.default_rng(83)
    wave = gaussian_polynomial_wave(
        rng.uniform(-0.3, 0.3, 5) + 1j * rng.uniform(-0.3, 0.3, 5),
        rng.uniform(-0.3, 0.3, 4), rng.uniform(0.15, 0.4, 4), C)
    spinor = random_smooth_spinor(rng, C)
    coulomb = coulomb_potential(0.4, C)
    return {"scalar": wave.psi, "vector": wave.grad4, "matrix": wave.hess4,
            "spinor": spinor.values, "coulomb": coulomb.a}


FIELDS = _fields()
E1 = Event(0.7, -0.4, 0.6, 0.2)
BATCH = EventArray(np.random.default_rng(89).uniform(0.5, 1.0, (5, 4)))


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("richardson", [False, True])
def test_gradient_matches_reference_loop(name, richardson):
    f = FIELDS[name]
    c = 1.3
    _close(grad4_numeric(f, E1, H, c, richardson),
           _ref_grad(f, E1, H, c, richardson), SINGLE_RTOL)
    got = grad4_numeric(f, BATCH, H, c, richardson)
    for k in range(len(BATCH)):
        _close(got[k], _ref_grad(f, BATCH.event(k), H, c, richardson),
               SINGLE_RTOL)


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("richardson", [False, True])
def test_laplacian_matches_reference_loop(name, richardson):
    f = FIELDS[name]
    c = 1.3
    want, scale = _ref_laplace(f, E1, H, c, richardson)
    _close(laplace4_numeric(f, E1, H, c, richardson), want, SINGLE_RTOL,
           scale)
    got = laplace4_numeric(f, BATCH, H, c, richardson)
    for k in range(len(BATCH)):
        want, scale = _ref_laplace(f, BATCH.event(k), H, c, richardson)
        _close(got[k], want, SINGLE_RTOL, scale)


@pytest.mark.parametrize("richardson", [False, True])
def test_nested_momentum_gradient_matches_reference_loop(richardson):
    rng = np.random.default_rng(97)
    wave = gaussian_polynomial_wave(
        (1.0,) + tuple(rng.uniform(-0.3, 0.3, 4)), rng.uniform(-0.3, 0.3, 4),
        rng.uniform(0.15, 0.4, 4), C)
    hbar = C.hbar

    def p_ref(ev):
        return -1j * hbar * _ref_grad(wave.psi, ev, H, C.c, richardson) \
            / complex(wave.psi(ev))

    e = Event(0.1, -0.2, 0.15, 0.05)
    got = momentum_gradient(wave, zero_potential(), e,
                            central(H, richardson), constants=C)
    _close(got, _ref_grad(p_ref, e, H, C.c, richardson), NESTED_RTOL)


class _Counted:
    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, e):
        self.calls += 1
        return self.f(e)


@pytest.mark.parametrize("richardson", [False, True])
def test_each_derivative_is_one_field_call(richardson):
    for e in (E1, BATCH):
        for engine in (grad4_numeric, laplace4_numeric):
            f = _Counted(FIELDS["spinor"])
            engine(f, e, H, 1.0, richardson)
            assert f.calls == 1


@pytest.mark.parametrize("richardson", [False, True])
def test_nested_central_paths_call_psi_at_most_twice(richardson):
    wave = gaussian_polynomial_wave((1.0, 0.2, -0.1, 0.3, 0.1j),
                                    (0.1, 0.0, -0.2, 0.3),
                                    (0.2, 0.3, 0.25, 0.15), C)
    counted = _Counted(wave.psi)
    momentum_gradient(dataclasses.replace(wave, psi=counted),
                      zero_potential(), E1, central(H, richardson),
                      constants=C)
    assert counted.calls <= 2

    spinor = random_smooth_spinor(np.random.default_rng(101), C)
    counted = _Counted(spinor.psi)
    spinor = dataclasses.replace(spinor, psi=counted)
    dirac_residual(spinor, zero_potential(), E1, central(H, richardson),
                   constants=C)
    assert counted.calls <= 2
    counted.calls = 0
    dirac_to_kg_check(spinor, zero_potential(), E1, central(H, richardson),
                      constants=C)
    # values and inner stencil on the outer stencil's points, the same two
    # at E1 itself, and the normalizing values
    assert counted.calls <= 5


def test_non_elementwise_field_is_rejected():
    with pytest.raises(ParameterError):
        grad4_numeric(lambda e: 1.0, E1, H)


def _full_nested_stencil(self, read=None):
    """_Chain.stencil by the public grad4_numeric, over psi or over a fresh
    chain on the stencil points: a nested stencil evaluates psi at all 256
    (1024 with Richardson) stencil-of-stencil points of each sample."""
    def chain_read(points):
        return getattr(_Chain(self.psi, self.a_field, points, self.method,
                              self.constants, self.eps_psi), read)

    d = grad4_numeric(chain_read if read else self.psi, self.e, self.method.h,
                      self.constants.c, self.method.richardson)
    mu = 0 if isinstance(self.e, Event) else 1
    return np.swapaxes(d, mu, mu + 1) if isinstance(self.psi, SpinorWave) \
        else d


# -0.0 and 0.0 in every slot, away from the Coulomb singularity
SIGNED_ZEROS = EventArray([[1.0, -0.0, 0.0, -0.0], [1.0, 0.0, -0.0, 0.0],
                           [-0.0, 1.5, -0.0, 0.0], [0.0, 1.5, 0.0, -0.0],
                           [-0.0, -0.0, 0.8, 0.3], [0.0, 0.0, -0.8, -0.3]])


@pytest.mark.parametrize("richardson", [False, True])
@pytest.mark.parametrize("e", [E1, SIGNED_ZEROS], ids=["event", "zeros"])
def test_nested_stencils_equal_the_full_nested_stencil(monkeypatch, e,
                                                       richardson):
    wave = gaussian_polynomial_wave((1.0, 0.2, -0.1, 0.3, 0.1j),
                                    (0.1, 0.0, -0.2, 0.3),
                                    (0.2, 0.3, 0.25, 0.15), C)
    spinor = random_smooth_spinor(np.random.default_rng(101), C)
    coulomb, a0 = coulomb_potential(0.4, C), zero_potential()
    method = central(H, richardson)
    kernels = {
        "momentum_gradient": lambda: momentum_gradient(
            wave, coulomb, e, method, constants=C),
        "curl_k": lambda: curl_k(wave, coulomb, e, method, constants=C),
        "newton_residual": lambda: newton_residual(
            wave, coulomb, e, method, constants=C),
        "spinor momentum_gradient": lambda: momentum_gradient(
            spinor, a0, e, method, constants=C),
        "dirac_to_kg_check": lambda: dirac_to_kg_check(
            spinor, a0, e, method, constants=C),
        "analytic dirac_to_kg_check": lambda: dirac_to_kg_check(
            spinor, a0, e, DerivativeMethod("analytic", H, richardson),
            constants=C),
    }

    def bits():
        return {name: (np.shape(out), np.asarray(out).dtype,
                       np.asarray(out).tobytes())
                for name, out in ((n, k()) for n, k in kernels.items())}

    got = bits()
    monkeypatch.setattr(_Chain, "stencil", _full_nested_stencil)
    assert got == bits()


def _waves(e):
    """Every fixture, a gauged wave and a gauged spinor, and a random-spinor
    family of one member per point of e."""
    p = (0.6, -0.3, 0.2)
    chi = polynomial_gauge({(1, 0, 0, 1): 0.8, (0, 2, 0, 0): -0.4,
                            (0, 0, 1, 0): 0.3}, C.c)
    draws = np.random.default_rng(7).random(
        (1 if isinstance(e, Event) else len(e), 4, 18))
    return [plane_wave(p, C), kg_coulomb_1s(0.4, C),
            dirac_plane_wave(p, "up", C), dirac_coulomb_1s(0.4, C),
            gaussian_polynomial_wave((1.0, 0.2, -0.1, 0.3, 0.1j),
                                     (0.1, 0.0, -0.2, 0.3),
                                     (0.2, 0.3, 0.25, 0.15), C),
            random_smooth_spinor(np.random.default_rng(101), C),
            gauge_transform(zero_potential(), plane_wave(p, C), chi, C)[1],
            gauge_transform(zero_potential(), dirac_plane_wave(p, "down", C),
                            chi, C)[1],
            random_spinor_family(draws, C)]


@pytest.mark.parametrize("richardson", [False, True])
@pytest.mark.parametrize("e", [E1, BATCH, SIGNED_ZEROS],
                         ids=["event", "batch", "zeros"])
def test_a_central_chain_reads_its_values_off_the_ring(e, richardson):
    # a central chain evaluates psi once, on the stencil points and then e,
    # and takes its values from that call's last column: they must be psi
    # at e alone, bit for bit
    for wave in _waves(e):
        value = _Chain(wave, zero_potential(), e, central(H, richardson),
                       C).value
        want = np.asarray(wave.psi(e), dtype=complex)
        assert np.shape(value) == want.shape
        assert np.asarray(value).tobytes() == want.tobytes()
