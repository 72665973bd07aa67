"""Batched paths against per-item oracles written here, bit for bit.

The action quadrature, the random spinor, the (N, 4) gamma
contraction, the pierce-point refinement and the random-ball cloud each
replaced a loop over one node, component, momentum, turning point or sample
point. Each oracle below is that loop,
and every comparison is exact (== or np.array_equal), never a tolerance.
"""
import dataclasses
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fourvel import (ANALYTIC, ConfigError, Event, EventArray, NATURAL_UNITS,
                     ParameterError, PhysicalConstants, ScalarWave,
                     SpinorWave, Worldline, action_integral, boost_worldline,
                     central, config_from_dict, coulomb_potential,
                     dirac_coulomb_1s, dirac_plane_wave, export_report,
                     extract_u, factorization_residual, gamma_dot,
                     gamma_matrices, gaussian_polynomial_wave,
                     gauge_transform, kg_coulomb_1s, make_worldline,
                     pierce_points, plane_wave, polynomial_gauge,
                     random_smooth_spinor, run_scenario, zero_potential)
from fourvel.core4 import four_displacement
from fourvel.runner import _DRAWS_PER_POINT, _random_ball, _scaled_gammas

C = NATURAL_UNITS
K = PhysicalConstants(hbar=1.3, c=1.7, m=0.8, q=-0.6)
ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# action integral: one Event per Gauss-Legendre node
# ---------------------------------------------------------------------------

def _oracle_action(psi, a_field, path, method, constants, seg_tol=1e-10,
                   max_depth=20):
    nodes, weights = np.polynomial.legendre.leggauss(10)
    m, q, c = constants.m, constants.q, constants.c

    def gl(f, a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return half * sum(w * f(mid + half * x)
                          for x, w in zip(nodes, weights))

    def adaptive(f, a, b, whole, tol, depth, panels):
        mid = 0.5 * (a + b)
        left, right = gl(f, a, mid), gl(f, mid, b)
        if abs(left + right - whole) < tol:
            panels[0] += 1
            return left + right
        assert depth > 0
        return (adaptive(f, a, mid, left, tol / 2, depth - 1, panels)
                + adaptive(f, mid, b, right, tol / 2, depth - 1, panels))

    phi, panels = 0.0 + 0.0j, [0]
    for e0, e1 in zip(path[:-1], path[1:]):
        delta = four_displacement(e0, e1, c)
        base = e0.as_array()
        step = e1.as_array() - base

        def integrand(s):
            ev = Event(*(base + s * step))
            u = extract_u(psi, a_field, ev, method, constants=constants)
            return complex(np.sum((m * u + q * a_field.a(ev)) * delta))

        phi += adaptive(integrand, 0.0, 1.0, gl(integrand, 0.0, 1.0),
                        seg_tol, max_depth, panels)
    return phi, panels[0]


ACTION_CASES = {
    "straight": (lambda k: plane_wave((0.3, -0.2, 0.1), k), zero_potential,
                 [Event(0, 0, 0, 0), Event(1, 0, 0, 0)]),
    "loop": (lambda k: plane_wave((0.3, -0.2, 0.1), k), zero_potential,
             [Event(1, 0, 0, 0), Event(2, 1, 0, 0.2), Event(1, 2, 0, 0.4),
              Event(1, 0, 0, 0)]),
    "coulomb": (lambda k: kg_coulomb_1s(0.3, k),
                lambda: coulomb_potential(0.3, C),
                [Event(1, 0, 0, 0), Event(1, 2, 0, 0), Event(3, 2, 0, 0.5),
                 Event(3, 0, 0, 0)]),
}


@pytest.mark.parametrize("method", [ANALYTIC, central(1e-3)],
                         ids=["analytic", "central"])
@pytest.mark.parametrize("case", sorted(ACTION_CASES))
def test_action_phi_matches_the_per_node_quadrature(case, method):
    wave, potential, path = ACTION_CASES[case]
    psi, a_field = wave(C), potential()
    res = action_integral(psi, a_field, path, method, constants=C)
    phi, panels = _oracle_action(psi, a_field, path, method, C)
    assert res.phi == phi
    assert res.n_segments == panels


def test_action_phi_matches_in_other_units():
    psi = plane_wave((0.4, 0.1, -0.3), K)
    path = [Event(0, 0, 0, 0), Event(1, 0.5, 0, 0.3), Event(0.2, 1, 0.1, 1)]
    res = action_integral(psi, zero_potential(), path, ANALYTIC, constants=K)
    assert res.phi == _oracle_action(psi, zero_potential(), path, ANALYTIC,
                                     K)[0]


# ---------------------------------------------------------------------------
# random spinor: four gaussian-polynomial components in one expression
# ---------------------------------------------------------------------------

POINTS = EventArray(np.random.default_rng(7).uniform(-0.8, 0.8, (9, 4)))


def _oracle_slots(rng, constants):
    """The random spinor's four components, one gaussian_polynomial_wave
    per slot, drawn one uniform call per slot as the spinor was once built:
    magnitude, phase, 4 real and 4 imaginary linear coefficients, 4 centers,
    4 widths."""
    comps = []
    for _ in range(4):
        mag = rng.uniform(0.5, 1.5)
        lin = np.empty(5, dtype=complex)
        lin[0] = mag * np.exp(1j * rng.uniform(0, 2 * math.pi))
        lin[1:] = rng.uniform(-0.3, 0.3, 4) + 1j * rng.uniform(-0.3, 0.3, 4)
        b, a = rng.uniform(-0.5, 0.5, 4), rng.uniform(0.1, 0.4, 4)
        comps.append(gaussian_polynomial_wave(lin, b, a, constants))
    return comps


def _component(spinor, k):
    """Component k of a spinor as a ScalarWave of its own."""
    hess4 = spinor.hess4 and (lambda e: spinor.hess4(e)[..., k, :, :])
    return ScalarWave(f"{spinor.label}[{k}]",
                      psi=lambda e: spinor.psi(e)[..., k],
                      grad4=lambda e: spinor.grad4(e)[..., k, :],
                      laplace4=lambda e: spinor.laplace4(e)[..., k],
                      hess4=hess4)


@pytest.mark.parametrize("e", [POINTS, POINTS.event(3)],
                         ids=["batch", "event"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stacked_spinor_matches_its_components(seed, e):
    spinor = random_smooth_spinor(np.random.default_rng(seed), K)
    comps = _oracle_slots(np.random.default_rng(seed), K)
    assert np.array_equal(spinor.values(e),
                          np.stack([c.psi(e) for c in comps], axis=-1))
    assert np.array_equal(spinor.grad4(e),
                          np.stack([c.grad4(e) for c in comps], axis=-2))
    assert np.array_equal(spinor.laplace4(e),
                          np.stack([c.laplace4(e) for c in comps], axis=-1))
    assert np.array_equal(spinor.hess4(e),
                          np.stack([c.hess4(e) for c in comps], axis=-3))


def test_random_spinor_keeps_its_draw_order():
    # per component: magnitude, phase, 4 real and 4 imaginary linear
    # coefficients, 4 centers, 4 widths
    rng = np.random.default_rng(11)
    spinor = random_smooth_spinor(np.random.default_rng(11), C)
    e = POINTS.event(0)
    values = spinor.psi(e)
    for k in range(4):
        mag = rng.uniform(0.5, 1.5)
        lin = np.empty(5, dtype=complex)
        lin[0] = mag * np.exp(1j * rng.uniform(0, 2 * math.pi))
        lin[1:] = rng.uniform(-0.3, 0.3, 4) + 1j * rng.uniform(-0.3, 0.3, 4)
        b, a = rng.uniform(-0.5, 0.5, 4), rng.uniform(0.1, 0.4, 4)
        x = e.as_array()
        want = (lin[0] + np.sum(lin[1:] * x)) * np.exp(
            -np.sum(a * (x - b) * (x - b)))
        assert values[..., k] == want


@pytest.mark.parametrize("seed", [3, 11, 2024])
def test_random_spinor_draws_the_per_slot_numbers_and_stream(seed):
    # one uniform draw per slot, as the spinor was built before its draws
    # became one block; three spinors in a row, then the next draw
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        spinor = random_smooth_spinor(rng, K)
        for k, want in enumerate(_oracle_slots(oracle, K)):
            assert np.array_equal(spinor.params["center"][k],
                                  want.params["center"])
            assert np.array_equal(spinor.params["widths"][k],
                                  want.params["widths"])
            assert np.array_equal(spinor.psi(POINTS)[..., k],
                                  want.psi(POINTS))
            assert np.array_equal(spinor.grad4(POINTS)[..., k, :],
                                  want.grad4(POINTS))
    assert rng.bit_generator.state == oracle.bit_generator.state
    assert rng.random() == oracle.random()


def test_gauge_transformed_spinor_evaluates_its_transformed_components():
    # the stacked transform against the stack of the four scalar transforms,
    # on a batch: at one Event the scalar path multiplies numpy scalars,
    # which may round otherwise than array arithmetic
    chi = polynomial_gauge({(1, 0, 0, 0): 0.4, (0, 0, 0, 2): -0.3,
                            (0, 1, 1, 0): 0.2}, K.c)
    field = coulomb_potential(0.4, K)
    points = EventArray(np.abs(POINTS.as_array()) + 0.2)  # off the origin
    for spinor in (random_smooth_spinor(np.random.default_rng(5), K),
                   dirac_plane_wave((0.3, -0.2, 0.1), "down", K),
                   dirac_coulomb_1s(0.4, K)):   # the one without hess4
        a_moved, moved = gauge_transform(field, spinor, chi, K)
        assert type(moved) is SpinorWave
        assert moved.label == spinor.label + "+gauge"
        comps = [gauge_transform(field, _component(spinor, k), chi, K)
                 for k in range(4)]
        assert np.array_equal(a_moved.a(points), comps[0][0].a(points))
        for evaluator, axis in (("psi", -1), ("grad4", -2),
                                ("laplace4", -1), ("hess4", -3)):
            if getattr(spinor, evaluator) is None:
                assert getattr(moved, evaluator) is None
                continue
            assert np.array_equal(
                getattr(moved, evaluator)(points),
                np.stack([getattr(c, evaluator)(points) for _, c in comps],
                         axis=axis))
        assert not np.array_equal(moved.values(points),
                                  spinor.values(points))


def test_replaced_psi_keeps_a_spinor_whose_values_read_it():
    # dataclasses.replace, as a tracer wraps an evaluator, keeps the class,
    # and values reads the replaced psi
    spinor = random_smooth_spinor(np.random.default_rng(5), C)
    other = random_smooth_spinor(np.random.default_rng(6), C)
    calls = []

    def f(e):
        calls.append(e)
        return other.psi(e)

    copy = dataclasses.replace(spinor, psi=f, grad4=other.grad4)
    assert type(copy) is SpinorWave
    assert np.array_equal(copy.values(POINTS), other.values(POINTS))
    assert len(calls) == 1 and calls[0] is POINTS
    assert copy.grad4 is other.grad4 and copy.laplace4 is spinor.laplace4


# ---------------------------------------------------------------------------
# clifford: every momentum in one (N, 4) stack
# ---------------------------------------------------------------------------

def _oracle_gamma_dot(g, p):
    return sum(p[mu] * g.gammas[mu] for mu in range(4))


def _oracle_factorization(g, p, constants):
    mc = constants.m * constants.c
    gp = _oracle_gamma_dot(g, p)
    eye = np.eye(4, dtype=complex)
    product = (gp + 1j * mc * eye) @ (gp - 1j * mc * eye)
    return float(np.max(np.abs(product - (complex(np.sum(p * p)) + mc ** 2)
                               * eye)))


@pytest.mark.parametrize("scale", [1.0, 1.1])
def test_gamma_dot_and_factorization_of_a_stack(scale):
    g = _scaled_gammas(scale)
    draws = np.random.default_rng(3).normal(size=(25, 2, 4))
    p = draws[:, 0] + 1j * draws[:, 1]
    assert np.array_equal(gamma_dot(g, p),
                          np.stack([_oracle_gamma_dot(g, v) for v in p]))
    fac = factorization_residual(g, p, K)
    assert fac.shape == (25,)
    assert fac.tolist() == [_oracle_factorization(g, v, K) for v in p]
    one = factorization_residual(g, p[4], K)
    assert type(one) is float and one == _oracle_factorization(g, p[4], K)
    assert np.array_equal(gamma_dot(g, p[4]), _oracle_gamma_dot(g, p[4]))


@pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 3)),
                                 np.zeros((2, 2, 4)), 1.0],
                         ids=["3", "2x3", "2x2x4", "scalar"])
def test_gamma_contraction_refuses_a_bad_shape(bad):
    g = gamma_matrices()
    with pytest.raises(ParameterError):
        gamma_dot(g, bad)
    with pytest.raises(ParameterError):
        factorization_residual(g, bad)


@pytest.mark.parametrize("scale", [1.0, 1.1])
def test_clifford_rows_match_one_draw_per_momentum(scale):
    cfg = config_from_dict({"fixture": {"gamma_scale": scale,
                                        "n_random_p": 30}}, "clifford")
    rows = [r for r in json.loads(export_report(run_scenario(cfg)))["rows"]
            if r["case"] == "random-p"]
    rng = np.random.default_rng(cfg.seed)
    g = _scaled_gammas(scale)
    want = []
    for i in range(30):
        p = rng.normal(size=4) + 1j * rng.normal(size=4)
        gp = _oracle_gamma_dot(g, p)
        square = float(np.max(np.abs(
            gp @ gp - complex(np.sum(p * p)) * np.eye(4, dtype=complex))))
        want += [("gamma_square", i, square),
                 ("factorization", i,
                  _oracle_factorization(g, p, cfg.constants))]
    assert [(r["check"], r["index"], r["magnitude"]) for r in rows] == want


# ---------------------------------------------------------------------------
# pierce points: refinement skipped where the grid rules a touch out
# ---------------------------------------------------------------------------

def _oracle_pierce(w, t0, grid=4096, lam_tol=1e-12, tangent_tol=1e-10,
                   tangent_slope_tol=1e-6):
    """pierce_points with the ternary refinement at every turning point;
    (lambda, tangent) per root."""
    lo, hi = w.lam_range
    lams = np.linspace(lo, hi, grid + 1)
    cell = (hi - lo) / grid
    t = w.position(lams).t
    tangent_tol *= max(abs(t0), float(np.max(np.abs(t)))) or 1.0
    tangent_slope_tol *= float(np.max(np.abs(np.diff(t)))) / cell or 1.0
    f = t - t0
    sign = np.sign(f)

    def bisect(a, b):
        fa = w.position(a).t - t0
        while b - a > lam_tol:
            mid = 0.5 * (a + b)
            fm = w.position(mid).t - t0
            if fm == 0.0:
                return mid
            if (fa < 0) != (fm < 0):
                b = mid
            else:
                a, fa = mid, fm
        return 0.5 * (a + b)

    roots = [float(lams[i]) for i in np.flatnonzero(f == 0.0)]
    roots += [bisect(float(lams[i]), float(lams[i + 1]))
              for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0)]
    df = np.diff(f)
    turns = (df[:-1] != 0.0) & ((df[:-1] < 0) != (df[1:] < 0))
    for i in np.flatnonzero(turns) + 1:
        a, b = float(lams[i - 1]), float(lams[i + 1])
        for _ in range(200):
            m1, m2 = a + (b - a) / 3, b - (b - a) / 3
            if abs(w.position(m1).t - t0) < abs(w.position(m2).t - t0):
                b = m2
            else:
                a = m1
            if b - a < lam_tol:
                break
        lam_star = 0.5 * (a + b)
        if abs(w.position(lam_star).t - t0) < tangent_tol:
            if not any(abs(lam_star - r) < 2 * cell for r in roots):
                roots.append(lam_star)
    return [(lam, abs(float(w.velocity(lam)[3])) < tangent_slope_tol)
            for lam in sorted(roots)]


def _sweep(top):
    near = top * (1 - 1e-12)
    return sorted(set(np.linspace(-1.1 * top, 1.1 * top, 23).tolist()
                      + [near, -near, top, -top, top * (1 + 1e-12), 0.0]))


PIERCE_CURVES = {
    "circle": (make_worldline("circle-x1x4", radius=1.0), 1.0),
    "circle-c2": (make_worldline("circle-x1x4", radius=1e3, c=2.0), 500.0),
    # no grid point at the top: |f| there is far above tangent_tol, but
    # within the neighbouring steps, so a touch still gets refined
    "circle-offset": (make_worldline("circle-x1x4", radius=1.0,
                                     lam_range=(0.1, 0.1 + 2 * math.pi)),
                      1.0),
    # t = lambda on a line faster than c = 1.5
    "spacelike-line-c1.5": (make_worldline("line", v=(2.0, 0.5, -0.3),
                                           lam_range=(0.0, 1.0), c=1.5), 1.0),
    "boosted-circle": (boost_worldline(
        make_worldline("circle-x1x4", radius=1.3), 0.5), 1.0),
}


@pytest.mark.parametrize("name", sorted(PIERCE_CURVES))
def test_pierce_points_match_refinement_everywhere(name):
    w, top = PIERCE_CURVES[name]
    for t0 in _sweep(top):
        got = [(p.lam, p.tangent) for p in pierce_points(w, t0)]
        assert got == _oracle_pierce(w, t0), t0


def _scalar_position_calls(w, t0):
    calls = []

    def position(lam):
        calls.append(np.ndim(lam))
        return w.position(lam)

    counted = Worldline(w.kind, position, w.velocity, w.lam_range, w.c,
                        w.params)
    return pierce_points(counted, t0), calls.count(0)


def test_far_turning_points_are_not_refined():
    # the two bisections of about 32 steps and the two roots' events; each
    # turning point refined would add about 109 more
    points, calls = _scalar_position_calls(
        make_worldline("circle-x1x4", radius=1.0), 0.5)
    assert len(points) == 2 and calls < 80


def test_near_grazing_turning_point_is_still_refined():
    # 1e-12 below the top the slice still crosses twice, and the top's
    # turning point lies within tangent_tol of it, so it is refined
    w = make_worldline("circle-x1x4", radius=1.0)
    points, calls = _scalar_position_calls(w, 1.0 - 1e-12)
    assert [(p.lam, p.tangent) for p in points] == _oracle_pierce(
        w, 1.0 - 1e-12)
    assert len(points) == 2 and calls > 150


# ---------------------------------------------------------------------------
# random ball: the points still missing scaled and tested in one round
# ---------------------------------------------------------------------------

def _oracle_ball(center, radius, count, rng, min_r):
    """The random-ball points as drawn, scaled and tested one at a time; a
    list shorter than count when the draws ran out."""
    points = []
    for _ in range(_DRAWS_PER_POINT * count):
        if len(points) == count:
            break
        d = rng.normal(size=4)
        d /= np.linalg.norm(d)
        p = center + radius * rng.uniform() ** 0.25 * d
        if min_r and math.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2) < min_r:
            continue
        points.append(p)
    return points


@pytest.mark.parametrize("count", [1, 7, 100, 1000])
@pytest.mark.parametrize("min_r", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_ball_matches_the_one_point_loop(seed, min_r, count):
    # an integer radius and an off-origin centre, as a config may give them
    center = np.array([0.1, -0.2, 0.0, 0.3]) * seed
    radius = 2 if seed == 2 else 1.5
    want_rng, got_rng = (np.random.default_rng(seed) for _ in range(2))
    want = _oracle_ball(center, radius, count, want_rng, min_r)
    got = _random_ball(center, radius, count, got_rng, min_r)
    assert type(got) is EventArray and got.shape == (count, 4)
    assert got.tobytes() == np.reshape(want, (count, 4)).tobytes()
    if min_r:   # the test rejected some draws, and spent them
        assert np.all(got.r >= min_r)
    # later users of the rng see the same stream
    assert got_rng.random() == want_rng.random()


# radius 1 and min_r 0.998 accept 1, 0 and 2 of 3 points within the draw
# limit at these seeds; at seed 1 the 3000th draw ends a shortened round
@pytest.mark.parametrize("seed", [1, 3, 4])
def test_random_ball_draw_limit_counts_the_points_it_kept(seed):
    want = _oracle_ball(np.zeros(4), 1.0, 3, np.random.default_rng(seed),
                        0.998)
    assert len(want) < 3
    with pytest.raises(ConfigError) as info:
        _random_ball(np.zeros(4), 1.0, 3, np.random.default_rng(seed), 0.998)
    assert str(info.value) == (
        f"random-ball cloud: only {len(want)} of 3 points lie outside the "
        "exclusion radius 0.998 after 3000 draws")


# ---------------------------------------------------------------------------
# energy scan: the x tolerance in units of m c^2
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1e-9, 1e-6, 1.0, 10.0])
def test_energy_scan_passes_at_every_mass(m):
    report = run_scenario(config_from_dict({"constants": {"m": m}},
                                           "dirac-coulomb-1s"))
    scan, = [c for c in report.checks if c.name == "energy_scan"]
    assert scan.passed and report.passed
    assert scan.linf < 1e-8


# ---------------------------------------------------------------------------
# tools/report_hashes.py
# ---------------------------------------------------------------------------

def _hash_tool():
    spec = importlib.util.spec_from_file_location(
        "report_hashes", ROOT / "tools" / "report_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_hashes_smoke(tmp_path, capsys):
    tool = _hash_tool()
    assert tool.main(["--scenario", "clifford"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1:] for line in lines] == [
        ["0", "clifford", mode, fmt] for mode in ("default", "analytic",
                                                  "numeric")
        for fmt in ("json", "csv")]
    assert all(len(line.split()[0]) == 64 for line in lines)
    saved = tmp_path / "hashes.txt"
    saved.write_text("\n".join(lines) + "\n")
    assert tool.main(["--scenario", "clifford", "--check", str(saved)]) == 0
    capsys.readouterr()
    # a line the saved list lacks is new, and passes
    saved.write_text("\n".join(lines[1:]))
    assert tool.main(["--scenario", "clifford", "--check", str(saved)]) == 0
    out, err = capsys.readouterr()
    assert err == f"new: {lines[0]}\n"
    assert out == "6 reports, 0 differ, 1 new\n"
    # an altered hash is a change, and fails
    saved.write_text("\n".join(["0" * 64 + lines[0][64:]] + lines[1:]))
    assert tool.main(["--scenario", "clifford", "--check", str(saved)]) == 1
    out, err = capsys.readouterr()
    assert err == f"changed: {lines[0]}\n"
    assert out == "6 reports, 1 differ\n"


def test_report_hashes_refuses_an_unknown_scenario(tmp_path, capsys):
    # a misspelled name must not hash the empty reports of a refused run
    # and pass a check of them
    saved = tmp_path / "hashes.txt"
    saved.write_text("")
    with pytest.raises(SystemExit) as exit_:
        _hash_tool().main(["--scenario", "plane-wav", "--check", str(saved)])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice: 'plane-wav'" in err


def test_report_hashes_extra_configs(capsys):
    tool = _hash_tool()
    assert tool.main(["--scenario", "clifford", "--extra"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the default reports, then the perturbed gammas, which fail (exit 1),
    # and a run without random momenta
    assert [line.split()[1:] for line in lines[6:]] == [
        [code, "clifford", name, fmt]
        for code, name in (("1", "gamma-scale-1.001"), ("0", "no-random-p"))
        for fmt in ("json", "csv")]
    assert lines[6].split()[0] != lines[0].split()[0]


# ---------------------------------------------------------------------------
# tools/ab_pairs.py
# ---------------------------------------------------------------------------

def test_ab_pairs_smoke(tmp_path):
    # one tree against itself, copied so its compiled files stay out of ROOT
    tree = tmp_path / "tree"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tree / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_pairs.py"),
                        str(tree), str(tree), "--workload", "default-sweep",
                        "--pairs", "1"], capture_output=True, text=True,
                       timeout=60)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0].startswith("# default-sweep, 1 pairs")
    assert [line.split(":")[0] for line in lines[1:3]] == ["A", "B"]
    assert "median faults per pass" in lines[1]
    assert lines[3].startswith("ratio B/A ") and "of 1 pairs" in lines[3]
    assert lines[4].startswith("ratio B/A per block of 20 pairs: ")
    assert list((tree / "src" / "fourvel" / "__pycache__").glob("*.pyc"))


def test_ab_pairs_times_one_config(tmp_path):
    # a scenario config that no workload runs: central gauge-orbit
    tree = tmp_path / "tree"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tree / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    config = ('{"scenario": "gauge-orbit", "method": {"mode": "central"}, '
              '"fixture": {"n_gauges": 2}}')
    tool = [sys.executable, str(ROOT / "tools" / "ab_pairs.py"), str(tree),
            str(tree), "--pairs", "2"]
    r = subprocess.run(tool + ["--config", config], capture_output=True,
                       text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0].startswith(f"# config {config}, 2 pairs")
    assert [line.split(":")[0] for line in lines[1:3]] == ["A", "B"]
    assert "of 2 pairs" in lines[3]
    for wrong in (["--config", "[1]"],
                  ["--config", config, "--workload", "gauge-orbit"]):
        r = subprocess.run(tool + wrong, capture_output=True, text=True,
                           timeout=60)
        assert r.returncode == 2 and "usage:" in r.stderr
