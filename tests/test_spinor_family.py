"""Random spinors as member-paired families.

A family of M spinors evaluated on K points gives member j the j-th of M
equal, contiguous blocks of rows, at every stencil depth. Its checks must
equal, bit for bit, the per-member checks of random_smooth_spinor built
from the same draws, and the runner must report each member's rows as it
did when it certified one spinor at a time.
"""
import json
import tracemalloc

import numpy as np
import pytest

from fourvel import (ANALYTIC, Event, EventArray, NATURAL_UNITS,
                     ParameterError, PhysicalConstants, central,
                     config_from_dict, dirac_to_kg_check, export_report,
                     gaussian_polynomial_wave, kg_operator_on_spinor,
                     kg_residual, mass_shell_residual,
                     random_smooth_spinor, random_spinor_family, run_scenario,
                     zero_potential)
from fourvel.runner import _SPINOR_BLOCK, _build_cloud
from fourvel.wavefunctions import (_SPINOR_DRAW, _SPINOR_HIGH, _SPINOR_LOW,
                                   _gaussian_polynomial_members)

A0 = zero_potential()
C = NATURAL_UNITS
METHODS = {"analytic": ANALYTIC, "central": central(),
           "central-richardson": central(richardson=True)}


def _member_checks(seed, n, method):
    """dirac_to_kg_check and kg_operator_on_spinor of n random spinors, one
    random_smooth_spinor and its 3 points at a time, as drawn before the
    spinors became families."""
    rng = np.random.default_rng(seed)
    sq, direct = [], []
    for _ in range(n):
        spinor = random_smooth_spinor(rng, C)
        points = EventArray(rng.uniform(-0.5, 0.5, (3, 4)))
        sq.append(dirac_to_kg_check(spinor, A0, points, method))
        direct.append(kg_operator_on_spinor(spinor, points))
    return sq, direct


@pytest.mark.parametrize("method", METHODS, ids=list(METHODS))
@pytest.mark.parametrize("n", [0, 1, _SPINOR_BLOCK, 7])
def test_a_family_equals_its_members(method, n):
    rng = np.random.default_rng(31)
    draws = [(rng.random(_SPINOR_DRAW), rng.uniform(-0.5, 0.5, (3, 4)))
             for _ in range(n)]
    sq, direct = _member_checks(31, n, METHODS[method])
    for first in range(0, n, _SPINOR_BLOCK):
        block = draws[first:first + _SPINOR_BLOCK]
        family = random_spinor_family([u for u, _ in block], C)
        points = EventArray(np.concatenate([x for _, x in block]))
        got = dirac_to_kg_check(family, A0, points, METHODS[method])
        assert got.shape == (3 * len(block), 4)
        assert np.array_equal(got, np.concatenate(
            sq[first:first + len(block)]))
        assert np.array_equal(kg_operator_on_spinor(family, points),
                              np.concatenate(direct[first:first + len(block)]))


@pytest.mark.parametrize("mode", ["analytic", "central"])
@pytest.mark.parametrize("n", [1, 7])
def test_runner_reports_each_member_under_its_own_label(mode, n):
    cfg = config_from_dict({"fixture": {"n_random_spinors": n},
                            "method": {"mode": mode}}, "dirac-plane-wave")
    report = run_scenario(cfg)
    # the scenario's cloud takes the first draws, then the spinors theirs
    rng = np.random.default_rng(cfg.seed)
    _build_cloud(cfg.cloud, rng, 0.0)
    want = []
    for j in range(n):
        spinor = random_smooth_spinor(rng, C)
        points = EventArray(rng.uniform(-0.5, 0.5, (3, 4)))
        sq = dirac_to_kg_check(spinor, A0, points, cfg.method)
        worst = np.max(np.abs(sq - kg_operator_on_spinor(spinor, points)),
                       axis=1)
        want += [(f"random-spinor-{j}", i, *points[i], worst[i])
                 for i in range(3)]
    rows = [r for r in json.loads(export_report(report))["rows"]
            if r["check"] == "dirac_to_kg"]
    assert [(r["case"], r["index"], r["x1"], r["x2"], r["x3"], r["t"],
             r["magnitude"]) for r in rows] == want


def test_member_rows_follow_the_stencil_layout():
    # each evaluator of a family gives member j's own results on the j-th
    # block of rows; one Event is the one row of a one-member family
    rng = np.random.default_rng(5)
    u = rng.random((3,) + _SPINOR_DRAW)
    family = random_spinor_family(u, C)
    points = EventArray(rng.uniform(-0.5, 0.5, (6, 4)))
    for j in range(3):
        one = random_spinor_family(u[j:j + 1], C)
        rows = points[2 * j:2 * j + 2]
        for name in ("psi", "grad4", "laplace4", "hess4"):
            assert np.array_equal(getattr(family, name)(points)[2 * j:][:2],
                                  getattr(one, name)(rows))
        assert np.array_equal(one.psi(rows.event(1)), one.psi(rows)[1])
        # one (4, 18) draw without the member axis is one member
        assert np.array_equal(random_spinor_family(u[j], C).psi(rows),
                              one.psi(rows))
        # central stencils keep it, the Laplacian's centre rows too
        for kernel in (mass_shell_residual, kg_residual):
            assert np.array_equal(
                kernel(family, A0, points, central())[2 * j:][:2],
                kernel(one, A0, rows, central()))


@pytest.mark.parametrize("members, points", [(2, 3), (3, 4), (2, 1)])
def test_a_point_count_that_does_not_split_is_refused(members, points):
    family = random_spinor_family(
        np.random.default_rng(2).random((members,) + _SPINOR_DRAW), C)
    e = (Event(0.1, 0.2, 0.3, 0.4) if points == 1
         else EventArray(np.full((points, 4), 0.1)))
    for evaluate in (family.psi, family.grad4, family.laplace4, family.hess4,
                     lambda e: dirac_to_kg_check(family, A0, e, central())):
        with pytest.raises(ParameterError, match="equal blocks"):
            evaluate(e)


def test_a_scalar_family_pairs_its_rows():
    # members without component axes: member j is the j-th scalar wave
    lin = np.array([[1.0, 0.2, 0, 0, 0], [0.5j, 0, -0.1, 0, 0.3]])
    center = np.array([[0, 0, 0, 0], [0.1, 0.2, 0, 0]])
    widths = np.array([[0.3] * 4, [0.2] * 4])
    family = _gaussian_polynomial_members(lin, center, widths, C.c, "pair")
    points = EventArray(np.linspace(-0.4, 0.4, 16).reshape(4, 4))
    for j in range(2):
        one = gaussian_polynomial_wave(lin[j], center[j], widths[j])
        assert np.array_equal(family.grad4(points)[2 * j:2 * j + 2],
                              one.grad4(points[2 * j:2 * j + 2]))
    # one Event gives a numpy scalar, as before the closed form was paired
    one = gaussian_polynomial_wave(lin[0], center[0], widths[0])
    value = one.psi(points.event(2))
    assert type(value) is np.complex128 and value == one.psi(points)[2]
    with pytest.raises(ParameterError, match="3 points do not split into 2"):
        family.psi(points[:3])


def test_params_keep_their_unpaired_form():
    # tuples over the parameter rows, without a member axis
    lin, center, widths = [1.0, 0.2, 0, 0, 0], [0.1, 0, 0, 0.2], [0.3] * 4
    assert gaussian_polynomial_wave(lin, center, widths).params == {
        "center": (0.1, 0.0, 0.0, 0.2), "widths": (0.3, 0.3, 0.3, 0.3)}
    stacked = gaussian_polynomial_wave([lin] * 2, [center] * 2, [widths] * 2)
    assert stacked.params == {"center": ([0.1, 0.0, 0.0, 0.2],) * 2,
                              "widths": ([0.3] * 4,) * 2}
    u = _SPINOR_LOW + (_SPINOR_HIGH - _SPINOR_LOW) * np.random.default_rng(
        8).random(_SPINOR_DRAW)
    spinor = random_smooth_spinor(np.random.default_rng(8), C)
    assert spinor.params == {"center": tuple(u[:, 10:14].tolist()),
                             "widths": tuple(u[:, 14:].tolist())}
    assert all(type(v) is tuple for v in spinor.params.values())
    family = random_spinor_family([u, u], C)
    assert len(family.params["center"]) == 2


def _traced_peak(n):
    cfg = config_from_dict({"fixture": {"n_random_spinors": n},
                            "method": {"mode": "central"}},
                           "dirac-plane-wave")
    run_scenario(cfg)   # first-call caches are not the spinors' memory
    tracemalloc.start()
    try:
        run_scenario(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_spinor_count():
    small, large = _traced_peak(5), _traced_peak(40)
    assert abs(large - small) <= 0.25 * small


# The closed form works coordinate-major, with each sum over the coordinates
# written out in np.sum's order. It must equal, bit for bit, the row-major
# expressions it replaced, written out here: points (member, row, parameter
# axes, coordinate), and each sum over the coordinates one np.sum.
def _row_major(lin, b, a, c):
    """psi, grad4, laplace4 and hess4 of _gaussian_polynomial_members as
    they were computed row-major."""
    fold = np.array([1, 1, 1, 1 / (1j * c)], dtype=complex)
    lin, b, a = (v[:, None] for v in (lin, b, a))
    lin0, lin1 = lin[..., 0], lin[..., 1:]

    def col(v, depth=1):
        return v[(...,) + (None,) * depth]

    def outer(u, v):
        return u[..., :, None] * v[..., None, :]

    def parts(e):
        x = e.as_array()
        g = np.expand_dims(x.reshape(len(lin), -1, 4),
                           tuple(range(2 - lin.ndim, -1)))
        d = g - b
        poly = lin0 + np.sum(lin1 * g, axis=-1)
        gauss = np.exp(-np.sum(a * d * d, axis=-1))
        return d, poly, gauss, lambda v: v.reshape(
            x.shape[:-1] + v.shape[2:])[()]

    def psi(e):
        _, poly, gauss, shaped = parts(e)
        return shaped(poly * gauss)

    def grad4(e):
        d, poly, gauss, shaped = parts(e)
        return shaped((lin1 - 2.0 * a * d * col(poly)) * col(gauss) * fold)

    def laplace4(e):
        d, poly, gauss, shaped = parts(e)
        raw = (-2.0 * a * d * lin1 * 2.0
               + col(poly) * (4.0 * a ** 2 * d * d - 2.0 * a)) * col(gauss)
        return shaped(np.sum(raw[..., :3], axis=-1) - raw[..., 3] / c ** 2)

    def hess4(e):
        d, poly, gauss, shaped = parts(e)
        ad = a * d
        raw = (-2.0 * (a[..., None] * np.eye(4)) * col(poly, 2)
               - 2.0 * outer(ad, lin1) - 2.0 * outer(lin1, ad)
               + 4.0 * outer(ad, ad) * col(poly, 2)) * col(gauss, 2)
        return shaped(raw * np.outer(fold, fold))

    return {"psi": psi, "grad4": grad4, "laplace4": laplace4, "hess4": hess4}


def _same_as_row_major(wave, lin, b, a, c, e):
    old = _row_major(lin, b, a, c)
    for name, evaluate in old.items():
        new, want = getattr(wave, name)(e), evaluate(e)
        assert type(new) is type(want) and new.shape == want.shape, name
        assert new.tobytes() == want.tobytes(), name


# -0.0 and 0.0 in every slot, as points and as parameters; at the all -0.0
# point every term of the signed-zero wave's c.x is -0.0, and np.sum's
# 0.0 + ... makes the sum 0.0
SIGNED = np.array([[1.0, -0.0, 0.0, -0.0], [-1.0, 0.0, -0.0, 0.0],
                   [0.0, 0.5, -0.0, -0.25], [-0.0, -0.5, 0.0, 0.25],
                   [-0.0, -0.0, -0.0, -0.0]])


@pytest.mark.parametrize("points", [
    Event(0.3, -0.2, 0.1, 0.7), Event(-0.0, -0.0, -0.0, -0.0),
    EventArray(np.linspace(-0.6, 0.6, 28).reshape(7, 4)), EventArray(SIGNED)],
    ids=["event", "signed-zero-event", "batch", "signed-zero-batch"])
@pytest.mark.parametrize("linear, center", [
    ([0.7, 0.2 - 0.1j, -0.3, 0.4j, 0.25], [0.1, -0.2, 0.05, 0.3]),
    ([-0.0, 0.0, 0.0, 0.5, 0.0], [0.0, -0.0, 0.0, -0.0])],
    ids=["generic", "signed-zero-parameters"])
def test_a_gaussian_polynomial_wave_is_the_row_major_expression(
        points, linear, center):
    lin = np.asarray(linear, dtype=complex)
    b, a = np.asarray(center), np.array([0.3, 0.2, 0.4, 0.1])
    c = 1.7
    wave = gaussian_polynomial_wave(lin, b, a, PhysicalConstants(c=c))
    _same_as_row_major(wave, lin[None], b[None], a[None], c, points)


@pytest.mark.parametrize("rows", [12, 204, 1920])
def test_a_random_spinor_family_is_the_row_major_expression(rows):
    rng = np.random.default_rng(rows)
    draws = rng.random((_SPINOR_BLOCK,) + _SPINOR_DRAW)
    # the family's scaling of its draws, and its linear coefficients
    u = _SPINOR_LOW + (_SPINOR_HIGH - _SPINOR_LOW) * draws
    lin = np.concatenate([u[..., :1] * np.exp(1j * u[..., 1:2]),
                          u[..., 2:6] + 1j * u[..., 6:10]], axis=-1)
    points = rng.uniform(-0.6, 0.6, (rows, 4))
    points[:len(SIGNED)] = SIGNED
    family = random_spinor_family(draws, C)
    _same_as_row_major(family, lin, u[..., 10:14], u[..., 14:], C.c,
                       EventArray(points))
