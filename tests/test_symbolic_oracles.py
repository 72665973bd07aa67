"""Symbolic oracles for the fixtures and fields.

sympy differentiates each fixture's or field's defining formula (the
docstrings of plane_wave, kg_coulomb_1s, dirac_plane_wave, dirac_coulomb_1s,
gaussian_polynomial_wave, random_spinor_family, polynomial_gauge,
pure_gauge_potential, coulomb_potential and gauge_transform) with the
coordinates and the constants as symbols, and mpmath evaluates the result at
40 digits, with the constants re-derived from the momentum, z_alpha, hbar, c,
m and q at that precision. Slot 3 is d/dx4 with x4 = i c t, so d_4 = d_t /
(i c). The oracles share no code with the library: every evaluator must
agree with its oracle to 1e-13 of its largest |entry| at the point, in
natural units and in other units (where the c in the folded x4 shows), and
the Coulomb states on and off the bound state.

See code verification by manufactured solutions: Salari & Knupp, Sandia
report SAND2000-1444 (2000); for SymPy, Meurer et al., PeerJ Comput. Sci.
3 (2017) e103.
"""
import mpmath
import numpy as np
import pytest
import sympy as sp

from fourvel import (Event, EventArray, NATURAL_UNITS, PhysicalConstants,
                     coulomb_potential, dirac_coulomb_1s, dirac_plane_wave,
                     gaussian_polynomial_wave, gauge_transform, kg_coulomb_1s,
                     plane_wave, polynomial_gauge, pure_gauge_potential,
                     random_spinor_family, zero_potential)

UNITS = PhysicalConstants(hbar=1.3, c=1.7, m=0.8, q=-0.6)
DIGITS = 40
REL_TOL = 1e-13
ZA = 0.4   # both Coulomb scenarios' default coupling

X = sp.symbols("x1 x2 x3 t", real=True)
# P is the radial exponent: gamma of the KG state, s of the Dirac one
HBAR, C, LAM, E, P = sp.symbols("hbar c lambda E p", positive=True)
R = sp.sqrt(X[0] ** 2 + X[1] ** 2 + X[2] ** 2)
T = sp.exp(-sp.I * E * X[3] / HBAR)   # the time factor


def _d(f, mu: int):
    """d/dx_mu of f, slot 3 folded: d_4 = d_t / (i c)."""
    return sp.diff(f, X[mu]) / (sp.I * C) if mu == 3 else sp.diff(f, X[mu])


def _second_order(psi) -> list:
    """psi, its grad4, laplace4 and hess4, flat."""
    grad = [_d(psi, mu) for mu in range(4)]
    hess = [_d(g, nu) for g in grad for nu in range(4)]
    return [psi, *grad, sum(hess[5 * mu] for mu in range(4)), *hess]


def _lambdify(exprs, extra):
    """One mpmath function of the coordinates, hbar, c and the fixture
    constants extra, giving the flat list exprs."""
    return sp.lambdify((*X, HBAR, C, *extra), exprs, modules="mpmath",
                       cse=True)


def _points(count: int = 6, seed: int = 11) -> np.ndarray:
    """Events at 0.25 <= r <= 3 and |t| <= 2."""
    rng = np.random.default_rng(seed)
    n = rng.normal(size=(count, 3))
    n *= (rng.uniform(0.25, 3.0, count) / np.linalg.norm(n, axis=1))[:, None]
    return np.column_stack([n, rng.uniform(-2.0, 2.0, count)])


POINTS = _points()


def _evaluate(fn, consts, params, points=POINTS) -> np.ndarray:
    """fn at every one of points at DIGITS digits, rounded to complex."""
    with mpmath.workdps(DIGITS):
        k = [mpmath.mpf(consts.hbar), mpmath.mpf(consts.c)]
        rows = [fn(*map(mpmath.mpf, p), *k, *params(consts)) for p in points]
        return np.array([[complex(v) for v in row] for row in rows])


def _assert_close(got, want, what: str) -> None:
    """got within REL_TOL of want's largest |entry|, point by point."""
    got = np.asarray(got).reshape(len(want), -1)
    want = want.reshape(len(want), -1)
    scale = np.max(np.abs(want), axis=1)
    err = np.max(np.abs(got - want), axis=1) / scale
    assert np.all(scale > 0) and np.max(err) < REL_TOL, (what, err)


SCALAR = [("psi", ()), ("grad4", (4,)), ("laplace4", ()), ("hess4", (4, 4))]


def _check(wave, oracle, shapes, label=None) -> None:
    """Each evaluator of wave on the POINTS batch and on one Event against
    its columns of the oracle table."""
    label, start = label or wave.label, 0
    for name, shape in shapes:
        size = int(np.prod(shape))
        want = oracle[:, start:start + size]
        start += size
        f = getattr(wave, name)
        _assert_close(f(EventArray(POINTS)), want, (label, name))
        _assert_close(f(Event(*map(float, POINTS[0]))), want[:1],
                      (label, name, "Event"))
    assert start == oracle.shape[1]


# ---------------------------------------------------------------------------
# kg_coulomb_1s: psi = r^(gamma-1) exp(-lambda r) exp(-i E t / hbar)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def kg_oracle():
    """psi, grad4, laplace4 and hess4, flat, as one function."""
    return _lambdify(_second_order(R ** (P - 1) * sp.exp(-LAM * R) * T),
                     (P, LAM, E))


def _kg_params(energy_scale: float):
    """gamma, lambda and E of kg_coulomb_1s's docstring at DIGITS digits."""
    def params(consts):
        za, hbar, c, m = (mpmath.mpf(v) for v in (
            ZA, consts.hbar, consts.c, consts.m))
        gamma = (1 + mpmath.sqrt(1 - 4 * za ** 2)) / 2
        energy = (mpmath.mpf(energy_scale) * m * c ** 2
                  / mpmath.sqrt(1 + (za / gamma) ** 2))
        return gamma, energy * za / (gamma * hbar * c), energy
    return params


@pytest.mark.parametrize("consts", [NATURAL_UNITS, UNITS],
                         ids=["natural", "units"])
@pytest.mark.parametrize("energy_scale", [1.0, 1.05])
def test_kg_coulomb_1s_matches_sympy(kg_oracle, consts, energy_scale):
    wave = kg_coulomb_1s(ZA, consts, energy_scale)
    oracle = _evaluate(kg_oracle, consts, _kg_params(energy_scale))
    _check(wave, oracle, SCALAR)


# ---------------------------------------------------------------------------
# dirac_coulomb_1s: (G, 0, i ratio H x3, i ratio H (x1 + i x2)) exp(-i E t /
# hbar), G = r^(s-1) exp(-lambda r), H = r^(s-2) exp(-lambda r)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dirac_oracle():
    """psi, grad4 and laplace4, flat, as one function."""
    s, ratio = P, sp.Symbol("ratio", positive=True)
    decay = sp.exp(-LAM * R)
    small = sp.I * ratio * R ** (s - 2) * decay * T
    psi = [R ** (s - 1) * decay * T, sp.Integer(0),
           small * X[2], small * (X[0] + sp.I * X[1])]
    grad = [_d(comp, mu) for comp in psi for mu in range(4)]
    lap = [sum(_d(_d(comp, mu), mu) for mu in range(4)) for comp in psi]
    return _lambdify([*psi, *grad, *lap], (P, ratio, LAM, E))


def _dirac_params(energy):
    """s, ratio, lambda and E of dirac_coulomb_1s's docstring at DIGITS
    digits; energy None is the bound state E = m c^2 sqrt(1 - z_alpha^2)."""
    def params(consts):
        za, hbar, c, m = (mpmath.mpf(v) for v in (
            ZA, consts.hbar, consts.c, consts.m))
        s = mpmath.sqrt(1 - za ** 2)
        e = s * m * c ** 2 if energy is None else mpmath.mpf(energy)
        lam = mpmath.sqrt((m * c ** 2) ** 2 - e ** 2) / (hbar * c)
        return s, lam * hbar * c / (e + m * c ** 2), lam, e
    return params


@pytest.mark.parametrize("consts, trial", [(NATURAL_UNITS, 0.9),
                                           (UNITS, 2.0)],
                         ids=["natural", "units"])
@pytest.mark.parametrize("at_bound_state", [True, False],
                         ids=["bound", "trial"])
def test_dirac_coulomb_1s_matches_sympy(dirac_oracle, consts, trial,
                                        at_bound_state):
    energy = None if at_bound_state else trial
    wave = dirac_coulomb_1s(ZA, consts, energy)
    oracle = _evaluate(dirac_oracle, consts, _dirac_params(energy))
    assert wave.hess4 is None
    _check(wave, oracle, [("psi", (4,)), ("grad4", (4, 4)),
                          ("laplace4", (4,))])


# ---------------------------------------------------------------------------
# plane_wave: exp(i(p.x - E t)/hbar), E = sqrt(p.p c^2 + m^2 c^4);
# dirac_plane_wave: upper chi, lower c (sigma.p) chi / (E + m c^2), times the
# same phase
# ---------------------------------------------------------------------------

MOMENTUM = (0.7, -0.4, 0.25)
PV = sp.symbols("p1 p2 p3", real=True)
M = sp.Symbol("m", positive=True)
Q = sp.Symbol("q", real=True)
PLANE = (*PV, E, M, Q)   # the constants of every plane-wave form
PHASE = sp.exp(sp.I * (sum(p * x for p, x in zip(PV, X)) - E * X[3]) / HBAR)


def _plane_params(consts):
    """p, E, m and q at DIGITS digits."""
    p = [mpmath.mpf(v) for v in MOMENTUM]
    c, m = mpmath.mpf(consts.c), mpmath.mpf(consts.m)
    energy = mpmath.sqrt(sum(v * v for v in p) * c ** 2 + (m * c ** 2) ** 2)
    return (*p, energy, m, mpmath.mpf(consts.q))


def _spinor(comps) -> list:
    """_second_order of each component in the spinor layout: psi [k],
    grad4 [k, mu], laplace4 [k], hess4 [k, mu, nu]."""
    forms = [_second_order(comp) for comp in comps]
    return [x for a, b in ((0, 1), (1, 5), (5, 6), (6, 22))
            for form in forms for x in form[a:b]]


@pytest.fixture(scope="module")
def plane_oracles():
    """The plane wave's and each spin's Dirac plane wave's forms."""
    sigma_p = sp.Matrix([[PV[2], PV[0] - sp.I * PV[1]],
                         [PV[0] + sp.I * PV[1], -PV[2]]])
    oracles = {"scalar": _lambdify(_second_order(PHASE), PLANE)}
    for spin, chi in (("up", [1, 0]), ("down", [0, 1])):
        lower = C * sigma_p * sp.Matrix(chi) / (E + M * C ** 2)
        oracles[spin] = _lambdify(
            _spinor([w * PHASE for w in [*chi, *lower]]), PLANE)
    return oracles


@pytest.mark.parametrize("consts", [NATURAL_UNITS, UNITS],
                         ids=["natural", "units"])
def test_plane_wave_matches_sympy(plane_oracles, consts):
    oracle = _evaluate(plane_oracles["scalar"], consts, _plane_params)
    _check(plane_wave(MOMENTUM, consts), oracle, SCALAR)


@pytest.mark.parametrize("consts", [NATURAL_UNITS, UNITS],
                         ids=["natural", "units"])
@pytest.mark.parametrize("spin", ["up", "down"])
def test_dirac_plane_wave_matches_sympy(plane_oracles, consts, spin):
    oracle = _evaluate(plane_oracles[spin], consts, _plane_params)
    _check(dirac_plane_wave(MOMENTUM, spin, consts), oracle,
           [("psi", (4,)), ("grad4", (4, 4)), ("laplace4", (4,)),
            ("hess4", (4, 4, 4))])


# ---------------------------------------------------------------------------
# polynomial_gauge: chi = sum of coeff x1^n1 x2^n2 x3^n3 t^nt, real; its
# gauge_transform of the plane wave: psi exp(i q chi / hbar)
# ---------------------------------------------------------------------------

# degree 2, with t^2 and x1 t terms, so that the 1/(i c) fold shows in
# grad4 and in both the mixed and the pure t slots of hess4
GAUGE = {(0, 0, 0, 0): 0.3, (1, 0, 0, 0): -0.7, (0, 1, 0, 0): 0.2,
         (0, 0, 1, 0): 0.45, (0, 0, 0, 1): 1.1, (2, 0, 0, 0): 0.25,
         (0, 1, 1, 0): -0.35, (1, 0, 0, 1): 0.9, (0, 0, 0, 2): -0.6}
# each coefficient as the exact rational its float64 holds
CHI = sum(sp.Rational(co) * sp.Mul(*(x ** n for x, n in zip(X, ex)))
          for ex, co in GAUGE.items())


@pytest.fixture(scope="module")
def gauge_oracles():
    """chi's forms, and those of the plane wave it transforms."""
    return (_lambdify(_second_order(CHI), ()),
            _lambdify(_second_order(PHASE * sp.exp(sp.I * Q * CHI / HBAR)),
                      PLANE))


@pytest.mark.parametrize("consts", [NATURAL_UNITS, UNITS],
                         ids=["natural", "units"])
def test_polynomial_gauge_matches_sympy(gauge_oracles, consts):
    oracle = _evaluate(gauge_oracles[0], consts, lambda consts: ())
    _check(polynomial_gauge(GAUGE, consts.c), oracle,
           [("chi", ())] + SCALAR[1:], "polynomial gauge")


@pytest.mark.parametrize("consts", [NATURAL_UNITS, UNITS],
                         ids=["natural", "units"])
def test_gauge_transform_of_a_plane_wave_matches_sympy(gauge_oracles,
                                                       consts):
    _, wave = gauge_transform(zero_potential(), plane_wave(MOMENTUM, consts),
                              polynomial_gauge(GAUGE, consts.c), consts)
    oracle = _evaluate(gauge_oracles[1], consts, _plane_params)
    _check(wave, oracle, SCALAR)


@pytest.fixture(scope="module")
def pure_gauge_oracle():
    """A_mu = d_mu chi and grad [mu, nu] = d_mu A_nu, flat."""
    a = [_d(CHI, mu) for mu in range(4)]
    return _lambdify([*a, *(_d(a[nu], mu) for mu in range(4)
                            for nu in range(4))], ())


@pytest.mark.parametrize("consts", [NATURAL_UNITS, UNITS],
                         ids=["natural", "units"])
def test_pure_gauge_potential_matches_sympy(pure_gauge_oracle, consts):
    oracle = _evaluate(pure_gauge_oracle, consts, lambda consts: ())
    _check(pure_gauge_potential(polynomial_gauge(GAUGE, consts.c)), oracle,
           [("a", (4,)), ("grad", (4, 4))], "pure gauge potential")


# ---------------------------------------------------------------------------
# gaussian_polynomial_wave: (c0 + c.x) exp(-sum a_i (x_i - b_i)^2) over x1,
# x2, x3 and t; random_spinor_family: four of them per member, each from 18
# uniform draws scaled to magnitude, phase, 4 real and 4 imaginary linear
# coefficients, 4 centers and 4 widths, c0 = magnitude exp(i phase)
# ---------------------------------------------------------------------------

LIN = sp.symbols("c0:5")   # complex
CENTER = sp.symbols("b1:5", real=True)
WIDTHS = sp.symbols("a1:5", positive=True)


@pytest.fixture(scope="module")
def gaussian_oracle():
    """psi, grad4, laplace4 and hess4 of any parameter set, flat."""
    poly = LIN[0] + sum(v * x for v, x in zip(LIN[1:], X))
    gauss = sp.exp(-sum(a * (x - b) ** 2 for x, b, a in zip(X, CENTER, WIDTHS)))
    return _lambdify(_second_order(poly * gauss), (*LIN, *CENTER, *WIDTHS))


GAUSSIAN = ((0.8 - 0.3j, 0.25 + 0.1j, -0.4, 0.15j, 0.35 - 0.2j),
            (0.2, -0.1, 0.3, 0.5), (0.3, 0.2, 0.25, 0.15))


@pytest.mark.parametrize("consts", [NATURAL_UNITS, UNITS],
                         ids=["natural", "units"])
def test_gaussian_polynomial_wave_matches_sympy(gaussian_oracle, consts):
    params = [mpmath.mpmathify(v) for part in GAUSSIAN for v in part]
    oracle = _evaluate(gaussian_oracle, consts, lambda consts: params)
    _check(gaussian_polynomial_wave(*GAUSSIAN, consts), oracle, SCALAR)


def _component(draw) -> list:
    """The parameters of one spinor component of its 18 uniform [0, 1)
    draws, at DIGITS digits: c0 = magnitude exp(i phase), c1..c4 = real + i
    imaginary, then the centers and the widths."""
    with mpmath.workdps(DIGITS):
        low = [0.5, 0] + [-0.3] * 8 + [-0.5] * 4 + [0.1] * 4
        high = [1.5, 2 * mpmath.pi] + [0.3] * 8 + [0.5] * 4 + [0.4] * 4
        u = [mpmath.mpf(lo) + (hi - mpmath.mpf(lo)) * mpmath.mpf(d)
             for lo, hi, d in zip(low, high, draw)]
        return ([u[0] * mpmath.expj(u[1])]
                + [re + 1j * im for re, im in zip(u[2:6], u[6:10])] + u[10:])


@pytest.mark.parametrize("consts", [NATURAL_UNITS, UNITS],
                         ids=["natural", "units"])
def test_random_spinor_family_member_matches_sympy(gaussian_oracle, consts):
    # two members share the six points, three each: the second member's
    # rows are the last three, and its components are the gaussian forms
    # of its draws, in the spinor layout psi [k], grad4 [k, mu], laplace4
    # [k], hess4 [k, mu, nu]
    draws = np.random.default_rng(5).random((2, 4, 18))
    family = random_spinor_family(draws, consts)
    forms = [_evaluate(gaussian_oracle, consts, lambda consts, d=d:
                       _component(d), POINTS[3:]) for d in draws[1]]
    for name, (a, b) in zip(["psi", "grad4", "laplace4", "hess4"],
                            [(0, 1), (1, 5), (5, 6), (6, 22)]):
        want = np.concatenate([form[:, a:b] for form in forms], axis=1)
        _assert_close(getattr(family, name)(EventArray(POINTS))[3:], want,
                      ("spinor member", name))


# ---------------------------------------------------------------------------
# coulomb_potential: A = (0, 0, 0, i k / r), k = -z_alpha hbar / q; grad
# [mu, nu] = d_mu A_nu
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def coulomb_oracle():
    """a and grad, flat, as one function."""
    k = sp.Symbol("k", real=True)
    a = [sp.Integer(0)] * 3 + [sp.I * k / R]
    return _lambdify([*a, *(_d(a[nu], mu) for mu in range(4)
                            for nu in range(4))], (k,))


@pytest.mark.parametrize("consts", [NATURAL_UNITS, UNITS],
                         ids=["natural", "units"])
def test_coulomb_potential_matches_sympy(coulomb_oracle, consts):
    oracle = _evaluate(coulomb_oracle, consts, lambda consts: (
        -mpmath.mpf(ZA) * mpmath.mpf(consts.hbar) / mpmath.mpf(consts.q),))
    _check(coulomb_potential(ZA, consts), oracle,
           [("a", (4,)), ("grad", (4, 4))], "coulomb potential")
