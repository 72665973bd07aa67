import numpy as np
import pytest

from fourvel import (ANALYTIC, Event, NATURAL_UNITS, ParameterError,
                     PhysicalConstants, SingularPointError, central,
                     coulomb_potential, extract_u,
                     field_strength, gauge_transform, lorenz_gauge_residual,
                     plane_wave, polynomial_gauge, pure_gauge_potential,
                     zero_potential)
from fourvel import fields, runner
from fourvel.core4 import EventArray

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
    # a constant A = (1, 0, 0, 0.5j) as a degree-1 gauge: A_4 = -i k_t / c
    f1 = pure_gauge_potential(polynomial_gauge({(1, 0, 0, 0): 1.0,
                                                (0, 0, 0, 1): -0.5}))
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
    bad_terms = [
        {(1.5, 0, 0, 0): 1.0}, {(1.0, 0, 0, 0): 1.0}, {("1", 0, 0, 0): 1.0},
        {(1, 0, 0, -1): 1.0}, {(1, 0, 0, 0, 0): 1.0}, {1: 1.0},
        {"1000": 1.0}, {None: 1.0},
        {(1, 0, 0, 0): float("nan")}, {(1, 0, 0, 0): float("inf")},
        {(1, 0, 0, 0): -float("inf")}, {(1, 0, 0, 0): complex("nan")},
        {(1, 0, 0, 0): complex(1.0, float("nan"))},
        {(1, 0, 0, 0): 1.0 + 1e-300j}, {(1, 0, 0, 0): "1.0"},
        {(1, 0, 0, 0): None}, {(1, 0, 0, 0): [1.0]},
        {(1, 0, 0, 0): 10 ** 400}, {(1, 0, 0, 0): np.float64("nan")},
    ]
    for terms in bad_terms:
        with pytest.raises(ParameterError):
            polynomial_gauge(terms)
    # a real-valued complex coefficient is real, and integral exponents of
    # any integer type are exponents
    e = Event(0.4, -1.1, 0.6, 0.9)
    ref = polynomial_gauge({(1, 0, 0, 1): 0.5, (0, 2, 0, 0): -3.0}, 1.3)
    for terms in ({(1, 0, 0, 1): 0.5 + 0j, (0, 2, 0, 0): -3},
                  {tuple(np.int64([1, 0, 0, 1])): np.float64(0.5),
                   (0, np.uint8(2), 0, 0): np.complex128(-3.0)}):
        chi = polynomial_gauge(terms, 1.3)
        assert chi.degree == ref.degree == 2
        for name in ("chi", "grad4", "hess4"):
            np.testing.assert_array_equal(getattr(chi, name)(e),
                                          getattr(ref, name)(e))


def _reference_gauge(terms: dict, c: float):
    """(chi, grad4, hess4) of terms computed the first way, independently of
    the library: each call differentiates every monomial again and takes the
    power of all four coordinates, zero powers included."""
    clean = {tuple(int(n) for n in ex): float(co) for ex, co in terms.items()}

    def mono(e, expo):
        v = 1.0
        for base, n in zip((e.x1, e.x2, e.x3, e.t), expo):
            v *= base ** n
        return v

    def diff(expo, axis):
        if expo[axis] == 0:
            return None
        new = list(expo)
        new[axis] -= 1
        return float(expo[axis]), tuple(new)

    def fold(acc, n_t):
        if n_t == 0:
            return acc
        if n_t == 1:
            return -1j * (acc / c)
        return -(acc / c) / c

    def zeros(e, *shape, dtype=complex):
        lead = () if isinstance(e, Event) else np.shape(e)[:-1]
        return np.zeros(lead + shape, dtype=dtype)

    def chi(e):
        return sum(co * mono(e, ex) for ex, co in clean.items()) \
            + zeros(e, dtype=float)

    def grad4(e):
        out = zeros(e, 4)
        for ax in range(4):
            acc = 0.0
            for ex, co in clean.items():
                d = diff(ex, ax)
                if d is not None:
                    acc += co * d[0] * mono(e, d[1])
            out[..., ax] = fold(acc, ax == 3)
        return out

    def hess4(e):
        out = zeros(e, 4, 4)
        for ax1 in range(4):
            for ax2 in range(ax1, 4):
                acc = 0.0
                for ex, co in clean.items():
                    d1 = diff(ex, ax1)
                    d2 = None if d1 is None else diff(d1[1], ax2)
                    if d2 is not None:
                        acc += co * d1[0] * d2[0] * mono(e, d2[1])
                val = fold(acc, (ax1 == 3) + (ax2 == 3))
                out[..., ax1, ax2] = val
                out[..., ax2, ax1] = val
        return out

    return chi, grad4, hess4


def _assert_same_bits(got, want):
    # tobytes tells -0.0 from 0.0, which assert_array_equal does not
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


def _random_tables(rng):
    expos = [ex for ex in np.ndindex(5, 5, 5, 5) if sum(ex) <= 4]
    for degree in range(5):
        allowed = [ex for ex in expos if sum(ex) <= degree]
        for _ in range(6):
            picks = rng.permutation(len(allowed))[:rng.integers(1, 16)]
            coeffs = rng.normal(size=len(picks))
            coeffs[rng.uniform(size=len(picks)) < 0.2] = 0.0
            coeffs[rng.uniform(size=len(picks)) < 0.2] = -0.0
            yield {allowed[i]: float(co) for i, co in zip(picks, coeffs)}
    yield {m: float(rng.uniform(-0.5, 0.5)) for m in runner._DEG2_MONOMIALS}
    yield {m: -0.0 for m in runner._DEG2_MONOMIALS}
    yield {}
    yield {(0, 0, 0, 0): 1.5}
    yield {(0, 0, 0, 0): -0.0}


def test_polynomial_gauge_matches_the_per_call_algorithm_bit_for_bit():
    rng = np.random.default_rng(8)
    points = rng.normal(size=(12, 4))
    points[rng.uniform(size=points.shape) < 0.25] = 0.0
    points[rng.uniform(size=points.shape) < 0.25] = -0.0
    points[0] = (0.0, -0.0, 0.0, -0.0)
    batch = EventArray(points)
    # each point set twice in a row, then alternating with others: the
    # evaluators reuse their last result, and every reuse must be exact
    events = [batch, batch.event(0), EventArray(points[:1]), batch.event(5),
              batch, EventArray(points.copy()), Event(0.0, 1.0, 0.0, -2.5),
              Event(-0.0, 1.0, 0.0, -2.5), batch.event(0)]
    for terms in _random_tables(rng):
        for c in (1.0, 1.7):
            gauge = polynomial_gauge(terms, c)
            chi, grad4, hess4 = _reference_gauge(terms, c)
            for e in events:
                for _ in range(2):
                    _assert_same_bits(gauge.chi(e), chi(e))
                    _assert_same_bits(gauge.grad4(e), grad4(e))
                    _assert_same_bits(gauge.hess4(e), hess4(e))
                    _assert_same_bits(gauge.laplace4(e),
                                      np.trace(hess4(e), axis1=-2, axis2=-1))


_MEMO_TERMS = {(1, 0, 0, 0): 0.7, (2, 0, 1, 0): -0.3, (0, 1, 0, 1): 0.5,
               (0, 0, 0, 2): 1.1}


def _memo_points():
    return EventArray(np.random.default_rng(5).normal(size=(6, 4)))


def test_polynomial_gauge_recomputes_after_the_points_change_in_place():
    gauge = polynomial_gauge(_MEMO_TERMS, 1.3)
    reference = _reference_gauge(_MEMO_TERMS, 1.3)
    points = _memo_points()
    for got, want in zip((gauge.chi, gauge.grad4, gauge.hess4), reference):
        _assert_same_bits(got(points), want(points))
        points[2, 0] += 1.0
        points[4, 3] = -points[4, 3]
        _assert_same_bits(got(points), want(points))


def test_polynomial_gauge_results_are_fresh_arrays():
    gauge = polynomial_gauge(_MEMO_TERMS, 1.3)
    reference = _reference_gauge(_MEMO_TERMS, 1.3)
    points = _memo_points()
    for got, want in zip((gauge.chi, gauge.grad4, gauge.hess4), reference):
        first = got(points)
        first[...] = 99.0
        _assert_same_bits(got(points), want(points))


def test_polynomial_gauge_evaluates_each_point_set_once(monkeypatch):
    # every evaluator body builds its output with exactly one _zeros
    # call, and laplace4 is the trace of hess4
    calls = []
    zeros = fields._zeros
    monkeypatch.setattr(fields, "_zeros",
                        lambda *a, **k: calls.append(a) or zeros(*a, **k))
    gauge = polynomial_gauge(_MEMO_TERMS, 1.3)
    points = _memo_points()
    flipped = points.copy()
    flipped[1, 2] = 0.0
    points[1, 2] = -0.0   # the same values but for the sign of one zero
    for evaluator in (gauge.chi, gauge.grad4, gauge.hess4, gauge.laplace4):
        for sample in (points, flipped, Event(0.0, 1.0, 2.0, 3.0),
                       Event(-0.0, 1.0, 2.0, 3.0)):
            before = len(calls)
            for _ in range(5):
                evaluator(sample)
            assert len(calls) == before + 1


def _term_loop(poly: dict, x: tuple):
    """The monomial sum as it was written before its exact unit factors
    (x**1 and the leading 1.0 *) were dropped."""
    acc = 0.0
    for ex, co in poly.items():
        v = 1.0
        for base, n in zip(x, ex):
            if n:
                v = v * base ** n
        acc = acc + co * v
    return acc


def test_the_monomial_sum_is_the_term_loop_bit_for_bit():
    # as the gauge calls it: coefficients as (members, 1) columns, and x as
    # four Python floats (one Event) or four (members, rows) arrays
    rng = np.random.default_rng(12)
    points = rng.normal(size=(4, 3, 5))
    points[rng.uniform(size=points.shape) < 0.25] = 0.0
    points[rng.uniform(size=points.shape) < 0.25] = -0.0
    xs = [tuple(points), (0.0, -0.0, 1.5, -2.25), (-0.0, -0.0, -0.0, -0.0),
          tuple(points[:, :, 0].T[0].tolist())]
    for terms in _random_tables(rng):
        coeffs = rng.normal(size=(3, len(terms)))
        coeffs[rng.uniform(size=coeffs.shape) < 0.2] = -0.0
        for poly in ({ex: co for ex, co in zip(terms, coeffs.T[:, :, None])},
                     {ex: float(co) for ex, co in terms.items()}):
            for x in xs:
                _assert_same_bits(fields._monomial_sum(poly, x),
                                  _term_loop(poly, x))


def test_the_last_points_memo_keys_on_the_points_and_shares_read_only():
    calls, owned = [], np.arange(3.0)
    memo = fields._last_points_memo(
        lambda e: calls.append(e) or (owned, e.as_array() * 2.0), [None])
    points = _memo_points()
    held, twice = memo(points)
    assert memo(points)[1] is twice and len(calls) == 1
    # the cached arrays are read-only views; the body's own array is not
    # made read-only
    assert not held.flags.writeable and not twice.flags.writeable
    assert owned.flags.writeable
    # an equal copy hits; a change in place, or a zero's sign, misses
    assert memo(EventArray(points.copy()))[1] is twice
    points[3, 1] = -points[3, 1]
    _assert_same_bits(memo(points)[1], points * 2.0)
    points[0, 0] = 0.0
    memo(points)
    points[0, 0] = -0.0
    memo(points)
    assert len(calls) == 4
    # one Event and the batch of its one point have keys of their own
    e = Event(0.0, -0.0, 1.0, 2.0)
    memo(e), memo(EventArray([e.as_array()])), memo(e)
    assert len(calls) == 7
    # an array result is returned as a fresh copy each time
    fresh = fields._last_points_memo(lambda e: e.as_array() * 2.0, [None])
    first = fresh(points)
    first[...] = 99.0
    _assert_same_bits(fresh(points), points * 2.0)


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
