"""Polynomial gauges as member-paired families.

A family of M gauges evaluated on K points gives member j the j-th of M
equal, contiguous blocks of rows. Each member must equal, bit for bit, the
polynomial_gauge of its own coefficients on its own block, and gauge-orbit
must report every gauge's rows and checks as it did when it certified one
gauge at a time.
"""
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from fourvel import (ANALYTIC, Event, EventArray, ParameterError,
                     PhysicalConstants, central, config_from_dict,
                     coulomb_potential, dirac_plane_wave, dirac_residual,
                     export_report, extract_u, field_strength,
                     gauge_transform, plane_wave, polynomial_gauge,
                     pure_gauge_potential, run_scenario, zero_potential)
from fourvel import fields, runner
from fourvel.core4 import _col
from fourvel.fields import _polynomial_gauge_members
from fourvel.runner import _GAUGE_ROWS
from fourvel.velocityfield import _Chain
from fourvel.wavefunctions import _outer

METHODS = {"analytic": ANALYTIC, "central": central(),
           "central-richardson": central(richardson=True)}
# gauge-orbit's monomials, in the order it draws their coefficients
MONOMIALS = [
    (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (1, 1, 0, 0),
    (1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1),
]
CHECKS = ("u_invariance", "dirac_invariance", "field_strength_invariance",
          "roundtrip")


def _worst(x):
    return np.max(np.abs(x), axis=tuple(range(1, np.ndim(x))))


def _rows(report) -> list:
    return json.loads(export_report(report))["rows"]


def _one_gauge_at_a_time(cfg, events):
    """gauge-orbit's rows and (check, linf, l2, count) summaries, each gauge
    drawn, built and certified alone, as before gauges became families."""
    consts, meth = cfg.constants, cfg.method
    a0 = zero_potential()
    wave = plane_wave(cfg.fixture["p"], consts)
    spinor = dirac_plane_wave(cfg.fixture["p"], "up", consts)
    monos = [m for m in MONOMIALS if sum(m) <= cfg.fixture["degree"]]
    u0 = extract_u(wave, a0, events, meth, constants=consts)
    r0 = _worst(dirac_residual(spinor, a0, events, meth, constants=consts))
    f0 = field_strength(a0, events, meth, c=consts.c)
    rng = np.random.default_rng(cfg.seed)   # an events cloud draws nothing
    rows, mags = [], {name: [] for name in CHECKS}
    for j in range(cfg.fixture["n_gauges"]):
        terms = {m: float(rng.uniform(-0.5, 0.5)) for m in monos}
        chi = polynomial_gauge(terms, consts.c)
        neg = polynomial_gauge({m: -v for m, v in terms.items()}, consts.c)
        a1, wave1 = gauge_transform(a0, wave, chi, consts)
        _, spinor1 = gauge_transform(a0, spinor, chi, consts)
        a2, wave2 = gauge_transform(a1, wave1, neg, consts)
        u1 = extract_u(wave1, a1, events, meth, constants=consts)
        r1 = _worst(dirac_residual(spinor1, a1, events, meth,
                                   constants=consts))
        f1 = field_strength(a1, events, meth, c=consts.c)
        u2 = extract_u(wave2, a2, events, meth, constants=consts)
        checks = dict(zip(CHECKS, (_worst(u1 - u0), np.abs(r1 - r0),
                                   _worst(f1 - f0), _worst(u2 - u0))))
        for i, point in enumerate(events.tolist()):
            rows += [(f"chi-{j}", name, i, *point, float(values[i]))
                     for name, values in checks.items()]
        for name, values in checks.items():
            mags[name].append(values)
    summaries = []
    for name, blocks in mags.items():
        if blocks:   # a check with no rows has no summary
            m = np.concatenate(blocks)
            summaries.append((name, float(m.max()),
                              math.sqrt(np.cumsum(m * m)[-1]), len(m)))
    return rows, summaries


def _cloud(count):
    points = np.random.default_rng(41).uniform(-1.5, 1.5, (count, 4))
    return [dict(zip(("x1", "x2", "x3", "t"), p)) for p in points.tolist()]


# (gauges, method, events); and the gauges per block the runner takes for
# the inputs with several blocks: 100 events evaluate 100 rows per gauge in
# analytic mode, so 25 gauges take blocks of 10, 10 and 5, but 17 or 33 rows
# per event in central mode (the stencil rows and the point), so one gauge
# per block; 20 events in central mode evaluate 20 x 17 rows per gauge, so 5
# gauges take blocks of 2, 2 and 1
RUNNER_INPUTS = ([(n, method, 100) for n in (0, 1, 10, 25)
                  for method in METHODS] + [(5, "central", 20)])
BLOCKS = {(25, "analytic", 100): [10, 10, 5],
          (25, "central", 100): [1] * 25,
          (25, "central-richardson", 100): [1] * 25,
          (5, "central", 20): [2, 2, 1]}


@pytest.mark.parametrize("n, method, count", RUNNER_INPUTS, ids=[
    f"{n}-{method}" + (f"-{count}-events" if count != 100 else "")
    for n, method, count in RUNNER_INPUTS])
def test_runner_equals_one_gauge_at_a_time(n, method, count, monkeypatch):
    cloud = _cloud(count)
    m = METHODS[method]
    cfg = config_from_dict({
        "fixture": {"n_gauges": n},
        "cloud": {"kind": "events", "events": cloud},
        "method": {"mode": m.mode, "richardson": m.richardson}},
        "gauge-orbit")
    sizes = []   # each block builds one family and one of their inverses
    members = runner._polynomial_gauge_members
    monkeypatch.setattr(runner, "_polynomial_gauge_members", lambda *a: (
        sizes.append(len(a[1])) or members(*a)))
    report = run_scenario(cfg)
    if (n, method, count) in BLOCKS:
        assert sizes[::2] == BLOCKS[n, method, count]
    rows, summaries = _one_gauge_at_a_time(
        cfg, EventArray(np.array([list(p.values()) for p in cloud])))
    assert [(r["case"], r["check"], r["index"], r["x1"], r["x2"], r["x3"],
             r["t"], r["magnitude"]) for r in _rows(report)] == rows
    assert [(c.name, c.linf, c.l2, c.count) for c in report.checks] \
        == summaries


def test_degree_one_gauges_equal_one_gauge_at_a_time():
    cloud = _cloud(30)
    cfg = config_from_dict({"fixture": {"n_gauges": 40, "degree": 1},
                            "cloud": {"kind": "events", "events": cloud}},
                           "gauge-orbit")
    rows, _ = _one_gauge_at_a_time(
        cfg, EventArray(np.array([list(p.values()) for p in cloud])))
    assert [(r["case"], r["check"], r["index"], r["x1"], r["x2"], r["x3"],
             r["t"], r["magnitude"]) for r in _rows(run_scenario(cfg))] \
        == rows


def _same_bits(got, want):
    # tobytes tells -0.0 from 0.0, which array_equal does not
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("monos", [MONOMIALS, MONOMIALS[:5],
                                   MONOMIALS[:1], []],
                         ids=["degree-2", "degree-1", "constant", "empty"])
def test_a_family_equals_its_members(monos):
    rng = np.random.default_rng(17)
    coeffs = rng.uniform(-0.5, 0.5, (3, len(monos)))
    coeffs[rng.uniform(size=coeffs.shape) < 0.2] = 0.0
    coeffs[rng.uniform(size=coeffs.shape) < 0.2] = -0.0
    points = rng.normal(size=(4, 4))
    points[rng.uniform(size=points.shape) < 0.25] = 0.0
    points[rng.uniform(size=points.shape) < 0.25] = -0.0
    tiled = EventArray(np.tile(points, (3, 1)))
    family = _polynomial_gauge_members(monos, coeffs, 1.7)
    for j in range(3):
        one = polynomial_gauge(dict(zip(monos, coeffs[j].tolist())), 1.7)
        for name in ("chi", "grad4", "hess4", "laplace4"):
            _same_bits(getattr(family, name)(tiled)[4 * j:4 * j + 4],
                       getattr(one, name)(EventArray(points)))
    assert family.degree == max(map(sum, monos), default=0)


def test_one_member_on_one_event_is_polynomial_gauge():
    coeffs = np.random.default_rng(3).uniform(-0.5, 0.5, (1, 15))
    family = _polynomial_gauge_members(MONOMIALS, coeffs, 1.3)
    one = polynomial_gauge(dict(zip(MONOMIALS, coeffs[0].tolist())), 1.3)
    e = Event(0.4, -0.0, 1.1, -0.7)
    for name in ("chi", "grad4", "hess4", "laplace4"):
        _same_bits(getattr(family, name)(e), getattr(one, name)(e))


@pytest.mark.parametrize("members, points", [(3, 4), (2, 3), (2, 1)])
def test_a_point_count_that_does_not_split_is_refused(members, points):
    family = _polynomial_gauge_members(
        MONOMIALS, np.full((members, 15), 0.1), 1.0)
    e = (Event(0.1, 0.2, 0.3, 0.4) if points == 1
         else EventArray(np.full((points, 4), 0.1)))
    for evaluate in (family.chi, family.grad4, family.hess4, family.laplace4):
        with pytest.raises(ParameterError, match=f"{points} points do not "
                           f"split into {members} equal blocks"):
            evaluate(e)


@pytest.mark.parametrize("coeffs", [
    np.full((2, 14), 0.1), np.full(15, 0.1), np.zeros((0, 15)),
    np.full((2, 15), 0.1 + 0.2j), np.full((2, 15), np.nan),
    np.full((2, 15), np.inf), np.full((2, 15), "0.1")])
def test_a_coefficient_table_must_be_finite_real_and_fit(coeffs):
    with pytest.raises(ParameterError, match="finite real table"):
        _polynomial_gauge_members(MONOMIALS, coeffs, 1.0)


def test_a_family_evaluates_each_point_set_once(monkeypatch):
    # every evaluator body builds its output with exactly one _zeros
    # call, and laplace4 is the trace of hess4. Only grad4 keeps a memo:
    # chi, hess4 and laplace4 run their body on every call
    calls = []
    zeros = fields._zeros
    monkeypatch.setattr(fields, "_zeros",
                        lambda *a, **k: calls.append(a) or zeros(*a, **k))
    family = _polynomial_gauge_members(
        MONOMIALS, np.random.default_rng(9).uniform(-1, 1, (3, 15)), 1.3)
    points = EventArray(np.random.default_rng(5).normal(size=(6, 4)))
    flipped = points.copy()
    flipped[1, 2] = 0.0
    points[1, 2] = -0.0
    for evaluator in (family.chi, family.grad4, family.hess4,
                      family.laplace4):
        for sample in (points, flipped):
            before = len(calls)
            for _ in range(5):
                evaluator(sample)
            assert len(calls) == before + (1 if evaluator is family.grad4
                                           else 5)


def _traced_peak(doc, scenario):
    cfg = config_from_dict(doc, scenario)
    run_scenario(cfg)   # first-call caches are not the gauges' memory
    tracemalloc.start()
    try:
        run_scenario(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_gauge_count():
    small = _traced_peak({"fixture": {"n_gauges": 10}}, "gauge-orbit")
    large = _traced_peak({"fixture": {"n_gauges": 40}}, "gauge-orbit")
    assert abs(large - small) <= 0.25 * small


def test_a_default_run_stays_under_a_central_plane_wave_run():
    assert _traced_peak({}, "gauge-orbit") < _traced_peak(
        {"method": {"mode": "central"}}, "plane-wave")


def test_a_default_run_certifies_its_gauges_in_one_block(monkeypatch):
    # each block builds one family of gauges and one of their inverses
    sizes = []
    members = runner._polynomial_gauge_members
    monkeypatch.setattr(runner, "_polynomial_gauge_members", lambda *a: (
        sizes.append(len(a[1])) or members(*a)))
    report = run_scenario(config_from_dict({}, "gauge-orbit"))
    assert sizes == [10, 10]
    assert len({r["case"] for r in _rows(report)}) == 10


def test_a_report_keeps_one_copy_of_the_cloud():
    # a 40-gauge report's blocks are four tiles of the 100-event cloud; each
    # of its 40 blocks holds the one copy, not a view of its tile
    blocks = run_scenario(config_from_dict(
        {"fixture": {"n_gauges": 40}}, "gauge-orbit")).rows.blocks
    cloud = blocks[0][1]
    assert len(blocks) == 40 and cloud.base is None
    assert all(points is cloud for _, points, _ in blocks)


# (calls, body runs) of each memo in a default run, by the function that
# made it: the gauged waves' (gauge_transform) and the gauges' grad4
# (_polynomial_gauge_members). A memo whose body runs on every call keeps
# a key and a copy and saves nothing. Central mode takes one gauge per
# block: its gauged wave is read on the ring, once itself and once by the
# round trip's wave, and the round trip and the gauged spinor on the ring:
# 4 calls and 3 bodies per gauge.
@pytest.mark.parametrize("mode, traffic", [
    ("analytic", {"gauge_transform": [8, 3],
                  "_polynomial_gauge_members": [8, 2]}),
    ("central", {"gauge_transform": [40, 30],
                 "_polynomial_gauge_members": [50, 30]})])
def test_every_memo_of_a_default_run_hits(monkeypatch, mode, traffic):
    counts = {}
    memo = fields._last_points_memo

    def counted_memo(body):
        count = counts.setdefault(body.__qualname__.split(".")[0], [0, 0])

        def counted_body(e):
            count[1] += 1
            return body(e)
        evaluator = memo(counted_body)

        def counted(e):
            count[0] += 1
            return evaluator(e)
        return counted
    monkeypatch.setattr(fields, "_last_points_memo", counted_memo)
    run_scenario(config_from_dict({"method": {"mode": mode}}, "gauge-orbit"))
    assert counts == traffic


# The block-sized evaluators compute in place. Each in-place result must
# equal, bit for bit, the out-of-place expression it replaced, with every
# binary operation's operands in their original order: numpy's complex
# loops do not round a * b and b * a alike. A spinor's (K, 4, 4) arrays on
# a gauge block's 1000 rows have 16000 elements, more than one of numpy's
# broadcasting buffers (8192) holds, as in a real block.
UNITS = PhysicalConstants(hbar=1.3, c=1.7, m=0.8, q=-0.6)
P = [0.3, -0.2, 0.1]


def _block_and_event():
    rng = np.random.default_rng(29)
    coeffs = rng.uniform(-0.5, 0.5, (10, len(MONOMIALS)))
    points = EventArray(rng.uniform(-1.5, 1.5, (_GAUGE_ROWS, 4)))
    return [(_polynomial_gauge_members(MONOMIALS, coeffs, UNITS.c), points),
            (_polynomial_gauge_members(MONOMIALS, coeffs[:1], UNITS.c),
             Event(0.4, -0.0, 1.1, -0.7))]


@pytest.mark.parametrize("spinor", [False, True], ids=["scalar", "spinor"])
def test_a_gauged_gradient_is_the_out_of_place_expression(spinor):
    psi = (dirac_plane_wave(P, "up", UNITS) if spinor
           else plane_wave(P, UNITS))
    iq_h = 1j * UNITS.q / UNITS.hbar
    for chi, e in _block_and_event():
        _, gauged = gauge_transform(zero_potential(), psi, chi, UNITS)
        value, x = psi.psi(e), chi.chi(e)
        lift = ((slice(None),) * np.ndim(x)
                + (None,) * (np.ndim(value) - np.ndim(x)))
        g = np.exp(iq_h * x[lift])
        _same_bits(gauged.grad4(e), _col(g) * (
            psi.grad4(e) + _col(value * iq_h) * chi.grad4(e)[lift]))


def test_a_spinor_chain_pop_is_the_out_of_place_expression():
    spinor = dirac_plane_wave(P, "up", UNITS)
    for chi, e in _block_and_event():
        a, gauged = gauge_transform(coulomb_potential(0.3, UNITS), spinor,
                                    chi, UNITS)
        chain, ref = (_Chain(gauged, a, e, ANALYTIC, UNITS, 0.0)
                      for _ in range(2))
        pop = chain.pop
        _same_bits(pop, np.swapaxes(
            -1j * UNITS.hbar * ref.grad
            - UNITS.q * (ref.value[..., :, None] * ref.a), -1, -2))
        # and the chain's own gradient is left as it was
        _same_bits(chain.grad, ref.grad)


def test_a_sum_of_potentials_is_the_out_of_place_sum():
    for chi, e in _block_and_event():
        gauge, coulomb = pure_gauge_potential(chi), coulomb_potential(0.3,
                                                                      UNITS)
        for left, right in [(zero_potential(), gauge), (gauge, coulomb),
                            (coulomb, gauge)]:
            total = left + right
            for name in ("a", "grad"):
                want = getattr(left, name)(e) + getattr(right, name)(e)
                # twice: the left operand's evaluator keeps nothing it gave
                for _ in range(2):
                    _same_bits(getattr(total, name)(e), want)


# gauge_transform evaluates psi, chi and exp(i q chi / hbar) once per point
# set and shares them between psi' and its derivatives. Each memoized
# evaluator must equal, bit for bit, the expression it evaluated afresh on
# every call before.
def _unmemoized(psi, chi, e):
    """psi', d psi', box psi' and hess psi' of the gauged psi at e, each
    from its own evaluation of psi, chi and the factor."""
    iq_h = 1j * UNITS.q / UNITS.hbar

    def gauged():
        value, x = psi.psi(e), chi.chi(e)
        lift = ((slice(None),) * np.ndim(x)
                + (None,) * (np.ndim(value) - np.ndim(x)))
        return value, np.exp(iq_h * x[lift]), lambda d: d(e)[lift]

    value, g, lifted = gauged()
    psi_p = value * g
    value, g, lifted = gauged()
    grad_p = _col(g) * (psi.grad4(e) + _col(value * iq_h) * lifted(chi.grad4))
    value, g, lifted = gauged()
    dchi, dpsi = lifted(chi.grad4), psi.grad4(e)
    lap_p = g * (psi.laplace4(e) + 2 * iq_h * np.sum(dpsi * dchi, axis=-1)
                 + value * (iq_h * lifted(chi.laplace4)
                            + iq_h ** 2 * np.sum(dchi * dchi, axis=-1)))
    value, g, lifted = gauged()
    dchi, dpsi = lifted(chi.grad4), psi.grad4(e)
    hess_p = _col(g, 2) * (
        psi.hess4(e) + iq_h * (_outer(dpsi, dchi) + _outer(dchi, dpsi))
        + _col(value, 2) * (iq_h * lifted(chi.hess4)
                            + iq_h ** 2 * _outer(dchi, dchi)))
    return psi_p, grad_p, lap_p, hess_p


def _gauged_evaluators(wave):
    return wave.psi, wave.grad4, wave.laplace4, wave.hess4


@pytest.mark.parametrize("spinor", [False, True], ids=["scalar", "spinor"])
def test_a_memoized_gauged_wave_is_the_unmemoized_expression(spinor):
    psi = (dirac_plane_wave(P, "up", UNITS) if spinor
           else plane_wave(P, UNITS))
    (chi, block), (one, e) = _block_and_event()
    _, wave = gauge_transform(zero_potential(), psi, chi, UNITS)
    _, on_one = gauge_transform(zero_potential(), psi, one, UNITS)
    want, flipped = (_unmemoized(psi, chi, points)
                     for points in (block, block[::-1]))
    # twice in a row, then alternating with another point set: every reuse
    # of the memo must be exact
    for i, evaluate in enumerate(_gauged_evaluators(wave)):
        for points, w in ((block, want), (block, want), (block[::-1], flipped),
                          (block, want)):
            _same_bits(evaluate(points), w[i])
    for evaluate, w in zip(_gauged_evaluators(on_one),
                           _unmemoized(psi, one, e)):
        for _ in range(2):
            _same_bits(evaluate(e), w)


def _counting(f, counts):
    def counted(e):
        key = e.as_array().tobytes()
        counts[key] = counts.get(key, 0) + 1
        return f(e)
    return counted


def test_a_default_block_evaluates_psi_and_chi_once_per_point_set(
        monkeypatch):
    # every gauge_transform of the block gets psi and chi that count their
    # calls by the bytes of the points
    counts = []
    transform = runner.gauge_transform

    def counted_transform(a, psi, chi, constants):
        counts.append(({}, {}))
        return transform(
            a, dataclasses.replace(psi, psi=_counting(psi.psi, counts[-1][0])),
            dataclasses.replace(chi, chi=_counting(chi.chi, counts[-1][1])),
            constants)
    monkeypatch.setattr(runner, "gauge_transform", counted_transform)
    run_scenario(config_from_dict({}, "gauge-orbit"))
    # the gauged wave, its round trip and the gauged spinor of one block
    assert len(counts) == 3
    for psi_calls, chi_calls in counts:
        assert list(psi_calls.values()) == [1]
        assert list(chi_calls.values()) == [1]


def test_a_gauged_wave_recomputes_after_the_points_change_in_place():
    for spinor in (False, True):
        psi = (dirac_plane_wave(P, "up", UNITS) if spinor
               else plane_wave(P, UNITS))
        (chi, block), _ = _block_and_event()
        _, wave = gauge_transform(zero_potential(), psi, chi, UNITS)
        for i, evaluate in enumerate(_gauged_evaluators(wave)):
            points = block.copy()
            evaluate(points)
            points[2, 0] += 1.0
            points[4, 3] = -points[4, 3]
            _same_bits(evaluate(points), _unmemoized(psi, chi, points)[i])
            points[7, 1] = 0.0
            evaluate(points)
            points[7, 1] = -0.0
            _same_bits(evaluate(points), _unmemoized(psi, chi, points)[i])


def test_analytic_field_strength_invariance_is_zero_by_construction():
    # hess4 writes both triangles of d_mu d_nu chi from one value, so the
    # analytic F = dA - (dA)^T of a pure gauge is 0.0 in every bit: the
    # check cannot fail in analytic mode, and only central mode, whose
    # stencils are not symmetric in rounding, exercises it
    (chi, block), (one, e) = _block_and_event()
    for gauge, points in ((chi, block), (one, e)):
        f = field_strength(pure_gauge_potential(gauge), points, ANALYTIC,
                           c=UNITS.c)
        _same_bits(f, np.zeros_like(f))
    for mode, zero in (("analytic", True), ("central", False)):
        report = run_scenario(config_from_dict({"method": {"mode": mode}},
                                               "gauge-orbit"))
        check = next(c for c in report.checks
                     if c.name == "field_strength_invariance")
        assert (check.linf == 0.0) is zero
        assert check.linf < 1e-10
