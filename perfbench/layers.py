"""Per-layer microbenchmarks: microseconds per call of each module's public
functions on fixed, seeded inputs.

Every case also carries the verdict the seed code gives on its input, drawn
from the same identity and tolerance a scenario check uses. A layer change
that makes a case fast by making it wrong therefore fails the run instead of
reporting a gain.
"""
from __future__ import annotations

import json
import math
import statistics
from time import perf_counter

import numpy as np

from fourvel import cli, core4, dirac, fields, runner, velocityfield as vf
from fourvel import wavefunctions as wf
from fourvel import worldline as wl

# Inputs are fixed, not taken from --seed, so per-layer figures compare
# across runs and commits.
INPUT_SEED = 20240817
TARGET_S = 0.02     # length of one timed batch of calls
REPEATS = 5         # batches per case; the median batch is reported


def _close(a, b, tol) -> bool:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) <= tol


def _cases(workdir):
    """(metric name, call, verdict on the call's result) for every layer."""
    rng = np.random.default_rng(INPUT_SEED)
    an, ce = core4.DerivativeMethod("analytic"), core4.DerivativeMethod("central")
    h = ce.h
    e = core4.Event(*rng.uniform(-1.0, 1.0, 4))
    # off the Coulomb singularity, like the scenario's ray cloud
    ek = core4.Event(*(rng.uniform(0.5, 1.5, 3) * rng.choice([-1, 1], 3)), 0.1)
    pw = wf.plane_wave([0.3, -0.2, 0.1])
    kg = wf.kg_coulomb_1s(0.4)
    dpw = wf.dirac_plane_wave([0.3, -0.2, 0.1], "up")
    spinor = wf.random_smooth_spinor(rng)
    es = core4.Event(*rng.uniform(-0.5, 0.5, 4))
    a0 = fields.zero_potential()
    coul = fields.coulomb_potential(0.4)
    monos = runner._DEG2_MONOMIALS
    terms = {m: float(rng.uniform(-0.5, 0.5)) for m in monos}
    gauge = fields.polynomial_gauge(terms)
    x = (e.x1, e.x2, e.x3, e.t)
    chi_direct = sum(co * math.prod(b ** n for b, n in zip(x, ex))
                     for ex, co in terms.items())
    kw = {"constants": core4.NATURAL_UNITS}
    tol = {"analytic": 1e-8, "central": 1e-5}   # kg-coulomb-1s tolerances

    cases = [
        ("core4.grad4_numeric.us", lambda: core4.grad4_numeric(pw, e, h),
         lambda r: _close(r, pw.grad4(e), 1e-6)),
        ("core4.laplace4_numeric.us", lambda: core4.laplace4_numeric(pw, e, h),
         lambda r: abs(r - pw.laplace4(e)) <= 1e-6),
        ("core4.field_strength.central.us",
         lambda: core4.field_strength(coul, ek, ce),
         lambda r: _close(r, core4.field_strength(coul, ek, an), 1e-6)),
        ("core4.event_shifted.us", lambda: e.shifted(1, h),
         lambda r: r.x2 == e.x2 + h and r.t == e.t),
        ("core4.boost_x1.us", lambda: core4.boost_x1(e, 0.5),
         lambda r: abs((r.x1 ** 2 - r.t ** 2) - (e.x1 ** 2 - e.t ** 2)) <= 1e-12),
    ]
    for label, wave, ev in (("plane_wave", pw, e), ("kg_coulomb_1s", kg, ek)):
        cases += [
            (f"wavefunctions.{label}.psi.us", lambda w=wave, v=ev: w(v),
             lambda r: math.isfinite(abs(r)) and abs(r) > 0),
            (f"wavefunctions.{label}.grad4.us", lambda w=wave, v=ev: w.grad4(v),
             lambda r, w=wave, v=ev: _close(
                 r, core4.grad4_numeric(w, v, h), 1e-6 * abs(w(v)) + 1e-9)),
            (f"wavefunctions.{label}.laplace4.us",
             lambda w=wave, v=ev: w.laplace4(v),
             lambda r, w=wave, v=ev: abs(r - core4.laplace4_numeric(w, v, h))
             <= 1e-5 * abs(w(v)) + 1e-9),
            (f"wavefunctions.{label}.hess4.us", lambda w=wave, v=ev: w.hess4(v),
             lambda r, w=wave, v=ev: abs(np.trace(r) - w.laplace4(v))
             <= 1e-12 * (1 + abs(w.laplace4(v)))),
        ]
    cases += [
        ("wavefunctions.dirac_plane_wave.values.us", lambda: dpw.values(e),
         lambda r: r.shape == (4,) and int(np.sum(np.abs(r) > 1e-12)) >= 2),
        ("fields.polynomial_gauge.chi.us", lambda: gauge.chi(e),
         lambda r: abs(r - chi_direct) <= 1e-12),
        ("fields.polynomial_gauge.grad4.us", lambda: gauge.grad4(e),
         lambda r: _close(r, core4.grad4_numeric(gauge.chi, e, h), 1e-8)),
        ("fields.polynomial_gauge.hess4.us", lambda: gauge.hess4(e),
         lambda r: _close(r, r.T, 0.0)
         and abs(np.trace(r) - gauge.laplace4(e)) <= 1e-12),
        ("fields.coulomb_potential.a.us", lambda: coul.a(ek),
         lambda r: abs(-1.0 * r[3] + 1j * 0.4 / ek.r) <= 1e-12),
        ("fields.coulomb_potential.grad.us", lambda: coul.grad(ek),
         lambda r: np.trace(r) == 0),
        ("fields.lorenz_gauge_residual.central.us",
         lambda: fields.lorenz_gauge_residual(coul, ek, ce),
         lambda r: abs(r) <= 1e-8),
    ]

    # analytic values are the reference; central mode must agree within its
    # tolerance, the way the two-mode scenarios compare them
    ref_u = vf.extract_u(kg, coul, ek, an, **kw)
    ref_g = vf.momentum_gradient(kg, coul, ek, an, **kw)
    ref_ms = vf.mass_shell_residual(kg, coul, ek, an, **kw)
    ref_newton = vf.newton_residual(kg, coul, ek, an, **kw)
    m2 = kw["constants"].m ** 2
    for mode, meth in (("analytic", an), ("central", ce)):
        t = tol[mode]

        def call(fn, meth=meth):
            return lambda: fn(kg, coul, ek, meth, **kw)

        ms = vf.mass_shell_residual(kg, coul, ek, meth, **kw)
        cases += [
            (f"velocityfield.extract_u.{mode}.us", call(vf.extract_u),
             lambda r, t=t: _close(r, ref_u, t)),
            (f"velocityfield.momentum_gradient.{mode}.us",
             call(vf.momentum_gradient), lambda r, t=t: _close(r, ref_g, t)),
            (f"velocityfield.kg_residual.{mode}.us", call(vf.kg_residual),
             lambda r, t=t: abs(r) <= t),
            (f"velocityfield.newton_residual.{mode}.us",
             call(vf.newton_residual),
             lambda r, t=t: _close(r, ref_newton, t)),
            (f"velocityfield.curl_k.{mode}.us", call(vf.curl_k),
             lambda r, t=t: _close(r, 0, t)),
            (f"velocityfield.divergence_mu.{mode}.us", call(vf.divergence_mu),
             lambda r, t=t: r.mismatch <= t),
            (f"velocityfield.nonlinear_wave_residual.{mode}.us",
             call(vf.nonlinear_wave_residual),
             lambda r, ms=ms, t=t: abs(r - m2 * ms) <= t),
            (f"velocityfield.mass_shell_residual.{mode}.us",
             call(vf.mass_shell_residual),
             lambda r, t=t: abs(r - ref_ms) <= t),
        ]
    origin, end = core4.Event(0, 0, 0, 0), core4.Event(1, 0, 0, 0)
    cases.append((
        "velocityfield.action_integral.us",
        lambda: vf.action_integral(pw, a0, [origin, end], an, **kw),
        lambda r: abs(r.phi - 0.3) <= 1e-12))

    for mode, meth, t_res, t_vel in (("analytic", an, 1e-12, 1e-12),
                                     ("central", ce, 1e-6, 1e-8)):
        cases += [
            (f"dirac.dirac_residual.{mode}.us",
             lambda meth=meth: dirac.dirac_residual(dpw, a0, e, meth, **kw),
             lambda r, t=t_res: _close(r, 0, t)),
            (f"dirac.spinor_velocity_consistency.{mode}.us",
             lambda meth=meth: dirac.spinor_velocity_consistency(
                 dpw, a0, e, meth, **kw),
             lambda r, t=t_vel: r[1] <= t),
            (f"dirac.dirac_to_kg_check.{mode}.us",
             lambda meth=meth: dirac.dirac_to_kg_check(spinor, a0, es, meth,
                                                       **kw),
             lambda r: _close(r, dirac.kg_operator_on_spinor(spinor, es, **kw),
                              1e-8)),
        ]
    cases.append(("dirac.gamma_matrices.us", dirac.gamma_matrices,
                  lambda r: dirac.clifford_residual(r) == 0.0))

    circle = wl.make_worldline("circle-x1x4", radius=1.0)
    line = wl.boost_worldline(wl.make_worldline("line", v=[0.3, 0.1, -0.2]), 0.5)
    cases += [
        ("worldline.pierce_points.circle.us",
         lambda: wl.pierce_points(circle, 0.5),
         lambda r: len(r) == 2 and all(
             abs(abs(p.event.x1) - math.sqrt(0.75)) <= 1e-9 for p in r)),
        ("worldline.pierce_points.boosted_line.us",
         lambda: wl.pierce_points(line, 0.0),
         lambda r: len(r) == 1 and r[0].classification == "timelike"),
    ]

    # the fixed 4000-row report, at the default seed
    report = runner.run_scenario(runner.config_from_dict(
        {"scenario": "gauge-orbit", "no_timestamp": True}))
    doc = {"scenario": "plane-wave", "seed": 7, "method": {"mode": "central"}}
    out = str(workdir / "cli-clifford.json")
    cases += [
        ("runner.export_report.json.us",
         lambda: runner.export_report(report, "json"),
         lambda r: report.passed and len(json.loads(r)["rows"]) == 4000),
        ("runner.export_report.csv.us",
         lambda: runner.export_report(report, "csv"),
         lambda r: r.count("\n") == 4001),
        ("runner.config_from_dict.us", lambda: runner.config_from_dict(doc),
         lambda r: r.method.mode == "central" and r.seed == 7),
        ("cli.main.run.us",
         lambda: cli.main(["run", "clifford", "--no-timestamp", "--out", out]),
         lambda r: r == 0),
    ]
    return cases


def _per_call_us(fn) -> float:
    t0 = perf_counter()
    fn()
    once = perf_counter() - t0
    n = max(1, int(TARGET_S / max(once, 1e-7)))
    batches = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        batches.append((perf_counter() - t0) / n)
    return statistics.median(batches) * 1e6


def run(workdir) -> tuple:
    """Return ({metric: us per call}, [names whose verdict failed])."""
    timings, failed = {}, []
    for name, fn, verdict in _cases(workdir):
        try:
            ok = bool(verdict(fn()))
        except Exception as exc:  # a layer that raises fails its case
            print(f"# layer {name}: raised {exc!r}")
            ok = False
        if not ok:
            failed.append(name)
        timings[name] = _per_call_us(fn)
    return timings, failed
