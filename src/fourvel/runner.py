"""Named verification scenarios and machine-readable reports.

Each scenario is one Scenario record: its defaults, the tolerances of the
fixed set of named checks it scores, and a builder that evaluates every
residual kernel once on the whole sample cloud (a (K, 4) EventArray). Rows
are reported event-major, one per event and check, in the order a
per-event sweep would give them. Reports are deterministic for a given
configuration and seed: sample order is fixed, all randomness flows
through one seeded generator, and JSON keys are sorted. The timestamp and
wall-clock duration are the only nondeterministic fields and can be
suppressed together for byte-identical comparisons.
"""
from __future__ import annotations

import copy
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field as dc_field
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional

import numpy as np

from . import __version__
from .core4 import (DEFAULT_EPS_PSI, DerivativeMethod, Event, EventArray,
                    PhysicalConstants, contract, field_strength)
from .dirac import (clifford_residual, dirac_residual, dirac_to_kg_check,
                    factorization_residual, form_relation_matrix, gamma_dot,
                    gamma_matrices, kg_operator_on_spinor,
                    spinor_velocity_consistency, GammaSet)
from .errors import ConfigError, ParameterError
from .fields import (coulomb_potential, gauge_transform, lorenz_gauge_residual,
                     polynomial_gauge, zero_potential)
from .velocityfield import (action_integral, curl_k, divergence_mu, extract_u,
                            kg_residual, mass_shell_residual, newton_residual,
                            nonlinear_wave_residual)
from .wavefunctions import (dirac_coulomb_1s, dirac_plane_wave, kg_coulomb_1s,
                            plane_wave, random_smooth_spinor)
from .worldline import (boost_worldline, classify_speed, make_worldline,
                        pierce_points)

DEFAULT_SEED = 20240817

_CLOUD_KEYS = {
    # kind -> (required keys, optional keys)
    "ray": (("r_min", "r_max", "count"), ("t",)),
    "random-ball": (("radius", "count"), ("center",)),
    "events": (("events",), ()),
}


def list_scenarios() -> list:
    return sorted(_SCENARIOS)


def _spec(scenario) -> Scenario:
    spec = _SCENARIOS.get(scenario) if isinstance(scenario, str) else None
    if spec is None:
        raise ConfigError(f"unknown scenario {scenario!r}; "
                          f"choices: {', '.join(list_scenarios())}")
    return spec


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    constants: PhysicalConstants = PhysicalConstants()
    method: DerivativeMethod = DerivativeMethod("analytic")
    fixture: dict = dc_field(default_factory=dict)
    cloud: Optional[dict] = None
    tolerances: dict = dc_field(default_factory=dict)
    seed: int = DEFAULT_SEED
    no_timestamp: bool = False
    out: Optional[str] = None
    fmt: str = "json"


def default_config(scenario: str) -> ScenarioConfig:
    spec = _spec(scenario)
    return ScenarioConfig(
        scenario=scenario,
        method=DerivativeMethod(spec.mode),
        fixture=copy.deepcopy(spec.fixture),
        cloud=copy.deepcopy(spec.cloud),
    )


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _scale_limits(k: PhysicalConstants):
    """Refuse units whose scales overflow or underflow once the fixtures
    square them; q = 0 stays allowed, for scenarios without a charge."""
    c = k.c
    scales = {"m c^2": k.m * c * c, "hbar c": k.hbar * c,
              "m c / hbar": k.m * c / k.hbar, "c^2": c * c}
    if k.q != 0.0:
        scales["q"] = k.q
    for name, value in scales.items():
        _require(math.isfinite(value * value) and value * value != 0.0,
                 f"constants out of range: ({name})^2 = {value * value!r} "
                 f"is not a finite nonzero number")


def _is_number(value) -> bool:
    """A finite JSON number within the float range; booleans are not
    numbers here."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:   # an integer too large for a float
        return False


# the most samples, draws, gauges, boosts or scan points any one count of a
# configuration may ask for
_MAX_COUNT = 10_000


def _limits(spec: Scenario, fixture: dict):
    """Refuse a fixture count above _MAX_COUNT (an integer default marks a
    count), then a value out of the scenario's own limits."""
    for key, default in spec.fixture.items():
        if isinstance(default, int):
            _require(fixture[key] <= _MAX_COUNT,
                     f"fixture {key} must be at most {_MAX_COUNT}")
    spec.limits(fixture)


def _is_count(value) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= 0)


def _fits(value, default) -> bool:
    """Whether a fixture value has the type and shape of its default."""
    if isinstance(default, str):
        return isinstance(value, str)
    if isinstance(default, int):
        return _is_count(value)
    if isinstance(default, float):
        return _is_number(value)
    # a vector of fixed length, or a nonempty list of such vectors
    return (isinstance(value, (list, tuple)) and len(value) > 0
            and (isinstance(default[0], (list, tuple))
                 or len(value) == len(default))
            and all(_fits(v, default[0]) for v in value))


def config_from_dict(doc: dict, scenario: Optional[str] = None) -> ScenarioConfig:
    """Validate a JSON config document against a scenario's schema."""
    _require(isinstance(doc, dict), "config document must be a JSON object")
    known = {"scenario", "constants", "method", "fixture", "cloud",
             "tolerances", "seed", "no_timestamp", "out", "format"}
    for key in doc:
        _require(key in known, f"unknown config key {key!r}")

    name = doc.get("scenario", scenario)
    _require(name is not None, "no scenario named")
    if scenario is not None and "scenario" in doc:
        _require(doc["scenario"] == scenario,
                 f"config is for scenario {doc['scenario']!r}, "
                 f"requested {scenario!r}")
    spec = _spec(name)
    base = default_config(name)

    for key in ("constants", "method", "fixture", "tolerances"):
        _require(isinstance(doc.get(key, {}), dict),
                 f"{key} must be an object")
    const_kwargs = {}
    for key, value in doc.get("constants", {}).items():
        _require(key in ("hbar", "c", "m", "q"),
                 f"unknown constant {key!r}")
        _require(_is_number(value), f"constant {key} must be a finite number")
        const_kwargs[key] = float(value)
    try:
        constants = PhysicalConstants(**{**vars(base.constants), **const_kwargs})
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    _scale_limits(constants)

    mdoc = doc.get("method", {})
    for key in mdoc:
        _require(key in ("mode", "h", "richardson"),
                 f"unknown method key {key!r}")
    _require(_is_number(mdoc.get("h", base.method.h)),
             "method h must be a finite number")
    _require(isinstance(mdoc.get("richardson", False), bool),
             "method richardson must be true or false")
    try:
        method = DerivativeMethod(
            mdoc.get("mode", base.method.mode),
            float(mdoc.get("h", base.method.h)),
            mdoc.get("richardson", base.method.richardson),
        )
    except (ParameterError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad method: {exc}") from exc

    fixture = dict(base.fixture)
    for key, value in doc.get("fixture", {}).items():
        default = spec.fixture.get(key, spec.optional.get(key))
        _require(default is not None,
                 f"unknown fixture key {key!r} for scenario {name}")
        _require(_fits(value, default),
                 f"fixture {key} = {value!r} does not have the type and "
                 f"shape of its default {default!r}")
        fixture[key] = value
    _limits(spec, fixture)

    cloud = base.cloud
    if "cloud" in doc:
        _require(spec.cloud is not None,
                 f"scenario {name} samples no cloud; remove the cloud key")
        cdoc = doc["cloud"]
        _require(isinstance(cdoc, dict) and "kind" in cdoc,
                 "cloud must be an object with a 'kind'")
        kind = cdoc["kind"]
        _require(kind in _CLOUD_KEYS, f"unknown cloud kind {kind!r}")
        required, optional = _CLOUD_KEYS[kind]
        for key in cdoc:
            _require(key == "kind" or key in required or key in optional,
                     f"unknown cloud key {key!r} for kind {kind!r}")
        for key in required:
            _require(key in cdoc, f"cloud kind {kind!r} needs {key!r}")
        cloud = dict(cdoc)

    tolerances = {}
    for key, value in doc.get("tolerances", {}).items():
        _require(key in spec.tolerances,
                 f"unknown check {key!r} for scenario {name}")
        _require(_is_number(value) and value >= 0,
                 f"tolerance {key} must be a nonnegative number")
        tolerances[key] = float(value)

    seed = doc.get("seed", base.seed)
    _require(_is_count(seed) and seed < 2 ** 64,
             "seed must be an unsigned 64-bit integer")
    no_timestamp = doc.get("no_timestamp", False)
    _require(isinstance(no_timestamp, bool),
             "no_timestamp must be true or false")
    out = doc.get("out")
    _require(out is None or isinstance(out, str), "out must be a path string")

    fmt = doc.get("format", base.fmt)
    _require(fmt in ("json", "csv"), f"unknown format {fmt!r}")

    return ScenarioConfig(
        scenario=name, constants=constants, method=method, fixture=fixture,
        cloud=cloud, tolerances=tolerances, seed=seed,
        no_timestamp=no_timestamp, out=out, fmt=fmt,
    )


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    linf: float
    l2: float
    tolerance: Optional[float]
    passed: bool
    count: int


@dataclass(frozen=True)
class ResidualReport:
    scenario: str
    config: dict
    checks: tuple
    rows: tuple
    passed: bool
    version: str
    timestamp: Optional[str]
    duration_s: Optional[float]


class _Collector:
    def __init__(self, tolerances: dict, mode: str, overrides: dict):
        self.tolerances = tolerances
        self.mode_index = 1 if mode == "central" else 0
        self.overrides = overrides
        self.rows = []
        self._order = []
        self._mags = {}

    def tolerance(self, check: str) -> Optional[float]:
        if check in self.overrides:
            return self.overrides[check]
        return self.tolerances[check][self.mode_index]

    def add(self, check: str, case: str, index: int, event: Event,
            magnitude: float):
        self._add(check, case, index,
                  [float(event.x1), float(event.x2), float(event.x3),
                   float(event.t)], magnitude)

    def add_cloud(self, case: str, events: EventArray, checks: list):
        """Rows for a whole cloud, event-major and check-minor, as a
        per-event sweep adds them. checks is a list of (name, magnitudes)
        with one magnitude per event, None where the check has no sample."""
        for i, point in enumerate(events.as_array().tolist()):
            for check, mags in checks:
                if mags[i] is not None:
                    self._add(check, case, i, point, mags[i])

    def _add(self, check: str, case: str, index: int, point: list,
             magnitude: float):
        if check not in self._mags:
            self._mags[check] = []
            self._order.append(check)
        self._mags[check].append(float(magnitude))
        x1, x2, x3, t = point
        self.rows.append({
            "case": case, "check": check, "index": index,
            "x1": x1, "x2": x2, "x3": x3, "t": t,
            "magnitude": float(magnitude),
        })

    def finalize(self) -> tuple:
        checks = []
        for name in self._order:
            mags = self._mags[name]
            tol = self.tolerance(name)
            # max() keeps a NaN only in first place; any NaN must fail
            linf = math.nan if any(m != m for m in mags) \
                else max(mags, default=0.0)
            l2 = math.sqrt(sum(m * m for m in mags))
            passed = True if tol is None else linf <= tol
            checks.append(CheckResult(name, linf, l2, tol, passed, len(mags)))
        return tuple(checks)


_ORIGIN = Event(0.0, 0.0, 0.0, 0.0)


# random-ball rejection sampling gives up after this many draws per point
_DRAWS_PER_POINT = 1000


def _ray(r_min: float, r_max: float, count: int, t: float = 0.0) -> EventArray:
    rs = np.linspace(r_min, r_max, count)
    zeros = np.zeros_like(rs)
    return EventArray(np.column_stack([rs, zeros, zeros, zeros + t]))


def _random_ball(center, radius: float, count: int, rng: np.random.Generator,
                 min_r: float) -> EventArray:
    """count points uniform in the 4-ball, drawn one at a time and rejected
    while their spatial radius is below min_r."""
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
    _require(len(points) == count,
             f"random-ball cloud: only {len(points)} of {count} points lie "
             f"outside the exclusion radius {min_r} after "
             f"{_DRAWS_PER_POINT * count} draws")
    return EventArray(np.reshape(points, (count, 4)))


def _build_cloud(spec: dict, rng: np.random.Generator,
                 min_r: float) -> EventArray:
    """The sample cloud of spec as one EventArray. No point may lie closer
    than min_r to the spatial origin: random-ball clouds reject such draws,
    other kinds are refused."""
    kind = spec["kind"]
    if kind in ("ray", "random-ball"):
        _require(_is_count(spec["count"]) and spec["count"] <= _MAX_COUNT,
                 f"cloud count must be an integer in [0, {_MAX_COUNT}]")
    if kind == "ray":
        bounds = (spec["r_min"], spec["r_max"], spec.get("t", 0.0))
        _require(all(_is_number(v) for v in bounds),
                 "ray r_min, r_max and t must be finite numbers")
        cloud = _ray(*bounds[:2], spec["count"], bounds[2])
    elif kind == "random-ball":
        center = spec.get("center", [0, 0, 0, 0])
        _require(_is_number(spec["radius"]) and _fits(center, [0.0] * 4),
                 "random-ball needs a finite radius and a 4-number center")
        return _random_ball(np.asarray(center, dtype=float),
                            spec["radius"], spec["count"], rng, min_r)
    elif kind == "events":
        points = spec["events"]
        _require(isinstance(points, list) and all(
            isinstance(p, dict) and set(p) == {"x1", "x2", "x3", "t"}
            and all(_is_number(v) for v in p.values()) for p in points),
            "events must be a list of {x1, x2, x3, t} numbers")
        cloud = EventArray(np.reshape(
            [[p["x1"], p["x2"], p["x3"], p["t"]] for p in points], (-1, 4)))
    else:
        raise ConfigError(f"unknown cloud kind {kind!r}")
    inside = cloud.r < min_r
    if np.count_nonzero(inside):
        raise ConfigError(
            f"cloud point {cloud.event(int(np.argmax(inside)))} lies inside "
            f"this scenario's exclusion radius {min_r}")
    return cloud


def _worst(x) -> np.ndarray:
    """Largest |entry| of each point's value; x has a leading point axis."""
    return np.max(np.abs(x), axis=tuple(range(1, np.ndim(x))))


def _eps_for(waves, events) -> float:
    """Near-zero threshold scaled to the largest |psi| over the cloud."""
    peak = max(float(np.max(np.abs(w(events)), initial=0.0)) for w in waves)
    return 1e-12 * peak if peak > 0 else DEFAULT_EPS_PSI


# ---------------------------------------------------------------------------
# scenario builders
# ---------------------------------------------------------------------------

def _scn_plane_wave(cfg: ScenarioConfig, rng, col: _Collector, events):
    a0 = zero_potential()
    waves = [plane_wave(p, cfg.constants) for p in cfg.fixture["momenta"]]
    eps = _eps_for(waves, events)
    m = cfg.method
    kw = {"constants": cfg.constants, "eps_psi": eps}
    for wave in waves:
        div = divergence_mu(wave, a0, events, m, **kw)
        col.add_cloud(wave.label, events, [
            ("kg", np.abs(kg_residual(wave, a0, events, m, **kw))),
            ("mass_shell",
             np.abs(mass_shell_residual(wave, a0, events, m, **kw))),
            ("newton", _worst(newton_residual(wave, a0, events, m, **kw))),
            ("curl_k", _worst(curl_k(wave, a0, events, m, **kw))),
            ("divergence", np.abs(div.value)),
            ("nonlinear",
             np.abs(nonlinear_wave_residual(wave, a0, events, m, **kw))),
        ])


def _scn_kg_coulomb(cfg: ScenarioConfig, rng, col: _Collector, events):
    za = float(cfg.fixture["z_alpha"])
    wave = kg_coulomb_1s(za, cfg.constants,
                         float(cfg.fixture["energy_scale"]))
    a = coulomb_potential(za, cfg.constants)
    m2 = cfg.constants.m ** 2
    meth = cfg.method
    kw = {"constants": cfg.constants, "eps_psi": _eps_for([wave], events)}
    div = divergence_mu(wave, a, events, meth, **kw)
    ms = mass_shell_residual(wave, a, events, meth, **kw)
    nl = nonlinear_wave_residual(wave, a, events, meth, **kw)
    k = curl_k(wave, a, events, meth, **kw)
    u = extract_u(wave, a, events, meth, **kw)
    col.add_cloud(wave.label, events, [
        ("kg", np.abs(kg_residual(wave, a, events, meth, **kw))),
        ("divergence_identity", div.mismatch),
        ("nonlinear_vs_mass_shell", np.abs(nl - m2 * ms)),
        ("curl_k", _worst(k)),
        ("u_contract_k", _worst(k @ u[..., None])),
        ("lorenz_gauge", np.abs(
            lorenz_gauge_residual(a, events, meth, c=cfg.constants.c))),
        ("mass_shell", np.abs(ms)),
        ("newton", _worst(newton_residual(wave, a, events, meth, **kw))),
    ])


def _scn_dirac_plane_wave(cfg: ScenarioConfig, rng, col: _Collector,
                          events):
    a0 = zero_potential()
    spin = cfg.fixture["spin"]
    meth = cfg.method
    kw = {"constants": cfg.constants}
    m_rel = form_relation_matrix(cfg.constants)
    for p in cfg.fixture["momenta"]:
        spinor = dirac_plane_wave(p, spin, cfg.constants)
        rg = dirac_residual(spinor, a0, events, meth, "gamma", **kw)
        ra = dirac_residual(spinor, a0, events, meth, "alphabeta", **kw)
        checks = [("residual_gamma", _worst(rg)),
                  ("residual_alphabeta", _worst(ra)),
                  ("form_equivalence", _worst(rg - ra @ m_rel.T))]
        nonzero = sum(1 for comp in spinor.components
                      if abs(comp(_ORIGIN)) > 1e-12)
        if nonzero >= 2:
            _, dev = spinor_velocity_consistency(spinor, a0, events, meth,
                                                 **kw)
            checks.append(("velocity_consistency", dev))
        col.add_cloud(spinor.label, events, checks)
    for j in range(int(cfg.fixture["n_random_spinors"])):
        spinor = random_smooth_spinor(rng, cfg.constants)
        # one (3, 4) draw takes the same numbers as three draws of 4
        points = EventArray(rng.uniform(-0.5, 0.5, (3, 4)))
        sq = dirac_to_kg_check(spinor, a0, points, meth, **kw)
        direct = kg_operator_on_spinor(spinor, points, **kw)
        col.add_cloud(f"random-spinor-{j}", points,
                      [("dirac_to_kg", _worst(sq - direct))])


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_MAXFUN = 500


def _fminbound(f: Callable[[float], float], lo: float, hi: float,
               xatol: float) -> float:
    """The x in [lo, hi] where f is least, by Brent's bounded minimizer:
    golden-section steps, parabolic steps where the fit is acceptable, and
    an absolute x tolerance xatol (R. P. Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 5; the fmin of Forsythe, Malcolm and
    Moler, 1977). Each step, tie and sign rule is that of scipy's
    minimize_scalar(method="bounded"), so both return the same x bit for
    bit; gives up after _MAXFUN evaluations of f."""
    a, b = lo, hi
    v = w = x = a + _GOLDEN * (b - a)   # w, v: the second and third best
    fv = fw = fx = f(x)
    d = e = 0.0                         # the last step and the one before
    nfev = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(x - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through (v, fv), (w, fw), (x, fx)
            golden = False
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if xm - x >= 0.0 else -tol1
            else:
                golden = True
        if golden:
            e = (a - x) if x >= xm else (b - x)
            d = _GOLDEN * e
        u = x + (1.0 if d >= 0.0 else -1.0) * max(abs(d), tol1)
        fu = f(u)
        nfev += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
        if nfev >= _MAXFUN:
            break
    return x


def _scn_dirac_coulomb(cfg: ScenarioConfig, rng, col: _Collector, events):
    za = float(cfg.fixture["z_alpha"])
    consts = cfg.constants
    energy = cfg.fixture.get("energy")
    spinor = dirac_coulomb_1s(za, consts, energy)
    a = coulomb_potential(za, consts)
    meth = cfg.method
    # velocity deviation needs two components above threshold; other
    # events have no sample of it
    deviation = [None] * len(events)
    usable = np.count_nonzero(np.abs(spinor.values(events)) > DEFAULT_EPS_PSI,
                              axis=-1) >= 2
    if np.count_nonzero(usable):
        _, dev = spinor_velocity_consistency(
            spinor, a, EventArray(events[usable]), meth, constants=consts)
        for i, value in zip(np.flatnonzero(usable), dev):
            deviation[i] = value
    col.add_cloud(spinor.label, events, [
        ("residual_gamma", _worst(dirac_residual(spinor, a, events, meth,
                                                 "gamma", constants=consts))),
        ("velocity_deviation", deviation),
    ])

    # independent oracle: residual norm over a coarse ray as a function of a
    # trial energy must bottom out at the bound-state eigenvalue
    mc2 = consts.m * consts.c ** 2
    scan = _ray(0.5, 5.0, int(cfg.fixture["scan_points"]))

    def scan_norm(e_trial: float) -> float:
        trial = dirac_coulomb_1s(za, consts, energy=e_trial)
        return float(np.max(np.abs(
            dirac_residual(trial, a, scan, constants=consts))))

    lo = float(cfg.fixture["scan_lo"]) * mc2
    hi = float(cfg.fixture["scan_hi"]) * mc2
    found = _fminbound(scan_norm, lo, hi, 1e-9)
    expected = math.sqrt(1.0 - za ** 2) * mc2
    col.add("energy_scan", spinor.label, 0, scan.event(0),
            abs(found - expected) / mc2)


_DEG2_MONOMIALS = [
    (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (1, 1, 0, 0),
    (1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1),
]


def _scn_gauge_orbit(cfg: ScenarioConfig, rng, col: _Collector, events):
    consts = cfg.constants
    a0 = zero_potential()
    wave = plane_wave(cfg.fixture["p"], consts)
    spinor = dirac_plane_wave(cfg.fixture["p"], "up", consts)
    meth = cfg.method
    monos = [m for m in _DEG2_MONOMIALS if sum(m) <= cfg.fixture["degree"]]
    # the untransformed side is the same for every gauge
    u0 = extract_u(wave, a0, events, meth, constants=consts)
    r0 = _worst(dirac_residual(spinor, a0, events, meth, constants=consts))
    f0 = field_strength(a0, events, meth, c=consts.c)
    for j in range(int(cfg.fixture["n_gauges"])):
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
        col.add_cloud(f"chi-{j}", events, [
            ("u_invariance", _worst(u1 - u0)),
            ("dirac_invariance", np.abs(r1 - r0)),
            ("field_strength_invariance", _worst(f1 - f0)),
            ("roundtrip", _worst(u2 - u0)),
        ])


def _scaled_gammas(scale: float) -> GammaSet:
    g = gamma_matrices()
    if scale == 1.0:
        return g
    gammas = (g.gammas[0] * scale,) + g.gammas[1:]
    return GammaSet(g.representation + "-perturbed", g.alphas, g.beta, gammas)


def _scn_clifford(cfg: ScenarioConfig, rng, col: _Collector, events):
    consts = cfg.constants
    g = _scaled_gammas(float(cfg.fixture["gamma_scale"]))
    col.add("clifford", "matrix-set", 0, _ORIGIN, clifford_residual(g))
    fixed = max(
        float(np.max(np.abs(g.gammas[3] - np.diag([1, 1, -1, -1])))),
        abs(g.gammas[0][0, 3] - (-1j)),
        abs(g.gammas[0][3, 0] - 1j),
    )
    col.add("fixed_entries", "matrix-set", 0, _ORIGIN, fixed)
    eye = np.eye(4, dtype=complex)
    for i in range(int(cfg.fixture["n_random_p"])):
        p = rng.normal(size=4) + 1j * rng.normal(size=4)
        gp = gamma_dot(g, p)
        square = float(np.max(np.abs(gp @ gp - complex(np.sum(p * p)) * eye)))
        col.add("gamma_square", "random-p", i, _ORIGIN, square)
        col.add("factorization", "random-p", i, _ORIGIN,
                factorization_residual(g, p, consts))


def _scn_action_path(cfg: ScenarioConfig, rng, col: _Collector, events):
    consts = cfg.constants
    meth = cfg.method
    a0 = zero_potential()
    wave = plane_wave(cfg.fixture["p"], consts)
    p = np.asarray(cfg.fixture["p"], dtype=float)

    start, end = _ORIGIN, Event(1.0, 0.0, 0.0, 0.0)
    res = action_integral(wave, a0, [start, end], meth, constants=consts)
    expected_phi = float(p[0])  # constant momentum dotted with the chord
    col.add("plane_phi", "straight", 0, end, abs(res.phi - expected_phi))
    col.add("plane_reconstruction", "straight", 0, end,
            res.reconstruction_error)

    loop = [Event(1, 0, 0, 0), Event(2, 1, 0, 0.2), Event(1, 2, 0, 0.4),
            Event(1, 0, 0, 0)]
    res_loop = action_integral(wave, a0, loop, meth, constants=consts)
    col.add("closed_loop", "loop", 0, loop[0], abs(res_loop.phi))

    za = float(cfg.fixture["z_alpha"])
    bound = kg_coulomb_1s(za, consts)
    ac = coulomb_potential(za, consts)
    path1 = [Event(1, 0, 0, 0), Event(3, 0, 0, 0)]
    path2 = [Event(1, 0, 0, 0), Event(1, 2, 0, 0), Event(3, 2, 0, 0),
             Event(3, 0, 0, 0)]
    r1 = action_integral(bound, ac, path1, meth, constants=consts)
    r2 = action_integral(bound, ac, path2, meth, constants=consts)
    col.add("two_path_delta", "bound-state", 0, path1[-1],
            abs(r1.phi - r2.phi))


def _scn_worldline(cfg: ScenarioConfig, rng, col: _Collector, events):
    consts = cfg.constants
    c = consts.c
    radius = float(cfg.fixture["radius"])
    ct0 = float(cfg.fixture["ct0"])
    circle = make_worldline("circle-x1x4", radius=radius, c=c)

    pts = pierce_points(circle, ct0 / c)
    col.add("circle_count", "circle", 0, circle.position(0.0),
            float(abs(len(pts) - 2)))
    expected_x1 = math.sqrt(max(radius ** 2 - ct0 ** 2, 0.0))
    for i, pt in enumerate(pts):
        col.add("circle_position", "circle", i, pt.event,
                abs(abs(pt.event.x1) - expected_x1))
        if pt.u is not None:
            col.add("timelike_onshell", "circle", i, pt.event,
                    abs(contract(pt.u, pt.u) + c ** 2))

    top = pierce_points(circle, radius / c)
    graze_ok = len(top) == 1 and top[0].tangent
    col.add("tangent_flag", "circle-graze", 0,
            top[0].event if top else circle.position(0.0),
            0.0 if graze_ok else 1.0)

    cls_ok = (classify_speed(circle, 0.0) == "timelike"
              and classify_speed(circle, math.pi / 2) == "spacelike")
    col.add("classification", "circle", 0, circle.position(0.0),
            0.0 if cls_ok else 1.0)

    line = make_worldline("line", v=cfg.fixture["line_v"], c=c)
    vmax = float(cfg.fixture["max_boost"]) * c
    speeds = np.linspace(-vmax, vmax, int(cfg.fixture["n_boosts"]))
    for i, v in enumerate(speeds):
        boosted = boost_worldline(line, float(v))
        bpts = pierce_points(boosted, 0.0)
        ev = bpts[0].event if bpts else boosted.position(0.0)
        col.add("line_boost_count", "boosted-line", i, ev,
                float(abs(len(bpts) - 1)))
        for pt in bpts:
            if pt.u is not None:
                col.add("timelike_onshell", "boosted-line", i, pt.event,
                        abs(contract(pt.u, pt.u) + c ** 2))


def _dirac_coulomb_limits(fixture: dict):
    _require(fixture["scan_points"] >= 1, "fixture scan_points must be >= 1")
    _require(fixture["scan_lo"] < fixture["scan_hi"],
             "fixture scan_lo must lie below scan_hi")


def _gauge_orbit_limits(fixture: dict):
    _require(1 <= fixture["degree"] <= 2, "fixture degree must be 1 or 2")


def _worldline_limits(fixture: dict):
    _require(math.isfinite(fixture["radius"] * fixture["radius"]),
             "fixture radius must have a finite square")
    _require(0 <= fixture["max_boost"] < 1,
             "fixture max_boost must lie in [0, 1) (a fraction of c)")
    _require(abs(fixture["ct0"]) < fixture["radius"],
             "fixture ct0 must lie strictly between -radius and radius")


@dataclass(frozen=True)
class Scenario:
    """One scenario. build(cfg, rng, col, events) adds its rows to col;
    events is the sample cloud, drawn first from rng, or None when cloud is
    None. tolerances maps every check it reports to (analytic, central),
    None for a check that never fails. The fixture defaults' types and
    shapes are the fixture schema, optional holds an example value of each
    key without a default, limits(fixture) raises ConfigError for a value
    out of range, and no cloud point may lie closer than min_r to the
    spatial origin."""

    build: Callable
    tolerances: dict
    fixture: dict
    cloud: Optional[dict] = None
    mode: str = "analytic"
    min_r: float = 0.0
    optional: dict = dc_field(default_factory=dict)
    limits: Callable = lambda fixture: None


_BALL = {"kind": "random-ball", "center": [0, 0, 0, 0], "radius": 2.0,
         "count": 100}
_RAY = {"kind": "ray", "r_min": 0.5, "r_max": 5.0, "count": 50, "t": 0.0}
_MOMENTA = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, -0.2, 0.1]]

# the Coulomb clouds keep min_r = 0.25 away from the singularity, and the
# hard Dirac bound state is certified by central differences by default
_SCENARIOS = {
    "plane-wave": Scenario(
        _scn_plane_wave,
        tolerances={"kg": (1e-12, 1e-6), "mass_shell": (1e-12, 1e-6),
                    "newton": (1e-12, 1e-6), "curl_k": (1e-12, 1e-6),
                    "divergence": (1e-12, 1e-6), "nonlinear": (1e-12, 1e-6)},
        fixture={"momenta": _MOMENTA}, cloud=_BALL),
    "kg-coulomb-1s": Scenario(
        _scn_kg_coulomb,
        tolerances={"kg": (1e-8, 1e-5), "divergence_identity": (1e-8, 1e-5),
                    "nonlinear_vs_mass_shell": (1e-8, 1e-5),
                    "curl_k": (1e-8, 1e-5), "u_contract_k": (1e-10, 1e-6),
                    "lorenz_gauge": (1e-12, 1e-8),
                    "mass_shell": (None, None), "newton": (None, None)},
        fixture={"z_alpha": 0.4, "energy_scale": 1.0}, cloud=_RAY,
        min_r=0.25),
    "dirac-plane-wave": Scenario(
        _scn_dirac_plane_wave,
        tolerances={"residual_gamma": (1e-12, 1e-6),
                    "residual_alphabeta": (1e-12, 1e-6),
                    "form_equivalence": (1e-12, 1e-12),
                    "velocity_consistency": (1e-12, 1e-8),
                    "dirac_to_kg": (1e-8, 1e-8)},
        fixture={"momenta": _MOMENTA, "spin": "up", "n_random_spinors": 20},
        cloud=_BALL),
    "dirac-coulomb-1s": Scenario(
        _scn_dirac_coulomb,
        tolerances={"residual_gamma": (1e-10, 1e-6),
                    "energy_scan": (1e-6, 1e-6),
                    "velocity_deviation": (None, None)},
        fixture={"z_alpha": 0.4, "scan_lo": 0.85, "scan_hi": 0.95,
                 "scan_points": 25},
        cloud=_RAY, mode="central", min_r=0.25,
        optional={"energy": 0.0},   # a trial energy for the eigenvalue
        limits=_dirac_coulomb_limits),
    "gauge-orbit": Scenario(
        _scn_gauge_orbit,
        tolerances={"u_invariance": (1e-9, 1e-6),
                    "dirac_invariance": (1e-10, 1e-6),
                    "field_strength_invariance": (1e-10, 1e-10),
                    "roundtrip": (1e-12, 1e-11)},
        fixture={"p": [1.0, 0.0, 0.0], "n_gauges": 10, "degree": 2},
        cloud={**_BALL, "radius": 1.5}, limits=_gauge_orbit_limits),
    "clifford": Scenario(
        _scn_clifford,
        tolerances={"clifford": (0.0, 0.0), "fixed_entries": (0.0, 0.0),
                    "gamma_square": (1e-12, 1e-12),
                    "factorization": (1e-12, 1e-12)},
        fixture={"n_random_p": 100, "gamma_scale": 1.0}),
    "action-path": Scenario(
        _scn_action_path,
        tolerances={"plane_phi": (1e-12, 1e-12),
                    "plane_reconstruction": (1e-12, 1e-12),
                    "closed_loop": (1e-8, 1e-8),
                    "two_path_delta": (1e-8, 1e-8)},
        fixture={"p": [1.0, 0.0, 0.0], "z_alpha": 0.4}),
    "worldline-pierce": Scenario(
        _scn_worldline,
        tolerances={"circle_count": (0.0, 0.0),
                    "circle_position": (1e-9, 1e-9),
                    "line_boost_count": (0.0, 0.0),
                    "timelike_onshell": (1e-10, 1e-10),
                    "tangent_flag": (0.0, 0.0), "classification": (0.0, 0.0)},
        fixture={"radius": 1.0, "ct0": 0.5, "line_v": [0.3, 0.1, -0.2],
                 "n_boosts": 20, "max_boost": 0.99},
        limits=_worldline_limits),
}


def _config_echo(cfg: ScenarioConfig) -> dict:
    return {
        "scenario": cfg.scenario,
        "constants": {"hbar": cfg.constants.hbar, "c": cfg.constants.c,
                      "m": cfg.constants.m, "q": cfg.constants.q},
        "method": {"mode": cfg.method.mode, "h": cfg.method.h,
                   "richardson": cfg.method.richardson},
        "fixture": cfg.fixture,
        "cloud": cfg.cloud,
        "tolerances": cfg.tolerances,
        "seed": cfg.seed,
    }


def run_scenario(cfg: ScenarioConfig) -> ResidualReport:
    spec = _spec(cfg.scenario)
    _scale_limits(cfg.constants)
    _limits(spec, cfg.fixture)
    started = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    col = _Collector(spec.tolerances, cfg.method.mode, cfg.tolerances)
    events = (None if spec.cloud is None
              else _build_cloud(cfg.cloud, rng, spec.min_r))
    spec.build(cfg, rng, col, events)
    checks = col.finalize()
    duration = time.perf_counter() - started
    return ResidualReport(
        scenario=cfg.scenario,
        config=_config_echo(cfg),
        checks=checks,
        rows=tuple(col.rows),
        passed=all(c.passed for c in checks),
        version=__version__,
        timestamp=None if cfg.no_timestamp else
        time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        duration_s=None if cfg.no_timestamp else duration,
    )


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# one row at the rows array's depth in json.dumps(sort_keys=True, indent=2):
# case, check, index, magnitude, then the coordinate block t, x1, x2, x3
_JSON_ROW = ('    {\n      "case": %s,\n      "check": %s,\n'
             '      "index": %d,\n      "magnitude": %s,\n%s\n    }')
_JSON_COORDS = ('      "t": %s,\n      "x1": %s,\n      "x2": %s,\n'
                '      "x3": %s')
_JSON_ROWS_SLOT = '\n  "rows": [],\n'


def _json_float(x: float) -> str:
    """x as json spells it: float repr, or NaN, Infinity and -Infinity."""
    text = float.__repr__(x)
    return _JSON_NONFINITE.get(text, text)


def _json_rows(rows) -> list:
    """The text of each row as json.dumps(sort_keys=True, indent=2) writes
    it inside the report. Labels are escaped once each, and the coordinate
    block once per distinct (x1, x2, x3, t): an event's coordinates repeat
    on every check row it has."""
    labels, coords, out = {}, {}, []
    for row in rows:
        case, check = row["case"], row["check"]
        x1, x2, x3, t = key = row["x1"], row["x2"], row["x3"], row["t"]
        if 0.0 in key:   # 0.0 == -0.0, yet they print differently
            key += tuple(math.copysign(1.0, v) for v in key)
        block = coords.get(key)
        if block is None:
            block = coords[key] = _JSON_COORDS % (
                _json_float(t), _json_float(x1), _json_float(x2),
                _json_float(x3))
        if case not in labels:
            labels[case] = encode_basestring_ascii(case)
        if check not in labels:
            labels[check] = encode_basestring_ascii(check)
        out.append(_JSON_ROW % (labels[case], labels[check], row["index"],
                                _json_float(row["magnitude"]), block))
    return out


def report_to_json(report: ResidualReport) -> str:
    """The report as json.dumps(doc, sort_keys=True, indent=2) + "\\n"
    would write it, byte for byte. Only the header goes through json.dumps,
    with an empty rows array: with an indent, json encodes in pure Python,
    and the rows are almost all of the text. They are written by
    _json_rows and spliced in."""
    doc = {
        "schema": "fourvel-report/1",
        "scenario": report.scenario,
        "config": report.config,
        "checks": [
            {"name": c.name, "linf": c.linf, "l2": c.l2,
             "tolerance": c.tolerance, "passed": c.passed, "count": c.count}
            for c in report.checks
        ],
        "rows": [],
        "passed": report.passed,
        "version": report.version,
    }
    if report.timestamp is not None:
        doc["timestamp"] = report.timestamp
        doc["duration_s"] = report.duration_s
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if not report.rows:
        return text
    # the only line at the top level's indent that opens a "rows" key;
    # a string in the header cannot hold a raw newline
    head, _, tail = text.partition(_JSON_ROWS_SLOT)
    return "".join((head, '\n  "rows": [\n',
                    ",\n".join(_json_rows(report.rows)), "\n  ],\n", tail))


_CSV_HEADER = ("case", "check", "index", "x1", "x2", "x3", "t", "magnitude")


def report_to_csv(report: ResidualReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_CSV_HEADER)
    for row in report.rows:
        writer.writerow([row["case"], row["check"], row["index"],
                         repr(row["x1"]), repr(row["x2"]), repr(row["x3"]),
                         repr(row["t"]), repr(row["magnitude"])])
    return buf.getvalue()


def export_report(report: ResidualReport, fmt: str = "json") -> str:
    if fmt == "json":
        return report_to_json(report)
    if fmt == "csv":
        return report_to_csv(report)
    raise ConfigError(f"unknown format {fmt!r}")
