"""Named verification scenarios and machine-readable reports.

Each scenario is one Scenario record: its defaults, one table of the named
checks it scores, and a builder that yields cases, the only way rows enter
a report: a wave, a family or check values on (K, 4) events, whose checks
the runner reads at once. Rows are reported event-major, one per event and
check, in the order a per-event sweep would give them. Reports are
deterministic for a given configuration and seed: sample order is fixed,
all randomness flows through one seeded generator, and JSON keys are
sorted. The timestamp and wall-clock duration are the only
nondeterministic fields and can be suppressed together for byte-identical
comparisons.
"""
from __future__ import annotations

import copy
import csv
import io
import json
import math
import time
import warnings
from dataclasses import dataclass, field as dc_field, replace
from functools import partial
from itertools import compress
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional

import numpy as np

from . import __version__
from .core4 import (DEFAULT_EPS_PSI, DerivativeMethod, Event, EventArray,
                    PhysicalConstants, _member_blocks, contract,
                    field_strength)
from .dirac import (clifford_residual, dirac_residual, dirac_to_kg_check,
                    factorization_residual, form_relation_matrix, gamma_dot,
                    gamma_matrices, kg_operator_on_spinor, GammaSet)
from .errors import ConfigError, ParameterError
from .fields import (_polynomial_gauge_members, coulomb_potential,
                     gauge_transform, zero_potential)
from .velocityfield import _Chain, action_integral, extract_u
from .wavefunctions import (_SPINOR_DRAW, dirac_coulomb_1s, dirac_plane_wave,
                            kg_coulomb_1s, plane_wave, random_spinor_family)
from .worldline import (_boost_family, _pierce_members, classify_speed,
                        make_worldline, pierce_points)

DEFAULT_SEED = 20240817

# the example values of the constants' and the derivative method's fields,
# and of each cloud kind's required and optional keys; an integer example
# marks a count
_CONSTANTS = dict.fromkeys(("hbar", "c", "m", "q"), 0.0)
_METHOD = {"mode": "", "h": 0.0, "richardson": False}
_CLOUDS = {
    "ray": ({"r_min": 0.0, "r_max": 0.0, "count": 0}, {"t": 0.0}),
    "random-ball": ({"radius": 0.0, "count": 0}, {"center": [0.0] * 4}),
    "events": ({"events": [dict.fromkeys(("x1", "x2", "x3", "t"), 0.0)]}, {}),
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


# the most samples, draws, gauges, boosts or scan points any one count of a
# configuration may ask for
_MAX_COUNT = 10_000


def _fits(value, example) -> bool:
    """Whether value has the type and shape of example: a string, a bool, a
    count from 0 to _MAX_COUNT for an integer example, a finite number
    within the float range, an object with example's keys, a vector of
    example's length, or a list of such vectors (nonempty) or objects
    (possibly empty). A bool is only a bool."""
    if isinstance(example, (str, bool)) or isinstance(value, bool):
        return type(value) is type(example)
    if isinstance(example, int):
        return isinstance(value, int) and 0 <= value <= _MAX_COUNT
    if isinstance(example, float):
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:   # an integer too large for a float
            return False
    if isinstance(example, dict):
        return (isinstance(value, dict) and value.keys() == example.keys()
                and all(_fits(v, example[k]) for k, v in value.items()))
    item = example[0]
    return (isinstance(value, (list, tuple))
            and (len(value) > 0 or isinstance(item, dict))
            and (isinstance(item, (list, tuple, dict))
                 or len(value) == len(example))
            and all(_fits(v, item) for v in value))


def _check_keys(what: str, value, required: dict, optional: dict = {}):
    """Refuse value unless it is an object with every key of required and
    no key outside required and optional, each value fitting the example
    value of its key."""
    _require(isinstance(value, dict), f"{what} must be an object")
    examples = {**required, **optional}
    for key, v in value.items():
        _require(key in examples, f"unknown {what} key {key!r}")
        example = examples[key]
        if not _fits(v, example):   # repr(v) only on refusal: it may be long
            raise ConfigError(
                f"{what} {key} must be an integer in [0, {_MAX_COUNT}]"
                if type(example) is int else f"{what} {key} = {v!r} does not "
                f"have the type and shape of {example!r}")
    for key in required:
        _require(key in value, f"{what} needs {key!r}")


def _validate(cfg: ScenarioConfig, document: bool = False) -> Scenario:
    """The record of cfg's scenario, once every field of cfg is known to be
    in range: the one check of a configuration, whether it was read from a
    document, set by command line flags or built in code. With document set,
    cfg's constants and method are the objects a config document gives,
    which config_from_dict turns into their records once they pass."""
    spec = _spec(cfg.scenario)
    consts, method = cfg.constants, cfg.method
    if not document:
        _require(isinstance(consts, PhysicalConstants),
                 "constants must be a PhysicalConstants record")
        _require(isinstance(method, DerivativeMethod),
                 "method must be a DerivativeMethod record")
        consts, method = vars(consts), vars(method)
    _check_keys("constants", consts, _CONSTANTS)
    k = {key: float(value) for key, value in consts.items()}
    _require(min(k["hbar"], k["c"], k["m"]) > 0,
             "constants hbar, c and m must be positive")
    # units whose scales overflow or underflow once the fixtures square them
    # are refused; q = 0 stays allowed, for scenarios without a charge
    c = k["c"]
    scales = {"m c^2": k["m"] * c * c, "hbar c": k["hbar"] * c,
              "m c / hbar": k["m"] * c / k["hbar"], "c^2": c * c}
    if k["q"] != 0.0:
        scales["q"] = k["q"]
    for name, value in scales.items():
        _require(math.isfinite(value * value) and value * value != 0.0,
                 f"constants out of range: ({name})^2 = {value * value!r} "
                 f"is not a finite nonzero number")

    _check_keys("method", method, _METHOD)
    _require(method["mode"] in ("analytic", "central"),
             f"unknown derivative mode {method['mode']!r}")
    _require(method["h"] > 0, "method h must be positive")

    _check_keys("fixture", cfg.fixture, spec.fixture, spec.optional)
    spec.limits(cfg.fixture, c)

    if spec.cloud is None:
        _require(cfg.cloud is None, f"scenario {cfg.scenario} samples no "
                                    f"cloud; remove the cloud key")
    else:
        kind = cfg.cloud.get("kind") if isinstance(cfg.cloud, dict) else None
        _require(isinstance(kind, str) and kind in _CLOUDS,
                 f"cloud must be an object whose kind is one of "
                 f"{', '.join(_CLOUDS)}")
        required, optional = _CLOUDS[kind]
        _check_keys(f"{kind} cloud", cfg.cloud, {"kind": kind, **required},
                    optional)

    _check_keys("tolerances", cfg.tolerances, {},
                dict.fromkeys(spec.checks, 0.0))
    _require(all(v >= 0 for v in cfg.tolerances.values()),
             "tolerances must be nonnegative")
    _require(type(cfg.seed) is int and 0 <= cfg.seed < 2 ** 64,
             "seed must be an unsigned 64-bit integer")
    _require(_fits(cfg.no_timestamp, False),
             "no_timestamp must be true or false")
    _require(cfg.out is None or isinstance(cfg.out, str),
             "out must be a path string")
    _require(cfg.fmt in ("json", "csv"), f"unknown format {cfg.fmt!r}")
    return spec


def config_from_dict(doc: dict, scenario: Optional[str] = None) -> ScenarioConfig:
    """A JSON config document read over its scenario's defaults, once
    _validate has accepted it."""
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
    base = default_config(name)
    for key in ("constants", "method", "fixture"):
        _require(isinstance(doc.get(key, {}), dict),
                 f"{key} must be an object")

    cfg = ScenarioConfig(
        scenario=name,
        constants={**vars(base.constants), **doc.get("constants", {})},
        method={**vars(base.method), **doc.get("method", {})},
        fixture={**base.fixture, **doc.get("fixture", {})},
        cloud=doc.get("cloud", base.cloud),
        tolerances=doc.get("tolerances", {}),
        seed=doc.get("seed", base.seed),
        no_timestamp=doc.get("no_timestamp", False),
        out=doc.get("out"),
        fmt=doc.get("format", base.fmt),
    )
    _validate(cfg, document=True)
    m = cfg.method
    return replace(cfg, constants=PhysicalConstants(
        **{key: float(v) for key, v in cfg.constants.items()}),
        method=DerivativeMethod(m["mode"], float(m["h"]), m["richardson"]),
        tolerances={key: float(v) for key, v in cfg.tolerances.items()})


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
    rows: _Rows
    passed: bool
    version: str
    timestamp: Optional[str]
    duration_s: Optional[float]


class _Rows:
    """The report rows as blocks (case, (K, 4) points, columns), one column
    (check, K float64 magnitudes, a K-bool mask of the events with a
    sample, or None for all) per check; the number of rows is counted as
    blocks are added."""

    def __init__(self):
        self.blocks, self.count = [], 0

    def __len__(self) -> int:
        return self.count


class _Collector:
    def __init__(self, checks: dict, method: DerivativeMethod,
                 overrides: dict):
        self.checks = checks   # name: (analytic tolerance, central, ...)
        self.method, self.overrides = method, overrides
        self.rows = _Rows()

    def add_case(self, labels: list, points, make: Callable):
        """One block per member of a case: each check its reader reads off
        make(points, the run's method), or its value by name if make gives a
        dict, a residual or (residual, mask of the points with a sample); a
        point's magnitude is the largest |entry| of its residual."""
        made, columns = make(points, self.method), []
        for name, (_, _, read) in self.checks.items():
            out = made.get(name) if type(made) is dict else read and read(made)
            if out is not None:
                value, *present = out if type(out) is tuple else (out,)
                columns.append((name, *(_member_blocks(v, len(labels))
                                        for v in (_worst(value), *present))))
        for j, rows in enumerate(_member_blocks(np.asarray(points),
                                                len(labels))):
            kept = []
            for name, mags, *present in columns:
                keep = present[0][j] if present else None
                n = len(rows) if keep is None else np.count_nonzero(keep)
                if n:
                    kept.append((name, mags[j], keep))
                    self.rows.count += int(n)
            if kept:
                self.rows.blocks.append((labels[j], rows, kept))

    def finalize(self) -> tuple:
        samples = {}   # in the order of the checks' first rows
        for _, _, columns in self.rows.blocks:
            for check, values, keep in sorted(columns, key=lambda col: (
                    0 if col[2] is None else np.argmax(col[2]))):
                samples.setdefault(check, []).append(
                    values if keep is None else values[keep])
        checks = []
        for name, blocks in samples.items():   # every check has a row
            tol = self.overrides.get(
                name, self.checks[name][self.method.mode == "central"])
            mags = np.concatenate(blocks)
            linf = float(mags[np.argmax(mags)])   # max()'s, or the first NaN
            with np.errstate(over="ignore"):   # in row order on any Python
                l2 = math.sqrt(np.cumsum(mags * mags)[-1])
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
    points, left = np.empty((0, 4)), _DRAWS_PER_POINT * count
    while len(points) < count and left:   # rounds of only the missing
        k = min(count - len(points), left)   # points: no extra draw
        left -= k
        d, s = np.empty((k, 4)), np.empty((k, 1))
        for i in range(k):
            d[i] = rng.normal(size=4)
            s[i] = radius * rng.random() ** 0.25
        d /= np.sqrt(d[:, None] @ d[:, :, None])[:, 0]   # norm's d.dot(d)
        p = EventArray(center + s * d)
        points = np.concatenate([points, p[~(p.r < min_r)] if min_r else p])
    _require(len(points) == count,
             f"random-ball cloud: only {len(points)} of {count} points lie "
             f"outside the exclusion radius {min_r} after "
             f"{_DRAWS_PER_POINT * count} draws")
    return EventArray(points)


def _build_cloud(spec: dict, rng: np.random.Generator,
                 min_r: float) -> EventArray:
    """The sample cloud of a validated spec as one EventArray. No point may
    lie closer than min_r to the spatial origin: random-ball clouds reject
    such draws, other kinds are refused."""
    if spec["kind"] == "ray":
        # floats: np.linspace of an int beyond int64 builds an object array
        cloud = _ray(float(spec["r_min"]), float(spec["r_max"]),
                     spec["count"], float(spec.get("t", 0.0)))
    elif spec["kind"] == "random-ball":
        return _random_ball(np.asarray(spec.get("center", [0, 0, 0, 0]),
                                       dtype=float),
                            spec["radius"], spec["count"], rng, min_r)
    else:
        cloud = EventArray(np.reshape([[p["x1"], p["x2"], p["x3"], p["t"]]
                                       for p in spec["events"]], (-1, 4)))
    inside = cloud.r < min_r
    if np.count_nonzero(inside):
        raise ConfigError(
            f"cloud point {cloud.event(int(np.argmax(inside)))} lies inside "
            f"this scenario's exclusion radius {min_r}")
    return cloud


def _worst(x, lead: int = 1) -> np.ndarray:
    """Largest |entry| of each point's value; x has lead point axes."""
    axes = tuple(range(lead, np.ndim(x)))   # none for a scalar per point
    return (np.max(np.abs(x), axis=axes) if axes else np.abs(x)).ravel()


def _eps_for(waves, events) -> float:
    """Near-zero threshold scaled to the largest |psi| over the cloud."""
    peak = max(float(np.max(np.abs(w(events)), initial=0.0)) for w in waves)
    return 1e-12 * peak if peak > 0 else DEFAULT_EPS_PSI


# ---------------------------------------------------------------------------
# scenario builders
# ---------------------------------------------------------------------------

def _one(label: str, event: Event, **values) -> tuple:
    """The case of one event: the values of the named checks there."""
    return ([label], EventArray([event.as_array()]),
            lambda points, method: values)


def _chains(cfg: ScenarioConfig, wave, a_field, eps=DEFAULT_EPS_PSI):
    """make of a case: the _Chain of wave, or of a family, on its points."""
    return partial(_Chain, wave, a_field, constants=cfg.constants,
                   eps_psi=eps)


def _scn_plane_wave(cfg: ScenarioConfig, rng, events):
    a0 = zero_potential()
    waves = [plane_wave(p, cfg.constants) for p in cfg.fixture["momenta"]]
    eps = _eps_for(waves, events)
    for wave in waves:
        yield [wave.label], events, _chains(cfg, wave, a0, eps)


def _scn_kg_coulomb(cfg: ScenarioConfig, rng, events):
    za = float(cfg.fixture["z_alpha"])
    wave = kg_coulomb_1s(za, cfg.constants,
                         float(cfg.fixture["energy_scale"]))
    yield [wave.label], events, _chains(
        cfg, wave, coulomb_potential(za, cfg.constants),
        _eps_for([wave], events))


def _scn_dirac_plane_wave(cfg: ScenarioConfig, rng, events):
    a0 = zero_potential()
    for p in cfg.fixture["momenta"]:
        spinor = dirac_plane_wave(p, cfg.fixture["spin"], cfg.constants)
        yield [spinor.label], events, _chains(cfg, spinor, a0)
    n = int(cfg.fixture["n_random_spinors"])
    for first in range(0, n, _SPINOR_BLOCK):
        # per spinor its numbers, then one (3, 4) draw for its 3 points
        u, x = zip(*[(rng.random(_SPINOR_DRAW), rng.uniform(-0.5, 0.5, (3, 4)))
                     for _ in range(min(_SPINOR_BLOCK, n - first))])
        yield ([f"random-spinor-{j}" for j in range(first, first + len(u))],
               EventArray(np.concatenate(x)),
               _chains(cfg, random_spinor_family(u, cfg.constants), a0))


def _solved(read: Callable) -> Callable:
    # a random spinor family solves no equation, and has no energy
    return lambda ch: read(ch) if ch.psi.energy else None


def _velocity_deviation(ch: _Chain) -> tuple:
    # an event needs two components above threshold for a sample
    return ch.velocity_deviation, np.count_nonzero(ch.admissible, axis=-1) >= 2


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


def _scn_dirac_coulomb(cfg: ScenarioConfig, rng, events):
    za = float(cfg.fixture["z_alpha"])
    consts = cfg.constants
    spinor = dirac_coulomb_1s(za, consts, cfg.fixture.get("energy"))
    a = coulomb_potential(za, consts)
    yield [spinor.label], events, _chains(cfg, spinor, a)

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
    found = _fminbound(scan_norm, lo, hi, 1e-9 * mc2)   # x in units of m c^2
    expected = math.sqrt(1.0 - za ** 2) * mc2
    yield _one(spinor.label, scan.event(0),
               energy_scan=abs(found - expected) / mc2)


_DEG2_MONOMIALS = [
    (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (1, 1, 0, 0),
    (1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1),
]


def _scn_gauge_orbit(cfg: ScenarioConfig, rng, events):
    consts = cfg.constants
    a0 = zero_potential()
    wave = plane_wave(cfg.fixture["p"], consts)
    spinor = dirac_plane_wave(cfg.fixture["p"], "up", consts)
    monos = [m for m in _DEG2_MONOMIALS if sum(m) <= cfg.fixture["degree"]]
    untransformed = {}   # by method and cloud bytes: the same for every gauge

    def sides(points, method):
        # one at a time, so that each is reduced before the next exists
        yield extract_u(wave, a0, points, method, constants=consts)
        yield _worst(dirac_residual(spinor, a0, points, method,
                                    constants=consts))
        yield field_strength(a0, points, method, c=consts.c)

    def make(terms: np.ndarray, points: EventArray, method) -> dict:
        # gauge j of a (B, terms) coefficient table on the j-th of B equal
        # blocks of points; its quantities as (B, rows of a block, ...)
        cloud = points[:len(points) // len(terms)]
        if (key := (method, cloud.tobytes())) not in untransformed:
            untransformed[key] = list(sides(cloud, method))
        u0, r0, f0 = untransformed[key]

        def versus(side, base):
            return _worst(_member_blocks(side, len(terms)) - base, 2)
        # each memo is let go after its last reader: the round trip reads
        # the gauged wave's, and field strength, whose arrays set the peak,
        # meets only chi's
        chi = _polynomial_gauge_members(monos, terms, consts.c)
        a1, wave1 = gauge_transform(a0, wave, chi, consts)
        a2, wave2 = gauge_transform(a1, wave1, _polynomial_gauge_members(
            monos, -terms, consts.c), consts)
        out = {"u_invariance": versus(
            extract_u(wave1, a1, points, method, constants=consts), u0)}
        out["roundtrip"] = versus(
            extract_u(wave2, a2, points, method, constants=consts), u0)
        del wave1, a2, wave2
        _, spinor1 = gauge_transform(a0, spinor, chi, consts)
        out["dirac_invariance"] = versus(_worst(dirac_residual(
            spinor1, a1, points, method, constants=consts)), r0)
        del spinor1
        out["field_strength_invariance"] = versus(
            field_strength(a1, points, method, c=consts.c), f0)
        return out

    n = int(cfg.fixture["n_gauges"])
    rows = len(events) * cfg.method.rows_per_point   # evaluated per gauge
    block = max(1, _GAUGE_ROWS // max(rows, 1))
    for first in range(0, n, block):
        # one (B, terms) draw takes the same numbers as B gauges' draws of
        # one number per term
        terms = rng.uniform(-0.5, 0.5, (min(block, n - first), len(monos)))
        yield ([f"chi-{j}" for j in range(first, first + len(terms))],
               EventArray(np.tile(events, (len(terms), 1))),
               partial(make, terms))


def _scaled_gammas(scale: float) -> GammaSet:
    g = gamma_matrices()
    if scale == 1.0:
        return g
    gammas = (g.gammas[0] * scale,) + g.gammas[1:]
    return GammaSet(g.representation + "-perturbed", g.alphas, g.beta, gammas)


def _scn_clifford(cfg: ScenarioConfig, rng, events):
    consts = cfg.constants
    g = _scaled_gammas(float(cfg.fixture["gamma_scale"]))
    fixed = max(
        float(np.max(np.abs(g.gammas[3] - np.diag([1, 1, -1, -1])))),
        abs(g.gammas[0][0, 3] - (-1j)),
        abs(g.gammas[0][3, 0] - 1j),
    )
    yield _one("matrix-set", _ORIGIN, clifford=clifford_residual(g),
               fixed_entries=fixed)
    # one (n, 2, 4) draw takes the same numbers as a real and an imaginary
    # draw of 4 per momentum
    draws = rng.normal(size=(int(cfg.fixture["n_random_p"]), 2, 4))
    p = draws[:, 0] + 1j * draws[:, 1]
    gp = gamma_dot(g, p)
    square = np.max(np.abs(gp @ gp - np.sum(p * p, axis=-1)[:, None, None]
                           * np.eye(4, dtype=complex)), axis=(-2, -1))
    yield ["random-p"], np.zeros((len(p), 4)), lambda points, method: {
        "gamma_square": square,
        "factorization": factorization_residual(g, p, consts)}


def _scn_action_path(cfg: ScenarioConfig, rng, events):
    consts = cfg.constants
    meth = cfg.method
    a0 = zero_potential()
    wave = plane_wave(cfg.fixture["p"], consts)
    p = np.asarray(cfg.fixture["p"], dtype=float)

    start, end = _ORIGIN, Event(1.0, 0.0, 0.0, 0.0)
    res = action_integral(wave, a0, [start, end], meth, constants=consts)
    expected_phi = float(p[0])  # constant momentum dotted with the chord
    yield _one("straight", end, plane_phi=abs(res.phi - expected_phi),
               plane_reconstruction=res.reconstruction_error)

    loop = [Event(1, 0, 0, 0), Event(2, 1, 0, 0.2), Event(1, 2, 0, 0.4),
            Event(1, 0, 0, 0)]
    res_loop = action_integral(wave, a0, loop, meth, constants=consts)
    yield _one("loop", loop[0], closed_loop=abs(res_loop.phi))

    za = float(cfg.fixture["z_alpha"])
    bound = kg_coulomb_1s(za, consts)
    ac = coulomb_potential(za, consts)
    path1 = [Event(1, 0, 0, 0), Event(3, 0, 0, 0)]
    path2 = [Event(1, 0, 0, 0), Event(1, 2, 0, 0), Event(3, 2, 0, 0),
             Event(3, 0, 0, 0)]
    r1 = action_integral(bound, ac, path1, meth, constants=consts)
    r2 = action_integral(bound, ac, path2, meth, constants=consts)
    yield _one("bound-state", path1[-1], two_path_delta=abs(r1.phi - r2.phi))


def _scn_worldline(cfg: ScenarioConfig, rng, events):
    consts = cfg.constants
    c = consts.c
    radius = float(cfg.fixture["radius"])
    ct0 = float(cfg.fixture["ct0"])
    circle = make_worldline("circle-x1x4", radius=radius, c=c)

    def onshell(pts: list) -> tuple:
        # |u.u + c^2| at each pierce point (or None), masked where no u is
        us = [pt and pt.u for pt in pts]
        return (np.array([0.0 if u is None else abs(contract(u, u) + c ** 2)
                          for u in us]),
                np.array([u is not None for u in us], dtype=bool))

    pts = pierce_points(circle, ct0 / c)
    yield _one("circle", circle.position(0.0),
               circle_count=float(abs(len(pts) - 2)))
    expected_x1 = math.sqrt(max(radius ** 2 - ct0 ** 2, 0.0))
    at = np.reshape([pt.event.as_array() for pt in pts], (-1, 4))
    yield ["circle"], at, lambda points, method: {
        "circle_position": [abs(abs(pt.event.x1) - expected_x1) for pt in pts],
        "timelike_onshell": onshell(pts)}

    top = pierce_points(circle, radius / c)
    graze_ok = len(top) == 1 and top[0].tangent
    yield _one("circle-graze", top[0].event if top else circle.position(0.0),
               tangent_flag=0.0 if graze_ok else 1.0)

    cls_ok = (classify_speed(circle, 0.0) == "timelike"
              and classify_speed(circle, math.pi / 2) == "spacelike")
    yield _one("circle", circle.position(0.0),
               classification=0.0 if cls_ok else 1.0)

    line = make_worldline("line", v=cfg.fixture["line_v"], c=c)
    vmax = float(cfg.fixture["max_boost"]) * c
    speeds = np.linspace(-vmax, vmax, int(cfg.fixture["n_boosts"])).tolist()
    lines, pierced = [], []
    for first in range(0, len(speeds), _BOOST_BLOCK):   # one scan per block
        boosted, times = _boost_family(line,
                                       speeds[first:first + _BOOST_BLOCK])
        lines += boosted
        pierced += _pierce_members(boosted, 0.0, times)
    # t is linear in lambda on a boosted line, so it pierces t = 0 at most
    # once; one event per line, at lambda = 0 where it does not
    firsts = [bpts[0] if bpts else None for bpts in pierced]
    at = np.reshape([(pt.event if pt else w.position(0.0)).as_array()
                     for w, pt in zip(lines, firsts)], (-1, 4))
    yield ["boosted-line"], at, lambda points, method: {
        "line_boost_count": [float(abs(len(bpts) - 1)) for bpts in pierced],
        "timelike_onshell": onshell(firsts)}


def _dirac_coulomb_limits(fixture: dict, c: float):
    _require(fixture["scan_points"] >= 1, "fixture scan_points must be >= 1")
    lo, hi, za = fixture["scan_lo"], fixture["scan_hi"], fixture["z_alpha"]
    _require(lo < hi, "fixture scan_lo must lie below scan_hi")
    # the scan can only find a bound-state energy inside its window
    if 0.0 < za < 1.0:
        energy = math.sqrt(1.0 - za * za)
        _require(lo <= energy <= hi,
                 f"fixture scan window [{lo}, {hi}] does not hold the "
                 f"expected energy sqrt(1 - z_alpha^2) = {energy!r} m c^2")


def _gauge_orbit_limits(fixture: dict, c: float):
    _require(1 <= fixture["degree"] <= 2, "fixture degree must be 1 or 2")


def _worldline_limits(fixture: dict, c: float):
    radius = float(fixture["radius"])   # an integer's square may not convert
    _require(math.isfinite(radius * radius),
             "fixture radius must have a finite square")
    # a line faster than light has no 4-velocity, and if v1 > c, all of it
    # lies at t = 0 in the frame at c^2 / v1
    speed = math.hypot(*fixture["line_v"])
    _require(speed <= c, f"fixture line_v must not be faster than light: "
                         f"|line_v| = {speed!r} > c = {c!r}")
    _require(0 <= fixture["max_boost"] < 1,
             "fixture max_boost must lie in [0, 1) (a fraction of c)")
    _require(abs(fixture["ct0"]) < fixture["radius"],
             "fixture ct0 must lie strictly between -radius and radius")


@dataclass(frozen=True)
class Scenario:
    """One scenario. build(cfg, rng, events) yields cases (labels, points,
    make): member j of len(labels) on the j-th equal block of points, and
    make(points, method) a residual chain by that derivative method or a
    dict of check values by name, which may ignore the method. events
    is the cloud, drawn first from rng, or None. checks maps each check, in
    row order, to (analytic, central tolerance, reader): a tolerance None
    never fails, and a check only a dict gives has no reader. The fixture
    defaults' types and shapes are the fixture schema, optional holds an
    example value of each key without a default, limits(fixture, c) raises
    ConfigError for a value out of range, and no cloud point may lie closer
    than min_r to the spatial origin."""

    build: Callable
    checks: dict
    fixture: dict
    cloud: Optional[dict] = None
    mode: str = "analytic"
    min_r: float = 0.0
    optional: dict = dc_field(default_factory=dict)
    limits: Callable = lambda fixture, c: None


_BALL = {"kind": "random-ball", "center": [0, 0, 0, 0], "radius": 2.0,
         "count": 100}
_RAY = {"kind": "ray", "r_min": 0.5, "r_max": 5.0, "count": 50, "t": 0.0}
_MOMENTA = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, -0.2, 0.1]]
_SPINOR_BLOCK = 4   # random spinors per family; bounds nested-stencil memory
_GAUGE_ROWS = 1000  # evaluated rows per gauge family (at least one gauge)
_BOOST_BLOCK = 4    # boosted lines per scan; bounds its grid memory

# the Coulomb clouds keep min_r = 0.25 away from the singularity, and the
# hard Dirac bound state is certified by central differences by default
_SCENARIOS = {
    "plane-wave": Scenario(_scn_plane_wave, checks={
        "kg": (1e-12, 1e-6, lambda ch: ch.kg),
        "mass_shell": (1e-12, 1e-6, lambda ch: ch.mass_shell),
        "newton": (1e-12, 1e-6, lambda ch: ch.newton),
        "curl_k": (1e-12, 1e-6, lambda ch: ch.curl_k),
        "divergence": (1e-12, 1e-6, lambda ch: ch.divergence.value),
        "nonlinear": (1e-12, 1e-6, lambda ch: ch.nonlinear),
    }, fixture={"momenta": _MOMENTA}, cloud=_BALL),
    "kg-coulomb-1s": Scenario(_scn_kg_coulomb, checks={
        "kg": (1e-8, 1e-5, lambda ch: ch.kg),
        "divergence_identity": (1e-8, 1e-5, lambda ch: ch.divergence.mismatch),
        "nonlinear_vs_mass_shell": (1e-8, 1e-5, lambda ch: (
            ch.nonlinear - ch.constants.m ** 2 * ch.mass_shell)),
        "curl_k": (1e-8, 1e-5, lambda ch: ch.curl_k),
        "u_contract_k": (1e-10, 1e-6, lambda ch: ch.curl_k @ ch.u[..., None]),
        "lorenz_gauge": (1e-12, 1e-8,
                         lambda ch: ch.divergence.lorenz_residual),
        "mass_shell": (None, None, lambda ch: ch.mass_shell),
        "newton": (None, None, lambda ch: ch.newton),
    }, fixture={"z_alpha": 0.4, "energy_scale": 1.0}, cloud=_RAY, min_r=0.25),
    "dirac-plane-wave": Scenario(_scn_dirac_plane_wave, checks={
        "residual_gamma": (1e-12, 1e-6, _solved(lambda ch: ch.residual_gamma)),
        "residual_alphabeta": (1e-12, 1e-6,
                               _solved(lambda ch: ch.residual_alphabeta)),
        "form_equivalence": (1e-12, 1e-12, _solved(lambda ch: ch.residual_gamma
            - ch.residual_alphabeta @ form_relation_matrix(ch.constants).T)),
        "velocity_consistency": (1e-12, 1e-8, _solved(_velocity_deviation)),
        "dirac_to_kg": (1e-8, 1e-8, lambda ch: None if ch.psi.energy else (
            dirac_to_kg_check(ch.psi, ch.a_field, ch.e, ch.method,
                              constants=ch.constants)
            - kg_operator_on_spinor(ch.psi, ch.e, constants=ch.constants))),
    }, fixture={"momenta": _MOMENTA, "spin": "up", "n_random_spinors": 20},
        cloud=_BALL),
    "dirac-coulomb-1s": Scenario(_scn_dirac_coulomb, checks={
        "residual_gamma": (1e-10, 1e-6, lambda ch: ch.residual_gamma),
        "velocity_deviation": (None, None, _velocity_deviation),
        "energy_scan": (1e-6, 1e-6, None),
    }, fixture={"z_alpha": 0.4, "scan_lo": 0.85, "scan_hi": 0.95,
                "scan_points": 25}, cloud=_RAY, mode="central", min_r=0.25,
        optional={"energy": 0.0},   # a trial energy for the eigenvalue
        limits=_dirac_coulomb_limits),
    "gauge-orbit": Scenario(_scn_gauge_orbit, checks={
        "u_invariance": (1e-9, 1e-6, None),
        "dirac_invariance": (1e-10, 1e-6, None),
        "field_strength_invariance": (1e-10, 1e-10, None),
        "roundtrip": (1e-12, 1e-11, None),
    }, fixture={"p": [1.0, 0.0, 0.0], "n_gauges": 10, "degree": 2},
        cloud={**_BALL, "radius": 1.5}, limits=_gauge_orbit_limits),
    "clifford": Scenario(_scn_clifford, checks={
        "clifford": (0.0, 0.0, None),
        "fixed_entries": (0.0, 0.0, None),
        "gamma_square": (1e-12, 1e-12, None),
        "factorization": (1e-12, 1e-12, None),
    }, fixture={"n_random_p": 100, "gamma_scale": 1.0}),
    "action-path": Scenario(_scn_action_path, checks={
        "plane_phi": (1e-12, 1e-12, None),
        "plane_reconstruction": (1e-12, 1e-12, None),
        "closed_loop": (1e-8, 1e-8, None),
        "two_path_delta": (1e-8, 1e-8, None),
    }, fixture={"p": [1.0, 0.0, 0.0], "z_alpha": 0.4}),
    "worldline-pierce": Scenario(_scn_worldline, checks={
        "circle_count": (0.0, 0.0, None),
        "circle_position": (1e-9, 1e-9, None),
        "line_boost_count": (0.0, 0.0, None),
        "timelike_onshell": (1e-10, 1e-10, None),
        "tangent_flag": (0.0, 0.0, None),
        "classification": (0.0, 0.0, None),
    }, fixture={"radius": 1.0, "ct0": 0.5, "line_v": [0.3, 0.1, -0.2],
                "n_boosts": 20, "max_boost": 0.99}, limits=_worldline_limits),
}


def _config_echo(cfg: ScenarioConfig) -> dict:
    return {
        "scenario": cfg.scenario,
        "constants": dict(vars(cfg.constants)),
        "method": dict(vars(cfg.method)),
        "fixture": cfg.fixture,
        "cloud": cfg.cloud,
        "tolerances": cfg.tolerances,
        "seed": cfg.seed,
    }


def run_scenario(cfg: ScenarioConfig) -> ResidualReport:
    spec = _validate(cfg)
    started = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    col = _Collector(spec.checks, cfg.method, cfg.tolerances)
    # numpy warns, and goes on with inf or NaN, where an input's arithmetic
    # overflows; such an input is refused instead of certified
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            events = (None if spec.cloud is None
                      else _build_cloud(cfg.cloud, rng, spec.min_r))
            for case in spec.build(cfg, rng, events):
                col.add_case(*case)
        except RuntimeWarning as exc:
            raise ParameterError(f"arithmetic out of range: {exc}") from exc
    checks = col.finalize()
    duration = time.perf_counter() - started
    return ResidualReport(
        scenario=cfg.scenario,
        config=_config_echo(cfg),
        checks=checks,
        rows=col.rows,
        passed=all(c.passed for c in checks),
        version=__version__,
        timestamp=None if cfg.no_timestamp else
        time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        duration_s=None if cfg.no_timestamp else duration,
    )


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# templates of a row's head, of (case, check), and of the text before and
# after its magnitude, of (index, x1, x2, x3, t): json.dumps(sort_keys=True,
# indent=2) at the rows array's depth, with ",\n" after each row
_JSON_PIECES = (
    '    {{\n      "case": {},\n      "check": {},\n      "index": ',
    '{},\n      "magnitude": ',
    ',\n      "t": {4},\n      "x1": {1},\n      "x2": {2},\n      "x3": {3}'
    '\n    }},\n')
_JSON_ROWS_SLOT = '\n  "rows": [],\n'
# one row as csv.writer writes it: case, check, index, x1, x2, x3, t, magnitude
_CSV_PIECES = ("{},{},", "{},{},{},{},{},", "\r\n")


def _floats(values: np.ndarray, nonfinite: Optional[dict] = None) -> list:
    """Each of values as float repr spells it, and a non-finite one as
    nonfinite spells it, if given."""
    texts = list(map(float.__repr__, values.tolist()))
    if nonfinite and not np.isfinite(values).all():
        texts = [nonfinite.get(text, text) for text in texts]
    return texts


def _csv_field(text: str) -> str:
    """text as csv.writer spells it in a row of more than one field."""
    buf = io.StringIO()
    csv.writer(buf).writerow(("", text))
    return buf.getvalue()[1:-2]


def _row_pieces(rows: _Rows, label, spell, head, before, after) -> list:
    """Every row of rows as four pieces, event-major and check-minor within
    a block: head(case, check) of the labels as label(name) gives them,
    before(index, x1, x2, x3, t), the magnitude and after(index, x1, x2,
    x3, t). spell(values) gives a list: the coordinates' once per distinct
    points array, and the magnitudes of all rows in one call, which spells
    each distinct float64 bit pattern once. Bits are the keys, so -0.0
    stays apart from 0.0; a NaN of any payload is spelled as a NaN."""
    if not rows.blocks:
        return []
    values = np.concatenate([v for _, _, columns in rows.blocks
                             for _, v, _ in columns], dtype=np.float64)
    distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    mags = np.array(spell(distinct.view(np.float64)), object)[inverse].tolist()
    pieces, around, start = [], {}, 0
    for case, points, columns in rows.blocks:
        key, k, c = points.tobytes(), len(points), len(columns)
        if key not in around:
            xyz = spell(points.ravel())
            args = range(k), xyz[0::4], xyz[1::4], xyz[2::4], xyz[3::4]
            around[key] = [*map(before, *args)], [*map(after, *args)]
        keep = np.ones((k, c), bool)
        block = [None] * (4 * k * c)   # row i * c + j from 4 (i * c + j) on
        for j, (check, _, present) in enumerate(columns):
            block[4 * j::4 * c] = [head(label(case), label(check))] * k
            block[4 * j + 1::4 * c], block[4 * j + 3::4 * c] = around[key]
            block[4 * j + 2::4 * c] = mags[start:start + k]
            start += k
            if present is not None:
                keep[:, j] = present
        pieces += (block if keep.all()
                   else compress(block, np.repeat(keep.ravel(), 4).tolist()))
    return pieces


def report_to_json(report: ResidualReport) -> str:
    """The report as json.dumps(doc, sort_keys=True, indent=2) + "\\n"
    would write it, byte for byte. Only the header goes through json.dumps,
    with an empty rows array: with an indent, json encodes in pure Python,
    and the rows are almost all of the text. Their pieces come from
    _row_pieces and are joined into the header at once."""
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
    pieces = _row_pieces(report.rows, encode_basestring_ascii,
                         partial(_floats, nonfinite=_JSON_NONFINITE),
                         *(template.format for template in _JSON_PIECES))
    pieces[-1] = pieces[-1][:-2]   # no separator after the last row
    # the only line at the top level's indent that opens a "rows" key;
    # a string in the header cannot hold a raw newline
    head, _, tail = text.partition(_JSON_ROWS_SLOT)
    return "".join((head, '\n  "rows": [\n', *pieces, "\n  ],\n", tail))


_CSV_HEADER = ("case", "check", "index", "x1", "x2", "x3", "t", "magnitude")


def report_to_csv(report: ResidualReport) -> str:
    """The report's rows as csv.writer writes them, byte for byte."""
    buf = io.StringIO()
    csv.writer(buf).writerow(_CSV_HEADER)
    return "".join((buf.getvalue(), *_row_pieces(
        report.rows, _csv_field, _floats,
        *(template.format for template in _CSV_PIECES))))


def export_report(report: ResidualReport, fmt: str = "json") -> str:
    if fmt == "json":
        return report_to_json(report)
    if fmt == "csv":
        return report_to_csv(report)
    raise ConfigError(f"unknown format {fmt!r}")
