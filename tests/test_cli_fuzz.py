"""Property tests of the CLI exit contract: every config document, however
malformed or extreme, exits 0, 1 or 2 without an escaping exception or a
numpy warning, and exits 1 only when a check failed; and config_from_dict,
on any document, returns a ScenarioConfig or raises ConfigError.

Each CLI document is an ordinary one for its scenario, with a cloud of at
most 6 points and at most a handful of gauges, draws, boosts or scan
points, in which up to two entries are replaced by a wrong type, a huge,
tiny or big-integer number, or a non-finite one.
"""
import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fourvel import ConfigError, ScenarioConfig, config_from_dict
from fourvel.cli import main

EXTREMES = [0, -0.0, 1e-320, 5e-324, 1e-154, 1e154, 1e200,
            1.7976931348623157e308, -1e308, 10 ** 20, -(10 ** 20), 2 ** 63,
            10 ** 400, float("nan"), float("inf"), float("-inf")]
WRONG = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.lists(st.integers(), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(),
                                  max_size=1))
REPLACEMENTS = st.one_of(st.sampled_from(EXTREMES), st.floats(-3, 3),
                         st.floats(), st.integers(), WRONG)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_subnormal=False)


def _vector(n, lo=-2.0, hi=2.0):
    return st.lists(_floats(lo, hi), min_size=n, max_size=n)


COUNT = st.integers(0, 6)
CLOUDS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("ray"), "r_min": _floats(0.3, 3),
                           "r_max": _floats(0.3, 5), "count": COUNT},
                          optional={"t": _floats(-2, 2)}),
    st.fixed_dictionaries({"kind": st.just("random-ball"),
                           "radius": _floats(0.1, 3), "count": COUNT},
                          optional={"center": _vector(4)}),
    st.fixed_dictionaries({"kind": st.just("events"), "events": st.lists(
        st.builds(lambda x: dict(zip(("x1", "x2", "x3", "t"), x)),
                  _vector(4, -3.0, 3.0)), max_size=6)}),
)
OPTIONAL = {
    "method": st.fixed_dictionaries({}, optional={
        "mode": st.sampled_from(["analytic", "central"]),
        "h": _floats(1e-4, 1e-2)}),
    "seed": st.integers(0, 2 ** 32),
}
Z_ALPHA = _floats(0.05, 0.95)
MOMENTA = st.lists(_vector(3), min_size=1, max_size=2)
FIXTURES = {
    "gauge-orbit": st.fixed_dictionaries(
        {"p": _vector(3), "n_gauges": st.integers(0, 3)},
        optional={"degree": st.integers(1, 2)}),
    "plane-wave": st.fixed_dictionaries({"momenta": MOMENTA}),
    "kg-coulomb-1s": st.fixed_dictionaries({}, optional={
        "z_alpha": Z_ALPHA, "energy_scale": _floats(0.9, 1.1)}),
    "dirac-plane-wave": st.fixed_dictionaries(
        {"momenta": MOMENTA, "n_random_spinors": st.integers(0, 2)},
        optional={"spin": st.sampled_from(["up", "down"])}),
    "dirac-coulomb-1s": st.fixed_dictionaries(
        {"scan_points": st.integers(1, 5)},
        # windows that hold the expected energy sqrt(1 - z_alpha^2)
        optional={"z_alpha": _floats(0.32, 0.52),
                  "scan_lo": _floats(0.5, 0.85), "scan_hi": _floats(0.95, 1.0),
                  "energy": _floats(0.5, 1.0)}),
    "clifford": st.fixed_dictionaries(
        {"n_random_p": st.integers(0, 6)},
        optional={"gamma_scale": _floats(0.9, 1.1)}),
    "action-path": st.fixed_dictionaries({}, optional={
        "p": _vector(3), "z_alpha": Z_ALPHA}),
    "worldline-pierce": st.fixed_dictionaries(
        {"n_boosts": st.integers(0, 6)},
        optional={"radius": _floats(0.1, 10), "ct0": _floats(-2, 2),
                  # past c, so that a line faster than light is drawn
                  "line_v": _vector(3, -1.5, 1.5),
                  "max_boost": _floats(0, 0.999)}),
}
# the scenarios that sample no cloud and refuse a cloud key
NO_CLOUD = {"clifford", "action-path", "worldline-pierce"}
DOCUMENTS = {
    name: st.fixed_dictionaries(
        {"fixture": fixture} if name in NO_CLOUD
        else {"cloud": CLOUDS, "fixture": fixture}, optional=OPTIONAL)
    for name, fixture in FIXTURES.items()}
# entries a replacement may add to any document
EXTRA_PATHS = [("constants", "c"), ("constants", "m"), ("constants", "hbar"),
               ("constants", "q"), ("method", "h"), ("unknown",)]


def _paths(node, path=()) -> list:
    """The path of every entry below node, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [path] * bool(path) + [p for k, v in items
                                  for p in _paths(v, path + (k,))]


def _inside(node, key) -> bool:
    return isinstance(node, dict) or (isinstance(node, list)
                                      and isinstance(key, int)
                                      and -len(node) <= key < len(node))


def _put(doc: dict, path: tuple, value):
    """Set doc at path, adding missing object entries on the way; a path
    through anything but objects and list indices in range is skipped."""
    node = doc
    for key in path[:-1]:
        if not _inside(node, key):
            return
        node = (node.setdefault(key, {}) if isinstance(node, dict)
                else node[key])
    if _inside(node, path[-1]):
        node[path[-1]] = value


@st.composite
def documents(draw, scenario: str) -> dict:
    doc = draw(DOCUMENTS[scenario])
    paths = st.sampled_from(_paths(doc) + EXTRA_PATHS)
    for path, value in draw(st.lists(st.tuples(paths, REPLACEMENTS),
                                     max_size=2)):
        _put(doc, path, value)
    return doc


def _check_exit_contract(scenario: str, doc: dict):
    with tempfile.TemporaryDirectory() as tmp:
        cfgfile = Path(tmp) / "cfg.json"
        cfgfile.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["run", scenario, "--config", str(cfgfile),
                         "--no-timestamp"])
    assert code in (0, 1, 2)
    if code == 1:
        assert "FAILED checks" in err.getvalue()


FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=100)


@FUZZ
@given(documents("gauge-orbit"))
def test_gauge_orbit_config_documents_keep_the_exit_contract(doc):
    _check_exit_contract("gauge-orbit", doc)


@FUZZ
@given(documents("plane-wave"))
def test_plane_wave_config_documents_keep_the_exit_contract(doc):
    _check_exit_contract("plane-wave", doc)


@pytest.mark.parametrize("scenario", sorted(set(FIXTURES) - {
    "gauge-orbit", "plane-wave"}))
@settings(FUZZ, max_examples=30)
@given(data=st.data())
def test_config_documents_keep_the_exit_contract(scenario, data):
    _check_exit_contract(scenario, data.draw(documents(scenario)))


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8)
KEYS = ["scenario", "constants", "method", "fixture", "cloud", "tolerances",
        "seed", "no_timestamp", "out", "format"]
ANY_DOCUMENT = st.one_of(
    JSON, st.dictionaries(st.sampled_from(KEYS), JSON, max_size=4),
    st.sampled_from(sorted(FIXTURES)).flatmap(documents))


@settings(FUZZ, max_examples=150)
@given(ANY_DOCUMENT, st.sampled_from(sorted(FIXTURES) + [None, "nope"]))
def test_config_from_dict_returns_a_config_or_raises_config_error(doc,
                                                                  scenario):
    try:
        cfg = config_from_dict(doc, scenario)
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)
