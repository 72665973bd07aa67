"""Property test of the CLI exit contract: every config document, however
malformed or extreme, exits 0, 1 or 2 without an escaping exception or a
numpy warning, and exits 1 only when a check failed.

Each document is an ordinary one, with a cloud of at most 6 points and at
most 3 gauges, in which up to two entries are replaced by a wrong type, a
huge, tiny or big-integer number, or a non-finite one.
"""
import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

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
DOCUMENTS = {
    "gauge-orbit": st.fixed_dictionaries({"cloud": CLOUDS, "fixture": (
        st.fixed_dictionaries({"p": _vector(3), "n_gauges": st.integers(0, 3)},
                              optional={"degree": st.integers(1, 2)}))},
        optional=OPTIONAL),
    "plane-wave": st.fixed_dictionaries({"cloud": CLOUDS, "fixture": (
        st.fixed_dictionaries({"momenta": st.lists(_vector(3), min_size=1,
                                                   max_size=2)}))},
        optional=OPTIONAL),
}
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
