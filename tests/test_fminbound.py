"""The runner's bounded Brent minimizer against scipy, and a scipy-free runtime.

scipy is only a test oracle here: minimize_scalar(method="bounded") must
evaluate the same points in the same order and return the same x, bit for
bit, as fourvel.runner._fminbound, on seeded random problems and on the
edge cases of the iteration. The runtime itself must not load scipy.
"""
import ast
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import fourvel
from fourvel.runner import _fminbound


def _both(f, lo, hi, xatol):
    """(x, evaluated points) of the port and of scipy on one problem."""
    ours, theirs = [], []

    def traced(points):
        def g(x):
            points.append(x)
            return f(x)
        return g

    x = _fminbound(traced(ours), lo, hi, xatol)
    res = minimize_scalar(traced(theirs), bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol})
    return (x, ours), (float(res.x), [float(p) for p in theirs])


def _assert_same(f, lo, hi, xatol):
    (x, ours), (x_ref, theirs) = _both(f, lo, hi, xatol)
    assert [p.hex() for p in map(float, ours)] == [p.hex() for p in theirs]
    assert float(x).hex() == x_ref.hex()
    return x, ours


def _problems(n_per_kind=100, seed=20240817):
    """Seeded random (f, lo, hi, xatol): smooth, oscillating,
    non-smooth, quartic and staircase functions on random brackets that may
    or may not hold the minimum, with xatol from 1e-12 to 1e-3. The
    staircase's plateaus exercise the tie rules."""
    rng = np.random.default_rng(seed)
    kinds = {
        "quadratic": lambda c, k: (lambda x: (x - c) ** 2),
        "cosine": lambda c, k: (lambda x: math.cos(k * x + c)),
        "sqrt-abs": lambda c, k: (lambda x: math.sqrt(abs(x - c))),
        "quartic": lambda c, k: (lambda x: (x - c) * x * (x + k) ** 2),
        "staircase": lambda c, k: (lambda x: math.floor(4 * k * abs(x - c))),
    }
    out = []
    for make in kinds.values():
        for _ in range(n_per_kind):
            c, k = rng.uniform(-3.0, 3.0), rng.uniform(0.5, 4.0)
            lo = float(rng.uniform(-4.0, 2.0))
            hi = lo + float(10.0 ** rng.uniform(-4.0, 0.8))
            xatol = float(10.0 ** rng.uniform(-12.0, -3.0))
            out.append((make(float(c), float(k)), lo, hi, xatol))
    return out


PROBLEMS = _problems()


def test_port_matches_scipy_on_seeded_random_problems():
    assert len(PROBLEMS) == 500
    interior = 0
    for f, lo, hi, xatol in PROBLEMS:
        x, _ = _assert_same(f, lo, hi, xatol)
        interior += lo + 1e-3 * (hi - lo) < x < hi - 1e-3 * (hi - lo)
    # the brackets hold interior minima as well as minima at a bound
    assert 50 < interior < len(PROBLEMS) - 50


@pytest.mark.parametrize("f, lo, hi, xatol", [
    (lambda x: x, 1.0, 2.0, 1e-9),                   # minimum at lo
    (lambda x: -x, 1.0, 2.0, 1e-9),                  # minimum at hi
    (lambda x: 1.0, -1.0, 1.0, 1e-9),                # constant
    (lambda x: (x - 1.0) ** 2, 1.0, 1.0 + 1e-10, 1e-6),  # bracket < xatol
    (lambda x: (x - 1.0) ** 2, 1.0, 1.0, 1e-9),      # empty bracket
    (lambda x: math.nan, 0.0, 1.0, 1e-9),            # no comparable value
    (lambda x: abs(x - 0.3), 0.0, 1.0, 0.0),         # zero tolerance
], ids=["min-at-lo", "min-at-hi", "constant", "narrower-than-xatol",
        "lo-equals-hi", "nan", "xatol-0"])
def test_port_matches_scipy_on_edge_cases(f, lo, hi, xatol):
    _assert_same(f, lo, hi, xatol)


def test_port_stops_after_500_evaluations_like_scipy():
    # the minimum sits at lo = 0, where a zero xatol leaves a tolerance of
    # sqrt(eps) * |x| that shrinks with x, so the iteration never converges
    x, points = _assert_same(lambda x: x, 0.0, 1.0, 0.0)
    assert len(points) == 500
    assert 0.0 < x < 1e-100


# ---------------------------------------------------------------------------
# the runtime needs numpy only
# ---------------------------------------------------------------------------

_LOADED_SCIPY = """
import contextlib, io, sys
import fourvel
from fourvel.cli import main
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(scipy_modules())
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["run", s, "--no-timestamp"])
             for s in ("clifford", "dirac-coulomb-1s")]
print(codes, scipy_modules())
"""


def test_import_and_runs_load_no_scipy():
    r = subprocess.run([sys.executable, "-c", _LOADED_SCIPY],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["[]", "[0, 0] []"]


def test_no_source_file_imports_scipy():
    package = Path(fourvel.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            # scipy, sympy and mpmath are test oracles only
            assert all(n.split(".")[0] not in ("scipy", "sympy", "mpmath")
                       for n in names), path.name
