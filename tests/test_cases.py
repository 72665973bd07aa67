"""Cases of the scenarios: their shape, and the cloud scenarios' cases
rerun on part of their points or with another derivative method.

A stencil at one point never reads another base point, and a family member
reads only its own block of points, so a case's make run on a subset of its
points, or on the same rows of every member's block, must score those rows
of the full run bit for bit. The method is an argument of make, so one case
made with each method in turn must score the rows of a run in each mode.
"""
import numpy as np
import pytest

from fourvel import ANALYTIC, EventArray, central, config_from_dict
from fourvel import core4, runner
from fourvel.core4 import _member_blocks
from fourvel.velocityfield import _Chain

# each kind of case: the single waves of four scenarios, and the families
# of random spinors and of gauges, whose members' labels start with these
FAMILIES = ("random-spinor-", "chi-")
KINDS = {"plane-wave": "plane-wave", "kg-coulomb-1s": "kg-coulomb-1s",
         "dirac-plane-wave": "dirac-plane-wave",
         "dirac-coulomb-1s": "dirac-coulomb-1s",
         "random-spinor-family": "dirac-plane-wave",
         "gauge-family": "gauge-orbit"}
METHODS = {"analytic": ANALYTIC, "central": central()}


def _scored(spec, method, labels, points, make) -> dict:
    """{(label, check): (magnitudes, mask)} as the runner collects them."""
    col = runner._Collector(spec.checks, method, {})
    col.add_case(labels, points, make)
    return {(label, check): (values, keep)
            for label, _, columns in col.rows.blocks
            for check, values, keep in columns}


def _cases(kind, mode) -> list:
    """The cases of kind in a run of its scenario in mode."""
    scenario = KINDS[kind]
    cfg = config_from_dict({"method": {"mode": mode}}, scenario)
    spec = runner._SCENARIOS[scenario]
    rng = np.random.default_rng(cfg.seed)
    events = runner._build_cloud(cfg.cloud, rng, spec.min_r)
    cases = [case for case in spec.build(cfg, rng, events)
             if case[0][0].startswith(FAMILIES) == kind.endswith("family")]
    assert cases
    return cases


@pytest.mark.parametrize("mode", ["analytic", "central"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_case_rerun_on_a_subset_gives_its_rows(kind, mode):
    spec = runner._SCENARIOS[KINDS[kind]]
    method = METHODS[mode]
    pick = np.random.default_rng(3)
    for labels, points, make in _cases(kind, mode):
        blocks = _member_blocks(points, len(labels))
        rows = np.sort(pick.choice(blocks.shape[1],
                                   max(1, blocks.shape[1] // 3),
                                   replace=False))
        full = _scored(spec, method, labels, points, make)
        part = _scored(spec, method, labels,
                       EventArray(blocks[:, rows].reshape(-1, 4)), make)
        assert part.keys() == {key for key, (_, keep) in full.items()
                               if keep is None or keep[rows].any()}
        for key, (values, keep) in part.items():
            want, want_keep = full[key]
            assert values.tobytes() == want[rows].tobytes()
            assert (keep is None) == (want_keep is None)
            if keep is not None:
                assert np.array_equal(keep, want_keep[rows])


@pytest.mark.parametrize("mode", ["analytic", "central"])
@pytest.mark.parametrize("scenario", runner.list_scenarios())
def test_every_case_is_labels_points_and_a_make(scenario, mode):
    # each member takes an equal block of points, and make gives a chain,
    # which the readers read, or check values by the names of the table
    cfg = config_from_dict({"method": {"mode": mode}}, scenario)
    spec = runner._SCENARIOS[scenario]
    rng = np.random.default_rng(cfg.seed)
    events = (None if spec.cloud is None
              else runner._build_cloud(cfg.cloud, rng, spec.min_r))
    cases = list(spec.build(cfg, rng, events))
    assert cases
    for case in cases:
        assert type(case) is tuple and len(case) == 3
        labels, points, make = case
        assert labels and len(points) % len(labels) == 0
        made = make(points, cfg.method)
        assert (made.keys() <= spec.checks.keys() if type(made) is dict
                else isinstance(made, _Chain))


@pytest.mark.parametrize("first", METHODS)
@pytest.mark.parametrize("kind", KINDS)
def test_one_case_scores_each_method_it_is_given(kind, first):
    # the cases of a central run, where a gauge block holds one gauge, each
    # made with both methods in turn, first one way round, then the other;
    # gauge-orbit keys its untransformed sides on the method and the
    # points, so the second method must not get the first one's sides
    spec = runner._SCENARIOS[KINDS[kind]]
    runs = {mode: {key: column for case in _cases(kind, mode)
                   for key, column in _scored(spec, method, *case).items()}
            for mode, method in METHODS.items()}
    order = sorted(METHODS, key=lambda mode: mode != first)
    seen = {mode: set() for mode in METHODS}
    for labels, points, make in _cases(kind, "central"):
        for mode in order:
            got = _scored(spec, METHODS[mode], labels, points, make)
            seen[mode] |= got.keys()
            for key, (values, keep) in got.items():
                want, want_keep = runs[mode][key]
                assert values.tobytes() == want.tobytes(), (mode, key)
                assert (keep is None) == (want_keep is None)
                if keep is not None:
                    assert np.array_equal(keep, want_keep)
    assert all(seen[mode] == runs[mode].keys() for mode in METHODS)


@pytest.mark.parametrize("method", [ANALYTIC, central(),
                                    central(richardson=True)],
                         ids=["analytic", "central", "central-richardson"])
def test_rows_per_point_counts_the_points_a_derivative_evaluates(method):
    e = EventArray(np.zeros((3, 4)))
    assert method.rows_per_point == (
        1 if method.mode == "analytic"
        else core4._stencil_points(e, method.steps).shape[1])
