"""Print the sha256 of every default scenario report, or check them.

Each scenario is run through ``fourvel.cli.main`` with ``--no-timestamp``
in its default derivative mode, with ``--analytic`` and with
``--numeric``, and each report is written as JSON and as CSV: 8 scenarios
give 48 lines of ``<sha256> <exit code> <scenario> <mode> <format>``.

    python tools/report_hashes.py > hashes.txt
    python tools/report_hashes.py --check hashes.txt
    python tools/report_hashes.py --scenario clifford

With ``--extra`` the reports of the fixed non-default configs in
``EXTRA_CONFIGS`` follow, in their scenario's default mode unless the
config sets one, each named in the mode column: other seeds, failing
(exit 1) reports, other couplings and units, Richardson stencils, a
near-grazing worldline, a ray whose far events have no velocity sample,
random-spinor counts that fill no whole block (7 in central mode, 1 in
analytic mode), gauge counts, degrees and clouds that give several gauge
blocks, one gauge in central mode, several gauges per central block or
one gauge per block, boosted-line counts and speeds that fill one, part of
or no whole family (one line, the speeds -0.0 and 0.0, nine lines, seven
lines in other units, a line at rest), families of no spinors or no gauges, clouds of no events, one-event
checks with few or no samples (no random momenta, no boosted lines,
spacelike circle crossings, a one-point energy scan), integer or empty
values whose echo in the report's config must not change (integer
constants, step and tolerance, which the echo shows as floats, and integer
cloud and fixture values, which it shows as given), and events with -0.0
and 0.0 in every coordinate slot, in each scenario's default mode and in
central mode. With the 48 default reports, that is 164.

    python tools/report_hashes.py --extra > hashes.txt
    python tools/report_hashes.py --extra --check hashes.txt

With ``--check FILE`` the lines are compared with a saved list; every line
that changed, and every saved line that is missing, is printed to stderr,
and the exit code is 1. A line the saved list lacks, such as that of a
config added since, is printed as new and fails nothing. The hashes
depend on the numpy build, so a saved list is only meaningful on the
machine that wrote it.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fourvel.cli import main as cli_main  # noqa: E402
from fourvel.runner import list_scenarios  # noqa: E402

MODES = {"default": [], "analytic": ["--analytic"], "numeric": ["--numeric"]}
FORMATS = ("json", "csv")
UNITS = {"hbar": 1.3, "c": 1.7, "m": 0.8, "q": -0.6}
# -0.0 and 0.0 in every slot; the second event is the first with each
# zero's sign flipped, equal to it as numbers but not as bits
SIGNED_ZEROS = [{"x1": 1.0, "x2": -0.0, "x3": 0.0, "t": -0.0},
                {"x1": 1.0, "x2": 0.0, "x3": -0.0, "t": 0.0},
                {"x1": -0.0, "x2": 1.5, "x3": -0.0, "t": 0.0},
                {"x1": 0.0, "x2": 1.5, "x3": 0.0, "t": -0.0}]
# (scenario, name, config document)
EXTRA_CONFIGS = [
    ("plane-wave", "seed-7", {"seed": 7}),
    ("dirac-plane-wave", "seed-7", {"seed": 7}),
    ("clifford", "gamma-scale-1.001", {"fixture": {"gamma_scale": 1.001}}),
    ("kg-coulomb-1s", "z-alpha-0.45", {"fixture": {"z_alpha": 0.45}}),
    ("dirac-coulomb-1s", "z-alpha-0.5", {"fixture": {"z_alpha": 0.5}}),
    ("dirac-coulomb-1s", "z-alpha-0.2-wide-scan",
     {"fixture": {"z_alpha": 0.2, "scan_hi": 0.99}}),
    ("dirac-coulomb-1s", "z-alpha-0.7",
     {"fixture": {"z_alpha": 0.7, "scan_lo": 0.65, "scan_hi": 0.75}}),
    ("dirac-coulomb-1s", "far-ray",
     {"cloud": {"kind": "ray", "r_min": 0.5, "r_max": 68.0, "count": 40}}),
    ("gauge-orbit", "units", {"constants": UNITS}),
    ("kg-coulomb-1s", "units", {"constants": UNITS}),
    ("action-path", "units", {"constants": UNITS}),
    ("worldline-pierce", "near-grazing", {"fixture": {"ct0": 0.999999}}),
    # integer, empty and optional values whose echo must not change
    ("plane-wave", "int-tolerance", {"tolerances": {"kg": 1}}),
    ("plane-wave", "int-step", {"method": {"mode": "central", "h": 1}}),
    ("kg-coulomb-1s", "empty-events", {"cloud": {"kind": "events",
                                                 "events": []}}),
    ("kg-coulomb-1s", "int-events", {"cloud": {"kind": "events", "events": [
        {"x1": 1, "x2": 0, "x3": 0, "t": 0},
        {"x1": 0, "x2": 2, "x3": -1, "t": 3}]}}),
    ("gauge-orbit", "int-ball", {"cloud": {"kind": "random-ball", "radius": 2,
                                           "center": [0, 1, 0, -1],
                                           "count": 20}}),
    ("kg-coulomb-1s", "int-ray", {"cloud": {"kind": "ray", "r_min": 1,
                                            "r_max": 5, "count": 9, "t": 2}}),
    ("gauge-orbit", "int-c-p", {"constants": {"c": 2},
                                "fixture": {"p": [1, 0, 0]}}),
    ("dirac-coulomb-1s", "energy", {"fixture": {"energy": 0.9}}),
    # spinor evaluation in the mode its scenario does not run by default
    ("dirac-plane-wave", "spin-down-central-units",
     {"fixture": {"spin": "down"}, "method": {"mode": "central"},
      "constants": UNITS}),
    ("dirac-coulomb-1s", "analytic-units",
     {"method": {"mode": "analytic"}, "constants": UNITS}),
    ("gauge-orbit", "central-units",
     {"method": {"mode": "central"}, "constants": UNITS}),
    # the residual chains off shell (exit 1, real magnitudes), with
    # Richardson stencils and in other units
    ("kg-coulomb-1s", "off-shell-analytic",
     {"fixture": {"energy_scale": 1.05}, "method": {"mode": "analytic"}}),
    ("kg-coulomb-1s", "off-shell-central",
     {"fixture": {"energy_scale": 1.05}, "method": {"mode": "central"}}),
    ("kg-coulomb-1s", "off-shell-units",
     {"fixture": {"energy_scale": 1.05}, "constants": UNITS}),
    ("dirac-coulomb-1s", "energy-units",
     {"fixture": {"energy": 2.0}, "constants": UNITS}),
    ("plane-wave", "central-richardson",
     {"method": {"mode": "central", "richardson": True}}),
    ("kg-coulomb-1s", "central-richardson",
     {"method": {"mode": "central", "richardson": True}}),
    ("plane-wave", "central-units",
     {"method": {"mode": "central"}, "constants": UNITS}),
    # the spinor checks' nested stencils with Richardson extrapolation
    ("dirac-plane-wave", "central-richardson",
     {"method": {"mode": "central", "richardson": True}}),
    ("dirac-coulomb-1s", "central-richardson",
     {"method": {"mode": "central", "richardson": True}}),
    ("gauge-orbit", "central-richardson",
     {"method": {"mode": "central", "richardson": True}}),
    # random spinors: a count that is not a multiple of the block size, and
    # a single spinor in analytic mode
    ("dirac-plane-wave", "seven-spinors-central",
     {"fixture": {"n_random_spinors": 7}, "method": {"mode": "central"}}),
    ("dirac-plane-wave", "one-spinor-analytic",
     {"fixture": {"n_random_spinors": 1}, "method": {"mode": "analytic"}}),
    # gauge families: several row blocks, a single gauge in central mode,
    # degree-1 gauges, and a cloud large enough for one gauge per block
    ("gauge-orbit", "25-gauges", {"fixture": {"n_gauges": 25}}),
    ("gauge-orbit", "one-gauge-central",
     {"fixture": {"n_gauges": 1}, "method": {"mode": "central"}}),
    ("gauge-orbit", "degree-1", {"fixture": {"degree": 1}}),
    ("gauge-orbit", "ball-1000", {"cloud": {"kind": "random-ball",
                                            "radius": 1.5, "count": 1000}}),
    # several gauges per central block: 17 evaluated rows per event give
    # blocks of 2, 2 and 1 gauges
    ("gauge-orbit", "five-gauges-central-ball-20",
     {"fixture": {"n_gauges": 5}, "method": {"mode": "central"},
      "cloud": {"kind": "random-ball", "radius": 1.5, "count": 20}}),
    # boosted-line families: one line, the speeds +-0.0, a count that fills
    # no whole block, other units, and a line at rest
    ("worldline-pierce", "one-boost", {"fixture": {"n_boosts": 1}}),
    ("worldline-pierce", "zero-boosts", {"fixture": {"max_boost": 0.0}}),
    ("worldline-pierce", "nine-boosts", {"fixture": {"n_boosts": 9}}),
    ("worldline-pierce", "c-2-seven-boosts",
     {"constants": {"c": 2.0}, "fixture": {"n_boosts": 7}}),
    ("worldline-pierce", "line-at-rest", {"fixture": {"line_v": [0, 0, 0]}}),
    # the case loop's empty paths: a family of no members, and clouds of
    # no events, where only dirac-plane-wave's random spinors give rows
    ("dirac-plane-wave", "no-spinors", {"fixture": {"n_random_spinors": 0}}),
    ("gauge-orbit", "no-gauges", {"fixture": {"n_gauges": 0}}),
    ("plane-wave", "empty-events", {"cloud": {"kind": "events",
                                              "events": []}}),
    ("dirac-plane-wave", "empty-events", {"cloud": {"kind": "events",
                                                    "events": []}}),
    ("gauge-orbit", "empty-events", {"cloud": {"kind": "events",
                                               "events": []}}),
    # one-event checks with few or no samples: no random momenta, no
    # boosted lines, spacelike circle crossings that have no 4-velocity,
    # and an energy scan over a single point
    ("clifford", "no-random-p", {"fixture": {"n_random_p": 0}}),
    ("worldline-pierce", "no-boosts", {"fixture": {"n_boosts": 0}}),
    ("worldline-pierce", "spacelike-crossings", {"fixture": {"ct0": 0.9}}),
    ("dirac-coulomb-1s", "one-scan-point", {"fixture": {"scan_points": 1}}),
    # signed zeros in every coordinate slot, outside the exclusion radius
    *((scenario, "signed-zero-events", {"cloud": {"kind": "events",
                                                  "events": SIGNED_ZEROS}})
      for scenario in ("plane-wave", "kg-coulomb-1s")),
    # the same events in central mode, where the nested stencil shifts the
    # +-0.0 slots along two different axes
    *((scenario, "signed-zero-events-central",
       {"cloud": {"kind": "events", "events": SIGNED_ZEROS},
        "method": {"mode": "central"}})
      for scenario in ("plane-wave", "kg-coulomb-1s")),
]


def report_hash(scenario: str, mode: str, fmt: str, args=()) -> str:
    """One line for the report of scenario in mode and format; args are
    more command line arguments."""
    out = io.StringIO()
    argv = ["run", scenario, "--no-timestamp", "--format", fmt,
            *MODES.get(mode, []), *args]
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return f"{digest} {code} {scenario} {mode} {fmt}"


def extra_hashes() -> list:
    """The lines of the reports of EXTRA_CONFIGS."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for scenario, name, doc in EXTRA_CONFIGS:
            path = Path(tmp) / f"{scenario}-{name}.json"
            path.write_text(json.dumps(doc))
            lines += [report_hash(scenario, name, fmt, ["--config", str(path)])
                      for fmt in FORMATS]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", action="append",
                        choices=list_scenarios(),
                        help="hash only this scenario (repeatable)")
    parser.add_argument("--check", metavar="FILE",
                        help="compare with a saved list; exit 1 on change")
    parser.add_argument("--extra", action="store_true",
                        help="also hash the reports of EXTRA_CONFIGS")
    args = parser.parse_args(argv)

    lines = [report_hash(s, mode, fmt)
             for s in args.scenario or list_scenarios()
             for mode in MODES for fmt in FORMATS]
    if args.extra:
        lines += [line for line in extra_hashes()
                  if args.scenario is None
                  or line.split()[2] in args.scenario]
    if args.check is None:
        print("\n".join(lines))
        return 0

    saved = {" ".join(line.split()[2:]): line
             for line in Path(args.check).read_text().splitlines() if line}
    changed = new = 0
    for line in lines:
        old = saved.pop(" ".join(line.split()[2:]), None)
        if old is None:
            print(f"new: {line}", file=sys.stderr)
            new += 1
        elif old != line:
            print(f"changed: {line}", file=sys.stderr)
            changed += 1
    if args.scenario is None:
        for line in saved.values():
            print(f"missing: {line}", file=sys.stderr)
            changed += 1
    print(f"{len(lines)} reports, {changed} differ"
          + (f", {new} new" if new else ""))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
