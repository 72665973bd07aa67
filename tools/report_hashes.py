"""Print the sha256 of every default scenario report, or check them.

Each scenario is run through ``fourvel.cli.main`` with ``--no-timestamp``
in its default derivative mode, with ``--analytic`` and with
``--numeric``, and each report is written as JSON and as CSV: 8 scenarios
give 48 lines of ``<sha256> <exit code> <scenario> <mode> <format>``.

    python tools/report_hashes.py > hashes.txt
    python tools/report_hashes.py --check hashes.txt
    python tools/report_hashes.py --scenario clifford

With ``--check FILE`` the lines are compared with a saved list; every line
that differs, and every saved line that is missing, is printed to stderr,
and the exit code is 1. The hashes depend on the numpy build, so a saved
list is only meaningful on the machine that wrote it.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fourvel.cli import main as cli_main  # noqa: E402
from fourvel.runner import list_scenarios  # noqa: E402

MODES = {"default": [], "analytic": ["--analytic"], "numeric": ["--numeric"]}
FORMATS = ("json", "csv")


def report_hash(scenario: str, mode: str, fmt: str) -> str:
    """One line for the report of scenario in mode and format."""
    out = io.StringIO()
    argv = ["run", scenario, "--no-timestamp", "--format", fmt, *MODES[mode]]
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return f"{digest} {code} {scenario} {mode} {fmt}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", action="append",
                        help="hash only this scenario (repeatable)")
    parser.add_argument("--check", metavar="FILE",
                        help="compare with a saved list; exit 1 on change")
    args = parser.parse_args(argv)

    lines = [report_hash(s, mode, fmt)
             for s in args.scenario or list_scenarios()
             for mode in MODES for fmt in FORMATS]
    if args.check is None:
        print("\n".join(lines))
        return 0

    saved = {" ".join(line.split()[2:]): line
             for line in Path(args.check).read_text().splitlines() if line}
    changed = 0
    for line in lines:
        key = " ".join(line.split()[2:])
        if saved.pop(key, None) != line:
            print(f"changed: {line}", file=sys.stderr)
            changed += 1
    if args.scenario is None:
        for line in saved.values():
            print(f"missing: {line}", file=sys.stderr)
            changed += 1
    print(f"{len(lines)} reports, {changed} differ")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
