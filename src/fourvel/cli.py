"""Command line front end.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad
configuration (unknown scenario, malformed config file, invalid
parameter values, unwritable output path, or any other toolkit error
raised before the checks are scored).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .core4 import DerivativeMethod
from .errors import ConfigError, FourvelError, ParameterError
from .runner import (ScenarioConfig, config_from_dict, default_config,
                     export_report, list_scenarios, run_scenario)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourvel",
        description="Residual diagnostics for velocity fields extracted "
                    "from relativistic wavefunctions.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one verification scenario")
    run.add_argument("scenario", help="scenario name (see 'fourvel list')")
    run.add_argument("--config", help="JSON config file overriding defaults")
    run.add_argument("--out", help="write the report here instead of stdout")
    run.add_argument("--format", choices=("json", "csv"), default=None,
                     help="report format (default json)")
    run.add_argument("--h", type=float, default=None,
                     help="finite difference step for central mode")
    mode = run.add_mutually_exclusive_group()
    mode.add_argument("--analytic", action="store_true",
                      help="use closed-form derivatives")
    mode.add_argument("--numeric", action="store_true",
                      help="use central finite differences")
    run.add_argument("--seed", type=int, default=None,
                     help="seed for sample clouds and random draws")
    run.add_argument("--no-timestamp", action="store_true",
                     help="omit timestamp and duration for "
                          "byte-stable output")

    sub.add_parser("list", help="list scenario names")
    sub.add_parser("version", help="print the package version")
    return parser


def _config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        cfg = config_from_dict(doc, args.scenario)
    else:
        cfg = default_config(args.scenario)

    method = cfg.method
    if args.analytic:
        method = DerivativeMethod("analytic", method.h, method.richardson)
    elif args.numeric:
        method = DerivativeMethod("central", method.h, method.richardson)
    if args.h is not None:
        try:
            method = DerivativeMethod(method.mode, args.h, method.richardson)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc

    updates = {"method": method}
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("seed must be nonnegative")
        updates["seed"] = args.seed
    if args.no_timestamp:
        updates["no_timestamp"] = True
    if args.out is not None:
        updates["out"] = args.out
    if args.format is not None:
        updates["fmt"] = args.format
    return replace(cfg, **updates)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "version":
        print(f"fourvel {__version__}")
        return 0
    if args.command == "list":
        for name in list_scenarios():
            print(name)
        return 0

    try:
        cfg = _config_from_args(args)
        report = run_scenario(cfg)
    except FourvelError as exc:
        print(f"fourvel: config error: {exc}", file=sys.stderr)
        return 2

    text = export_report(report, cfg.fmt)
    if cfg.out:
        try:
            Path(cfg.out).write_text(text)
        except OSError as exc:
            print(f"fourvel: cannot write {cfg.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)

    if not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        print(f"fourvel: FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
