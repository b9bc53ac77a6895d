"""Command line interface.

Verbs:
  run         execute a scenario ensemble and write CSV outputs
  compare     compare two output bundles observable by observable
  validate    check the engine against the exact solver on a tiny model
  print-rates emit a scenario's arrival-rate table as CSV

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 I/O error or malformed bundle, 4 unexpected internal error (traceback on
stderr).
"""

from __future__ import annotations

import argparse
import csv
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from . import scenario
from .scenario import BundleError, ConfigError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lobsim",
        description="Stochastic limit order book simulator and validation oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario ensemble and write CSVs")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=sorted(scenario.PRESETS))
    source.add_argument("--config", type=Path, help="path to a JSON scenario file")
    run.add_argument("--runs", type=int, help="override the number of runs")
    run.add_argument("--events", type=int, help="override events per run")
    run.add_argument("--seed", type=int, help="override the base seed")
    run.add_argument("--out", type=Path, required=True, help="output directory")
    run.add_argument("--record", choices=["summary", "events", "heatmap"])

    compare = sub.add_parser("compare", help="compare two output bundles")
    compare.add_argument("dir_a", type=Path)
    compare.add_argument("dir_b", type=Path)

    validate = sub.add_parser("validate", help="engine-vs-oracle validation")
    validate.add_argument(
        "--model", choices=sorted(scenario.ORACLE_MODELS), default="tiny"
    )
    validate.add_argument("--runs", type=int, default=100_000)
    validate.add_argument("--seed", type=int, default=2024)

    rates = sub.add_parser("print-rates", help="emit arrival rates as CSV")
    source = rates.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=sorted(scenario.PRESETS))
    source.add_argument("--config", type=Path)

    return parser


def _load_scenario(args: argparse.Namespace) -> scenario.ScenarioConfig:
    if args.preset is not None:
        return scenario.preset(args.preset)
    return scenario.load_config(args.config)


def _cmd_run(args: argparse.Namespace) -> int:
    overrides = {"runs": args.runs, "events_per_run": args.events, "base_seed": args.seed}
    overrides["record"] = args.record
    config = replace(_load_scenario(args), **{k: v for k, v in overrides.items() if v is not None})
    bundle = scenario.run_scenario(config)
    written = scenario.write_bundle(bundle, args.out)
    for path in written:
        print(path)
    if bundle.aborted_runs:
        print(f"aborted runs: {bundle.aborted_runs}", file=sys.stderr)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    report = scenario.compare_bundles(args.dir_a, args.dir_b)
    for line in report.lines():
        print(line)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    report = scenario.validate_against_oracle(
        model_name=args.model, runs=args.runs, base_seed=args.seed
    )
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_print_rates(args: argparse.Namespace) -> int:
    config = _load_scenario(args)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(scenario.RATES_COLUMNS)
    writer.writerows(scenario.arrival_rate_rows(config))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching our config-error code
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        commands = {"run": _cmd_run, "compare": _cmd_compare, "validate": _cmd_validate}
        commands["print-rates"] = _cmd_print_rates
        return commands[args.command](args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BundleError as exc:
        print(f"bundle error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
