"""Command-line entry point for the experiment harness.

Subcommands:
    run              execute an experiment from a YAML config
    validate         check a config and print what would run
    list-potentials  show the built-in potential catalog
    list-noise       show the supported noise families

Exit codes: 0 when every statistical verdict passes, 2 when the run
completes but a verdict fails, 1 on configuration or runtime errors.
The default output directory can be set via the FORSAMPLE_OUT
environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import yaml

from .core import CATALOG
from .errors import ConfigError, ForsampleError
from .harness import ExperimentConfig, run_experiment
from .oracles import NOISE_FAMILIES

_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


def validate_config(raw: dict) -> ExperimentConfig:
    """Build the config a raw mapping describes; raise ConfigError listing every problem.

    ExperimentConfig checks every field.  Here are only what a file adds:
    the top-level mapping, FORSAMPLE_OUT as the default output directory,
    and keys that name no config field.
    """
    if not isinstance(raw, dict):
        raise ConfigError(["config: expected a mapping at the top level"])
    if "output_dir" not in raw and "FORSAMPLE_OUT" in os.environ:
        raw = {**raw, "output_dir": os.environ["FORSAMPLE_OUT"]}
    extras = sorted(set(raw) - set(_FIELDS))
    errors = [f"config: unrecognized keys {extras}"] if extras else []
    try:
        cfg = ExperimentConfig(**{"experiment": None,
                                  **{k: v for k, v in raw.items() if k in _FIELDS}})
    except ConfigError as exc:
        raise ConfigError(exc.errors + errors) from None
    if errors:
        raise ConfigError(errors)
    return cfg


def _load_yaml(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError([f"config: file not found: {path}"])
    except yaml.YAMLError as exc:
        raise ConfigError([f"config: invalid YAML: {exc}"])
    if raw is None:
        raise ConfigError(["config: file is empty"])
    return raw


def _apply_overrides(raw: dict, args) -> dict:
    flags = {"seeds": args.seed_override, "chains": args.chains,
             "output_dir": args.out}
    return {**raw, **{k: v for k, v in flags.items() if v is not None}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forsample",
        description="High-accuracy sampling experiments with stochastic oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in (("run", "execute an experiment from a YAML config"),
                           ("validate", "validate a config without running it")):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="path to a YAML config")
        cmd.add_argument("--seed-override", type=int, nargs="+", default=None,
                         metavar="SEED", help="replace the config's seed list")
        cmd.add_argument("--chains", type=int, default=None,
                         help="replace the config's chain count")
        cmd.add_argument("--out", default=None,
                         help="output directory for the report and CSV")

    sub.add_parser("list-potentials", help="show the built-in potential catalog")
    sub.add_parser("list-noise", help="show the supported noise families")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-potentials":
            for name in sorted(CATALOG):
                print(name)
            return 0
        if args.command == "list-noise":
            for name in sorted(NOISE_FAMILIES):
                print(name)
            return 0

        raw = _apply_overrides(_load_yaml(args.config), args)
        cfg = validate_config(raw)
        if args.command == "validate":
            print(json.dumps({"valid": True, **cfg.echo()}, sort_keys=True))
            return 0

        report = run_experiment(cfg)
        for name in sorted(report.verdicts):
            status = "PASS" if report.verdicts[name] else "FAIL"
            print(f"{status} {report.experiment}.{name}")
        print(f"wall clock: {report.wall_clock_seconds:.1f}s")
        if cfg.output_dir:
            print(f"report written to {cfg.output_dir}")
        return 0 if report.all_pass else 2
    except ConfigError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return 1
    except ForsampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
