"""Command-line entry point for the experiment harness.

Subcommands:
    run              execute an experiment from a YAML config
    validate         check a config and print the normalized form
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

from .constants import DEFAULT_CONSTANTS, PlanConstants
from .core import CASE_TAGS, CATALOG
from .errors import ConfigError, ForsampleError
from .harness import EXPERIMENTS, SUITES, ExperimentConfig, run_experiment
from .oracles import NOISE_FAMILIES
from .sampler import MODES

_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


def _check_number(errors, value, path, *, positive=False, nonneg=False,
                  below_one=False):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        errors.append(f"{path}: expected a number, got {value!r}")
        return None
    if positive and value <= 0:
        errors.append(f"{path}: must be positive, got {value!r}")
        return None
    if nonneg and value < 0:
        errors.append(f"{path}: must be nonnegative, got {value!r}")
        return None
    if below_one and value >= 1:
        errors.append(f"{path}: must be in (0, 1), got {float(value)!r}")
        return None
    return float(value)


def _check_int(errors, raw, path, *, minimum=1):
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < minimum:
        errors.append(f"{path}: expected an integer >= {minimum}, got {raw!r}")
        return None
    return raw


def _validate_potential(errors, raw):
    if not isinstance(raw, dict):
        errors.append("potential: expected a mapping with name/params")
        return None
    name = raw.get("name")
    if name not in CATALOG:
        errors.append(f"potential.name: unknown potential {name!r}; "
                      f"choices are {sorted(CATALOG)}")
        return None
    params = raw.get("params", {})
    if not isinstance(params, dict):
        errors.append("potential.params: expected a mapping")
        return None
    return {"name": name, "params": params}


def _validate_noise(errors, raw):
    if not isinstance(raw, dict):
        errors.append("noise: expected a mapping with a family field")
        return None
    family = raw.get("family")
    if family not in NOISE_FAMILIES:
        errors.append(f"noise.family: unknown family {family!r}; "
                      f"choices are {sorted(NOISE_FAMILIES)}")
        return None
    out = {"family": family}
    if family == "exact":
        return out
    if family in ("subgaussian", "subweibull"):
        sigma = _check_number(errors, raw.get("sigma_g"), "noise.sigma_g",
                              positive=True)
        if sigma is not None:
            out["sigma_g"] = sigma
        if family == "subweibull":
            zeta = _check_number(errors, raw.get("zeta", 2.0), "noise.zeta",
                                 positive=True)
            if zeta is not None:
                out["zeta"] = zeta
    elif family == "polymoment":
        k = _check_int(errors, raw.get("k", 1), "noise.k")
        sig = _check_number(errors, raw.get("sigma_2k"), "noise.sigma_2k",
                            positive=True)
        if k is not None:
            out["k"] = k
        if sig is not None:
            out["sigma_2k"] = sig
    elif family == "twopoint":
        p = _check_number(errors, raw.get("p"), "noise.p", positive=True,
                          below_one=True)
        m = _check_number(errors, raw.get("m_shift"), "noise.m_shift",
                          positive=True)
        if p is not None:
            out["p"] = p
        if m is not None:
            out["m_shift"] = m
    return out


def _validate_case(errors, raw):
    if not isinstance(raw, dict):
        errors.append("case: expected a mapping with a tag field")
        return None
    tag = raw.get("tag")
    if tag not in CASE_TAGS:
        errors.append(f"case.tag: expected one of {CASE_TAGS}, got {tag!r}")
        return None
    out = {"tag": tag}
    if tag in ("LSI", "PI"):
        const = _check_number(errors, raw.get("constant", 1.0), "case.constant",
                              positive=True)
        if const is not None:
            out["constant"] = const
    delta0 = _check_number(errors, raw.get("warm_start_delta", 1.0),
                           "case.warm_start_delta", nonneg=True)
    if delta0 is not None:
        out["warm_start_delta"] = delta0
    if tag == "LC":
        w2 = _check_number(errors, raw.get("w2_bound"), "case.w2_bound",
                           positive=True)
        if w2 is not None:
            out["w2_bound"] = w2
    return out


def _validate_constants(errors, raw):
    if not isinstance(raw, dict):
        errors.append("constants: expected a mapping of named overrides")
        return None
    known = DEFAULT_CONSTANTS.as_dict()
    bad = sorted(set(raw) - set(known))
    if bad:
        errors.append(f"constants: unknown names {bad}; "
                      f"choices are {sorted(known)}")
        return None
    merged = dict(known)
    for key, value in raw.items():
        checked = _check_number(errors, value, f"constants.{key}", positive=True)
        if checked is None:
            return None
        merged[key] = int(checked) if isinstance(known[key], int) else checked
    try:
        return PlanConstants(**merged)
    except ValueError as exc:
        errors.append(f"constants: {exc}")
        return None


def _validate_mode(errors, raw):
    if raw not in MODES:
        errors.append(f"mode: expected one of {MODES}, got {raw!r}")
        return None
    return raw


def _check_list(errors, raw, path, expected, min_len, check):
    if not isinstance(raw, (list, tuple)) or len(raw) < min_len:
        errors.append(f"{path}: expected {expected}")
        return None
    checked = [check(errors, v, f"{path}[{i}]") for i, v in enumerate(raw)]
    return None if None in checked else tuple(checked)


def _validate_output_dir(errors, raw):
    if raw is not None and not isinstance(raw, str):
        errors.append(f"output_dir: expected a string path, got {raw!r}")
        return None
    return raw


_VALIDATORS = {
    "potential": _validate_potential,
    "noise": _validate_noise,
    "case": _validate_case,
    "mode": _validate_mode,
    "delta": lambda errors, raw: _check_number(errors, raw, "delta", positive=True,
                                               below_one=True),
    "delta_grid": lambda errors, raw: _check_list(
        errors, raw, "delta_grid", "a list of at least 4 accuracies", 4,
        lambda e, v, path: _check_number(e, v, path, positive=True)),
    "seeds": lambda errors, raw: _check_list(
        errors, raw, "seeds", "a nonempty list of integers", 1,
        lambda e, v, path: _check_int(e, v, path, minimum=0)),
    "chains": lambda errors, raw: _check_int(errors, raw, "chains"),
    "samples": lambda errors, raw: _check_int(errors, raw, "samples"),
    "trials": lambda errors, raw: _check_int(errors, raw, "trials"),
    "output_dir": _validate_output_dir,
    "constants": _validate_constants,
}


def validate_config(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping; raise ConfigError listing every problem found.

    Only the keys present are checked and passed on; the config fills the
    rest from the suite's defaults.  A key the suite does not read is an
    error.
    """
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["config: expected a mapping at the top level"])
    if "output_dir" not in raw and "FORSAMPLE_OUT" in os.environ:
        raw = {**raw, "output_dir": os.environ["FORSAMPLE_OUT"]}

    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        errors.append(f"experiment: expected one of {sorted(EXPERIMENTS)}, "
                      f"got {experiment!r}")
    values = {key: _VALIDATORS[key](errors, value)
              for key, value in raw.items() if key in _VALIDATORS}

    extras = sorted(set(raw) - set(_FIELDS))
    if extras:
        errors.append(f"config: unrecognized keys {extras}")
    if experiment in EXPERIMENTS:
        used = ("experiment", "output_dir") + SUITES[experiment].reads
        errors.extend(f"{key}: {experiment} does not read this field"
                      for key in _FIELDS if key in raw and key not in used)
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(experiment=experiment, **values)


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
            print(json.dumps({"experiment": cfg.experiment, "valid": True,
                              "seeds": list(cfg.seeds)}, sort_keys=True))
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
