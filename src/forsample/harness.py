"""Experiment suites behind the command-line harness.

Each experiment maps a validated configuration to a report: per-seed
results, merged query ledger, pass/fail verdicts, and plot-ready CSV rows.
Runs are reproducible bit for bit from (config, seeds): every stochastic
quantity flows from hierarchical streams keyed by the seed list, and
reports embed the exact planner constants used.
"""

from __future__ import annotations

import csv
import functools
import inspect
import json
import math
import numbers
import sys
import time
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, get_args

import numpy as np

from .constants import DEFAULT_CONSTANTS, PlanConstants
from .core import CATALOG, AssumptionCase, GaussianReference, potential_from_config
from .errors import ConfigError
from .fors import (FORSConfig, fors_attempt_batch, fors_sample, fors_sample_many,
                   wdraw_tail_check)
from .lowerbound import (AdversarialOraclePair, PsiFunction, coupled_run,
                         f_psi, proximal_adapter, sgld_adapter)
from .oracles import (GradientOracle, NoiseModel, QueryLedger, ValueOracle,
                      eps_tail, make_rng, phi)
from .prox import ProxConfig, approx_prox_rows, prox_residual, prox_residual_bound
from .rgo import sample_tilt_many
from .sampler import (MODES, gaussian_initializer, plan_first_order,
                      plan_zeroth_order, run_proximal_sampler)
from .verify import (MIN_SAMPLES, chi2_discrete, discrete_law_oracle, empirical_tv_1d,
                     empirical_tv_two_sample, gaussian_tv_exact, ks_test,
                     scaling_slope, seeds_pass_rule)

SCHEMA_VERSION = 2

# what a field the suite reads takes when it is not given; a suite's declared
# defaults win over these
_COMMON_DEFAULTS = {
    "potential": {"name": "gaussian", "params": {"mean": [0.0], "precision": 1.0}},
    "noise": {"family": "subgaussian", "sigma_g": 0.5},
    "case": {"tag": "LSI", "constant": 1.0, "warm_start_delta": 1.0},
    "mode": "first_order",
    "delta": 0.05,
    "delta_grid": (0.2, 0.1, 0.05, 0.025),
    "seeds": tuple(range(20)),
    "chains": 10_000,
    "samples": 100_000,
    "trials": 1000,
    "constants": DEFAULT_CONSTANTS,
}
# what a given case section may leave out; AssumptionCase itself requires the
# constant and starts from warm_start_delta 0
_CASE_DEFAULTS = {"constant": 1.0, "warm_start_delta": 1.0}

_KINDS = {float: (numbers.Real, "a number"), int: (numbers.Integral, "an integer"),
          str: (str, "a string")}
_INT_MAX = int(np.iinfo(np.intp).max)  # the largest int leaf: numpy sizes arrays by intp


def _leaf(errors, path, value, kind=float, low=None):
    """``value`` as a float, int or str, or None after noting why not.

    None and bools are never numbers; ``low`` bounds the value from below,
    and ``_INT_MAX`` an int from above.
    """
    types, want = _KINDS[kind]
    if (isinstance(value, bool) or not isinstance(value, types)
            or (low is not None and value < low)):
        errors.append(f"{path}: expected {want}{'' if low is None else f' >= {low}'}, "
                      f"got {value!r}")
        return None
    if kind is float and not abs(value) <= sys.float_info.max:  # NaN, +-inf, a huge int
        got = "an integer past the floats" if isinstance(value, numbers.Integral) else value
        errors.append(f"{path}: expected a finite number, got {got}")
        return None
    if kind is int and value > _INT_MAX:
        errors.append(f"{path}: expected an integer <= {_INT_MAX}, got a larger one")
        return None
    return kind(value)


def _seed(errors, path, value):
    """An integer >= 0 of any size, as SeedSequence takes: an int leaf but uncapped."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0:
        return int(value)
    errors.append(f"{path}: expected an integer >= 0, got {value!r}")
    return None


def _fraction(errors, path, value):
    value = _leaf(errors, path, value)
    if value is not None and not 0 < value < 1:
        errors.append(f"{path}: must be in (0, 1), got {value!r}")
        return None
    return value


def _sequence(errors, path, value, min_len, expected, check):
    if not isinstance(value, (list, tuple)) or len(value) < min_len:
        errors.append(f"{path}: expected {expected}, got {value!r}")
        return None
    checked = tuple(check(errors, f"{path}[{i}]", v) for i, v in enumerate(value))
    return None if None in checked else checked


def _delta_grid(errors, path, value):
    grid = _sequence(errors, path, value, 4, "a list of at least 4 accuracies", _fraction)
    if grid is not None and len(set(grid)) < 2:
        # the scaling slope is fitted against 1/delta
        errors.append(f"{path}: expected at least 2 distinct accuracies, got {list(grid)}")
        return None
    return grid


@functools.cache
def _parameters(build) -> dict:
    """The keyword parameters of a constructor, annotations evaluated."""
    return dict(inspect.signature(build, eval_str=True).parameters)


def _kwargs(errors, path, build, spec, defaults=None):
    """The mapping ``spec`` over ``defaults`` as keyword arguments of ``build``.

    Its keys are build's parameters; a leaf annotated as a float, an int or
    a str must be one.  None after noting every problem.
    """
    if not isinstance(spec, dict):
        errors.append(f"{path}: expected a mapping, got {spec!r}")
        return None
    params = _parameters(build)
    start = len(errors)
    kwargs = dict(defaults or {})
    for key, value in spec.items():
        if key not in params:
            errors.append(f"{path}: unexpected key {key!r}")
            continue
        kinds = (params[key].annotation, *get_args(params[key].annotation))
        kind = next((k for k in _KINDS if k in kinds), None)
        kwargs[key] = value if kind is None else _leaf(errors, f"{path}.{key}", value, kind)
    errors.extend(f"{path}: missing key {key!r}" for key, p in params.items()
                  if p.default is p.empty and key not in kwargs)
    return kwargs if len(errors) == start else None


def _section(errors, path, build, spec, defaults=None):
    """(kwargs, build(**kwargs)), or (None, None) after noting every problem.

    The constructor's own ValueError or TypeError, of the form
    ``<field>: <problem>``, gets the section's path as prefix.
    """
    kwargs = _kwargs(errors, path, build, spec, defaults)
    if kwargs is None:
        return None, None
    try:
        return kwargs, build(**kwargs)
    except (ValueError, TypeError) as exc:
        field = str(exc).partition(": ")[0]
        errors.append(f"{path}.{exc}" if field in _parameters(build) else f"{path}: {exc}")
        return None, None


def _potential(errors, path, spec):
    """potential_from_config's keys; params are those of the entry named."""
    spec = _kwargs(errors, path, potential_from_config, spec, {"params": {}})
    if spec is None:
        return None
    if spec["name"] not in CATALOG:
        _section(errors, path, potential_from_config, spec)  # names the problem
        return None
    params, _ = _section(errors, f"{path}.params", CATALOG[spec["name"]], spec["params"])
    return None if params is None else {**spec, "params": params}


def _mode(errors, path, value):
    if value not in MODES:
        errors.append(f"{path}: expected one of {MODES}, got {value!r}")
        return None
    return value


def _constants(errors, path, spec):
    if isinstance(spec, PlanConstants):
        return spec
    return _section(errors, path, PlanConstants, spec, DEFAULT_CONSTANTS.as_dict())[1]


_count = functools.partial(_leaf, kind=int, low=1)

# the check of each field a suite may read, in field order
_CHECKS = {
    "potential": _potential,
    "noise": lambda errors, path, spec: _section(errors, path, NoiseModel, spec)[0],
    "case": lambda errors, path, spec: _section(errors, path, AssumptionCase, spec,
                                                _CASE_DEFAULTS)[0],
    "mode": _mode,
    "delta": _fraction,
    "delta_grid": _delta_grid,
    "seeds": lambda errors, path, value: _sequence(
        errors, path, value, 1, "a nonempty list of integers", _seed),
    "chains": _count,
    "samples": _count,
    "trials": _count,
    "constants": _constants,
}
# the count each suite hands its 1-D checks (verify.MIN_SAMPLES) as their sample size
_CHECKED_COUNTS = {"tilt_exactness": "samples", "sampler_e2e": "chains", "lower_bound": "trials"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Harness configuration, checked in full when it is built.

    Every field but ``experiment`` and ``output_dir`` is one a suite may
    read, and None means not given.  A field the suite reads takes, when
    not given, the suite's declared default or else the common one; a field
    it does not read stays None, and giving it is an error.  A suite whose
    default is one seed rejects more seeds.

    ``potential``, ``noise`` and ``case`` are mappings of the keyword
    arguments of ``potential_from_config`` (with the catalog entry's
    ``params``), ``NoiseModel`` and ``AssumptionCase``; ``constants`` is a
    PlanConstants or a mapping of overrides of the pinned ones.  Each is
    built once here.  Every problem found, each with its field path, is
    raised in one ConfigError.
    """

    experiment: str
    potential: dict | None = None
    noise: dict | None = None
    case: dict | None = None
    mode: str | None = None
    delta: float | None = None
    delta_grid: tuple | None = None
    seeds: tuple | None = None
    chains: int | None = None
    samples: int | None = None
    trials: int | None = None
    output_dir: str | None = None
    constants: PlanConstants | dict | None = None

    def __post_init__(self):
        suite = SUITES.get(self.experiment) if isinstance(self.experiment, str) else None
        errors = [] if suite else [f"experiment: expected one of {sorted(SUITES)}, "
                                   f"got {self.experiment!r}"]
        reads = suite.reads if suite else tuple(_CHECKS)
        defaults = {**_COMMON_DEFAULTS, **(suite.defaults if suite else {})}
        for name, check in _CHECKS.items():
            given = getattr(self, name)
            if name in reads or given is not None:
                value = check(errors, name, defaults[name] if given is None else given)
                object.__setattr__(self, name, value)
            if name not in reads and given is not None:
                errors.append(f"{name}: {self.experiment} does not read this field")
        counted = suite and _CHECKED_COUNTS.get(self.experiment)
        if counted and (getattr(self, counted) or MIN_SAMPLES) < MIN_SAMPLES:
            errors.append(f"{counted}: {self.experiment} needs at least {MIN_SAMPLES}, "
                          f"got {getattr(self, counted)}")
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            errors.append(f"output_dir: expected a string path, got {self.output_dir!r}")
        if suite and len(suite.defaults.get("seeds", ())) == 1 and len(self.seeds or ()) > 1:
            errors.append(f"seeds: {self.experiment} runs one seed, got {list(self.seeds)}")
        if errors:
            raise ConfigError(errors)

    def echo(self) -> dict:
        """The fields the suite reads, as they ran; constants have their own key."""
        return {name: getattr(self, name)
                for name in ("experiment",) + SUITES[self.experiment].reads
                if name != "constants"}


@dataclass
class ExperimentReport:
    experiment: str
    config: dict
    constants: dict
    per_seed: list
    merged_ledger: dict
    verdicts: dict
    rows: list
    wall_clock_seconds: float
    schema_version: int = SCHEMA_VERSION

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())

    def to_json(self) -> str:
        """Every field but the rows, which go to the CSV, plus ``all_pass``."""
        payload = {k: v for k, v in vars(self).items() if k != "rows"}
        payload["all_pass"] = self.all_pass
        return json.dumps(payload, indent=2, sort_keys=True, default=_json_default)


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def write_report(report: ExperimentReport, out_dir) -> tuple[Path, Path | None]:
    """Write <experiment>_report.json and, when rows exist, <experiment>_rows.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"{report.experiment}_report.json"
    json_path.write_text(report.to_json() + "\n")
    csv_path = None
    if report.rows:
        csv_path = out / f"{report.experiment}_rows.csv"
        with csv_path.open("w", newline="") as fh:
            # rows of several kinds: every key, in first-seen order
            keys = dict.fromkeys(key for row in report.rows for key in row)
            writer = csv.DictWriter(fh, fieldnames=list(keys))
            writer.writeheader()
            writer.writerows(report.rows)
    return json_path, csv_path


@dataclass
class PartialSink:
    """Per-seed entries and rows completed so far, held outside the runner.

    run_experiment hands each runner one of these as its accumulator, so work
    finished before a mid-sweep failure stays reachable for write_partial.
    """

    per_seed: list = field(default_factory=list)
    rows: list = field(default_factory=list)


def write_partial(cfg: ExperimentConfig, sink: PartialSink,
                  err: BaseException, out_dir) -> Path:
    """Flush results completed before a failure to <experiment>_partial.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "partial": True,
        "error": f"{type(err).__name__}: {err}",
        "config": cfg.echo(),
        "constants": (cfg.constants or DEFAULT_CONSTANTS).as_dict(),
        "per_seed": sink.per_seed,
        "rows": sink.rows,
    }
    path = out / f"{cfg.experiment}_partial.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_json_default) + "\n")
    return path


class Suite(NamedTuple):
    """A registered experiment: its runner, the fields it reads, its defaults."""

    run: Callable[..., ExperimentReport]
    reads: tuple[str, ...]
    defaults: dict


SUITES: dict[str, Suite] = {}


def _suite(*reads: str, **defaults):
    """Register ``run_<name>(cfg, sink, merged) -> (per_seed, verdicts)``.

    The public ``run_<name>(cfg, sink=None)`` it returns times the body,
    hands it the sink (a fresh one by default) and a ledger to merge its
    queries into, and assembles the report from them.
    """
    def register(body):
        name = body.__name__.removeprefix("run_")

        def run(cfg: ExperimentConfig, sink: PartialSink | None = None) -> ExperimentReport:
            start = time.perf_counter()
            sink = sink if sink is not None else PartialSink()
            merged = QueryLedger()
            per_seed, verdicts = body(cfg, sink, merged)
            return ExperimentReport(
                experiment=name, config=cfg.echo(),
                constants=(cfg.constants or DEFAULT_CONSTANTS).as_dict(),
                per_seed=per_seed,
                merged_ledger=merged.as_dict(), verdicts=verdicts,
                rows=sink.rows, wall_clock_seconds=time.perf_counter() - start)

        run.__name__ = run.__qualname__ = body.__name__
        SUITES[name] = Suite(run, reads, defaults)
        return run
    return register


# ---------------------------------------------------------------------------
# discrete rejection-sampling instances (shared by harness and tests)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteWInstance:
    """Finite proposal with a finite per-point W law: brute-force checkable."""

    name: str
    q: np.ndarray
    w_values: np.ndarray     # (points, outcomes)
    w_probs: np.ndarray      # (points, outcomes), rows sum to 1
    b: float

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "w_values", np.asarray(self.w_values, dtype=float))
        object.__setattr__(self, "w_probs", np.asarray(self.w_probs, dtype=float))
        if self.w_values.shape != self.w_probs.shape:
            raise ValueError("w_values shape differs from w_probs shape")
        if not np.allclose(self.w_probs.sum(axis=1), 1.0):
            raise ValueError("w_probs rows must sum to 1")
        if not np.all(np.abs(self.w_values) <= self.b):
            raise ValueError(f"w_values must lie in [-b, b] = [-{self.b}, {self.b}]")
        object.__setattr__(self, "_q_cdf", np.cumsum(self.q))
        object.__setattr__(self, "_w_cdf", np.cumsum(self.w_probs, axis=1))

    @property
    def n_points(self) -> int:
        return self.q.size

    def w_means(self) -> np.ndarray:
        return (self.w_values * self.w_probs).sum(axis=1)

    def law(self) -> np.ndarray:
        return discrete_law_oracle(self.q, self.w_means())

    def acceptance(self) -> float:
        """Exact per-attempt acceptance: sum_x q(x) exp(E[W|x] - B)."""
        return float(np.sum(self.q * np.exp(self.w_means() - self.b)))

    def propose_rows(self, slots: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        idx = self._q_cdf.searchsorted(rng.random(slots.size))
        return idx.astype(float)[:, None]

    def proposal_rows(self, k: int, rng: np.random.Generator) -> np.ndarray:
        # kept only for perfbench/workloads.py's scalar loop; propose_rows draws alike
        return self.propose_rows(np.zeros(k, dtype=np.int64), rng)

    def scalar_source(self, ledger: QueryLedger | None = None
                      ) -> Callable[[np.ndarray, np.random.Generator], float]:
        # fors_sample meters the draws: ledger is unread, kept for perfbench's call
        cdfs, values = self._w_cdf.tolist(), self.w_values.tolist()
        last = self.w_probs.shape[1] - 1

        def draw_w(x, rng):
            i = int(x[0])
            return values[i][min(bisect_left(cdfs[i], rng.random()), last)]
        return draw_w

    def draw_w_rows(self, slots, xs, rng) -> np.ndarray:
        idx = xs[:, 0].astype(int)
        u = rng.random(idx.size)
        choice = np.minimum((u[:, None] > self._w_cdf[idx]).sum(axis=1),
                            self.w_probs.shape[1] - 1)
        return self.w_values[idx, choice]


def discrete_instances() -> list[DiscreteWInstance]:
    """The cataloged finite instances used by the exactness criteria."""
    half = np.array([0.5, 0.5])
    return [
        DiscreteWInstance(
            name="flat", q=half,
            w_values=np.zeros((2, 1)), w_probs=np.ones((2, 1)), b=1.0),
        DiscreteWInstance(
            name="det_tilt", q=np.full(3, 1.0 / 3.0),
            w_values=np.array([[-0.5], [0.0], [0.5]]),
            w_probs=np.ones((3, 1)), b=1.0),
        DiscreteWInstance(
            name="mixed", q=half,
            w_values=np.array([[-1.0, 1.0], [0.8, 0.8]]),
            w_probs=np.array([[0.5, 0.5], [0.5, 0.5]]), b=1.0),
        DiscreteWInstance(
            name="spread", q=np.array([0.4, 0.3, 0.2, 0.1]),
            w_values=np.stack([np.array([m - 0.3, m + 0.3])
                               for m in (0.0, 0.4, -0.4, 0.6)]),
            w_probs=np.full((4, 2), 0.5), b=1.0),
    ]


# ---------------------------------------------------------------------------
# experiment: fors_unit
# ---------------------------------------------------------------------------

def _fors_unit_seed(seed: int, samples: int) -> dict:
    result = {"seed": seed, "instances": []}
    merged = QueryLedger()
    for inst in discrete_instances():
        ledger = QueryLedger()
        rng = make_rng(seed, 100 + len(result["instances"]))
        cfg = FORSConfig(b=inst.b)
        pts = fors_sample_many(inst.propose_rows, inst.draw_w_rows, cfg, samples, rng,
                               ledger=ledger)
        counts = np.bincount(pts[:, 0].astype(int), minlength=inst.n_points)
        _, p_value = chi2_discrete(counts, inst.law())
        # acceptance-rate law over a fixed attempt count (clean binomial)
        mask = fors_attempt_batch(inst.propose_rows, inst.draw_w_rows, cfg, samples, rng,
                                  ledger=ledger)
        acc_freq = float(mask.mean())
        acc_exact = inst.acceptance()
        acc_se = math.sqrt(acc_exact * (1 - acc_exact) / mask.size)
        result["instances"].append({
            "name": inst.name,
            "chi2_p": p_value,
            "acceptance_freq": acc_freq,
            "acceptance_exact": acc_exact,
            "acceptance_within_3se": bool(abs(acc_freq - acc_exact) <= 3 * acc_se),
            "attempts": ledger.fors_attempts,
            "w_draws": ledger.w_draws,
        })
        merged.merge(ledger)
    result["ledger"] = merged.as_dict()
    return result


@_suite("seeds", "samples")
def run_fors_unit(cfg: ExperimentConfig, sink: PartialSink, merged: QueryLedger):
    per_seed = sink.per_seed
    with ThreadPoolExecutor(max_workers=4) as pool:
        for res in pool.map(lambda s: _fors_unit_seed(s, cfg.samples),
                            cfg.seeds):
            per_seed.append(res)
    per_seed.sort(key=lambda r: r["seed"])

    # W-draw tail bound over repeated scalar calls of the flat instance
    flat = discrete_instances()[0]
    delta = 0.01
    n_calls = 10_000
    rng = make_rng(cfg.seeds[0], 999)
    draw_counts = []
    source = flat.scalar_source()
    fors_cfg = FORSConfig(b=flat.b)
    one = np.zeros(1, dtype=np.int64)
    for _ in range(n_calls):
        res = fors_sample(lambda r: flat.propose_rows(one, r)[0], source,
                          fors_cfg, rng, ledger=merged)
        draw_counts.append(res.w_draws)
    tail = wdraw_tail_check(flat.b, delta, draw_counts)

    verdicts = {}
    names = [i.name for i in discrete_instances()]
    for idx, name in enumerate(names):
        ps = [r["instances"][idx]["chi2_p"] for r in per_seed]
        need = min(18, len(cfg.seeds))
        verdicts[f"chi2_{name}"] = seeds_pass_rule(ps, alpha=0.001, min_pass=need)
        verdicts[f"acceptance_{name}"] = all(
            r["instances"][idx]["acceptance_within_3se"] for r in per_seed)
    verdicts["wdraw_quantile"] = tail.passed

    sink.rows.extend(
        {"seed": r["seed"], "instance": i["name"], "chi2_p": i["chi2_p"],
         "acceptance_freq": i["acceptance_freq"],
         "acceptance_exact": i["acceptance_exact"]}
        for r in per_seed for i in r["instances"])
    for r in per_seed:
        merged.merge(QueryLedger(**r["ledger"]))
    return per_seed + [{"wdraw_check": {
        "quantile": tail.quantile, "bound": tail.bound,
        "calls": tail.calls, "aggregate_constant": tail.aggregate_constant}}], verdicts


# ---------------------------------------------------------------------------
# experiment: tilt_exactness
# ---------------------------------------------------------------------------

TILT_X0 = 1.0
TILT_ETA = 0.5
TILT_B = 3.0
TILT_SIGMA = 0.5
TILT_M = 1.0


def tilt_reference():
    """Analytic tilt law for f = x^2/2, x0 = 1, eta = 1/2: N(2/3, 1/3).

    The law of the first-order arms, whose clip of W at B is negligible; the
    zeroth-order arms follow ``clipped_tilt_cdf``, which tends to it as B grows.
    """
    return GaussianReference(np.array([2.0 / 3.0]), np.array([1.0 / 3.0]))


@functools.lru_cache(maxsize=None)
def clipped_tilt_cdf(b: float, noise_sd: float, n_grid: int = 4001,
                     n_nodes: int | None = None) -> Callable:
    """CDF of the zeroth-order tilt law, the clip of W at B included.

    That W is clip(f(z) - f(x) + xi, -B, B) with z ~ q = N(x0, eta) and xi ~
    N(0, noise_sd^2) the noise of v' - v, so accepted points have density
    proportional to q(x) exp(m(x)), m(x) = E_z E_xi W.  Built on first use,
    once per process (about 10 ms exact, 25 ms noisy); accurate to 1e-6.
    """
    from scipy.special import ndtr
    sd = math.sqrt(TILT_ETA)
    # E_z by the trapezoid rule in z's standard units: geometric convergence
    # on the smooth noisy integrand; the exact clip's kinks need a finer step
    # (Gauss-Hermite, for comparison, is 2e-5 off at 200 nodes there)
    u = np.linspace(-9.0, 9.0, n_nodes or (71 if noise_sd else 401))
    weights = np.exp(-u * u / 2)
    x = np.linspace(TILT_X0 - 6 * sd, TILT_X0 + 6 * sd, n_grid)
    m = np.zeros(n_grid)
    for z, weight in zip(TILT_X0 + sd * u, weights / weights.sum()):
        a = z * z / 2 - x * x / 2  # f(z) - f(x)
        if noise_sd == 0:
            m += weight * np.clip(a, -b, b)
            continue
        # E_xi clip(a + xi, -B, B) in closed form
        lo, hi = (-b - a) / noise_sd, (b - a) / noise_sd
        p_lo, p_hi = ndtr(lo), ndtr(hi)
        m += weight * (b * (1 - p_hi - p_lo) + a * (p_hi - p_lo) + noise_sd * (
            np.exp(-lo * lo / 2) - np.exp(-hi * hi / 2)) / math.sqrt(2 * math.pi))
    log_d = m - (x - TILT_X0) ** 2 / (2 * TILT_ETA)
    d = np.exp(log_d - log_d.max())
    cdf = np.concatenate(([0.0], np.cumsum(d[1:] + d[:-1])))  # uniform grid
    return lambda t: np.interp(t, x, cdf / cdf[-1])


def _tilt_arm(seed: int, mode: str, noise: NoiseModel, samples: int,
              n_batch: int) -> dict:
    pot = potential_from_config("gaussian", {"mean": [0.0], "precision": 1.0})
    rng = make_rng(seed, 7, 0 if mode == "first" else 1,
                   0 if noise.family == "exact" else 1)
    cfg = FORSConfig(b=TILT_B)
    if mode == "first":
        oracle = GradientOracle(pot, noise, rng)
        # proposal centered at the proximal point of x0, found with the same
        # noisy oracle the estimator uses
        prox_cfg = ProxConfig(eta=TILT_ETA, n_batch=n_batch, k_iters=25)
        xhat = approx_prox_rows(pot, oracle, [[TILT_X0]], prox_cfg)[0]
    else:
        oracle = ValueOracle(pot, noise, rng)
        xhat = [TILT_X0]
    pts = sample_tilt_many(oracle, [TILT_X0], xhat, TILT_ETA, cfg, samples, rng,
                           n_batch=n_batch)
    if mode == "first":
        law = tilt_reference().cdf
    else:
        law = clipped_tilt_cdf(TILT_B, math.sqrt(2 * noise.second_moment() / n_batch))
    stat, p_value = ks_test(pts[:, 0], law)
    return {"seed": seed, "mode": mode, "noise": noise.family,
            "ks_stat": stat, "ks_p": p_value, "ledger": oracle.ledger.as_dict()}


@_suite("seeds", "samples")
def run_tilt_exactness(cfg: ExperimentConfig, sink: PartialSink,
                       merged: QueryLedger):
    noisy = NoiseModel.subgaussian(TILT_SIGMA)
    # batch size from the tail-bound inversion at the pinned truncation level
    n_noisy = phi(noisy, TILT_M, 0.01)
    arms = [("first", NoiseModel.exact(), 1), ("first", noisy, n_noisy),
            ("zeroth", NoiseModel.exact(), 1), ("zeroth", noisy, n_noisy)]

    jobs = [(seed, mode, noise, n) for seed in cfg.seeds
            for (mode, noise, n) in arms]
    per_seed = sink.per_seed
    with ThreadPoolExecutor(max_workers=4) as pool:
        for res in pool.map(
                lambda j: _tilt_arm(j[0], j[1], j[2], cfg.samples, j[3]), jobs):
            per_seed.append(res)
    per_seed.sort(key=lambda r: (r["seed"], r["mode"], r["noise"]))

    verdicts = {}
    need = min(18, len(cfg.seeds))
    for mode, noise, _ in arms:
        ps = [r["ks_p"] for r in per_seed
              if r["mode"] == mode and r["noise"] == noise.family]
        verdicts[f"ks_{mode}_{noise.family}"] = seeds_pass_rule(
            ps, alpha=0.01, min_pass=need)

    for r in per_seed:
        merged.merge(QueryLedger(**r["ledger"]))
    sink.rows.extend({"seed": r["seed"], "mode": r["mode"], "noise": r["noise"],
                      "ks_stat": r["ks_stat"], "ks_p": r["ks_p"]} for r in per_seed)
    return per_seed, verdicts


# ---------------------------------------------------------------------------
# experiment: prox_check
# ---------------------------------------------------------------------------

@_suite("seeds", "trials")
def run_prox_check(cfg: ExperimentConfig, sink: PartialSink, merged: QueryLedger):
    theta = 1.0
    pot = potential_from_config("gaussian", {"mean": [theta], "precision": 1.0})
    eta = 0.5
    x0 = np.array([0.0])
    fixed_point = (x0[0] + eta * theta) / (1.0 + eta)

    # deterministic convergence with the exact oracle
    exact = GradientOracle(pot, NoiseModel.exact(), make_rng(0, 0))
    pcfg = ProxConfig(eta=eta, n_batch=1, k_iters=20)
    xhat = approx_prox_rows(pot, exact, x0[None, :], pcfg)[0]
    exact_err = abs(float(xhat[0]) - fixed_point)
    merged.merge(exact.ledger)

    # stochastic residual guarantee over independent trials
    noise = NoiseModel.subgaussian(0.2)
    m_trunc = 1.0
    bound = prox_residual_bound(eta, pot.m_s, m_trunc)
    ncfg = ProxConfig(eta=eta, n_batch=1, k_iters=25)
    per_seed = sink.per_seed
    for seed in cfg.seeds:
        oracle = GradientOracle(pot, noise, make_rng(seed, 2))
        starts = np.zeros((cfg.trials, 1))
        ends = approx_prox_rows(pot, oracle, starts, ncfg)
        merged.merge(oracle.ledger)
        residuals = prox_residual(pot, ends, starts, eta)
        fail_rate = float((residuals > bound).mean())
        eps = eps_tail(noise, ncfg.n_batch, m_trunc)
        se = math.sqrt(max(eps * (1 - eps), 1.0 / cfg.trials) / cfg.trials)
        per_seed.append({
            "seed": seed, "failure_rate": fail_rate,
            "allowed": 2 * eps + 3 * se, "residual_bound": bound,
            "max_residual": float(residuals.max()),
            "grad_queries": oracle.ledger.grad_queries,
        })

    verdicts = {
        "exact_convergence": bool(exact_err < 1e-10),
        "residual_guarantee": all(r["failure_rate"] <= r["allowed"]
                                  for r in per_seed),
        "query_accounting": all(
            r["grad_queries"] == cfg.trials * ncfg.k_iters for r in per_seed),
    }
    sink.rows.extend({"seed": r["seed"], "failure_rate": r["failure_rate"],
                      "allowed": r["allowed"], "max_residual": r["max_residual"]}
                     for r in per_seed)
    return [{"exact_error": exact_err, "fixed_point": fixed_point}] + per_seed, verdicts


# ---------------------------------------------------------------------------
# experiment: sampler_e2e
# ---------------------------------------------------------------------------

@_suite("potential", "noise", "case", "mode", "delta", "seeds", "chains",
        "constants")
def run_sampler_e2e(cfg: ExperimentConfig, sink: PartialSink, merged: QueryLedger):
    pot = potential_from_config(**cfg.potential)
    case = AssumptionCase(**cfg.case)
    # N(m 1, I) against N(0, I) in d dimensions has Delta = d m^2
    mu0_mean = math.sqrt(case.warm_start_delta / pot.dim)
    mu0 = gaussian_initializer(np.full(pot.dim, mu0_mean), 1.0)
    arms = [NoiseModel.exact(), NoiseModel(**cfg.noise)]
    first = cfg.mode == "first_order"
    plan = plan_first_order if first else plan_zeroth_order
    oracle_type = GradientOracle if first else ValueOracle

    per_seed = sink.per_seed
    for seed in cfg.seeds:
        for arm_idx, noise in enumerate(arms):
            sched = plan(pot, noise, case, cfg.delta, cfg.constants)
            oracle = oracle_type(pot, noise, make_rng(seed, 4, arm_idx))
            xs, ledger = run_proximal_sampler(pot, oracle, sched, mu0,
                                              cfg.chains, make_rng(seed, 5, arm_idx))
            tv = empirical_tv_1d(xs[:, 0], pot.reference.marginal(0))
            stat, p_value = ks_test(xs[:, 0], pot.reference.marginal(0).cdf)
            merged.merge(ledger)
            entry = {
                "seed": seed, "noise": noise.family,
                "tv": tv.value, "tv_bias_bound": tv.bias_bound,
                "tv_pass": bool(tv.value <= cfg.delta + tv.bias_bound),
                "ks_stat": stat, "ks_p": p_value,
                "schedule": asdict(sched),
                "ledger": ledger.as_dict(),
            }
            per_seed.append(entry)
            sink.rows.append({"seed": seed, "noise": noise.family, "tv": tv.value,
                              "threshold": cfg.delta + tv.bias_bound,
                              "n_steps": sched.n_steps, "eta": sched.eta,
                              "n_batch": sched.n_batch,
                              "grad_queries": ledger.grad_queries,
                              "value_queries": ledger.value_queries,
                              "w_clipped": ledger.w_clipped})

    verdicts = {}
    for noise in arms:
        entries = [r for r in per_seed if r["noise"] == noise.family]
        verdicts[f"tv_{noise.family}"] = all(r["tv_pass"] for r in entries)
    return per_seed, verdicts


# ---------------------------------------------------------------------------
# experiment: delta_scaling
# ---------------------------------------------------------------------------

SCALING_FAMILIES = {
    "polymoment": NoiseModel.polymoment(k=1, sigma_2k=0.15),
    "subgaussian": NoiseModel.subgaussian(1.0),
    "subexponential": NoiseModel.subweibull(zeta=1.0, sigma_g=0.2),
}

# The scaling sweep runs one fixed 1-D instance for every noise family:
# standard Gaussian target, LSI case, warm start N(10, 1) whose chi-square
# divergence gives Delta = 100 exactly.  The large warm start keeps the
# logarithmic factors saturated across the delta grid, so the measured
# query growth isolates the tail-driven 1/delta (heavy) versus polylog
# (light) separation.
SCALING_WARM_START = 10.0


@_suite("delta_grid", "seeds", "chains", "constants", chains=4, seeds=(0,))
def run_delta_scaling(cfg: ExperimentConfig, sink: PartialSink,
                      merged: QueryLedger):
    pot = potential_from_config("gaussian", {"mean": [0.0], "precision": 1.0})
    case = AssumptionCase("LSI", constant=1.0,
                          warm_start_delta=SCALING_WARM_START ** 2)
    mu0 = gaussian_initializer(np.array([SCALING_WARM_START]), 1.0)
    (seed,) = cfg.seeds

    slopes = {}
    per_seed = sink.per_seed
    for label, noise in SCALING_FAMILIES.items():
        measured = []
        for j, delta in enumerate(cfg.delta_grid):
            sched = plan_first_order(pot, noise, case, delta, cfg.constants)
            oracle = GradientOracle(pot, noise, make_rng(seed, 6, j))
            xs, ledger = run_proximal_sampler(pot, oracle, sched, mu0, cfg.chains,
                                              make_rng(seed, 6, j, 1))
            per_chain = ledger.grad_queries / cfg.chains
            measured.append(per_chain)
            merged.merge(ledger)
            sink.rows.append({"family": label, "delta": delta,
                              "grad_queries_per_chain": per_chain,
                              "planned_queries": sched.planned_queries,
                              "n_steps": sched.n_steps, "n_batch": sched.n_batch,
                              "m_trunc": sched.m_trunc, "eta": sched.eta})
        slope = scaling_slope(1.0 / np.asarray(cfg.delta_grid), measured)
        slopes[label] = slope
        per_seed.append({"family": label, "slope": slope,
                         "queries": measured, "deltas": list(cfg.delta_grid)})

    verdicts = {
        "slope_polymoment": bool(0.75 <= slopes["polymoment"] <= 1.25),
        "slope_subgaussian": bool(slopes["subgaussian"] <= 0.3),
        "slope_subexponential": bool(slopes["subexponential"] <= 0.3),
    }
    return per_seed, verdicts


# ---------------------------------------------------------------------------
# experiment: lower_bound
# ---------------------------------------------------------------------------

@_suite("delta", "seeds", "trials", delta=0.02, trials=100_000, seeds=(0,))
def run_lower_bound(cfg: ExperimentConfig, sink: PartialSink, merged: QueryLedger):
    psi = PsiFunction.power(2.0)

    # rate functional against the closed form 1/delta - delta
    grid_ok = True
    f_rows = []
    for delta in (0.2, 0.1, 0.05, 0.02):
        numeric = f_psi(psi, delta)
        closed = 1.0 / delta - delta
        rel = abs(numeric - closed) / closed
        grid_ok &= rel < 1e-6
        f_rows.append({"delta": delta, "f_psi": numeric, "closed_form": closed,
                       "rel_err": rel})

    delta = cfg.delta
    (seed,) = cfg.seeds
    pair = AdversarialOraclePair.from_psi(psi, delta)
    # largest integer budget strictly below F_psi(delta)/10
    budget = max(math.ceil(f_psi(psi, delta) / 10.0) - 1, 1)

    target0 = GaussianReference(np.array([0.0]), np.array([1.0]))
    target1 = GaussianReference(np.array([delta]), np.array([1.0]))

    per_seed = sink.per_seed
    verdicts = {"f_psi_closed_form": grid_ok}
    sink.rows.extend(f_rows)
    for name, adapter in (("sgld", sgld_adapter(step=0.1)),
                          ("proximal", proximal_adapter(eta=0.25, b=1.0))):
        res = coupled_run(adapter, pair, budget, cfg.trials, seed)
        merged.grad_queries += res.queries
        tv_arms = empirical_tv_two_sample(res.outputs_base, res.outputs_shifted)
        tv0 = empirical_tv_1d(res.outputs_base, target0)
        tv1 = empirical_tv_1d(res.outputs_shifted, target1)
        entry = {
            "adapter": name, "delta": delta, "t_budget": budget,
            "p": pair.p, "m_shift": pair.m_shift,
            "corrupted_fraction": res.corrupted_fraction,
            "coupling_bound": res.coupling_tv_bound,
            "clean_mismatches": res.clean_mismatches,
            "grad_queries": res.queries,
            "tv_between_arms": tv_arms.value,
            "tv_arm0_vs_target": tv0.value, "tv_arm1_vs_target": tv1.value,
            "target_tv_exact": gaussian_tv_exact(0.0, delta),
            "target_tv_third": delta / 3.0,
        }
        per_seed.append(entry)
        sink.rows.append({"adapter": name, "delta": delta,
                          "corrupted_fraction": res.corrupted_fraction,
                          "tv_between_arms": tv_arms.value,
                          "tv_arm0_vs_target": tv0.value,
                          "tv_arm1_vs_target": tv1.value})
        se3 = 3.0 * res.corrupted_se
        verdicts[f"coupling_{name}"] = bool(res.clean_mismatches == 0)
        verdicts[f"tv_chain_{name}"] = bool(
            tv_arms.value <= budget * pair.p + se3 + tv_arms.bias_bound)
        verdicts[f"separation_{name}"] = bool(
            max(tv0.value, tv1.value) > delta / 8.0)
    return per_seed, verdicts


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Dispatch to the named suite and write reports if an output dir is set.

    When a runner fails partway through its seed sweep, the per-seed results
    completed so far are flushed to <experiment>_partial.json before the
    exception propagates.
    """
    sink = PartialSink()
    try:
        report = SUITES[cfg.experiment].run(cfg, sink=sink)
    except Exception as err:
        if cfg.output_dir:
            write_partial(cfg, sink, err, cfg.output_dir)
        raise
    if cfg.output_dir:
        write_report(report, cfg.output_dir)
    return report
