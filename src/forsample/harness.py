"""Experiment suites behind the command-line harness.

Each experiment maps a validated configuration to a report: per-seed
results, merged query ledger, pass/fail verdicts, and plot-ready CSV rows.
Runs are reproducible bit for bit from (config, seeds): every stochastic
quantity flows from hierarchical streams keyed by the seed list, and
reports embed the exact planner constants used.
"""

from __future__ import annotations

import csv
import json
import math
import time
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constants import DEFAULT_CONSTANTS, PlanConstants
from .core import AssumptionCase, GaussianReference, Potential, potential_from_config
from .errors import ConfigError
from .fors import (FORSConfig, EstimatorSource, fors_attempt_batch,
                   fors_sample, fors_sample_many, wdraw_tail_check)
from .lowerbound import (AdversarialOraclePair, PsiFunction, coupled_run,
                         f_psi, proximal_adapter, sgld_adapter)
from .oracles import (GradientOracle, NoiseModel, QueryLedger, ValueOracle,
                      eps_tail, make_rng, phi)
from .prox import ProxConfig, approx_prox_rows, prox_residual_bound
from .rgo import RGOContext, TiltProblem, sample_tilt_many
from .sampler import (Schedule, gaussian_initializer, plan_first_order,
                      plan_zeroth_order, run_proximal_sampler, schedule_to_dict)
from .verify import (chi2_discrete, discrete_law_oracle, empirical_tv_1d,
                     empirical_tv_two_sample, gaussian_tv_exact, ks_test,
                     scaling_slope, seeds_pass_rule)

SCHEMA_VERSION = 1

EXPERIMENTS = ("tilt_exactness", "prox_check", "fors_unit", "sampler_e2e",
               "delta_scaling", "lower_bound")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated harness configuration; built by the CLI's validator."""

    experiment: str
    potential: dict = field(default_factory=lambda: {"name": "gaussian",
                                                     "params": {"mean": [0.0]}})
    noise: dict = field(default_factory=lambda: {"family": "subgaussian",
                                                 "sigma_g": 0.5})
    case: dict = field(default_factory=lambda: {"tag": "LSI", "constant": 1.0,
                                                "warm_start_delta": 1.0})
    mode: str = "first_order"
    delta: float = 0.05
    delta_grid: tuple = (0.2, 0.1, 0.05, 0.025)
    seeds: tuple = tuple(range(20))
    chains: int = 10_000
    samples: int = 100_000
    trials: int = 1000
    output_dir: str | None = None
    constants: PlanConstants = DEFAULT_CONSTANTS

    def make_potential(self) -> Potential:
        return potential_from_config(self.potential["name"],
                                     self.potential.get("params", {}))

    def make_noise(self) -> NoiseModel:
        spec = dict(self.noise)
        family = spec.pop("family")
        if family == "exact":
            return NoiseModel.exact()
        return NoiseModel(family, **spec)

    def make_case(self) -> AssumptionCase:
        return AssumptionCase(**self.case)


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
        payload = {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "config": self.config,
            "constants": self.constants,
            "per_seed": self.per_seed,
            "merged_ledger": self.merged_ledger,
            "verdicts": self.verdicts,
            "all_pass": self.all_pass,
            "wall_clock_seconds": self.wall_clock_seconds,
        }
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
            writer = csv.DictWriter(fh, fieldnames=list(report.rows[0].keys()))
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
        "config": _echo(cfg),
        "constants": cfg.constants.as_dict(),
        "per_seed": sink.per_seed,
        "rows": sink.rows,
    }
    path = out / f"{cfg.experiment}_partial.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_json_default) + "\n")
    return path


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
        assert self.w_values.shape == self.w_probs.shape
        assert np.allclose(self.w_probs.sum(axis=1), 1.0)
        assert np.all(np.abs(self.w_values) <= self.b)
        object.__setattr__(self, "_q_cdf", np.cumsum(self.q))

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

    def proposal_rows(self, k: int, rng: np.random.Generator) -> np.ndarray:
        idx = np.searchsorted(self._q_cdf, rng.random(k))
        return idx.astype(float)[:, None]

    def scalar_source(self, ledger: QueryLedger | None = None) -> EstimatorSource:
        cdfs = [np.cumsum(row).tolist() for row in self.w_probs]
        values = self.w_values.tolist()
        last = self.w_probs.shape[1] - 1

        def draw_w(x, rng):
            i = int(x[0])
            return values[i][min(bisect_left(cdfs[i], rng.random()), last)]
        return EstimatorSource(draw_w, ledger=ledger)

    def draw_w_rows(self, slots, xs, rng) -> np.ndarray:
        idx = xs[:, 0].astype(int)
        cum = np.cumsum(self.w_probs, axis=1)
        u = rng.random(idx.size)
        choice = np.minimum((u[:, None] > cum[idx]).sum(axis=1),
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
        pts = fors_sample_many(inst.proposal_rows, inst, cfg, samples, rng,
                               ledger=ledger)
        counts = np.bincount(pts[:, 0].astype(int), minlength=inst.n_points)
        _, p_value = chi2_discrete(counts, inst.law())
        # acceptance-rate law over a fixed attempt count (clean binomial)
        mask = fors_attempt_batch(inst.proposal_rows, inst, cfg, samples, rng,
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


def run_fors_unit(cfg: ExperimentConfig,
                  sink: PartialSink | None = None) -> ExperimentReport:
    start = time.perf_counter()
    sink = sink if sink is not None else PartialSink()
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
    ledger = QueryLedger()
    source = flat.scalar_source(ledger)
    fors_cfg = FORSConfig(b=flat.b)
    for _ in range(n_calls):
        res = fors_sample(lambda r: flat.proposal_rows(1, r)[0], source,
                          fors_cfg, rng, ledger=ledger)
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

    rows = sink.rows
    rows.extend({"seed": r["seed"], "instance": i["name"], "chi2_p": i["chi2_p"],
                 "acceptance_freq": i["acceptance_freq"],
                 "acceptance_exact": i["acceptance_exact"]}
                for r in per_seed for i in r["instances"])
    merged = QueryLedger()
    for r in per_seed:
        merged.merge(QueryLedger(**r["ledger"]))
    merged.merge(ledger)
    return ExperimentReport(
        experiment="fors_unit", config=_echo(cfg), constants=cfg.constants.as_dict(),
        per_seed=per_seed + [{"wdraw_check": {
            "quantile": tail.quantile, "bound": tail.bound,
            "calls": tail.calls, "aggregate_constant": tail.aggregate_constant}}],
        merged_ledger=merged.as_dict(), verdicts=verdicts, rows=rows,
        wall_clock_seconds=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# experiment: tilt_exactness
# ---------------------------------------------------------------------------

TILT_X0 = 1.0
TILT_ETA = 0.5
TILT_B = 3.0
TILT_SIGMA = 0.5
TILT_M = 1.0


def tilt_reference():
    """Analytic tilt law for f = x^2/2, x0 = 1, eta = 1/2: N(2/3, 1/3)."""
    return GaussianReference(np.array([2.0 / 3.0]), np.array([1.0 / 3.0]))


def _tilt_arm(seed: int, mode: str, noise: NoiseModel, samples: int,
              n_batch: int) -> dict:
    pot = potential_from_config("gaussian", {"mean": [0.0], "precision": 1.0})
    problem = TiltProblem(pot, np.array([TILT_X0]), TILT_ETA)
    ledger = QueryLedger()
    rng = make_rng(seed, 7, 0 if mode == "first" else 1,
                   0 if noise.family == "exact" else 1)
    cfg = FORSConfig(b=TILT_B)
    if mode == "first":
        oracle = GradientOracle(pot, noise, rng, ledger)
        # proposal centered at the proximal point of x0, found with the same
        # noisy oracle the estimator uses
        prox_cfg = ProxConfig(eta=TILT_ETA, m_trunc=max(TILT_M, 1e-6),
                              n_batch=n_batch, g_bound=10.0, k_iters=25)
        xhat = approx_prox_rows(pot, oracle, np.array([[TILT_X0]]), prox_cfg, rng)[0]
        ledger.prox_iters += prox_cfg.k_iters
        ctx = RGOContext(problem, xhat, n_batch=n_batch, m_trunc=TILT_M)
        pts = sample_tilt_many(ctx, "first", oracle, cfg, samples, rng, ledger=ledger)
    else:
        oracle = ValueOracle(pot, noise, rng, ledger)
        ctx = RGOContext(problem, np.array([TILT_X0]), n_batch=n_batch,
                         m_trunc=TILT_B / 3.0)
        pts = sample_tilt_many(ctx, "zeroth", oracle, cfg, samples, rng, ledger=ledger)
    stat, p_value = ks_test(pts[:, 0], tilt_reference().cdf)
    return {"seed": seed, "mode": mode, "noise": noise.family,
            "ks_stat": stat, "ks_p": p_value, "ledger": ledger.as_dict()}


def run_tilt_exactness(cfg: ExperimentConfig,
                       sink: PartialSink | None = None) -> ExperimentReport:
    start = time.perf_counter()
    sink = sink if sink is not None else PartialSink()
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

    merged = QueryLedger()
    for r in per_seed:
        merged.merge(QueryLedger(**r["ledger"]))
    rows = sink.rows
    rows.extend({"seed": r["seed"], "mode": r["mode"], "noise": r["noise"],
                 "ks_stat": r["ks_stat"], "ks_p": r["ks_p"]} for r in per_seed)
    return ExperimentReport(
        experiment="tilt_exactness", config=_echo(cfg),
        constants=cfg.constants.as_dict(), per_seed=per_seed,
        merged_ledger=merged.as_dict(), verdicts=verdicts, rows=rows,
        wall_clock_seconds=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# experiment: prox_check
# ---------------------------------------------------------------------------

def run_prox_check(cfg: ExperimentConfig,
                   sink: PartialSink | None = None) -> ExperimentReport:
    start = time.perf_counter()
    sink = sink if sink is not None else PartialSink()
    theta = 1.0
    pot = potential_from_config("gaussian", {"mean": [theta], "precision": 1.0})
    eta = 0.5
    x0 = np.array([0.0])
    fixed_point = (x0[0] + eta * theta) / (1.0 + eta)

    # deterministic convergence with the exact oracle
    exact = GradientOracle(pot, NoiseModel.exact(), make_rng(0, 0))
    pcfg = ProxConfig(eta=eta, m_trunc=1e-9, n_batch=1, g_bound=10.0, k_iters=20)
    xhat = approx_prox_rows(pot, exact, x0[None, :], pcfg, make_rng(0, 1))[0]
    exact_err = abs(float(xhat[0]) - fixed_point)
    merged = QueryLedger().merge(exact.ledger)
    merged.prox_iters += pcfg.k_iters

    # stochastic residual guarantee over independent trials
    noise = NoiseModel.subgaussian(0.2)
    m_trunc = 1.0
    bound = prox_residual_bound(eta, pot.m_s, m_trunc)
    per_seed = sink.per_seed
    for seed in cfg.seeds:
        oracle = GradientOracle(pot, noise, make_rng(seed, 2))
        ncfg = ProxConfig(eta=eta, m_trunc=m_trunc, n_batch=1, g_bound=10.0,
                          k_iters=25)
        starts = np.zeros((cfg.trials, 1))
        ends = approx_prox_rows(pot, oracle, starts, ncfg, make_rng(seed, 3))
        merged.merge(oracle.ledger)
        merged.prox_iters += ncfg.k_iters * cfg.trials
        residuals = np.abs(ends + eta * pot.grad_at_rows(ends) - starts)[:, 0]
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
            r["grad_queries"] == cfg.trials * 25 for r in per_seed),
    }
    rows = sink.rows
    rows.extend({"seed": r["seed"], "failure_rate": r["failure_rate"],
                 "allowed": r["allowed"], "max_residual": r["max_residual"]}
                for r in per_seed)
    return ExperimentReport(
        experiment="prox_check", config=_echo(cfg),
        constants=cfg.constants.as_dict(),
        per_seed=[{"exact_error": exact_err, "fixed_point": fixed_point}] + per_seed,
        merged_ledger=merged.as_dict(), verdicts=verdicts, rows=rows,
        wall_clock_seconds=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# experiment: sampler_e2e
# ---------------------------------------------------------------------------

def run_sampler_e2e(cfg: ExperimentConfig,
                    sink: PartialSink | None = None) -> ExperimentReport:
    start = time.perf_counter()
    sink = sink if sink is not None else PartialSink()
    pot = cfg.make_potential()
    case = cfg.make_case()
    mu0_mean = math.sqrt(case.warm_start_delta)  # N(m,1) start has Delta = m^2
    mu0 = gaussian_initializer(np.full(pot.dim, mu0_mean), 1.0)
    arms = [NoiseModel.exact(), cfg.make_noise()]

    per_seed = sink.per_seed
    rows = sink.rows
    merged = QueryLedger()
    for seed in cfg.seeds:
        for arm_idx, noise in enumerate(arms):
            if cfg.mode == "first_order":
                sched = plan_first_order(pot, noise, case, cfg.delta, cfg.constants)
                oracle = GradientOracle(pot, noise, make_rng(seed, 4, arm_idx))
            else:
                sched = plan_zeroth_order(pot, noise, case, cfg.delta, cfg.constants)
                oracle = ValueOracle(pot, noise, make_rng(seed, 4, arm_idx))
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
                "schedule": schedule_to_dict(sched),
                "ledger": ledger.as_dict(),
            }
            per_seed.append(entry)
            rows.append({"seed": seed, "noise": noise.family, "tv": tv.value,
                         "threshold": cfg.delta + tv.bias_bound,
                         "n_steps": sched.n_steps, "eta": sched.eta,
                         "n_batch": sched.n_batch,
                         "grad_queries": ledger.grad_queries,
                         "value_queries": ledger.value_queries})

    verdicts = {}
    for noise in arms:
        entries = [r for r in per_seed if r["noise"] == noise.family]
        verdicts[f"tv_{noise.family}"] = all(r["tv_pass"] for r in entries)
    return ExperimentReport(
        experiment="sampler_e2e", config=_echo(cfg),
        constants=cfg.constants.as_dict(), per_seed=per_seed,
        merged_ledger=merged.as_dict(), verdicts=verdicts, rows=rows,
        wall_clock_seconds=time.perf_counter() - start)


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


def run_delta_scaling(cfg: ExperimentConfig,
                      sink: PartialSink | None = None) -> ExperimentReport:
    start = time.perf_counter()
    sink = sink if sink is not None else PartialSink()
    pot = potential_from_config("gaussian", {"mean": [0.0], "precision": 1.0})
    case = AssumptionCase("LSI", constant=1.0,
                          warm_start_delta=SCALING_WARM_START ** 2)
    mu0 = gaussian_initializer(np.array([SCALING_WARM_START]), 1.0)
    chains = min(cfg.chains, 4)
    seed = cfg.seeds[0]

    rows = sink.rows
    slopes = {}
    per_seed = sink.per_seed
    merged = QueryLedger()
    for label, noise in SCALING_FAMILIES.items():
        measured = []
        for j, delta in enumerate(cfg.delta_grid):
            sched = plan_first_order(pot, noise, case, delta, cfg.constants)
            oracle = GradientOracle(pot, noise, make_rng(seed, 6, j))
            xs, ledger = run_proximal_sampler(pot, oracle, sched, mu0, chains,
                                              make_rng(seed, 6, j, 1))
            per_chain = ledger.grad_queries / chains
            measured.append(per_chain)
            merged.merge(ledger)
            rows.append({"family": label, "delta": delta,
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
    return ExperimentReport(
        experiment="delta_scaling", config=_echo(cfg),
        constants=cfg.constants.as_dict(), per_seed=per_seed,
        merged_ledger=merged.as_dict(), verdicts=verdicts, rows=rows,
        wall_clock_seconds=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# experiment: lower_bound
# ---------------------------------------------------------------------------

LB_DELTA = 0.02
LB_TRIALS = 100_000


def run_lower_bound(cfg: ExperimentConfig,
                    sink: PartialSink | None = None) -> ExperimentReport:
    start = time.perf_counter()
    sink = sink if sink is not None else PartialSink()
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

    delta = cfg.delta if cfg.experiment == "lower_bound" and cfg.delta != 0.05 else LB_DELTA
    pair = AdversarialOraclePair.from_psi(psi, delta)
    # largest integer budget strictly below F_psi(delta)/10
    budget = max(math.ceil(f_psi(psi, delta) / 10.0) - 1, 1)
    trials = min(cfg.trials if cfg.trials > 1000 else LB_TRIALS, LB_TRIALS)

    target0 = GaussianReference(np.array([0.0]), np.array([1.0]))
    target1 = GaussianReference(np.array([delta]), np.array([1.0]))

    per_seed = sink.per_seed
    verdicts = {"f_psi_closed_form": grid_ok}
    rows = sink.rows
    rows.extend(f_rows)
    merged = QueryLedger()
    for name, adapter in (("sgld", sgld_adapter(step=0.1)),
                          ("proximal", proximal_adapter(eta=0.25, b=1.0))):
        res = coupled_run(adapter, pair, budget, trials, cfg.seeds[0])
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
        rows.append({"adapter": name, "delta": delta,
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

    return ExperimentReport(
        experiment="lower_bound", config=_echo(cfg),
        constants=cfg.constants.as_dict(), per_seed=per_seed,
        merged_ledger=merged.as_dict(), verdicts=verdicts, rows=rows,
        wall_clock_seconds=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_RUNNERS = {
    "fors_unit": run_fors_unit,
    "tilt_exactness": run_tilt_exactness,
    "prox_check": run_prox_check,
    "sampler_e2e": run_sampler_e2e,
    "delta_scaling": run_delta_scaling,
    "lower_bound": run_lower_bound,
}


def _echo(cfg: ExperimentConfig) -> dict:
    return {
        "experiment": cfg.experiment,
        "potential": cfg.potential,
        "noise": cfg.noise,
        "case": cfg.case,
        "mode": cfg.mode,
        "delta": cfg.delta,
        "delta_grid": list(cfg.delta_grid),
        "seeds": list(cfg.seeds),
        "chains": cfg.chains,
        "samples": cfg.samples,
        "trials": cfg.trials,
    }


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Dispatch to the named suite and write reports if an output dir is set.

    When a runner fails partway through its seed sweep, the per-seed results
    completed so far are flushed to <experiment>_partial.json before the
    exception propagates.
    """
    if cfg.experiment not in _RUNNERS:
        raise ConfigError([f"experiment: unknown suite {cfg.experiment!r}"])
    sink = PartialSink()
    try:
        report = _RUNNERS[cfg.experiment](cfg, sink=sink)
    except Exception as err:
        if cfg.output_dir:
            write_partial(cfg, sink, err, cfg.output_dir)
        raise
    if cfg.output_dir:
        write_report(report, cfg.output_dir)
    return report
