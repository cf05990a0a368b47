"""The four benchmark workloads: inputs from a seed, a fixed job list, checks.

``setup(workload, seed, size)`` builds a workload's inputs (potentials,
noise models, plans and configs; no job runs) and returns its job list.
``repetitions(workload, seconds)`` is how many times a run repeats it.  A job calls the
package's public entry points through their module attributes, so the traced
run can wrap them, and returns one ``Outcome`` per checked output.  A job
that raises yields failed outcomes for everything it was expected to check.

Statistical checks are set so a correct program fails a check with
probability about 1e-4 or less; the deterministic ledger checks cannot fail
on a correct program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from forsample import fors, harness, lowerbound, oracles, sampler, verify
from forsample.core import AssumptionCase, potential_from_config

# p-value floor for KS and chi-square checks on a correct program
ALPHA = 1e-4

# per-size knobs; "full" is what the benchmark measures, "smoke" is for the
# self-test.  Shapes (dimension, chain count, delta, B, batch sizes) are the
# acceptance gate's at both sizes.
SIZES = {
    "full": {"e2e_chains": 10_000, "light_steps": 1_000, "heavy_steps": None,
             "tilt_samples": 100_000, "lb_trials": 10_000, "fors_calls": 10_000},
    "smoke": {"e2e_chains": 500, "light_steps": 20, "heavy_steps": 5,
              "tilt_samples": 10_000, "lb_trials": 500, "fors_calls": 500},
}

# Nominal seconds of one full-size job list, measured on the seed code on a
# 2-vCPU Xeon.  A run of S seconds repeats the job list round(S / REP_S)
# times whatever the speed of the code under test.
REP_S = {"e2e_wide": 3.6, "narrow_chains": 3.6, "tilt_iid": 3.6,
         "coupled_scalar": 3.0}

# The parts of calibrate.py's reference kernel that do the same kind of work
# as the workload, so that the kernel slows down with the machine by about
# the same factor as the jobs do (measured in BASELINE.md).  tilt_iid's
# four threads on two cores barely follow the machine's state, so its times
# are not normalized.
KERNEL = {"e2e_wide": ("wide", "draws"),
          "narrow_chains": ("scalar", "tiny", "wide", "draws"),
          "tilt_iid": (),
          "coupled_scalar": ("scalar", "tiny")}

NARROW_CHAINS = 4
NARROW_DELTA = 0.2
LB_DELTA = 0.02
WDRAW_DELTA = 0.01


@dataclass
class Outcome:
    """One checked output of a job."""

    job: str
    ok: bool
    queries: int = 0          # gradient + value (+ estimator-source) queries
    samples: int = 0          # accepted output samples
    ledger: dict = field(default_factory=dict)
    detail: str = ""

    def fingerprint(self) -> tuple:
        return (self.job, self.ok, self.queries, self.samples,
                tuple(sorted(self.ledger.items())), self.detail)


@dataclass
class Job:
    name: str
    expected: int             # outcomes this job checks
    run: Callable[[], list]


def _ledger_ok(led: dict, n_batch: int, n_steps: int, chains: int) -> bool:
    """The sampler's exact ledger identities."""
    return (led["grad_queries"] == n_batch * (led["prox_iters"] + led["w_draws"])
            and led["outer_steps"] == n_steps
            and led["rgo_calls"] == n_steps * chains)


def _queries(led: dict) -> int:
    return int(led["grad_queries"] + led["value_queries"])


# ---------------------------------------------------------------------------
# e2e_wide: criterion-6 shape through harness.run_sampler_e2e
# ---------------------------------------------------------------------------

def _e2e(seed: int, size: dict) -> list[Job]:
    chains = size["e2e_chains"]
    cfg = harness.ExperimentConfig(experiment="sampler_e2e", seeds=(seed,),
                                   chains=chains)

    def run() -> list[Outcome]:
        report = harness.run_sampler_e2e(cfg)
        out = []
        for entry in report.per_seed:
            led, sch = entry["ledger"], entry["schedule"]
            ok = (_ledger_ok(led, sch["n_batch"], sch["n_steps"], chains)
                  and math.isfinite(entry["tv"]) and bool(entry["tv_pass"]))
            out.append(Outcome(
                f"e2e_{entry['noise']}", ok, _queries(led), chains, led,
                f"tv {entry['tv']:.4f} <= {cfg.delta + entry['tv_bias_bound']:.4f}"))
        return out

    return [Job("sampler_e2e", 2, run)]


# ---------------------------------------------------------------------------
# narrow_chains: criterion-7 shape through sampler.run_proximal_sampler
# ---------------------------------------------------------------------------

def _narrow(seed: int, size: dict) -> list[Job]:
    pot = potential_from_config("gaussian", {"mean": [0.0], "precision": 1.0})
    warm = harness.SCALING_WARM_START
    case = AssumptionCase("LSI", constant=1.0, warm_start_delta=warm ** 2)
    mu0 = sampler.gaussian_initializer(np.array([warm]), 1.0)
    jobs = []
    for j, (label, steps) in enumerate((("subexponential", size["light_steps"]),
                                        ("polymoment", size["heavy_steps"]))):
        noise = harness.SCALING_FAMILIES[label]
        sched = sampler.plan_first_order(pot, noise, case, NARROW_DELTA)
        if steps is not None:
            # the light job's per-step shape is the gate's; its length is cut
            sched = replace(sched, n_steps=min(steps, sched.n_steps))

        def run(noise=noise, sched=sched, j=j, label=label) -> list[Outcome]:
            oracle = oracles.GradientOracle(pot, noise, oracles.make_rng(seed, 6, j))
            xs, ledger = sampler.run_proximal_sampler(
                pot, oracle, sched, mu0, NARROW_CHAINS,
                oracles.make_rng(seed, 6, j, 1))
            led = ledger.as_dict()
            ok = (xs.shape == (NARROW_CHAINS, pot.dim)
                  and bool(np.all(np.isfinite(xs)))
                  and _ledger_ok(led, sched.n_batch, sched.n_steps, NARROW_CHAINS))
            return [Outcome(f"chains_{label}", ok, _queries(led), NARROW_CHAINS,
                            led, f"{sched.n_steps} steps, n_batch {sched.n_batch}")]

        jobs.append(Job(f"chains_{label}", 1, run))
    return jobs


# ---------------------------------------------------------------------------
# tilt_iid: criterion-4 shape through harness.run_tilt_exactness
# ---------------------------------------------------------------------------

def _tilt(seed: int, size: dict) -> list[Job]:
    samples = size["tilt_samples"]
    cfg = harness.ExperimentConfig(experiment="tilt_exactness", seeds=(seed,),
                                   samples=samples)

    def run() -> list[Outcome]:
        report = harness.run_tilt_exactness(cfg)
        return [Outcome(f"tilt_{r['mode']}_{r['noise']}",
                        bool(r["ks_p"] > ALPHA), _queries(r["ledger"]), samples,
                        r["ledger"], f"ks p {r['ks_p']:.4g}")
                for r in report.per_seed]

    return [Job("tilt_exactness", 4, run)]


# ---------------------------------------------------------------------------
# coupled_scalar: lowerbound.coupled_run and the scalar fors.fors_sample loop
# ---------------------------------------------------------------------------

def _counting(adapter, tally: list):
    """The adapter with every answered oracle query counted into tally[0]."""
    def run(oracle, budget, rng):
        def ask(x):
            answer = oracle(x)
            tally[0] += 1
            return answer
        return adapter(ask, budget, rng)
    return run


def _coupled(seed: int, size: dict) -> list[Job]:
    psi = lowerbound.PsiFunction.power(2.0)
    pair = lowerbound.AdversarialOraclePair.from_psi(psi, LB_DELTA)
    budget = max(math.ceil(lowerbound.f_psi(psi, LB_DELTA) / 10.0) - 1, 1)
    trials = size["lb_trials"]
    jobs = []
    for name, adapter in (("sgld", lowerbound.sgld_adapter(step=0.1)),
                          ("proximal", lowerbound.proximal_adapter(eta=0.25, b=1.0))):
        def run(name=name, adapter=adapter) -> list[Outcome]:
            tally = [0]
            res = lowerbound.coupled_run(_counting(adapter, tally), pair, budget,
                                         trials, seed)
            ok = (res.clean_mismatches == 0
                  and res.outputs_base.shape == (trials,)
                  and bool(np.all(np.isfinite(res.outputs_base)))
                  and bool(np.all(np.isfinite(res.outputs_shifted))))
            return [Outcome(f"coupled_{name}", ok, tally[0], 2 * trials,
                            {"clean_mismatches": int(res.clean_mismatches)},
                            f"clean mismatches {res.clean_mismatches}, "
                            f"corrupted {res.corrupted_fraction:.4f}")]
        jobs.append(Job(f"coupled_{name}", 1, run))

    flat = harness.discrete_instances()[0]
    calls = size["fors_calls"]
    fors_cfg = fors.FORSConfig(b=flat.b)

    def run_scalar() -> list[Outcome]:
        rng = oracles.make_rng(seed, 999)
        ledger = oracles.QueryLedger()
        source = flat.scalar_source(ledger)
        points = np.empty(calls, dtype=np.int64)
        draw_counts = np.empty(calls, dtype=np.int64)
        for i in range(calls):
            res = fors.fors_sample(lambda r: flat.proposal_rows(1, r)[0], source,
                                   fors_cfg, rng, ledger=ledger)
            points[i] = int(res.point[0])
            draw_counts[i] = res.w_draws
        tail = fors.wdraw_tail_check(flat.b, WDRAW_DELTA, draw_counts)
        _, p_value = verify.chi2_discrete(
            np.bincount(points, minlength=flat.n_points), flat.law())
        ok = bool(tail.passed) and p_value > ALPHA
        led = ledger.as_dict()
        # each W draw is one query to the instance's estimator source
        return [Outcome("fors_scalar_flat", ok, int(led["w_draws"]), calls, led,
                        f"99th pct draws {tail.quantile:.1f} <= {tail.bound:.1f}, "
                        f"chi2 p {p_value:.4g}")]

    jobs.append(Job("fors_scalar_flat", 1, run_scalar))
    return jobs


_WORKLOADS = {"e2e_wide": _e2e, "narrow_chains": _narrow, "tilt_iid": _tilt,
             "coupled_scalar": _coupled}


def setup(workload: str, seed: int, size: str = "full") -> list[Job]:
    """Build a workload's inputs from the seed and return its job list."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return _WORKLOADS[workload](seed, SIZES[size])


def repetitions(workload: str, seconds: float) -> int:
    """The fixed number of job lists a run of ``seconds`` measures (at least 1)."""
    return max(1, round(seconds / REP_S[workload]))


def run_jobs(jobs: list[Job], on_job=None) -> list[Outcome]:
    """Run every job once; a job that raises fails all its outcomes."""
    outcomes: list[Outcome] = []
    for job in jobs:
        try:
            if on_job is None:
                got = job.run()
            else:
                with on_job(job.name):
                    got = job.run()
            if len(got) != job.expected:
                raise RuntimeError(f"{job.name}: {len(got)} outputs, "
                                   f"expected {job.expected}")
            outcomes.extend(got)
        except Exception as err:  # a raising job is counted, never dropped
            outcomes.extend(Outcome(job.name, False, detail=f"{type(err).__name__}: {err}")
                            for _ in range(job.expected))
    return outcomes
