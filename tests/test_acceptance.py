"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
for every criterion as it completes.  Each test drives the same experiment
suite the CLI exposes, at the documented sample sizes, and asserts both the
statistical verdicts and the wall-clock budget.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from forsample.constants import DEFAULT_CONSTANTS
from forsample.core import AssumptionCase, potential_from_config
from forsample.harness import (ExperimentConfig, run_delta_scaling,
                               run_fors_unit, run_lower_bound, run_prox_check,
                               run_sampler_e2e, run_tilt_exactness)
from forsample.oracles import GradientOracle, NoiseModel, make_rng
from forsample.rgo import _path_rows
from forsample.sampler import (gaussian_initializer, plan_first_order,
                               run_proximal_sampler)

pytestmark = pytest.mark.gate


def _verdict(number: int, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    return ok


@pytest.fixture(scope="module")
def fors_report():
    cfg = ExperimentConfig(experiment="fors_unit")
    return run_fors_unit(cfg)


def test_criterion_1_fors_exactness(fors_report):
    names = ("flat", "det_tilt", "mixed", "spread")
    oks = [fors_report.verdicts[f"chi2_{n}"] for n in names]
    ok = all(oks) and fors_report.wall_clock_seconds < 60
    detail = (f"chi2 law match on {len(names)} instances, 18/20 seed rule "
              f"{oks}, {fors_report.wall_clock_seconds:.1f}s")
    assert _verdict(1, ok, detail)


def test_criterion_2_acceptance_rate_law(fors_report):
    names = ("flat", "det_tilt", "mixed", "spread")
    oks = [fors_report.verdicts[f"acceptance_{n}"] for n in names]
    flat = fors_report.per_seed[0]["instances"][0]
    exact_ok = flat["acceptance_exact"] == pytest.approx(math.exp(-1.0))
    ok = all(oks) and exact_ok and fors_report.wall_clock_seconds < 60
    detail = (f"freq within 3 SE of exp(E[W]-B) for all instances {oks}, "
              f"flat exact rate {flat['acceptance_exact']:.4f}")
    assert _verdict(2, ok, detail)


def test_criterion_3_wdraw_quantile(fors_report):
    check = fors_report.per_seed[-1]["wdraw_check"]
    bound_ok = check["bound"] == pytest.approx(3.0 * math.e ** 2 * math.log(200),
                                               rel=1e-12)
    ok = (fors_report.verdicts["wdraw_quantile"] and bound_ok
          and fors_report.wall_clock_seconds < 60)
    detail = (f"99th pct draws/call {check['quantile']:.1f} <= "
              f"{check['bound']:.1f} over {check['calls']} calls")
    assert _verdict(3, ok, detail)


def test_criterion_4_tilt_exactness():
    report = run_tilt_exactness(ExperimentConfig(experiment="tilt_exactness"))
    keys = ("ks_first_exact", "ks_first_subgaussian",
            "ks_zeroth_exact", "ks_zeroth_subgaussian")
    oks = {k: report.verdicts[k] for k in keys}
    ok = all(oks.values()) and report.wall_clock_seconds < 300
    detail = (f"KS p>0.01 in 18/20 seeds per arm, first order vs N(2/3,1/3), "
              f"zeroth order vs its clipped law {oks}, "
              f"{report.wall_clock_seconds:.1f}s (< 5 min)")
    assert _verdict(4, ok, detail)


def test_criterion_5_prox_residual():
    report = run_prox_check(ExperimentConfig(experiment="prox_check"))
    exact_err = report.per_seed[0]["exact_error"]
    ok = (report.verdicts["exact_convergence"]
          and report.verdicts["residual_guarantee"]
          and report.verdicts["query_accounting"]
          and report.wall_clock_seconds < 60)
    detail = (f"quadratic prox error {exact_err:.2e} < 1e-10, residual "
              f"<= 10 eta (m_s+M) fail rate within 2 eps + 3 SE over "
              f"{report.config['trials']} trials")
    assert _verdict(5, ok, detail)


def test_criterion_6_end_to_end_sampler():
    report = run_sampler_e2e(ExperimentConfig(experiment="sampler_e2e"))
    # the paper's headline noise, subexponential (subweibull zeta 1), on seeds 0-3
    subexp = run_sampler_e2e(ExperimentConfig(
        experiment="sampler_e2e", seeds=(0, 1, 2, 3),
        noise={"family": "subweibull", "zeta": 1.0, "sigma_g": 0.2}))
    oks = {k: report.verdicts[k] for k in ("tv_exact", "tv_subgaussian")}
    oks["tv_subweibull"] = subexp.verdicts["tv_subweibull"]
    worst = max(r["tv"] for r in report.per_seed + subexp.per_seed)
    seconds = report.wall_clock_seconds + subexp.wall_clock_seconds
    ok = all(oks.values()) and seconds < 900
    detail = (f"TV <= 0.05 + bias on 1e4 chains for exact and subgaussian "
              f"arms and a subexponential arm (seeds 0-3) {oks}, worst TV "
              f"{worst:.4f}, {seconds:.1f}s (< 15 min)")
    assert _verdict(6, ok, detail)


def test_criterion_7_delta_scaling():
    report = run_delta_scaling(ExperimentConfig(experiment="delta_scaling"))
    slopes = {r["family"]: r["slope"] for r in report.per_seed}
    ok = all(report.verdicts.values()) and report.wall_clock_seconds < 1200
    detail = (f"log-log query slopes vs 1/delta: "
              f"polymoment {slopes['polymoment']:.2f} in [0.75, 1.25], "
              f"subgaussian {slopes['subgaussian']:.2f} <= 0.3, "
              f"subexponential {slopes['subexponential']:.2f} <= 0.3, "
              f"{report.wall_clock_seconds:.1f}s (< 20 min)")
    assert _verdict(7, ok, detail)


def test_criterion_8_lower_bound():
    report = run_lower_bound(ExperimentConfig(experiment="lower_bound"))
    ok = all(report.verdicts.values()) and report.wall_clock_seconds < 600
    seps = {r["adapter"]: max(r["tv_arm0_vs_target"], r["tv_arm1_vs_target"])
            for r in report.per_seed}
    detail = (f"rate functional matches 1/delta - delta to 1e-6, coupled TV "
              f"<= T p + 3 SE, starved arms miss by {seps} (> delta/8), "
              f"{report.wall_clock_seconds:.1f}s (< 10 min)")
    assert _verdict(8, ok, detail)


def test_criterion_9_numerical_hygiene():
    import time
    start = time.perf_counter()
    checks = {}

    # gradient versus central finite differences, 1e-5 relative
    rng = make_rng(2026, 9)
    specs = [("gaussian", {"mean": [0.3, -0.7], "precision": 2.0}),
             ("power", {"p": 1.5, "dim": 2}),
             ("huber", {"threshold": 1.0, "dim": 3})]
    h = 1e-5
    worst = 0.0
    for name, params in specs:
        pot = potential_from_config(name, params)
        for _ in range(5):
            x = rng.normal(1.0, 0.5, size=pot.dim)  # stay away from kinks
            grad = pot.grad_at_rows([x])[0]
            fd = np.empty_like(grad)
            for i in range(pot.dim):
                e = np.zeros(pot.dim)
                e[i] = h
                plus, minus = pot.value_at_rows([x + e, x - e])
                fd[i] = (plus - minus) / (2 * h)
            rel = np.max(np.abs(fd - grad)) / max(np.max(np.abs(grad)), 1.0)
            worst = max(worst, rel)
    checks["grad_fd"] = bool(worst < 1e-5)

    # path derivative versus finite differences and the unit-circle identity
    x, xhat, z = (np.tile(v, (3, 1)) for v in ([1.0, -2.0], [0.5, 0.5], [0.2, -0.1]))
    worst_path = 0.0
    for r in np.linspace(0.01, 0.99, 9):
        # rows at r + 1e-6, r - 1e-6 and r
        pos, vel = _path_rows(x, xhat, z, r + np.array([1e-6, -1e-6, 0.0]))
        fd_vel = (pos[0] - pos[1]) / 2e-6
        worst_path = max(worst_path, float(np.max(np.abs(fd_vel - vel[2]))))
        a, b = math.sin(math.pi * r / 2), math.cos(math.pi * r / 2)
        assert a * a + b * b == pytest.approx(1.0, abs=1e-12)
    checks["path_fd"] = worst_path < 1e-4

    # ledger accounting is exact on a short first-order run
    pot = potential_from_config("gaussian", {"mean": [0.0], "precision": 1.0})
    case = AssumptionCase("LSI", constant=1.0, warm_start_delta=1.0)
    sched = plan_first_order(pot, NoiseModel.exact(), case, 0.2,
                             DEFAULT_CONSTANTS)
    sched = replace(sched, n_steps=3)
    mu0 = gaussian_initializer(np.array([1.0]), 1.0)

    def run_once():
        oracle = GradientOracle(pot, NoiseModel.exact(), make_rng(9, 0))
        return run_proximal_sampler(pot, oracle, sched, mu0, 64,
                                    make_rng(9, 1))

    xs1, led1 = run_once()
    checks["ledger_exact"] = (
        led1.grad_queries == sched.n_batch * (led1.prox_iters + led1.w_draws)
        and led1.outer_steps == 3 and led1.rgo_calls == 3 * 64)

    # bit-exact reproducibility under fixed seeds
    xs2, led2 = run_once()
    checks["reproducible"] = (np.array_equal(xs1, xs2)
                              and led1.as_dict() == led2.as_dict())

    elapsed = time.perf_counter() - start
    ok = all(checks.values()) and elapsed < 60
    detail = (f"grad FD rel {worst:.1e} < 1e-5, path FD {worst_path:.1e}, "
              f"unit-circle exact, ledger decomposition exact, bit-exact "
              f"reruns {checks}, {elapsed:.1f}s")
    assert _verdict(9, ok, detail)
