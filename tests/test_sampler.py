"""Tests for the schedule planners and the proximal sampler outer loop.

Planner outputs are checked against independent recomputations of the
closed-form iteration counts and step sizes for all three assumption cases,
and the loop itself is checked for the two properties that make it correct:
the target is a fixed point of one outer step (started at the target, the
chain must stay there), and accuracy improves monotonically with the number
of outer steps from a cold start.
"""

import hashlib
import itertools
import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from forsample.constants import DEFAULT_CONSTANTS, PlanConstants
from forsample.core import (AssumptionCase, make_gaussian_potential, make_power_potential,
                            potential_from_config)
from forsample.errors import (BudgetExhaustedError, DimensionError,
                              InfeasibleScheduleError, UnsupportedCombinationError)
from forsample import sampler
from forsample.oracles import (GradientOracle, NoiseModel, ValueOracle, eps_tail,
                               make_rng, phi)
from forsample.sampler import (
    _tail_budget,
    gaussian_initializer,
    gradient_norm_bound,
    plan_first_order,
    plan_zeroth_order,
    run_proximal_sampler,
)
from forsample.verify import empirical_tv_1d, ks_test

_POT = make_gaussian_potential([0.0])
_LSI = AssumptionCase("LSI", constant=1.0, warm_start_delta=1.0)
_DELTA = 0.05


def _log_a(pot, case, delta, scale):
    weight = case.w2_bound ** 2 if case.tag == "LC" else case.constant
    return math.log(pot.dim + case.warm_start_delta + 1.0 / delta + weight * scale)


def _expect_n_first(pot, case, m, delta, c_n):
    s, beta, d = pot.holder_s, pot.holder_beta, pot.dim
    ell = _log_a(pot, case, delta, pot.m_s ** 2 + m ** 2)
    if case.tag == "LSI":
        val = case.constant * (beta * math.sqrt(d) * ell ** 1.5
                               + (beta + m ** 2) * ell ** 2)
    else:
        bracket = ((beta ** 2 * d ** s * ell + beta ** 2 * ell ** 2) ** (1 / (1 + s))
                   + m ** 2 * ell)
        if case.tag == "PI":
            val = case.constant * bracket * (case.warm_start_delta + math.log(1 / delta))
        else:
            val = bracket * case.w2_bound ** 2 / delta ** 2
    return max(int(math.ceil(c_n * val)), 1)


def _expect_n_zeroth(pot, case, delta, c_n):
    s, beta, d = pot.holder_s, pot.holder_beta, pot.dim
    ell = _log_a(pot, case, delta, pot.m_s ** 2)
    factor = (beta * d ** s) ** (2 / (1 + s)) * (1 + (case.warm_start_delta + ell) / d)
    if case.tag == "LSI":
        val = case.constant * factor * ell ** 2
    elif case.tag == "PI":
        val = case.constant * factor * (case.warm_start_delta + math.log(1 / delta)) * ell
    else:
        val = factor * ell * case.w2_bound ** 2 / delta ** 2
    return max(int(math.ceil(c_n * val)), 1)


# ---------------------------------------------------------------------------
# planner closed forms
# ---------------------------------------------------------------------------

_CASES = (
    AssumptionCase("LSI", constant=1.0, warm_start_delta=1.0),
    AssumptionCase("PI", constant=2.0, warm_start_delta=1.0),
    AssumptionCase("LC", warm_start_delta=1.0, w2_bound=3.0),
)


@pytest.mark.parametrize("case", _CASES, ids=lambda c: c.tag)
@pytest.mark.parametrize("pot", [_POT, make_power_potential(p=1.5, dim=2)],
                         ids=["gaussian", "power"])
def test_first_order_iteration_count_matches_formula(case, pot):
    sched = plan_first_order(pot, NoiseModel.exact(), case, _DELTA)
    expect = _expect_n_first(pot, case, 0.0, _DELTA, DEFAULT_CONSTANTS.c_n)
    assert sched.n_steps == expect


@pytest.mark.parametrize("case", _CASES, ids=lambda c: c.tag)
@pytest.mark.parametrize("pot", [_POT, make_power_potential(p=1.5, dim=2)],
                         ids=["gaussian", "power"])
def test_zeroth_order_iteration_count_matches_formula(case, pot):
    sched = plan_zeroth_order(pot, NoiseModel.exact(), case, _DELTA)
    expect = _expect_n_zeroth(pot, case, _DELTA, DEFAULT_CONSTANTS.c_n)
    assert sched.n_steps == expect


def _expect_eta_first(pot, n_steps, m, delta, c_eta):
    s, beta, d = pot.holder_s, pot.holder_beta, pot.dim
    ell = math.log(max(n_steps, 2) / delta)
    rate = (beta ** 2 * d ** s * ell + beta ** 2 * ell ** 2) ** (1 / (1 + s)) + m ** 2 * ell
    return min(1 / (c_eta * rate), 1 / (2 * pot.m_s))


def _expect_eta_zeroth(pot, case, n_steps, delta, c_eta):
    s, beta, d = pot.holder_s, pot.holder_beta, pot.dim
    ell = math.log(max(n_steps, 2) / delta)
    rate = (beta * d ** s) ** (2 / (1 + s)) * (1 + (case.warm_start_delta + ell) / d)
    return 1 / (c_eta * rate * ell)


# the noisy arm plans at a truncation level M > 0 in first order
_STEP_NOISES = {"exact": NoiseModel.exact(), "noisy": NoiseModel.subgaussian(0.5)}


@pytest.mark.parametrize("noise", sorted(_STEP_NOISES))
@pytest.mark.parametrize("case", _CASES, ids=lambda c: c.tag)
@pytest.mark.parametrize("pot", [_POT, make_power_potential(p=1.5, dim=2)],
                         ids=["gaussian", "power"])
def test_first_order_step_size_matches_formula(case, pot, noise):
    sched = plan_first_order(pot, _STEP_NOISES[noise], case, _DELTA)
    assert (sched.m_trunc > 0) == (noise == "noisy")
    expect = _expect_eta_first(pot, sched.n_steps, sched.m_trunc, _DELTA,
                               DEFAULT_CONSTANTS.c_eta_first)
    assert sched.eta == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("noise", sorted(_STEP_NOISES))
@pytest.mark.parametrize("case", _CASES, ids=lambda c: c.tag)
@pytest.mark.parametrize("pot", [_POT, make_power_potential(p=1.5, dim=2)],
                         ids=["gaussian", "power"])
def test_zeroth_order_step_size_matches_formula(case, pot, noise):
    sched = plan_zeroth_order(pot, _STEP_NOISES[noise], case, _DELTA)
    expect = _expect_eta_zeroth(pot, case, sched.n_steps, _DELTA,
                                DEFAULT_CONSTANTS.c_eta_zeroth)
    assert sched.eta == pytest.approx(expect, rel=1e-12)


def test_exact_first_order_plan_frozen_values():
    sched = plan_first_order(_POT, NoiseModel.exact(), _LSI, _DELTA)
    assert sched.n_steps == 31
    assert sched.m_trunc == 0.0
    assert sched.n_batch == 1
    assert sched.b == 1.0
    assert sched.k_iters == 2
    assert sched.eta == pytest.approx(0.14468309118251618)
    assert sched.planned_queries == 169


def test_exact_zeroth_order_plan_frozen_values():
    sched = plan_zeroth_order(_POT, NoiseModel.exact(), _LSI, _DELTA)
    assert sched.n_steps == 101
    assert sched.m_trunc == pytest.approx(1.0)  # B/3 with B = 3
    assert sched.n_batch == 1
    assert sched.b == 3.0
    assert sched.k_iters == 0
    assert sched.eta == pytest.approx(0.013671140698334158)
    assert sched.planned_queries == 7711


def test_first_order_eta_formula():
    sched = plan_first_order(_POT, NoiseModel.exact(), _LSI, _DELTA)
    ell = math.log(max(sched.n_steps, 2) / _DELTA)
    base = (ell + ell ** 2) ** 0.5  # beta = d = 1, s = 1, M = 0
    assert sched.eta == pytest.approx(min(1.0 / base, 0.5), rel=1e-12)


def test_eta_respects_prox_contraction_cap():
    # a huge log-Sobolev constant keeps N small, so the raw eta formula can
    # exceed 1/(2 m_s) and the cap must bind instead
    pot = make_gaussian_potential([0.0], precision=0.01)  # m_s = 0.1
    case = AssumptionCase("LSI", constant=1.0, warm_start_delta=0.0)
    sched = plan_first_order(pot, NoiseModel.exact(), case, 0.5)
    assert sched.eta == pytest.approx(1.0 / (2.0 * pot.m_s))


def test_gradient_norm_bound_formula():
    g = gradient_norm_bound(_POT, 1.0, 31, _DELTA)
    expect = math.sqrt(64.0 * (1.0 + 1.0 + math.log(10 * 31 / _DELTA)))
    assert g == pytest.approx(expect, rel=1e-12)
    assert gradient_norm_bound(_POT, 5.0, 31, _DELTA) > g


def test_noisy_first_order_batch_size_is_minimal():
    noise = NoiseModel.subgaussian(0.5)
    sched = plan_first_order(_POT, noise, _LSI, _DELTA)
    budget = _DELTA / (10.0 * sched.n_steps)
    assert sched.n_batch == phi(noise, sched.m_trunc, budget)
    # phi meets a tenth of the step share it is given
    assert sched.n_batch > 1
    assert (eps_tail(noise, sched.n_batch, sched.m_trunc) <= budget / 10.0
            < eps_tail(noise, sched.n_batch - 1, sched.m_trunc))
    assert _tail_budget(sched.mode, sched.delta, sched.n_steps) == pytest.approx(budget)


def test_noisy_zeroth_order_batch_size_is_minimal():
    noise = NoiseModel.subgaussian(0.5)
    sched = plan_zeroth_order(_POT, noise, _LSI, _DELTA)
    budget = _DELTA / (4.0 * sched.n_steps)
    assert sched.n_batch == phi(noise, sched.b / 3.0, budget)
    assert sched.n_batch > 1
    assert (eps_tail(noise, sched.n_batch, sched.m_trunc) <= budget / 10.0
            < eps_tail(noise, sched.n_batch - 1, sched.m_trunc))
    assert _tail_budget(sched.mode, sched.delta, sched.n_steps) == pytest.approx(budget)


def test_zeroth_batch_grows_as_delta_shrinks():
    noise = NoiseModel.subgaussian(0.5)
    loose = plan_zeroth_order(_POT, noise, _LSI, 0.05)
    tight = plan_zeroth_order(_POT, noise, _LSI, 0.005)
    assert tight.n_batch > loose.n_batch
    assert tight.n_steps > loose.n_steps


def test_planned_query_formulas():
    first = plan_first_order(_POT, NoiseModel.subgaussian(0.5), _LSI, _DELTA)
    per_step = first.n_batch * (first.k_iters + 2 * (math.exp(first.b) - 1))
    assert first.planned_queries == int(math.ceil(first.n_steps * per_step))
    zeroth = plan_zeroth_order(_POT, NoiseModel.subgaussian(0.5), _LSI, _DELTA)
    per_step = zeroth.n_batch * 2 * (2 * (math.exp(zeroth.b) - 1))
    assert zeroth.planned_queries == int(math.ceil(zeroth.n_steps * per_step))


def test_infeasible_noise_raises():
    # polymoment batches up to a cap of 100 cannot meet the tail budget, and
    # each mode has a single level (zeroth order pins M = B/3), so planning
    # must fail loudly, the one refusal naming mode, family and delta
    noise = NoiseModel.polymoment(1, 0.15)
    for planner in (plan_first_order, plan_zeroth_order):
        with pytest.raises(InfeasibleScheduleError) as exc:
            planner(_POT, noise, _LSI, _DELTA, PlanConstants(m_grid_points=1, phi_cap=100))
        mode = planner.__name__.removeprefix("plan_")
        assert str(exc.value).startswith(
            f"no feasible {mode} plan for polymoment noise at delta=0.05: ")
        assert isinstance(exc.value.__cause__, UnsupportedCombinationError)


def test_zeroth_order_plans_subexponential_noise():
    # with a batch tail bound for subexponential noise, zeroth order, pinned
    # at M = B/3 = 1, meets the tail share
    noise = NoiseModel.subweibull(1.0, 0.2)
    sched = plan_zeroth_order(_POT, noise, _LSI, 0.2)
    assert (sched.m_trunc, sched.n_steps, sched.n_batch, sched.planned_queries) == (
        1.0, 36, 1, 2749)
    assert eps_tail(noise, sched.n_batch, sched.m_trunc) <= _tail_budget(
        sched.mode, sched.delta, sched.n_steps) / 10.0


def test_plan_delta_validation():
    with pytest.raises(ValueError):
        plan_first_order(_POT, NoiseModel.exact(), _LSI, 0.0)
    with pytest.raises(ValueError):
        plan_zeroth_order(_POT, NoiseModel.exact(), _LSI, 1.0)


# the plan grid: every catalog potential family, every noise family, every
# case, deltas down to 1e-5 and a second constant set whose short M grid and
# small phi cap make both modes refuse
_GRID_POTENTIALS = (
    ("gaussian", {"mean": [0.0]}),
    ("gaussian", {"mean": [1.0, 0.0, -1.0], "precision": 2.0}),
    ("aniso_gaussian", {"mean": [0.0, 0.0], "precisions": [1.0, 4.0]}),
    ("huber", {}),
    ("huber", {"threshold": 1.0, "dim": 2}),
    ("power", {}),
    ("power", {"p": 1.2, "dim": 3}),
)
_GRID_NOISES = (
    NoiseModel.exact(), NoiseModel.subgaussian(0.5), NoiseModel.subgaussian(2.0),
    NoiseModel.subweibull(1.0, 0.2), NoiseModel.subweibull(3.0, 0.5),
    NoiseModel.subweibull(2.0, 1.0), NoiseModel.polymoment(1, 0.15),
    NoiseModel.polymoment(3, 0.8), NoiseModel("twopoint", p=0.2, m_shift=1.5),
)
_GRID_CASES = _CASES + (AssumptionCase("LSI", constant=1.0, warm_start_delta=100.0),)
_GRID_DELTAS = (0.2, 0.05, 0.01, 1e-3, 1e-5)
_GRID_CONSTANTS = (
    DEFAULT_CONSTANTS,
    PlanConstants(c_n=1.0, b_first=2.0, b_zeroth=1.5, m_grid_ratio=1.5,
                  m_grid_points=8, phi_cap=10 ** 4),
)


def test_plan_grid_digest():
    # every plan's asdict, or the refusal's exception type, hashed in a fixed
    # order; a change that moves any plan or refusal on the grid moves the
    # digest
    digest = hashlib.sha256()
    plans = refusals = 0
    for planner in (plan_first_order, plan_zeroth_order):
        for name, params in _GRID_POTENTIALS:
            pot = potential_from_config(name, params)
            for noise, case, delta, constants in itertools.product(
                    _GRID_NOISES, _GRID_CASES, _GRID_DELTAS, _GRID_CONSTANTS):
                try:
                    sched = planner(pot, noise, case, delta, constants)
                except InfeasibleScheduleError as err:
                    out = type(err).__name__
                    refusals += 1
                else:
                    out = json.dumps(asdict(sched), sort_keys=True)
                    plans += 1
                digest.update(out.encode() + b"\n")
    assert (plans, refusals) == (4262, 778)
    assert digest.hexdigest() == (
        "eb45d7c06338645caf3ad18e489bb385a4121a0d45ff83d451720b68c2053619")


# polymoment k 1-200 and subweibull zeta 1e-3-100, zeta and sigma log-uniform,
# sigma in 1e-2-1e2
_HEAVY_TAILS = st.builds(
    lambda poly, k, zeta, sigma: (NoiseModel.polymoment(k, sigma) if poly
                                  else NoiseModel.subweibull(zeta, sigma)),
    st.booleans(), st.integers(1, 200), st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e),
    st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e))


@settings(max_examples=60, deadline=None)
@given(noise=_HEAVY_TAILS)
# plans whose M scan meets bound terms past the float range
@example(noise=NoiseModel.polymoment(25, 1.0))
@example(noise=NoiseModel.polymoment(30, 0.15))
@example(noise=NoiseModel.polymoment(85, 1.0))
@example(noise=NoiseModel.subweibull(60.0, 1.0))
# n^k M^(2k) past the floats at a batch size phi tries; the bound there is 0.47
@example(noise=NoiseModel.polymoment(70, 3.0))
# Gamma(1 + 1/zeta) past the floats (m1 is inf), and M^2 past them at a finite m1
@example(noise=NoiseModel.subweibull(0.005, 1.0))
@example(noise=NoiseModel.subweibull(0.008, 100.0))
def test_planners_plan_or_refuse_on_heavy_tails(noise):
    for planner in (plan_first_order, plan_zeroth_order):
        try:
            sched = planner(_POT, noise, _LSI, _DELTA)
        except InfeasibleScheduleError:
            continue
        assert 1 <= sched.n_batch <= DEFAULT_CONSTANTS.phi_cap
        target = _tail_budget(sched.mode, sched.delta, sched.n_steps) / 10.0
        assert eps_tail(noise, sched.n_batch, sched.m_trunc) <= target
        if noise.family == "polymoment":  # the bound taken in logs, independently
            k, n, m = noise.k, sched.n_batch, sched.m_trunc
            log_tail = (math.lgamma(2 * k + 1) + 2 * k * math.log(noise.sigma_2k)
                        - k * math.log(n) - 2 * k * math.log(m))
            assert log_tail <= math.log(target) + 1e-9


# ---------------------------------------------------------------------------
# schedule container
# ---------------------------------------------------------------------------

def test_schedule_validation():
    sched = plan_first_order(_POT, NoiseModel.exact(), _LSI, _DELTA)
    with pytest.raises(ValueError):
        replace(sched, mode="third_order")
    with pytest.raises(ValueError):
        replace(sched, eta=0.0)
    with pytest.raises(ValueError):
        replace(sched, delta=1.0)
    with pytest.raises(ValueError):
        replace(sched, n_batch=0)


def test_tail_budget_split_by_mode():
    first = plan_first_order(_POT, NoiseModel.exact(), _LSI, _DELTA)
    zeroth = plan_zeroth_order(_POT, NoiseModel.exact(), _LSI, _DELTA)
    assert (_tail_budget(first.mode, first.delta, first.n_steps)
            == pytest.approx(_DELTA / (10 * first.n_steps)))
    assert (_tail_budget(zeroth.mode, zeroth.delta, zeroth.n_steps)
            == pytest.approx(_DELTA / (4 * zeroth.n_steps)))


def test_gaussian_initializer():
    draw = gaussian_initializer([1.0, -2.0], 4.0)
    rows = draw(5_000, make_rng(96))
    assert rows.shape == (5_000, 2)
    assert np.allclose(rows.mean(axis=0), [1.0, -2.0], atol=0.15)
    assert np.allclose(rows.var(axis=0), 4.0, rtol=0.1)
    with pytest.raises(ValueError):
        gaussian_initializer([0.0], 0.0)


def test_gaussian_initializer_refuses_what_it_cannot_draw():
    # a (1, 2) mean drew (k, 2) rows whose columns were one draw, and a nan
    # mean or an infinite variance drew non-finite rows
    for mean in ([[0.0, 0.0]], [math.nan], [0.0, math.inf]):
        with pytest.raises(DimensionError):
            gaussian_initializer(mean)
    for variance in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="variance"):
            gaussian_initializer([0.0], variance)
    # a number is a 1-D mean, drawn as before
    rows = gaussian_initializer(1.5, 4.0)(5, make_rng(96))
    assert np.array_equal(rows, 1.5 + 2.0 * make_rng(96).standard_normal((5, 1)))


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------

def test_zero_steps_returns_initial_draw():
    sched = replace(plan_first_order(_POT, NoiseModel.exact(), _LSI, _DELTA),
                    n_steps=0)
    oracle = GradientOracle(_POT, NoiseModel.exact(), make_rng(97, 0))
    mu0 = gaussian_initializer([3.0], 1.0)
    x, ledger = run_proximal_sampler(_POT, oracle, sched, mu0, 100, make_rng(97, 1))
    assert np.array_equal(x, mu0(100, make_rng(97, 1)))
    assert ledger.outer_steps == 0 and ledger.grad_queries == 0


def test_first_order_step_fixes_the_target():
    # started at the target, one outer step must leave the law unchanged
    sched = replace(plan_first_order(_POT, NoiseModel.exact(), _LSI, _DELTA),
                    n_steps=1)
    oracle = GradientOracle(_POT, NoiseModel.exact(), make_rng(90, 0, 0))
    x, _ = run_proximal_sampler(_POT, oracle, sched, gaussian_initializer([0.0], 1.0),
                                10_000, make_rng(90, 0, 1))
    _, p = ks_test(x[:, 0], stats.norm.cdf)
    assert p > 0.01


def test_zeroth_order_step_fixes_the_target():
    sched = replace(plan_zeroth_order(_POT, NoiseModel.exact(), _LSI, _DELTA),
                    n_steps=1)
    oracle = ValueOracle(_POT, NoiseModel.exact(), make_rng(91, 0, 0))
    x, _ = run_proximal_sampler(_POT, oracle, sched, gaussian_initializer([0.0], 1.0),
                                10_000, make_rng(91, 0, 1))
    _, p = ks_test(x[:, 0], stats.norm.cdf)
    assert p > 0.01


def test_accuracy_improves_with_outer_steps():
    # cold start at N(3, 1); TV to the target must fall monotonically
    # (within noise) and substantially by eight steps
    sched_full = plan_first_order(_POT, NoiseModel.exact(), _LSI, _DELTA)
    tvs = []
    for n in (0, 1, 2, 4, 8):
        sched = replace(sched_full, n_steps=n)
        oracle = GradientOracle(_POT, NoiseModel.exact(), make_rng(92, n, 0))
        x, _ = run_proximal_sampler(_POT, oracle, sched,
                                    gaussian_initializer([3.0], 1.0),
                                    20_000, make_rng(92, n, 1))
        tvs.append(empirical_tv_1d(x[:, 0], _POT.reference).value)
    assert all(tvs[i + 1] <= tvs[i] + 0.02 for i in range(len(tvs) - 1))
    assert tvs[-1] < tvs[0] - 0.3
    assert tvs[0] == pytest.approx(2 * stats.norm.cdf(1.5) - 1, abs=0.02)


def test_first_order_ledger_decomposition():
    noise = NoiseModel.subgaussian(0.5)
    sched = replace(plan_first_order(_POT, noise, _LSI, _DELTA), n_steps=3)
    oracle = GradientOracle(_POT, noise, make_rng(94, 0))
    _, led = run_proximal_sampler(_POT, oracle, sched,
                                  gaussian_initializer([0.0], 1.0), 50,
                                  make_rng(94, 1))
    assert led.grad_queries == sched.n_batch * (led.prox_iters + led.w_draws)
    # every row runs at least the first prox iteration and at most the cap
    assert 50 * 3 <= led.prox_iters <= sched.k_iters * 50 * 3
    assert led.rgo_calls == 50 * 3
    assert led.outer_steps == 3
    assert led.value_queries == 0


def test_zeroth_order_ledger_decomposition():
    sched = replace(plan_zeroth_order(_POT, NoiseModel.exact(), _LSI, _DELTA),
                    n_steps=3)
    oracle = ValueOracle(_POT, NoiseModel.exact(), make_rng(95, 0))
    _, led = run_proximal_sampler(_POT, oracle, sched,
                                  gaussian_initializer([0.0], 1.0), 50,
                                  make_rng(95, 1))
    assert led.value_queries == 2 * sched.n_batch * led.w_draws
    assert led.grad_queries == 0 and led.prox_iters == 0
    assert led.rgo_calls == 50 * 3 and led.outer_steps == 3


def test_oracle_mode_mismatch_raises():
    first = plan_first_order(_POT, NoiseModel.exact(), _LSI, _DELTA)
    zeroth = plan_zeroth_order(_POT, NoiseModel.exact(), _LSI, _DELTA)
    g_oracle = GradientOracle(_POT, NoiseModel.exact(), make_rng(0))
    v_oracle = ValueOracle(_POT, NoiseModel.exact(), make_rng(0))
    mu0 = gaussian_initializer([0.0], 1.0)
    with pytest.raises(TypeError):
        run_proximal_sampler(_POT, v_oracle, first, mu0, 10, make_rng(1))
    with pytest.raises(TypeError):
        run_proximal_sampler(_POT, g_oracle, zeroth, mu0, 10, make_rng(1))


def test_budget_exhaustion_reports_step_and_chain():
    sched = replace(plan_first_order(_POT, NoiseModel.exact(), _LSI, _DELTA),
                    n_steps=2)
    oracle = GradientOracle(_POT, NoiseModel.exact(), make_rng(93, 0))
    with pytest.raises(BudgetExhaustedError) as exc:
        run_proximal_sampler(_POT, oracle, sched, gaussian_initializer([0.0], 1.0),
                             8, make_rng(93, 1), max_attempts=1)
    assert exc.value.step == 0
    assert exc.value.chain is not None


class _StuckAfterOneStep:
    """A tilt source whose W is +B, so every attempt accepts, except on
    chain 0 once it has taken a step, where W = -B accepts only when
    J ~ Poisson(2B) is 0: e^-30 at B = 15."""

    def __init__(self, source, chains, b):
        self.source = source
        self.propose_rows = source.propose_rows
        self.moves = np.zeros(chains, dtype=np.int64)
        self.b = b

    def recenter(self, slots, x0_rows, xhat_rows):
        self.moves[slots] += 1
        self.source.recenter(slots, x0_rows, xhat_rows)

    def draw_w_rows(self, slots, xs, rng):
        stuck = (slots == 0) & (self.moves[slots] > 1)
        return np.where(stuck, -self.b, self.b)


def test_budget_error_names_the_chain_and_its_own_step(monkeypatch):
    sched = replace(plan_first_order(_POT, NoiseModel.exact(), _LSI, _DELTA),
                    n_steps=3, b=15.0)
    real = sampler.tilt_source
    monkeypatch.setattr(sampler, "tilt_source",
                        lambda *args: _StuckAfterOneStep(real(*args), 8, sched.b))
    oracle = GradientOracle(_POT, NoiseModel.exact(), make_rng(93, 2))
    with pytest.raises(BudgetExhaustedError) as exc:
        run_proximal_sampler(_POT, oracle, sched, gaussian_initializer([0.0], 1.0),
                             8, make_rng(93, 3), max_attempts=50)
    assert (exc.value.chain, exc.value.step) == (0, 1)
    # chain 0 started two steps and the others all three; all finished one
    assert oracle.ledger.rgo_calls == 2 + 7 * 3
    assert oracle.ledger.outer_steps == 1


def test_chains_validation():
    sched = plan_first_order(_POT, NoiseModel.exact(), _LSI, _DELTA)
    oracle = GradientOracle(_POT, NoiseModel.exact(), make_rng(0))
    with pytest.raises(ValueError):
        run_proximal_sampler(_POT, oracle, sched, gaussian_initializer([0.0], 1.0),
                             0, make_rng(1))


def _package_calls_of_a_light_run() -> int:
    """The Python calls into forsample of one fixed few-chain run: 1-D
    Gaussian, subweibull (zeta = 1) noise, 200 steps of one prox iteration
    and one-draw batches, 4 chains."""
    import sys
    from pathlib import Path

    import forsample

    package = str(Path(forsample.__file__).parent)
    pot = make_gaussian_potential([0.0])
    sched = sampler.Schedule(mode="first_order", eta=0.05, n_steps=200, m_trunc=0.5,
                             n_batch=1, g_bound=10.0, k_iters=1, b=1.0, delta=0.05,
                             case=AssumptionCase("LSI", constant=1.0),
                             constants=DEFAULT_CONSTANTS, planned_queries=0)
    oracle = GradientOracle(pot, NoiseModel.subweibull(zeta=1.0, sigma_g=0.5), make_rng(7, 1))
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    sys.setprofile(profile)
    try:
        run_proximal_sampler(pot, oracle, sched, gaussian_initializer([1.0]), 4, make_rng(7, 2))
    finally:
        sys.setprofile(None)
    return calls


def test_calls_per_chain_step_of_a_light_run():
    # The run's streams are pinned, so its count of package calls is exact:
    # a layer added to the few-chain hot path moves it and must say so here.
    # A first run fills the process's table caches, which a later run reads.
    _package_calls_of_a_light_run()
    calls = _package_calls_of_a_light_run()
    # 24,364 calls (30.455 per chain-step) before the hot-path pass; 21,955
    # (27.444) while each of the run's 535 prox calls checked x0 itself
    assert (calls, calls / 800) == (21_420, 26.775)
