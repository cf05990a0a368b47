"""Tests for the approximate proximal oracle.

For a quadratic f(x) = (x - theta)^2 / 2 the relaxed iteration, whose step
weight is 2 / (2 + eta), has the exact proximal point
(x0 + eta theta) / (1 + eta) as its fixed point and contracts linearly with
factor eta / (2 + eta), so both the limit and the per-iteration ratio can be
asserted to float precision.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forsample.core import (AssumptionCase, Potential, make_aniso_gaussian_potential,
                            make_gaussian_potential, potential_from_config)
from forsample.errors import DimensionError, InfeasibleScheduleError, NumericError
from forsample.oracles import GradientOracle, NoiseModel, eps_tail, make_rng
from forsample.prox import (
    ProxConfig,
    approx_prox_rows,
    approx_prox_rows_budgeted,
    default_k_iters,
    prox_residual,
    prox_residual_bound,
    relaxation,
)
from forsample.sampler import plan_first_order

_THETA = 1.0
_ETA = 0.5
_FIXED_POINT = _ETA * _THETA / (1.0 + _ETA)  # x0 = 0


def _quad():
    return make_gaussian_potential([_THETA])


def _exact_oracle(pot, *path):
    return GradientOracle(pot, NoiseModel.exact(), make_rng(81, *path))


def _cfg(k_iters=20, n_batch=1):
    return ProxConfig(eta=_ETA, n_batch=n_batch, k_iters=k_iters)


def test_exact_quadratic_converges_to_prox_point():
    pot = _quad()
    xhat = approx_prox_rows(pot, _exact_oracle(pot), [[0.0]], _cfg(20))
    assert abs(float(xhat[0, 0]) - _FIXED_POINT) < 1e-10
    assert prox_residual(pot, xhat, [[0.0]], _ETA)[0] < 1e-10


def test_exact_contraction_ratio():
    # X_{k+1} = X_k - w (X_k + eta (X_k - theta) - x0), w = 2 / (2 + eta),
    # contracts with factor |1 - w (1 + eta)| = eta / (2 + eta) = 0.2 exactly
    # for the quadratic.  The error after k steps is 0.2^k / 3, and each
    # iterate rounds at about eps |x*|: 1e-12 of the error at k = 5.
    pot = _quad()
    assert relaxation(pot, _ETA) == (0.8, 0.2)
    errors = []
    for k in range(1, 6):
        xhat = approx_prox_rows(pot, _exact_oracle(pot), [[0.0]], _cfg(k))[0]
        errors.append(abs(float(xhat[0]) - _FIXED_POINT))
    ratios = [errors[i + 1] / errors[i] for i in range(len(errors) - 1)]
    assert all(r == pytest.approx(0.2, rel=1e-11) for r in ratios)


def test_relaxation_is_the_damped_map_below_s_1():
    # eta L = eta beta for s = 1; for s < 1 eta L = 2, the damped map
    # (X - eta g + x0) / 2 and its factor 1/2, whatever eta is
    assert relaxation(make_aniso_gaussian_potential([0, 0], [1, 100]), 0.05) == (
        2 / 7, 5 / 7)
    for name, params in (("huber", {"threshold": 0.5, "dim": 1}),
                         ("power", {"p": 1.5, "dim": 1})):
        pot = potential_from_config(name, params)
        assert relaxation(pot, 0.01) == relaxation(pot, 0.3) == (0.5, 0.5)


def test_stiff_quadratic_converges_at_the_step_cap():
    # precisions 1 and 100 at eta = 1/(2 m_s) = 0.05: eta beta = 5, past
    # which the damped map (X - eta g + x0) / 2 grows coordinate 2 by
    # (eta beta - 1) / 2 = 2 a step (-26.5 after 5 steps, 9.2e11 after 40);
    # the relaxed map contracts by 5/7 and reaches the prox point 1/6
    pot = make_aniso_gaussian_potential([0.0, 0.0], [1.0, 100.0])
    cfg = ProxConfig(eta=1.0 / (2.0 * pot.m_s), n_batch=1, k_iters=40)
    xhat = approx_prox_rows(pot, _exact_oracle(pot), [[1.0, 1.0]], cfg)[0]
    assert xhat == pytest.approx([1 / 1.05, 1 / 6], abs=1e-5)


def test_flat_potential_keeps_x0():
    pot = Potential(dim=2, value_rows=lambda xs: np.zeros(len(xs)),
                    grad_rows=np.zeros_like, holder_s=1.0, holder_beta=1.0,
                    name="flat")
    xhat = approx_prox_rows(pot, _exact_oracle(pot), [[0.4, -0.6]], _cfg(10))[0]
    assert np.array_equal(xhat, [0.4, -0.6])


def test_residual_helper_values():
    pot = _quad()
    # at the analytic prox point the residual vanishes
    assert prox_residual(pot, [[_FIXED_POINT]], [[0.0]], _ETA)[0] < 1e-12
    # at xhat = x0 it is eta * |grad f(x0)|
    assert prox_residual(pot, [[0.0]], [[0.0]], _ETA)[0] == pytest.approx(_ETA * _THETA)
    # hand value: |0.7 + 0.5 * (0.7 - 1) - (-0.3)| = 0.85
    assert prox_residual(pot, [[0.7]], [[-0.3]], 0.5)[0] == pytest.approx(0.85)
    assert prox_residual_bound(0.5, 1.0, 2.0) == pytest.approx(15.0)


def test_step_condition_enforced():
    pot = _quad()  # m_s = 1, so eta must stay at or below 0.5
    bad = ProxConfig(eta=0.6, n_batch=1, k_iters=5)
    with pytest.raises(InfeasibleScheduleError, match=r"1/\(2 m_s\)"):
        approx_prox_rows(pot, _exact_oracle(pot), [[0.0]], bad)


def test_noisy_runs_meet_residual_guarantee():
    pot = _quad()
    noise = NoiseModel.subgaussian(0.2)
    cfg = ProxConfig(eta=_ETA, n_batch=4, k_iters=25)
    oracle = GradientOracle(pot, noise, make_rng(82))
    x0_rows = np.zeros((1000, 1))
    xhat = approx_prox_rows(pot, oracle, x0_rows, cfg)
    resid = np.abs(xhat[:, 0] + cfg.eta * (xhat[:, 0] - _THETA))
    bound = prox_residual_bound(cfg.eta, pot.m_s, 1.0)
    assert resid.mean() > 0.0
    assert np.all(resid <= bound)


def test_query_accounting():
    pot = _quad()
    oracle = GradientOracle(pot, NoiseModel.subgaussian(0.2), make_rng(83))
    approx_prox_rows(pot, oracle, [[0.0]], _cfg(k_iters=7, n_batch=3))
    assert oracle.ledger.grad_queries == 21
    approx_prox_rows(pot, oracle, np.zeros((5, 1)),
                     _cfg(k_iters=7, n_batch=3))
    assert oracle.ledger.grad_queries == 21 + 5 * 21


def test_zero_rows_make_no_queries():
    pot = _quad()
    oracle = GradientOracle(pot, NoiseModel.subweibull(1.0, 0.2), make_rng(83))
    out = approx_prox_rows(pot, oracle, np.zeros((0, 1)), _cfg(k_iters=7))
    assert out.shape == (0, 1)
    assert oracle.ledger.grad_queries == 0


def test_default_k_iters():
    # at rho = 1/2: ceil(log2(4 * 10 / (1 + 1))) + 1 = ceil(log2 20) + 1 = 6
    assert default_k_iters(10.0, 1.0, 1.0, 0.5) == 6
    assert type(default_k_iters(10.0, 1.0, 1.0, 0.5)) is int  # as Schedule.k_iters
    assert default_k_iters(0.1, 1.0, 1.0, 0.5) == 1  # clamped from below
    # a start at a stationary point is the proximal point: one iteration
    assert default_k_iters(0.0, 1.0, 1.0, 0.5) == 1
    # the ceiling is exact at rho = 1/2: a ratio 4G / (M + m_s) of 8 takes
    # log2 8 + 1 = 4, the next float above it 5 (math.log2 rounds that one
    # down to 3.0); and at rho = 1/4, where rho^k ratio is exact too
    assert default_k_iters(4.0, 1.0, 1.0, 0.5) == 4
    assert default_k_iters(float(np.nextafter(4.0, 5.0)), 1.0, 1.0, 0.5) == 5
    assert default_k_iters(4.0, 1.0, 1.0, 0.25) == 2
    assert default_k_iters(float(np.nextafter(4.0, 5.0)), 1.0, 1.0, 0.25) == 3
    # the smallest k with rho^k 8G / (M + m_s) <= 1: 0.2^2 * 40 = 1.6 > 1
    assert default_k_iters(10.0, 1.0, 1.0, 0.2) == 3
    # per-row bounds give an int array, each entry the scalar call's
    g = np.array([0.0, 0.1, 4.0, 10.0, 1e3])
    for rho in (0.5, 0.2, 0.01, 0.9):
        ks = default_k_iters(g, 1.0, 1.0, rho)
        assert ks.dtype.kind == "i"
        assert ks.tolist() == [default_k_iters(float(v), 1.0, 1.0, rho) for v in g]
        ratio = 8 * g / 2
        assert np.all(rho ** ks * ratio <= 1)
        assert np.all((ks == 1) | (rho ** (ks - 1) * ratio > 1))
    for bad in (-1.0, math.nan, math.inf, 1e308):  # 1e308: the ratio overflows
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            default_k_iters(bad, 1.0, 1.0, 0.5)
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            default_k_iters(np.array([1.0, bad]), 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        default_k_iters(10.0, -1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        default_k_iters(10.0, 1.0, 0.0, 0.5)
    for bad_rho in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(ValueError):
            default_k_iters(10.0, 1.0, 1.0, bad_rho)


# one of each noise family, all one-dimensional
_STREAM_NOISE = {
    "exact": NoiseModel.exact(),
    "subgaussian": NoiseModel.subgaussian(0.4),
    "subweibull": NoiseModel.subweibull(zeta=1.0, sigma_g=0.2),
    "polymoment": NoiseModel.polymoment(k=1, sigma_2k=0.15),
    "twopoint": NoiseModel("twopoint", p=0.3, m_shift=1.2),
}


@pytest.mark.parametrize("label", sorted(_STREAM_NOISE))
def test_start_continues_a_run(label):
    # one noise draw per iteration: 2 iterations, then 5 more from there,
    # are the 7 iterations of one call, on one stream
    pot = _quad()
    x0 = make_rng(92, 1).standard_normal((50, 1))
    runs = []
    for split in (False, True):
        oracle = GradientOracle(pot, _STREAM_NOISE[label], make_rng(92, 2))
        if split:
            x = approx_prox_rows(pot, oracle, x0, _cfg(k_iters=2, n_batch=3))
            x = approx_prox_rows(pot, oracle, x0, _cfg(k_iters=5, n_batch=3), start=x)
        else:
            x = approx_prox_rows(pot, oracle, x0, _cfg(k_iters=7, n_batch=3))
        runs.append((x, oracle.ledger.as_dict()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]
    with pytest.raises(DimensionError, match="start of shape"):
        approx_prox_rows(pot, oracle, x0, _cfg(3), start=x0[:5])


@pytest.mark.parametrize("dim", [1, 2])
def test_budgeted_rows_run_their_own_k(dim):
    # with an exact oracle the rows do not interact: row i of the stage is
    # a run of k_i iterations on that row alone, k_i is the planned k at
    # G = ||grad f(y_i)|| (up to the rounding slack), under the cap, and a
    # row at the minimum runs one iteration and stays there.  The starts
    # span five decades, so the rows fall on several levels.
    pot = make_aniso_gaussian_potential([0.5] * dim, [1.0, 4.0][:dim])
    cap = 6
    cfg = ProxConfig(eta=0.25, n_batch=1, k_iters=cap)
    rng = make_rng(93, dim)
    y = rng.standard_normal((300, dim)) * 10.0 ** rng.uniform(-2, 3, (300, 1))
    y[7] = 0.5
    oracle = _exact_oracle(pot, 93, dim)
    x, ks = approx_prox_rows_budgeted(pot, oracle, y, cfg, 0.0)
    assert x.shape == y.shape and ks.shape == (300,)
    assert oracle.ledger.grad_queries == ks.sum()
    grads = np.linalg.norm(pot.grad_at_rows(y), axis=1)
    _, rho = relaxation(pot, cfg.eta)
    assert np.all(ks >= np.minimum(default_k_iters(grads, 0.0, pot.m_s, rho), cap))
    assert np.all(ks <= np.minimum(
        default_k_iters(grads * (1 + 1e-9), 0.0, pot.m_s, rho), cap))
    assert len(set(ks.tolist())) >= 3  # several levels, so several calls
    assert ks[7] == 1 and np.array_equal(x[7], y[7])
    for i in range(0, 300, 7):
        alone = approx_prox_rows(pot, _exact_oracle(pot, 0), y[i:i + 1],
                                 ProxConfig(cfg.eta, 1, int(ks[i])))
        assert np.array_equal(x[i:i + 1], alone)


def test_budgeted_rows_on_one_level_keep_their_order():
    # rows whose gradients share one norm share one k_i > 1: they go on in
    # one call, in their order, and end as one run of k_i iterations does
    pot = _quad()
    y = np.array([[4.0], [-2.0], [4.0]])  # |grad f| = 3 on every row
    x, ks = approx_prox_rows_budgeted(pot, _exact_oracle(pot, 94), y, _cfg(20), 0.0)
    assert ks.tolist() == [2, 2, 2]  # rho = 0.2: 0.2 * 24 > 1 >= 0.2^2 * 24
    assert np.array_equal(x, approx_prox_rows(pot, _exact_oracle(pot, 95), y, _cfg(2)))


def test_budgeted_rows_at_a_cap_of_one_skip_the_sizing():
    pot = _quad()
    y = make_rng(96).standard_normal((40, 1))
    x, ks = approx_prox_rows_budgeted(pot, _exact_oracle(pot, 96), y, _cfg(1), 0.0)
    assert ks.dtype.kind == "i" and ks.tolist() == [1] * 40
    assert np.array_equal(x, approx_prox_rows(pot, _exact_oracle(pot, 97), y, _cfg(1)))


# every catalog potential, with a case it admits: C_LSI = 1 / smallest
# precision for the Gaussians; for huber and power, which have no LSI, PI
# constants above their laws' variances 8.08 and 1.27 (C_PI >= Var)
_CERT_POTENTIALS = {
    "gaussian": (("gaussian", {"mean": [0.0], "precision": 1.0}), "LSI", 1.0),
    "gaussian_precision_4": (("gaussian", {"mean": [0.0], "precision": 4.0}),
                             "LSI", 0.25),
    "aniso_gaussian": (("aniso_gaussian", {"mean": [0.0, 0.0],
                                           "precisions": [1.0, 4.0]}), "LSI", 1.0),
    "huber": (("huber", {"threshold": 0.5, "dim": 1}), "PI", 16.0),  # s = 0
    "power": (("power", {"p": 1.5, "dim": 1}), "PI", 4.0),  # s = 0.5
}
_CERT_NOISE = {
    "exact": NoiseModel.exact(),
    "subgaussian": NoiseModel.subgaussian(0.5),
    "subweibull": NoiseModel.subweibull(zeta=1.0, sigma_g=0.2),
    "polymoment": NoiseModel.polymoment(k=1, sigma_2k=0.15),
}


@pytest.mark.parametrize("noise", sorted(_CERT_NOISE))
@pytest.mark.parametrize("potential", sorted(_CERT_POTENTIALS))
def test_planned_k_meets_the_residual_certificate(potential, noise):
    # k is sized by a contraction that is proved for s = 1 only, so every
    # catalog potential's planned schedule must meet the residual bound at
    # the allowed failure rate, eps_tail + 3 SE, from starts y ~ N(0, 9)
    _check_certificate(potential, noise, budgeted=False)


@pytest.mark.parametrize("noise", sorted(_CERT_NOISE))
@pytest.mark.parametrize("potential", sorted(_CERT_POTENTIALS))
def test_per_row_budget_meets_the_residual_certificate(potential, noise):
    # the sampler's per-row budget, k_i from the row's first query capped at
    # the planned k, must meet the same bound at the same rate
    _check_certificate(potential, noise, budgeted=True)


def _check_certificate(potential, noise, budgeted):
    (name, params), tag, constant = _CERT_POTENTIALS[potential]
    pot = potential_from_config(name, params)
    model = _CERT_NOISE[noise]
    case = AssumptionCase(tag, constant=constant, warm_start_delta=1.0)
    sched = plan_first_order(pot, model, case, 0.05)
    # 2e4 rows, or as many as 3e7 noise draws allow (at least 100) for the
    # polymoment plans, whose batches run to 1.5e5
    per_row = sched.n_batch * sched.k_iters * pot.dim
    rows = min(20_000, max(100, 3 * 10 ** 7 // per_row))
    y = 3.0 * make_rng(91, 1).standard_normal((rows, pot.dim))
    oracle = GradientOracle(pot, model, make_rng(91, 2))
    cfg = ProxConfig(eta=sched.eta, n_batch=sched.n_batch, k_iters=sched.k_iters)
    if budgeted:
        x, ks = approx_prox_rows_budgeted(pot, oracle, y, cfg, sched.m_trunc)
        assert oracle.ledger.grad_queries == sched.n_batch * ks.sum()
        assert 1 <= ks.min() and ks.max() <= sched.k_iters
    else:
        x = approx_prox_rows(pot, oracle, y, cfg)
    residuals = np.linalg.norm(x + sched.eta * pot.grad_at_rows(x) - y, axis=1)
    bound = prox_residual_bound(sched.eta, pot.m_s, sched.m_trunc)
    eps = eps_tail(model, sched.n_batch, sched.m_trunc)
    se = math.sqrt(max(eps * (1 - eps), 1.0 / rows) / rows)
    assert (residuals > bound).mean() <= eps + 3 * se


# precisions 1 and 100: at the step cap eta = 1/(2 m_s), eta beta = 5
_STIFF = make_aniso_gaussian_potential([0.0, 0.0], [1.0, 100.0])


@pytest.mark.parametrize("noise", ["exact", "subgaussian"])
@pytest.mark.parametrize("potential", ["aniso_gaussian", "gaussian",
                                       "gaussian_precision_4", "stiff"])
def test_per_row_budget_meets_the_error_target(potential, noise):
    # the error the prox docstring proves for s = 1, per row:
    # |x - prox(y)| <= eta (M + m_s) / 8 + eta M, failing at most at the rate
    # eps_tail + 3 SE, from starts y ~ N(0, 9).  The residual certificate can
    # hold with no iteration at all (at criterion 6's exact plan
    # eta |y| <= 1.45 meets it), so only this bound sees a stage that stops
    # short.  The s = 1 catalog potentials run their planned schedules; the
    # stiff one runs at the step cap, with a cap on k that does not bind:
    # there the damped map (X - eta g + x0) / 2 diverges.
    model = _CERT_NOISE[noise]
    stiff = potential == "stiff"
    if stiff:
        pot, case = _STIFF, AssumptionCase("LSI", constant=1.0, warm_start_delta=1.0)
    else:
        (name, params), tag, constant = _CERT_POTENTIALS[potential]
        pot = potential_from_config(name, params)
        case = AssumptionCase(tag, constant=constant, warm_start_delta=1.0)
    sched = plan_first_order(pot, model, case, 0.05)
    cfg = ProxConfig(eta=1.0 / (2.0 * pot.m_s) if stiff else sched.eta,
                     n_batch=sched.n_batch, k_iters=60 if stiff else sched.k_iters)
    rows = 20_000
    y = 3.0 * make_rng(98, 1).standard_normal((rows, pot.dim))
    oracle = GradientOracle(pot, model, make_rng(98, 2))
    x, ks = approx_prox_rows_budgeted(pot, oracle, y, cfg, sched.m_trunc)
    assert ks.max() < cfg.k_iters or not stiff
    errors = np.linalg.norm(x - _exact_prox(pot, y, cfg.eta), axis=1)
    m = sched.m_trunc
    bound = cfg.eta * (m + pot.m_s) / 8 + cfg.eta * m
    eps = eps_tail(model, cfg.n_batch, m)
    se = math.sqrt(max(eps * (1 - eps), 1.0 / rows) / rows)
    assert (errors > bound).mean() <= eps + 3 * se


def _exact_prox(pot, y, eta):
    """argmin f(x) + |x - y|^2 / (2 eta) for each row of y, coordinate by
    coordinate.

    Every catalog potential is a sum over coordinates, so each coordinate of
    the proximal point is the root of the increasing map
    h(x) = x + eta f'(x) - y, found by bisection from a bracket checked to
    hold, down to adjacent floats.
    """
    reach = 2.0 * (np.abs(y) + eta * np.abs(pot.grad_at_rows(y))) + 1.0
    lo, hi = y - reach, y + reach

    def h(x):
        return x + eta * pot.grad_at_rows(x) - y

    assert np.all(h(lo) < 0) and np.all(h(hi) > 0)
    for _ in range(2_000):
        mid = lo + (hi - lo) / 2
        if np.all((mid == lo) | (mid == hi)):
            break
        below = h(mid) < 0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return lo + (hi - lo) / 2


@settings(max_examples=200, deadline=None)
@given(potential=st.sampled_from(sorted(_CERT_POTENTIALS)),
       coords=st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=2),
       share=st.floats(1e-3, 1.0))
def test_prox_point_has_the_smaller_gradient(potential, coords, share):
    # the Moreau inequality |grad f(prox_eta(y))| <= |grad f(y)| for convex
    # f, on which the sampler's per-row prox budget rests; the tolerance is
    # the gradient's Hölder modulus over the bisection's rounding
    (name, params), _, _ = _CERT_POTENTIALS[potential]
    pot = potential_from_config(name, params)
    y = np.array(coords[:pot.dim])
    eta = share / (2.0 * pot.m_s)
    p = _exact_prox(pot, y[None], eta)[0]
    slack = 8 * np.finfo(float).eps * (1 + np.abs(y).sum() + np.abs(p).sum())
    tol = pot.holder_beta * slack ** pot.holder_s
    gp, gy = pot.grad_at_rows([p, y])
    assert np.linalg.norm(gp) <= np.linalg.norm(gy) + tol


def test_config_validation():
    with pytest.raises(ValueError):
        ProxConfig(eta=0.0, n_batch=1, k_iters=1)
    with pytest.raises(ValueError):
        ProxConfig(eta=0.5, n_batch=0, k_iters=1)
    with pytest.raises(ValueError):
        ProxConfig(eta=0.5, n_batch=1, k_iters=0)


def _zero_values(xs):
    return np.zeros(len(xs))


def _flat_overflow(xs):
    return np.full_like(xs, -1.7e308)


def _steep(xs):
    # each step multiplies x by about eta 1e100 = 5e99: from x0 = 1 the
    # iterates are finite up to step 3 (1.25e299) and overflow at step 4
    return -1e100 * xs


def _blowup(grad):
    # a declared beta of 1e-6 makes the step weight 2 / (2 + eta beta) about
    # 1, so each step moves x by the whole eta g (a constant gradient is
    # beta-Lipschitz for every beta)
    return Potential(dim=1, value_rows=_zero_values, grad_rows=grad,
                     holder_s=1.0, holder_beta=1e-6, name="blowup")


def test_non_finite_iterate_raises():
    # the gradient itself is finite, but x - eta * g overflows the float
    # range on the first step, which the iterate guard must catch
    pot = _blowup(_flat_overflow)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="at step 1$"):
        approx_prox_rows(pot, _exact_oracle(pot), [[9.5e307]], _cfg(3))


@pytest.mark.parametrize("grad,start,k_iters,step", [
    (_flat_overflow, 9.5e307, 1, 1),  # the last iterate: the check after the loop
    (_steep, 1.0, 6, 4),              # mid-loop: the oracle's row check finds it
    (_steep, 1.0, 4, 4),              # the same blow-up on the last iterate
])
def test_non_finite_iterate_names_the_step(grad, start, k_iters, step):
    pot = _blowup(grad)
    with np.errstate(over="ignore"), \
            pytest.raises(NumericError, match=f"at step {step}$"):
        approx_prox_rows(pot, _exact_oracle(pot), [[start]], _cfg(k_iters))


@pytest.mark.parametrize("rows", [3, 2048])
def test_ledger_counts_the_iterations_run_before_a_blow_up(rows):
    # the query at step 4 is refused: the ledger holds the 4 iterations whose
    # queries it counted, so grad_queries = n_batch * prox_iters still holds
    pot = _blowup(_steep)
    oracle = _exact_oracle(pot)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match="at step 4$"):
        approx_prox_rows(pot, oracle, np.ones((rows, 1)), _cfg(6, n_batch=2))
    assert oracle.ledger.prox_iters == 4 * rows
    assert oracle.ledger.grad_queries == 2 * oracle.ledger.prox_iters


def test_oracle_shape_error_is_not_a_blow_up():
    # an oracle built on a potential of another dimension rejects the finite
    # iterate by its shape; that error is passed on as it is
    pot = _quad()
    oracle = _exact_oracle(make_gaussian_potential([0.0, 0.0]))
    with pytest.raises(DimensionError, match="row dimension"):
        approx_prox_rows(pot, oracle, [[0.0]], _cfg(3))


# ---------------------------------------------------------------------------
# each prox iteration is one oracle query
# ---------------------------------------------------------------------------

def _reference_prox(oracle, x0_rows, cfg):
    # one oracle call, drawing its own noise, per iteration, and one count of
    # its rows in the ledger's prox_iters; the potential's beta is 1
    x0_rows = np.asarray(x0_rows, dtype=float)
    x = x0_rows.copy()
    weight = 2.0 / (2.0 + cfg.eta)
    for _ in range(cfg.k_iters):
        g = oracle.draw_batch_rows(x, cfg.n_batch)
        oracle.ledger.prox_iters += x.shape[0]
        x = x - weight * (cfg.eta * g + x - x0_rows)
    return x


@pytest.mark.parametrize("label", sorted(_STREAM_NOISE))
@pytest.mark.parametrize("rows,n_batch", [(3, 2), (100, 10), (300, 30)])
@pytest.mark.parametrize("shared", [False, True])
def test_prox_rows_equal_per_iteration_loop(label, rows, n_batch, shared):
    # every noise family is drawn one iteration at a time, so the stage gives
    # the numbers of the reference loop, also where the oracle shares the
    # caller's generator
    pot = _quad()
    noise = _STREAM_NOISE[label]
    cfg = ProxConfig(eta=_ETA, n_batch=n_batch, k_iters=25)
    x0 = make_rng(85, rows).standard_normal((rows, 1))
    outs = []
    for reference in (False, True):
        rng = make_rng(86, rows, n_batch)
        oracle = GradientOracle(pot, noise, rng if shared else make_rng(87))
        if reference:
            x = _reference_prox(oracle, x0, cfg)
        else:
            x = approx_prox_rows(pot, oracle, x0, cfg)
        outs.append((x, oracle.ledger.as_dict(), rng.random(3),
                     oracle.rng.bit_generator.state))
    (x_s, led_s, after_s, state_s), (x_r, led_r, after_r, state_r) = outs
    assert np.array_equal(x_s, x_r)
    assert led_s == led_r
    assert led_s["grad_queries"] == rows * n_batch * cfg.k_iters
    assert np.array_equal(after_s, after_r)
    assert state_s == state_r
