"""Tests for the approximate proximal oracle.

For a quadratic f(x) = (x - theta)^2 / 2 the linearized iteration has the
exact proximal point (x0 + eta theta) / (1 + eta) as its fixed point and
contracts linearly with factor (1 - eta) / 2, so both the limit and the
per-iteration ratio can be asserted to float precision.
"""

import math

import numpy as np
import pytest

from forsample.core import Potential, make_gaussian_potential
from forsample.errors import DimensionError, InfeasibleScheduleError, NumericError
from forsample.oracles import GradientOracle, NoiseModel, QueryLedger, make_rng
from forsample.prox import (
    ProxConfig,
    approx_prox,
    approx_prox_rows,
    default_k_iters,
    prox_residual,
    prox_residual_bound,
)

_THETA = 1.0
_ETA = 0.5
_FIXED_POINT = _ETA * _THETA / (1.0 + _ETA)  # x0 = 0


def _quad():
    return make_gaussian_potential([_THETA])


def _exact_oracle(pot, *path):
    return GradientOracle(pot, NoiseModel.exact(), make_rng(81, *path))


def _cfg(k_iters=20, n_batch=1):
    return ProxConfig(eta=_ETA, m_trunc=0.0, n_batch=n_batch, g_bound=10.0,
                      k_iters=k_iters)


def test_exact_quadratic_converges_to_prox_point():
    pot = _quad()
    xhat = approx_prox(pot, _exact_oracle(pot), [0.0], _cfg(20), make_rng(0))
    assert abs(float(xhat[0]) - _FIXED_POINT) < 1e-10
    assert prox_residual(pot, xhat, [0.0], _ETA) < 1e-10


def test_exact_contraction_ratio():
    # X_{k+1} = (X_k - eta (X_k - theta) + x0)/2 contracts with factor
    # (1 - eta)/2 = 0.25 exactly for the quadratic.
    pot = _quad()
    errors = []
    for k in range(1, 9):
        xhat = approx_prox(pot, _exact_oracle(pot), [0.0], _cfg(k), make_rng(0))
        errors.append(abs(float(xhat[0]) - _FIXED_POINT))
    ratios = [errors[i + 1] / errors[i] for i in range(len(errors) - 1)]
    assert all(r == pytest.approx(0.25, rel=1e-12) for r in ratios)


def test_flat_potential_keeps_x0():
    pot = Potential(dim=2, value=lambda x: 0.0, grad=lambda x: np.zeros(2),
                    holder_s=1.0, holder_beta=1.0, name="flat")
    xhat = approx_prox(pot, _exact_oracle(pot), [0.4, -0.6], _cfg(10), make_rng(0))
    assert np.array_equal(xhat, [0.4, -0.6])


def test_residual_helper_values():
    pot = _quad()
    # at the analytic prox point the residual vanishes
    assert prox_residual(pot, [_FIXED_POINT], [0.0], _ETA) < 1e-12
    # at xhat = x0 it is eta * |grad f(x0)|
    assert prox_residual(pot, [0.0], [0.0], _ETA) == pytest.approx(_ETA * _THETA)
    # hand value: |0.7 + 0.5 * (0.7 - 1) - (-0.3)| = 0.85
    assert prox_residual(pot, [0.7], [-0.3], 0.5) == pytest.approx(0.85)
    assert prox_residual_bound(0.5, 1.0, 2.0) == pytest.approx(15.0)


def test_step_condition_enforced():
    pot = _quad()  # m_s = 1, so eta must stay at or below 0.5
    bad = ProxConfig(eta=0.6, m_trunc=0.0, n_batch=1, g_bound=10.0, k_iters=5)
    with pytest.raises(InfeasibleScheduleError, match=r"1/\(2 m_s\)"):
        approx_prox(pot, _exact_oracle(pot), [0.0], bad, make_rng(0))
    with pytest.raises(InfeasibleScheduleError):
        approx_prox_rows(pot, _exact_oracle(pot), [[0.0]], bad, make_rng(0))


def test_noisy_runs_meet_residual_guarantee():
    pot = _quad()
    noise = NoiseModel.subgaussian(0.2)
    cfg = ProxConfig(eta=_ETA, m_trunc=1.0, n_batch=4, g_bound=10.0, k_iters=25)
    oracle = GradientOracle(pot, noise, make_rng(82))
    x0_rows = np.zeros((1000, 1))
    xhat = approx_prox_rows(pot, oracle, x0_rows, cfg, make_rng(0))
    resid = np.abs(xhat[:, 0] + cfg.eta * (xhat[:, 0] - _THETA))
    bound = prox_residual_bound(cfg.eta, pot.m_s, cfg.m_trunc)
    assert resid.mean() > 0.0
    assert np.all(resid <= bound)


def test_query_accounting():
    pot = _quad()
    ledger = QueryLedger()
    oracle = GradientOracle(pot, NoiseModel.subgaussian(0.2), make_rng(83),
                            ledger=ledger)
    approx_prox(pot, oracle, [0.0], _cfg(k_iters=7, n_batch=3), make_rng(0))
    assert ledger.grad_queries == 21
    approx_prox_rows(pot, oracle, np.zeros((5, 1)),
                     _cfg(k_iters=7, n_batch=3), make_rng(0))
    assert ledger.grad_queries == 21 + 5 * 21


def test_rows_engine_matches_scalar_bit_exact():
    pot = _quad()
    noise = NoiseModel.subgaussian(0.3)
    cfg = _cfg(k_iters=12, n_batch=2)
    scalar = approx_prox(pot, GradientOracle(pot, noise, make_rng(84)),
                         [0.0], cfg, make_rng(0))
    rows = approx_prox_rows(pot, GradientOracle(pot, noise, make_rng(84)),
                            [[0.0]], cfg, make_rng(0))
    assert np.array_equal(rows[0], scalar)


def test_default_k_iters():
    # ceil(10 log(4 * 10 / (1 + 1))) + 1 = ceil(10 log 20) + 1 = 31
    assert default_k_iters(10.0, 1.0, 1.0) == 31
    assert default_k_iters(0.1, 1.0, 1.0) == 1  # clamped from below
    with pytest.raises(ValueError):
        default_k_iters(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        default_k_iters(10.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        default_k_iters(10.0, 1.0, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        ProxConfig(eta=0.0, m_trunc=0.0, n_batch=1, g_bound=1.0, k_iters=1)
    with pytest.raises(ValueError):
        ProxConfig(eta=0.5, m_trunc=-0.1, n_batch=1, g_bound=1.0, k_iters=1)
    with pytest.raises(ValueError):
        ProxConfig(eta=0.5, m_trunc=0.0, n_batch=0, g_bound=1.0, k_iters=1)
    with pytest.raises(ValueError):
        ProxConfig(eta=0.5, m_trunc=0.0, n_batch=1, g_bound=1.0, k_iters=0)
    with pytest.raises(ValueError):
        ProxConfig(eta=0.5, m_trunc=0.0, n_batch=1, g_bound=0.0, k_iters=1)


def test_non_finite_iterate_raises():
    # the gradient itself is finite, but x - eta * g overflows the float
    # range on the first step, which the iterate guard must catch
    pot = Potential(dim=1, value=lambda x: 0.0,
                    grad=lambda x: np.array([-1.7e308]),
                    holder_s=1.0, holder_beta=1.0, name="blowup")
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="at step 1$"):
        approx_prox(pot, _exact_oracle(pot), [9.5e307], _cfg(3), make_rng(0))


def _flat_overflow(x):
    return np.array([-1.7e308])


def _steep(x):
    # each step multiplies x by about 2.5e99: from x0 = 1 the iterates are
    # finite up to step 3 and overflow at step 4
    return -1e100 * x


@pytest.mark.parametrize("grad,start,k_iters,step", [
    (_flat_overflow, 9.5e307, 1, 1),  # the last iterate: the check after the loop
    (_steep, 1.0, 6, 4),              # mid-loop: the oracle's row check finds it
    (_steep, 1.0, 4, 4),              # the same blow-up on the last iterate
])
def test_non_finite_iterate_names_the_step(grad, start, k_iters, step):
    pot = Potential(dim=1, value=lambda x: 0.0, grad=grad,
                    holder_s=1.0, holder_beta=1.0, name="blowup")
    with np.errstate(over="ignore"), \
            pytest.raises(NumericError, match=f"at step {step}$"):
        approx_prox(pot, _exact_oracle(pot), [start], _cfg(k_iters), make_rng(0))


def test_oracle_shape_error_is_not_a_blow_up():
    # an oracle built on a potential of another dimension rejects the finite
    # iterate by its shape; that error is passed on as it is
    pot = _quad()
    oracle = _exact_oracle(make_gaussian_potential([0.0, 0.0]))
    with pytest.raises(DimensionError, match="row dimension"):
        approx_prox(pot, oracle, [0.0], _cfg(3), make_rng(0))
