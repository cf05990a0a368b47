"""Tests for the approximate proximal oracle.

For a quadratic f(x) = (x - theta)^2 / 2 the linearized iteration has the
exact proximal point (x0 + eta theta) / (1 + eta) as its fixed point and
contracts linearly with factor (1 - eta) / 2, so both the limit and the
per-iteration ratio can be asserted to float precision.
"""

import math

import numpy as np
import pytest
from scipy import stats

from forsample import oracles
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
    return ProxConfig(eta=_ETA, n_batch=n_batch, k_iters=k_iters)


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
    pot = Potential(dim=2, value_rows=lambda xs: np.zeros(len(xs)),
                    grad_rows=np.zeros_like, holder_s=1.0, holder_beta=1.0,
                    name="flat")
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
    bad = ProxConfig(eta=0.6, n_batch=1, k_iters=5)
    with pytest.raises(InfeasibleScheduleError, match=r"1/\(2 m_s\)"):
        approx_prox(pot, _exact_oracle(pot), [0.0], bad, make_rng(0))
    with pytest.raises(InfeasibleScheduleError):
        approx_prox_rows(pot, _exact_oracle(pot), [[0.0]], bad, make_rng(0))


def test_noisy_runs_meet_residual_guarantee():
    pot = _quad()
    noise = NoiseModel.subgaussian(0.2)
    cfg = ProxConfig(eta=_ETA, n_batch=4, k_iters=25)
    oracle = GradientOracle(pot, noise, make_rng(82))
    x0_rows = np.zeros((1000, 1))
    xhat = approx_prox_rows(pot, oracle, x0_rows, cfg, make_rng(0))
    resid = np.abs(xhat[:, 0] + cfg.eta * (xhat[:, 0] - _THETA))
    bound = prox_residual_bound(cfg.eta, pot.m_s, 1.0)
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


def test_zero_rows_make_no_queries():
    pot = _quad()
    oracle = GradientOracle(pot, NoiseModel.subweibull(1.0, 0.2), make_rng(83))
    out = approx_prox_rows(pot, oracle, np.zeros((0, 1)), _cfg(k_iters=7), make_rng(0))
    assert out.shape == (0, 1)
    assert oracle.ledger.grad_queries == 0


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
    # each step multiplies x by about 2.5e99: from x0 = 1 the iterates are
    # finite up to step 3 and overflow at step 4
    return -1e100 * xs


def test_non_finite_iterate_raises():
    # the gradient itself is finite, but x - eta * g overflows the float
    # range on the first step, which the iterate guard must catch
    pot = Potential(dim=1, value_rows=_zero_values, grad_rows=_flat_overflow,
                    holder_s=1.0, holder_beta=1.0, name="blowup")
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="at step 1$"):
        approx_prox(pot, _exact_oracle(pot), [9.5e307], _cfg(3), make_rng(0))


@pytest.mark.parametrize("grad,start,k_iters,step", [
    (_flat_overflow, 9.5e307, 1, 1),  # the last iterate: the check after the loop
    (_steep, 1.0, 6, 4),              # mid-loop: the oracle's row check finds it
    (_steep, 1.0, 4, 4),              # the same blow-up on the last iterate
])
def test_non_finite_iterate_names_the_step(grad, start, k_iters, step):
    pot = Potential(dim=1, value_rows=_zero_values, grad_rows=grad,
                    holder_s=1.0, holder_beta=1.0, name="blowup")
    with np.errstate(over="ignore"), \
            pytest.raises(NumericError, match=f"at step {step}$"):
        approx_prox(pot, _exact_oracle(pot), [start], _cfg(k_iters), make_rng(0))


@pytest.mark.parametrize("rows", [
    2048,  # blocks of 4 iterations: step 4 is found first thing in block 2
    2731,  # blocks of 3: found mid-block
])
def test_non_finite_iterate_names_the_step_across_blocks(rows):
    pot = Potential(dim=1, value_rows=_zero_values, grad_rows=_steep,
                    holder_s=1.0, holder_beta=1.0, name="blowup")
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match="at step 4$"):
        approx_prox_rows(pot, _exact_oracle(pot), np.ones((rows, 1)), _cfg(6),
                         make_rng(0))


def test_oracle_shape_error_is_not_a_blow_up():
    # an oracle built on a potential of another dimension rejects the finite
    # iterate by its shape; that error is passed on as it is
    pot = _quad()
    oracle = _exact_oracle(make_gaussian_potential([0.0, 0.0]))
    with pytest.raises(DimensionError, match="row dimension"):
        approx_prox(pot, oracle, [0.0], _cfg(3), make_rng(0))


# ---------------------------------------------------------------------------
# the prox stage reads its noise in blocks of iterations
# ---------------------------------------------------------------------------

def _reference_prox(oracle, x0_rows, cfg):
    # one oracle call, drawing its own noise, per iteration
    x0_rows = np.asarray(x0_rows, dtype=float)
    x = x0_rows.copy()
    for _ in range(cfg.k_iters):
        g = oracle.draw_batch_rows(x, cfg.n_batch)
        x = (x - cfg.eta * g + x0_rows) / 2.0
    return x


_STREAM_NOISE = {
    "exact": NoiseModel.exact(),
    "subgaussian": NoiseModel.subgaussian(0.4),
    "twopoint": NoiseModel.twopoint(p=0.3, m_shift=1.2),
}


@pytest.mark.parametrize("label", sorted(_STREAM_NOISE))
@pytest.mark.parametrize("rows,n_batch", [
    (3, 2),      # every iteration in one block
    (100, 10),   # blocks of 8 iterations, the last one short
    (300, 30),   # rows * n past the cap: one iteration per block
])
@pytest.mark.parametrize("shared", [False, True])
def test_blocked_prox_equals_per_iteration_loop(label, rows, n_batch, shared):
    # exact, subgaussian and twopoint noise read the generator one value at a
    # time, so a block of m iterations gives the numbers of m separate calls,
    # also where the oracle shares the caller's generator
    pot = _quad()
    noise = _STREAM_NOISE[label]
    cfg = ProxConfig(eta=_ETA, n_batch=n_batch, k_iters=25)
    x0 = make_rng(85, rows).standard_normal((rows, 1))
    outs = []
    for blocked in (True, False):
        rng = make_rng(86, rows, n_batch)
        oracle = GradientOracle(pot, noise, rng if shared else make_rng(87))
        if blocked:
            x = approx_prox_rows(pot, oracle, x0, cfg, rng)
        else:
            x = _reference_prox(oracle, x0, cfg)
        outs.append((x, oracle.ledger.as_dict(), rng.random(3),
                     oracle.rng.bit_generator.state))
    (x_b, led_b, after_b, state_b), (x_r, led_r, after_r, state_r) = outs
    assert np.array_equal(x_b, x_r)
    assert led_b == led_r
    assert led_b["grad_queries"] == rows * n_batch * cfg.k_iters
    assert np.array_equal(after_b, after_r)
    assert state_b == state_r


@pytest.mark.parametrize("rows,n_batch,k_iters", [
    (4, 1, 33), (4, 1, 5000), (100, 10, 25), (4, 1980, 6), (7, 3, 1),
])
def test_noise_blocks_stay_under_the_cap(monkeypatch, rows, n_batch, k_iters):
    calls = []
    real = NoiseModel.sample_batch_rows

    def spy(self, k, n, dim, rng):
        calls.append(k * n * dim)
        return real(self, k, n, dim, rng)

    monkeypatch.setattr(NoiseModel, "sample_batch_rows", spy)
    pot = _quad()
    oracle = GradientOracle(pot, NoiseModel.subweibull(1.0, 0.2), make_rng(88))
    cfg = ProxConfig(eta=_ETA, n_batch=n_batch, k_iters=k_iters)
    approx_prox_rows(pot, oracle, np.zeros((rows, 1)), cfg, make_rng(0))
    per_iter = rows * n_batch
    assert oracles._BLOCK == 8192
    # a call holds whole iterations and at most _BLOCK draws, unless a single
    # iteration is already larger
    assert all(c % per_iter == 0 for c in calls)
    assert max(calls) <= max(oracles._BLOCK, per_iter)
    # and no draw is left over past the last iteration
    assert sum(calls) == oracle.ledger.grad_queries == per_iter * k_iters
    assert len(calls) == -(-k_iters // max(1, oracles._BLOCK // per_iter))


def _prox_noise(monkeypatch, noise, rows, k_iters, calls):
    """The noise rows a blocked prox stage hands to ``draw_batch_rows``."""
    used = []
    real = GradientOracle.draw_batch_rows

    def spy(self, xs, n, noise=None):
        used.append(noise.copy())
        return real(self, xs, n, noise=noise)

    monkeypatch.setattr(GradientOracle, "draw_batch_rows", spy)
    pot = _quad()
    oracle = GradientOracle(pot, noise, make_rng(89))
    cfg = ProxConfig(eta=_ETA, n_batch=1, k_iters=k_iters)
    for _ in range(calls):
        approx_prox_rows(pot, oracle, np.zeros((rows, 1)), cfg, make_rng(0))
    monkeypatch.undo()
    return np.concatenate(used)[:, 0]


@pytest.mark.parametrize("noise", [NoiseModel.subweibull(zeta=1.0, sigma_g=0.2),
                                   NoiseModel.polymoment(k=1, sigma_2k=0.15)],
                         ids=["subweibull", "polymoment"])
def test_blocked_radius_noise_keeps_its_law(monkeypatch, noise):
    # 1-D radius noise draws a block's radii before its signs, so its stream
    # moves; the law of each draw does not.  4 rows and 33 iterations, the
    # shape of criterion 7's subexponential job: one block per stage.
    blocked = _prox_noise(monkeypatch, noise, 4, 33, 400)
    assert blocked.size == 4 * 33 * 400
    per_call = np.concatenate([noise.sample_batch_rows(4, 1, 1, make_rng(90, i))[:, 0]
                               for i in range(2_000)])
    assert stats.ks_2samp(blocked, per_call).pvalue > 1e-4
    norms = np.abs(blocked)
    se = norms.std() / math.sqrt(norms.size)
    assert abs(norms.mean() - noise.m1(1)) <= 5 * se
    if noise.family == "subweibull":
        sq = blocked ** 2
        se = sq.std() / math.sqrt(sq.size)
        assert abs(sq.mean() - noise.second_moment(1)) <= 5 * se
    # iterations of one block are independent: no lag-1 correlation within a row
    by_iter = blocked.reshape(-1, 33, 4)
    lag = np.corrcoef(by_iter[:, :-1].ravel(), by_iter[:, 1:].ravel())[0, 1]
    assert abs(lag) <= 5 / math.sqrt(by_iter[:, 1:].size)
