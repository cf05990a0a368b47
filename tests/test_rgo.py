"""Tests for the Gaussian-tilt rejection sampler and its W estimators.

The quadratic potential f(x) = x^2/2 admits a closed form for the estimator
mean: both the first- and zeroth-order constructions satisfy

    E[W | x] = <u, x - xhat> - f(x) + E f(xhat + sqrt(eta) Z),

and the last term equals (xhat^2 + eta)/2 in one dimension, so the empirical
means can be checked in absolute terms, not just up to a constant.
"""

import math

import numpy as np
import pytest
from scipy import stats

from forsample.core import Potential, make_gaussian_potential, make_power_potential
from forsample.errors import DimensionError
from forsample.fors import FORSConfig, fors_sample_many
from forsample.oracles import GradientOracle, NoiseModel, ValueOracle, make_rng
from forsample.rgo import (
    RGOContext,
    TiltProblem,
    _FirstOrderRows,
    _ZerothOrderRows,
    path_gamma,
    sample_tilt_many,
    tilt_eta_bound,
)
from forsample.verify import ks_test


def _flat_potential(dim: int = 1) -> Potential:
    return Potential(dim=dim, value_rows=lambda xs: np.zeros(len(xs)),
                     grad_rows=np.zeros_like, holder_s=1.0, holder_beta=1.0,
                     name="flat")


def _quadratic_setup():
    """f(x) = x^2/2 tilted at x0 = 1 with eta = 0.5; proposal center 0.2."""
    pot = make_gaussian_potential([0.0])
    problem = TiltProblem(pot, [1.0], 0.5)
    ctx = RGOContext(problem, [0.2])
    return pot, problem, ctx


# ---------------------------------------------------------------------------
# interpolation path
# ---------------------------------------------------------------------------

def test_path_endpoints():
    x = np.array([1.5, -0.5])
    xhat = np.array([0.2, 0.1])
    z = np.array([-0.7, 0.4])
    g1, _ = path_gamma(x, xhat, z, 1.0)
    g0, _ = path_gamma(x, xhat, z, 0.0)
    assert np.allclose(g1, x, atol=1e-12)
    assert np.allclose(g0, xhat + z, atol=1e-12)


def test_path_coefficients_stay_on_unit_circle():
    for r in np.linspace(0.0, 1.0, 101):
        a = math.sin(math.pi * r / 2)
        b = math.cos(math.pi * r / 2)
        assert a * a + b * b == pytest.approx(1.0, abs=1e-12)


def test_path_velocity_matches_finite_differences():
    rng = make_rng(61)
    h = 1e-5
    for _ in range(20):
        x, xhat, z = rng.standard_normal((3, 3))
        r = float(rng.uniform(h, 1.0 - h))
        _, dot = path_gamma(x, xhat, z, r)
        plus, _ = path_gamma(x, xhat, z, r + h)
        minus, _ = path_gamma(x, xhat, z, r - h)
        fd = (plus - minus) / (2 * h)
        denom = max(float(np.linalg.norm(dot)), 1.0)
        assert float(np.linalg.norm(fd - dot)) / denom < 1e-5


def test_path_validation():
    x = np.zeros(2)
    with pytest.raises(ValueError):
        path_gamma(x, x, x, -0.1)
    with pytest.raises(ValueError):
        path_gamma(x, x, x, 1.1)
    with pytest.raises(DimensionError):
        path_gamma(x, np.zeros(3), x, 0.5)


# ---------------------------------------------------------------------------
# problem and context containers
# ---------------------------------------------------------------------------

def test_tilt_problem_validation():
    pot = make_gaussian_potential([0.0])
    with pytest.raises(ValueError):
        TiltProblem(pot, [1.0], 0.0)
    with pytest.raises(DimensionError):
        TiltProblem(pot, [1.0, 2.0], 0.5)


def test_context_u_and_validation():
    _, problem, _ = _quadratic_setup()
    ctx = RGOContext(problem, [0.2])
    assert ctx.u == pytest.approx([(1.0 - 0.2) / 0.5])
    with pytest.raises(ValueError):
        RGOContext(problem, [0.2], n_batch=0)


# ---------------------------------------------------------------------------
# estimator means
# ---------------------------------------------------------------------------

def _quadratic_w_mean(x: float, xhat: float, u: float, eta: float) -> float:
    return u * (x - xhat) - 0.5 * x * x + 0.5 * (xhat * xhat + eta)


def test_first_order_mean_matches_closed_form():
    pot, problem, ctx = _quadratic_setup()
    oracle = GradientOracle(pot, NoiseModel.exact(), make_rng(62, 0))
    rows = _FirstOrderRows(oracle, np.array([[0.2]]), np.array([ctx.u]),
                           problem.eta, 50.0, 1)
    rng = make_rng(62, 1)
    n = 100_000
    for x in (-1.0, -0.5, 0.2, 0.9, 1.5):
        w = rows.draw_w_rows(np.zeros(n, dtype=np.int64),
                             np.full((n, 1), x), rng)
        expect = _quadratic_w_mean(x, 0.2, float(ctx.u[0]), problem.eta)
        se = w.std() / math.sqrt(n)
        assert abs(w.mean() - expect) <= 4 * se


def test_zeroth_order_mean_matches_closed_form():
    pot, problem, ctx = _quadratic_setup()
    oracle = ValueOracle(pot, NoiseModel.exact(), make_rng(63, 0))
    rows = _ZerothOrderRows(oracle, np.array([[0.2]]), np.array([ctx.u]),
                            problem.eta, 50.0, 1)
    rng = make_rng(63, 1)
    n = 100_000
    for x in (-1.0, -0.5, 0.2, 0.9, 1.5):
        w = rows.draw_w_rows(np.zeros(n, dtype=np.int64),
                             np.full((n, 1), x), rng)
        expect = _quadratic_w_mean(x, 0.2, float(ctx.u[0]), problem.eta)
        se = w.std() / math.sqrt(n)
        assert abs(w.mean() - expect) <= 4 * se


def test_flat_potential_centered_context_gives_zero_w():
    pot = _flat_potential()
    problem = TiltProblem(pot, [0.0], 1.0)
    ctx = RGOContext(problem, [0.0])
    g_oracle = GradientOracle(pot, NoiseModel.exact(), make_rng(64, 0))
    v_oracle = ValueOracle(pot, NoiseModel.exact(), make_rng(64, 1))
    first = _FirstOrderRows(g_oracle, ctx.xhat[None], ctx.u[None], problem.eta, 1.0, 1)
    zeroth = _ZerothOrderRows(v_oracle, ctx.xhat[None], ctx.u[None], problem.eta, 1.0, 1)
    slots = np.zeros(3, dtype=np.int64)
    xs = np.array([[-2.0], [0.0], [3.5]])
    np.testing.assert_array_equal(first.draw_w_rows(slots, xs, make_rng(64, 2)), 0.0)
    np.testing.assert_array_equal(zeroth.draw_w_rows(slots, xs, make_rng(64, 3)), 0.0)


def test_heavy_noise_drives_clipping():
    pot, problem, ctx = _quadratic_setup()
    oracle = GradientOracle(pot, NoiseModel.subgaussian(100.0), make_rng(65, 0))
    rows = _FirstOrderRows(oracle, np.array([[0.2]]), np.array([ctx.u]),
                           problem.eta, 1.0, 1)
    w = rows.draw_w_rows(np.zeros(10_000, dtype=np.int64),
                         np.ones((10_000, 1)), make_rng(65, 1))
    assert np.all(np.abs(w) <= 1.0)
    assert float((np.abs(w) == 1.0).mean()) > 0.5


# ---------------------------------------------------------------------------
# exact tilt laws
# ---------------------------------------------------------------------------

_TILT_MEAN = 2.0 / 3.0
_TILT_SD = math.sqrt(1.0 / 3.0)


def _tilt_cdf(x):
    return stats.norm.cdf(x, loc=_TILT_MEAN, scale=_TILT_SD)


def _centered_ctx():
    pot = make_gaussian_potential([0.0])
    problem = TiltProblem(pot, [1.0], 0.5)
    return pot, RGOContext(problem, [_TILT_MEAN])


def test_first_order_tilt_matches_gaussian():
    pot, ctx = _centered_ctx()
    oracle = GradientOracle(pot, NoiseModel.exact(), make_rng(66, 0))
    out = sample_tilt_many(ctx, "first", oracle, FORSConfig(b=3.0), 20_000,
                           make_rng(66, 1))
    _, p = ks_test(out[:, 0], _tilt_cdf)
    assert p > 0.01


def test_zeroth_order_tilt_matches_gaussian():
    pot, ctx = _centered_ctx()
    oracle = ValueOracle(pot, NoiseModel.exact(), make_rng(67, 0))
    out = sample_tilt_many(ctx, "zeroth", oracle, FORSConfig(b=3.0), 20_000,
                           make_rng(67, 1))
    _, p = ks_test(out[:, 0], _tilt_cdf)
    assert p > 0.01


def test_first_order_sign_flip_breaks_the_law():
    # Negating u must push the accepted law visibly away from the tilt, so a
    # silent sign regression in the estimator cannot pass the exactness test.
    pot, ctx = _centered_ctx()
    eta = ctx.problem.eta
    oracle = GradientOracle(pot, NoiseModel.exact(), make_rng(68, 0))
    rows = _FirstOrderRows(oracle, np.array([[_TILT_MEAN]]), np.array([-ctx.u]),
                           eta, 3.0, 1)
    out = fors_sample_many(
        lambda k, rng: _TILT_MEAN + math.sqrt(eta) * rng.standard_normal((k, 1)),
        rows, FORSConfig(b=3.0), 20_000, make_rng(68, 1))
    _, p = ks_test(out[:, 0], _tilt_cdf)
    assert p < 1e-6


def test_zeroth_order_sign_flip_breaks_the_law():
    pot, ctx = _centered_ctx()
    eta = ctx.problem.eta
    oracle = ValueOracle(pot, NoiseModel.exact(), make_rng(69, 0))
    rows = _ZerothOrderRows(oracle, np.array([[_TILT_MEAN]]), np.array([-ctx.u]),
                            eta, 3.0, 1)
    out = fors_sample_many(
        lambda k, rng: _TILT_MEAN + math.sqrt(eta) * rng.standard_normal((k, 1)),
        rows, FORSConfig(b=3.0), 20_000, make_rng(69, 1))
    _, p = ks_test(out[:, 0], _tilt_cdf)
    assert p < 1e-6


def test_mode_validation():
    pot, ctx = _centered_ctx()
    oracle = GradientOracle(pot, NoiseModel.exact(), make_rng(0))
    with pytest.raises(ValueError):
        sample_tilt_many(ctx, "second", oracle, FORSConfig(b=3.0), 10, make_rng(1))


def test_two_dimensional_tilt():
    pot = make_gaussian_potential([0.0, 0.0])
    problem = TiltProblem(pot, [1.0, -1.0], 0.5)
    ctx = RGOContext(problem, [_TILT_MEAN, -_TILT_MEAN])
    oracle = GradientOracle(pot, NoiseModel.exact(), make_rng(71, 0))
    out = sample_tilt_many(ctx, "first", oracle, FORSConfig(b=3.0), 20_000,
                           make_rng(71, 1))
    assert out.shape == (20_000, 2)
    target = np.array([_TILT_MEAN, -_TILT_MEAN])
    coord_se = _TILT_SD / math.sqrt(out.shape[0])
    assert np.all(np.abs(out.mean(axis=0) - target) <= 4.5 * coord_se)
    assert np.allclose(out.var(axis=0), 1.0 / 3.0, rtol=0.1)


# ---------------------------------------------------------------------------
# step-size condition
# ---------------------------------------------------------------------------

def test_tilt_eta_bound_closed_form():
    pot = make_power_potential(p=1.5, dim=1)
    s, beta = pot.holder_s, pot.holder_beta
    m_trunc, eps, delta = 1.0, 0.5, 0.01
    ell = math.log(1.0 / delta)
    smooth = (beta ** 2 * ell + s * beta ** 2 * ell ** 2) ** (1.0 / (1.0 + s))
    trunc = (m_trunc ** 2 + eps ** 2) * ell
    expect = 1.0 / (64.0 * (smooth + trunc))
    assert tilt_eta_bound(pot, m_trunc, eps, delta) == pytest.approx(expect, rel=1e-12)


def test_tilt_eta_bound_monotonicity():
    pot = make_gaussian_potential([0.0])
    base = tilt_eta_bound(pot, 1.0, 0.0, 0.01)
    assert tilt_eta_bound(pot, 2.0, 0.0, 0.01) < base
    assert tilt_eta_bound(pot, 1.0, 1.0, 0.01) < base
    assert tilt_eta_bound(pot, 1.0, 0.0, 0.1) > base
    assert tilt_eta_bound(pot, 1.0, 0.0, 0.01, c_step=128.0) == pytest.approx(base / 2)


def test_tilt_eta_bound_validation():
    pot = make_gaussian_potential([0.0])
    with pytest.raises(ValueError):
        tilt_eta_bound(pot, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        tilt_eta_bound(pot, 1.0, 0.0, 1.0)
