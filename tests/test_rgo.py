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

from forsample.core import Potential, make_gaussian_potential
from forsample.errors import DimensionError
from forsample.fors import FORSConfig, fors_sample_many
from forsample.oracles import (GradientOracle, NoiseModel, QueryLedger, ValueOracle,
                               make_rng)
from forsample.rgo import path_gamma, sample_tilt_many, tilt_source
from forsample.verify import ks_test


def _flat_potential(dim: int = 1) -> Potential:
    return Potential(dim=dim, value_rows=lambda xs: np.zeros(len(xs)),
                     grad_rows=np.zeros_like, holder_s=1.0, holder_beta=1.0,
                     name="flat")


def _quadratic_source(oracle, b: float = 50.0):
    """f(x) = x^2/2 tilted at x0 = 1 with eta = 0.5; proposal center 0.2."""
    return tilt_source(oracle, np.array([[1.0]]), np.array([[0.2]]), 0.5, b, 1)


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
# the tilt step and its inputs
# ---------------------------------------------------------------------------

def test_tilt_problem_validation():
    # the tilt center and step are checked before any draw
    pot = make_gaussian_potential([0.0])
    oracle = GradientOracle(pot, NoiseModel.exact(), make_rng(60, 0))
    rng = make_rng(60, 1)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="eta"):
        sample_tilt_many(oracle, [1.0], [1.0], 0.0, FORSConfig(), 10, rng)
    with pytest.raises(DimensionError):
        sample_tilt_many(oracle, [1.0, 2.0], [1.0, 2.0], 0.5, FORSConfig(), 10, rng)
    assert rng.bit_generator.state == before
    assert oracle.ledger.grad_queries == 0


def test_context_u_and_validation():
    pot = make_gaussian_potential([0.0])
    source = _quadratic_source(GradientOracle(pot, NoiseModel.exact(), make_rng(60, 2)))
    assert source.u_rows.tolist() == [[(1.0 - 0.2) / 0.5]]
    # the proposal is N(xhat, eta I), one row per slot
    props = source.propose_rows(np.zeros(100_000, dtype=np.int64), make_rng(60, 3))
    assert props.shape == (100_000, 1)
    assert abs(props.mean() - 0.2) <= 4 * math.sqrt(0.5 / 100_000)
    assert props.var() == pytest.approx(0.5, rel=0.02)
    oracle = ValueOracle(pot, NoiseModel.exact(), make_rng(60, 4))
    with pytest.raises(ValueError, match="n_batch"):
        sample_tilt_many(oracle, [1.0], [0.2], 0.5, FORSConfig(), 10, make_rng(60, 5),
                         n_batch=0)
    with pytest.raises(DimensionError):
        sample_tilt_many(oracle, [1.0], [0.2, 0.0], 0.5, FORSConfig(), 10,
                         make_rng(60, 5))


# ---------------------------------------------------------------------------
# estimator means
# ---------------------------------------------------------------------------

def _quadratic_w_mean(x: float, xhat: float, u: float, eta: float) -> float:
    return u * (x - xhat) - 0.5 * x * x + 0.5 * (xhat * xhat + eta)


def _check_quadratic_mean(rows, rng):
    n = 100_000
    for x in (-1.0, -0.5, 0.2, 0.9, 1.5):
        w = rows.draw_w_rows(np.zeros(n, dtype=np.int64),
                             np.full((n, 1), x), rng)
        expect = _quadratic_w_mean(x, 0.2, (1.0 - 0.2) / 0.5, 0.5)
        se = w.std() / math.sqrt(n)
        assert abs(w.mean() - expect) <= 4 * se


def test_first_order_mean_matches_closed_form():
    pot = make_gaussian_potential([0.0])
    rows = _quadratic_source(GradientOracle(pot, NoiseModel.exact(), make_rng(62, 0)))
    _check_quadratic_mean(rows, make_rng(62, 1))


def test_zeroth_order_mean_matches_closed_form():
    pot = make_gaussian_potential([0.0])
    rows = _quadratic_source(ValueOracle(pot, NoiseModel.exact(), make_rng(63, 0)))
    _check_quadratic_mean(rows, make_rng(63, 1))


def test_flat_potential_centered_context_gives_zero_w():
    pot = _flat_potential()
    g_oracle = GradientOracle(pot, NoiseModel.exact(), make_rng(64, 0))
    v_oracle = ValueOracle(pot, NoiseModel.exact(), make_rng(64, 1))
    centered = (np.zeros((1, 1)), np.zeros((1, 1)), 1.0, 1.0, 1)
    first = tilt_source(g_oracle, *centered)
    zeroth = tilt_source(v_oracle, *centered)
    slots = np.zeros(3, dtype=np.int64)
    xs = np.array([[-2.0], [0.0], [3.5]])
    np.testing.assert_array_equal(first.draw_w_rows(slots, xs, make_rng(64, 2)), 0.0)
    np.testing.assert_array_equal(zeroth.draw_w_rows(slots, xs, make_rng(64, 3)), 0.0)
    assert g_oracle.ledger.w_clipped == v_oracle.ledger.w_clipped == 0


def test_heavy_noise_drives_clipping():
    # both estimators clip W to [-B, B], and the oracle's ledger counts the
    # draws clipped, |W| = B, call after call
    pot = make_gaussian_potential([0.0])
    for i, oracle_type in enumerate((GradientOracle, ValueOracle)):
        oracle = oracle_type(pot, NoiseModel.subgaussian(100.0), make_rng(65, 0, i))
        rows = _quadratic_source(oracle, b=1.0)
        clipped = 0
        for call in range(2):
            w = rows.draw_w_rows(np.zeros(10_000, dtype=np.int64),
                                 np.ones((10_000, 1)), make_rng(65, 1, i, call))
            assert np.all(np.abs(w) <= 1.0)
            assert float((np.abs(w) == 1.0).mean()) > 0.5
            clipped += int(np.count_nonzero(np.abs(w) == 1.0))
            assert oracle.ledger.w_clipped == clipped


# ---------------------------------------------------------------------------
# exact tilt laws
# ---------------------------------------------------------------------------

_TILT_MEAN = 2.0 / 3.0
_TILT_SD = math.sqrt(1.0 / 3.0)


def _tilt_cdf(x):
    return stats.norm.cdf(x, loc=_TILT_MEAN, scale=_TILT_SD)


def _centered_tilt(oracle, n_samples, rng):
    # f(x) = x^2/2 tilted at x0 = 1 with eta = 0.5, proposal at the tilt mean
    return sample_tilt_many(oracle, [1.0], [_TILT_MEAN], 0.5, FORSConfig(b=3.0),
                            n_samples, rng)


def test_first_order_tilt_matches_gaussian():
    pot = make_gaussian_potential([0.0])
    oracle = GradientOracle(pot, NoiseModel.exact(), make_rng(66, 0))
    out = _centered_tilt(oracle, 20_000, make_rng(66, 1))
    _, p = ks_test(out[:, 0], _tilt_cdf)
    assert p > 0.01


def test_zeroth_order_tilt_matches_gaussian():
    pot = make_gaussian_potential([0.0])
    oracle = ValueOracle(pot, NoiseModel.exact(), make_rng(67, 0))
    out = _centered_tilt(oracle, 20_000, make_rng(67, 1))
    _, p = ks_test(out[:, 0], _tilt_cdf)
    assert p > 0.01


def _flipped_tilt(oracle, rng):
    # u = (x0 - xhat)/eta negated: the tilt at x0 = 2 xhat - 1 = 1/3, with
    # the proposal still at the true tilt's mean
    rows = tilt_source(oracle, np.array([[2 * _TILT_MEAN - 1.0]]),
                       np.array([[_TILT_MEAN]]), 0.5, 3.0, 1)
    return fors_sample_many(rows.propose_rows, rows.draw_w_rows, FORSConfig(b=3.0), 20_000, rng)


def test_first_order_sign_flip_breaks_the_law():
    # Negating u must push the accepted law visibly away from the tilt, so a
    # silent sign regression in the estimator cannot pass the exactness test.
    pot = make_gaussian_potential([0.0])
    out = _flipped_tilt(GradientOracle(pot, NoiseModel.exact(), make_rng(68, 0)),
                        make_rng(68, 1))
    _, p = ks_test(out[:, 0], _tilt_cdf)
    assert p < 1e-6


def test_zeroth_order_sign_flip_breaks_the_law():
    pot = make_gaussian_potential([0.0])
    out = _flipped_tilt(ValueOracle(pot, NoiseModel.exact(), make_rng(69, 0)),
                        make_rng(69, 1))
    _, p = ks_test(out[:, 0], _tilt_cdf)
    assert p < 1e-6


def test_non_oracle_rejected_before_any_draw():
    # the oracle's type picks the estimator; anything else is refused before
    # the ledger or the generator is touched
    class Impostor:
        def draw_batch_rows(self, xs, n):
            raise AssertionError("queried")

    impostor, rng = Impostor(), make_rng(1)
    impostor.ledger = QueryLedger()
    before = rng.bit_generator.state
    with pytest.raises(TypeError, match="GradientOracle or a ValueOracle"):
        _centered_tilt(impostor, 10, rng)
    assert rng.bit_generator.state == before
    assert impostor.ledger.as_dict() == QueryLedger().as_dict()


def test_tilt_meters_the_loop_into_the_oracles_ledger():
    # one ledger holds the queries, the clips, the attempts, the W draws and
    # one rgo call per sample: a first-order W is one gradient query
    pot = make_gaussian_potential([0.0])
    oracle = GradientOracle(pot, NoiseModel.exact(), make_rng(73, 0))
    _centered_tilt(oracle, 1_000, make_rng(73, 1))
    led = oracle.ledger
    assert led.rgo_calls == 1_000
    assert led.fors_attempts >= 1_000
    assert led.w_draws == led.grad_queries > 0
    assert 0 < led.w_clipped < led.w_draws


def test_zero_samples_are_an_empty_array_and_negative_is_refused():
    # the tilt's dimension is known, so zero samples are a (0, d) array
    pot = make_gaussian_potential([0.0, 0.0])
    oracle = GradientOracle(pot, NoiseModel.exact(), make_rng(72, 0))
    for count, want in ((0, None), (-2, "n_samples must be >= 0")):
        rng = make_rng(72, 1)
        before = rng.bit_generator.state
        args = (oracle, [1.0, -1.0], [0.5, -0.5], 0.5, FORSConfig(b=3.0), count, rng)
        if want is None:
            out = sample_tilt_many(*args)
            assert out.shape == (0, 2) and out.dtype == np.float64
        else:
            with pytest.raises(ValueError, match=want):
                sample_tilt_many(*args)
        assert rng.bit_generator.state == before
        assert oracle.ledger.as_dict() == QueryLedger().as_dict()


def test_two_dimensional_tilt():
    pot = make_gaussian_potential([0.0, 0.0])
    oracle = GradientOracle(pot, NoiseModel.exact(), make_rng(71, 0))
    out = sample_tilt_many(oracle, [1.0, -1.0], [_TILT_MEAN, -_TILT_MEAN], 0.5,
                           FORSConfig(b=3.0), 20_000, make_rng(71, 1))
    assert out.shape == (20_000, 2)
    target = np.array([_TILT_MEAN, -_TILT_MEAN])
    coord_se = _TILT_SD / math.sqrt(out.shape[0])
    assert np.all(np.abs(out.mean(axis=0) - target) <= 4.5 * coord_se)
    assert np.allclose(out.var(axis=0), 1.0 / 3.0, rtol=0.1)
