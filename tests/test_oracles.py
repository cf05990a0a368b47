"""Noise models, tail bounds, batch-size solver, and metered oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from forsample import oracles
from forsample.core import Potential, make_gaussian_potential
from forsample.errors import DimensionError, UnsupportedCombinationError
from forsample.oracles import (GradientOracle, NOISE_FAMILIES, NoiseModel,
                               QueryLedger, ValueOracle, eps_tail, make_rng,
                               phi)

FAMILIES = {
    "exact": NoiseModel.exact(),
    "subgaussian": NoiseModel.subgaussian(0.7),
    "subweibull": NoiseModel.subweibull(zeta=1.0, sigma_g=0.4),
    "polymoment": NoiseModel.polymoment(k=2, sigma_2k=0.8),
    "twopoint": NoiseModel("twopoint", p=0.2, m_shift=1.5),
}


# ---------------------------------------------------------------------------
# rng streams
# ---------------------------------------------------------------------------

def test_make_rng_is_deterministic_and_path_sensitive():
    a = make_rng(7, 1, 2).random(5)
    b = make_rng(7, 1, 2).random(5)
    c = make_rng(7, 1, 3).random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# noise model construction and analytic moments
# ---------------------------------------------------------------------------

def test_noise_family_listing():
    assert set(NOISE_FAMILIES) == set(FAMILIES)


def test_noise_validation_errors():
    with pytest.raises(ValueError):
        NoiseModel("mystery")
    with pytest.raises(ValueError):
        NoiseModel.subgaussian(-1.0)
    with pytest.raises(ValueError):
        NoiseModel.subweibull(zeta=0.0, sigma_g=1.0)
    with pytest.raises(ValueError):
        NoiseModel.polymoment(k=0, sigma_2k=1.0)
    with pytest.raises(ValueError):
        NoiseModel("twopoint", p=0.0, m_shift=1.0)
    with pytest.raises(ValueError):
        NoiseModel("twopoint", p=0.5, m_shift=-1.0)


@pytest.mark.parametrize("k", [2.0, 1.5, True], ids=repr)
def test_polymoment_k_must_be_an_integer(k):
    # k is the moment order 2k of the tail bound's factorial(2k); a config
    # file's k is checked the same way, as an int leaf
    with pytest.raises(ValueError) as exc:
        NoiseModel("polymoment", k=k, sigma_2k=0.5)
    assert str(exc.value) == f"k: must be a positive integer, got {k!r}"


# (label, dim) cases; the original ids are kept for the default dimension
def _moment_cases(labels, default_dim):
    cases = [pytest.param(label, 1 if label == "twopoint" else default_dim, id=label)
             for label in labels]
    cases += [pytest.param(label, 1, id=f"{label}-d1")
              for label in ("subweibull", "polymoment")]
    return cases


@pytest.mark.parametrize("label,dim", _moment_cases(sorted(FAMILIES), 3))
def test_first_moment_matches_monte_carlo(label, dim):
    noise = FAMILIES[label]
    draws = noise.sample_batch_rows(200_000, 1, dim, make_rng(0, 5))
    norms = np.linalg.norm(draws, axis=1)
    se = norms.std() / math.sqrt(norms.size)
    assert abs(norms.mean() - noise.m1(dim)) <= 5 * se + 1e-12


@pytest.mark.parametrize("label,dim", _moment_cases(
    ["subgaussian", "subweibull", "polymoment", "twopoint"], 2))
def test_second_moment_matches_monte_carlo(label, dim):
    noise = FAMILIES[label]
    draws = noise.sample_batch_rows(200_000, 1, dim, make_rng(1, 5))
    sq = np.sum(draws ** 2, axis=1)
    se = sq.std() / math.sqrt(sq.size)
    assert abs(sq.mean() - noise.second_moment()) <= 5 * se


@pytest.mark.parametrize("zeta, sigma", [(1 / 172, 1.0), (0.0058, 1e-2), (0.005, 1.0),
                                         (1e-3, 1e2), (1e-3, 1e-2)])
def test_subweibull_moments_past_gammas_float_range(zeta, sigma):
    # E R^p = sigma^p 2^(-p/zeta) Gamma(1 + p/zeta) with Gamma past the floats:
    # a float, finite where the product is, inf past the floats
    noise = NoiseModel.subweibull(zeta, sigma)
    for p, moment in ((1.0, noise.m1()), (2.0, noise.second_moment())):
        log_moment = p * math.log(sigma) - p / zeta * math.log(2.0) + math.lgamma(1.0 + p / zeta)
        assert type(moment) is float
        if log_moment < 709.0:
            assert moment == pytest.approx(math.exp(log_moment), rel=1e-12)
        else:
            assert moment == math.inf


# radius CDFs: Pareto(a = 2k + 1, x_m) and sigma_g * (E / 2)^(1 / zeta)
def _radius_cdf(noise):
    if noise.family == "polymoment":
        return stats.pareto(noise._pareto_index, scale=noise._pareto_xm).cdf
    return lambda r: -np.expm1(-2.0 * (r / noise.sigma_g) ** noise.zeta)


_RADIUS_FAMILIES = ["subweibull", "polymoment"]


@pytest.mark.parametrize("label", _RADIUS_FAMILIES)
def test_one_dimensional_radius_law(label):
    noise = FAMILIES[label]
    draws = noise.sample_batch_rows(100_000, 1, 1, make_rng(10, 5))[:, 0]
    assert stats.kstest(np.abs(draws), _radius_cdf(noise)).pvalue > 1e-3


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("n", [1, 7])
def test_subgaussian_batch_mean_is_exactly_gaussian(dim, n):
    # the premise of _subgaussian_tail: every coordinate of the batch mean is
    # N(0, sigma^2 / (n d)), so scaled by sqrt(n d) / sigma it is standard normal
    noise = NoiseModel.subgaussian(0.7)
    draws = noise.sample_batch_rows(20_000, n, dim, make_rng(14, 5, dim, n))
    scaled = draws.ravel() * math.sqrt(n * dim) / noise.sigma_g
    assert stats.kstest(scaled, stats.norm.cdf).pvalue > 1e-3


@pytest.mark.parametrize("label", _RADIUS_FAMILIES)
def test_one_dimensional_sign_is_fair(label):
    noise = FAMILIES[label]
    draws = noise.sample_batch_rows(200_000, 1, 1, make_rng(11, 5))[:, 0]
    assert not np.any(draws == 0.0)
    assert stats.binomtest(int((draws > 0).sum()), draws.size).pvalue > 1e-3
    # and independent of the radius: fair again among the larger half
    big = draws[np.abs(draws) > np.median(np.abs(draws))]
    assert stats.binomtest(int((big > 0).sum()), big.size).pvalue > 1e-3


@pytest.mark.parametrize("label", _RADIUS_FAMILIES)
@pytest.mark.parametrize("dim", [1, 3])
def test_radius_draws_chunk_the_row_axis(monkeypatch, label, dim):
    # a chunk of at most 900 draws: several chunks per call, one of them short
    monkeypatch.setattr(oracles, "_CHUNK", 900)
    noise = FAMILIES[label]
    rng = make_rng(12, 5)
    single = noise.sample_batch_rows(10_007, 1, dim, rng)
    batched = noise.sample_batch_rows(10_007, 4, dim, rng)
    assert single.shape == batched.shape == (10_007, dim)
    assert np.all(np.isfinite(batched))
    assert stats.kstest(np.linalg.norm(single, axis=1),
                        _radius_cdf(noise)).pvalue > 1e-3
    # the batch mean of 4 mean-zero draws has E||.||^2 = E||noise||^2 / 4
    sq = np.sum(batched ** 2, axis=1)
    se = sq.std() / math.sqrt(sq.size)
    assert abs(sq.mean() - noise.second_moment() / 4) <= 5 * se


@pytest.mark.parametrize("label,dim", [(label, dim) for label in sorted(FAMILIES)
                                       for dim in (1, 3)
                                       if label != "twopoint" or dim == 1])
def test_zero_rows_give_an_empty_stack(label, dim):
    noise = FAMILIES[label]
    for n in (1, 5):
        assert noise.sample_batch_rows(0, n, dim, make_rng(13, 5)).shape == (0, dim)


def test_polymoment_declared_2k_moment():
    # the Pareto radius is built so E R^{2k} equals sigma_2k^{2k} exactly
    noise = NoiseModel.polymoment(k=1, sigma_2k=1.0)
    draws = noise.sample_batch_rows(400_000, 1, 1, make_rng(2, 5))[:, 0]
    second = float(np.mean(draws ** 2))
    assert second == pytest.approx(1.0, rel=0.05)


class _PatchedUniform:
    """A real generator whose first ``random`` call has one entry replaced."""

    def __init__(self, seed, index, value):
        self._rng = make_rng(seed, 5)
        self._patch = (index, value)

    def random(self, size=None):
        u = self._rng.random(size)
        if self._patch is not None:
            index, value = self._patch
            u.flat[index] = value
            self._patch = None
        return u

    def standard_normal(self, size=None):
        return self._rng.standard_normal(size)


@pytest.mark.filterwarnings("ignore:divide by zero encountered in power")
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("n", [1, 4])
def test_polymoment_zero_uniform_gets_the_radius_of_one(dim, n):
    # rng.random() returns exactly 0.0 with probability 2^-53; the Pareto
    # radius x_m * u^(-1/a) is then infinite.  The draw takes the radius of
    # u = 1, so the output equals the run whose uniform was 1.0 bit for bit.
    noise = FAMILIES["polymoment"]
    zero = noise.sample_batch_rows(5, n, dim, _PatchedUniform(4, 2 * n, 0.0))
    one = noise.sample_batch_rows(5, n, dim, _PatchedUniform(4, 2 * n, 1.0))
    clean = noise.sample_batch_rows(5, n, dim, make_rng(4, 5))
    assert np.all(np.isfinite(zero))
    assert np.array_equal(zero, one)
    # only the row that held the patched draw moves
    assert np.array_equal(np.delete(zero, 2, axis=0), np.delete(clean, 2, axis=0))
    assert not np.array_equal(zero[2], clean[2])


def test_twopoint_draw_support_and_mean():
    noise = NoiseModel("twopoint", p=0.25, m_shift=2.0)
    draws = noise.sample_batch_rows(100_000, 1, 1, make_rng(3, 5))[:, 0]
    support = {round(v, 12) for v in np.unique(draws)}
    # additive offsets m_shift*p (clean) and m_shift*(p-1) (corrupted)
    assert support == {0.5, -1.5}
    assert abs(draws.mean()) <= 5 * draws.std() / math.sqrt(draws.size)
    with pytest.raises(DimensionError):
        noise.sample_batch_rows(2, 1, 3, make_rng(0, 0))


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_noise_draw_refuses_batches_below_one(family, n):
    # every family refuses before it draws: no NaN rows, zeros or
    # ZeroDivisionError, and the stream does not move
    rng = make_rng(0, 7)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="batch size"):
        FAMILIES[family].sample_batch_rows(3, n, 1, rng)
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# eps_tail: frozen values and monotonicity
# ---------------------------------------------------------------------------

def test_eps_tail_polymoment_frozen_value():
    # k=1, sigma=1, n=1, M=10: Chebyshev, E R^2 / (n M^2) = 0.01, is half the
    # moment term (2k)! sigma^{2k} / (n^k M^{2k}) = 0.02
    noise = NoiseModel.polymoment(k=1, sigma_2k=1.0)
    assert eps_tail(noise, 1, 10.0) == pytest.approx(0.01)
    assert oracles._polymoment_tail(noise, 1, 10.0) == pytest.approx(0.02)


def test_eps_tail_exact_and_twopoint():
    assert eps_tail(NoiseModel.exact(), 1, 0.0) == 0.0
    noise = NoiseModel("twopoint", p=0.3, m_shift=1.0)
    assert eps_tail(noise, 1, 1.0) == 0.0          # bounded support
    assert eps_tail(noise, 1, 0.5) > 0.0


def test_eps_tail_input_validation():
    noise = NoiseModel.subgaussian(1.0)
    with pytest.raises(ValueError):
        eps_tail(noise, 0, 1.0)
    with pytest.raises(ValueError):
        eps_tail(noise, 1, -1.0)
    assert eps_tail(noise, 1, 0.0) == math.inf


def test_eps_tail_subweibull_batches():
    # every n has a finite bound, none above the one-draw bound
    for zeta in (0.5, 1.0, 1.5, 3.0):
        noise = NoiseModel.subweibull(zeta=zeta, sigma_g=1.0)
        one = eps_tail(noise, 1, 2.0)
        assert 0.0 < one < math.inf
        for n in (2, 3, 10, 10 ** 6):
            assert 0.0 <= eps_tail(noise, n, 2.0) <= one


def _single_draw_tail(zeta, sigma, m):
    # (1/M) E[R 1{R > M}], R = sigma (E/2)^(1/zeta): with a = 1 + 1/zeta,
    # sigma 2^(-1/zeta) Gamma(a, 2 (M/sigma)^zeta) / M (upper incomplete gamma)
    a = 1.0 + 1.0 / zeta
    return (sigma * 2.0 ** (-1.0 / zeta) * special.gamma(a)
            * special.gammaincc(a, 2.0 * (m / sigma) ** zeta) / m)


@pytest.mark.parametrize("zeta", [0.1, 0.2, 0.5, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("sigma", [0.2, 1.0])
def test_eps_tail_subweibull_one_draw_covers_its_closed_form(zeta, sigma):
    # at n = 1 the batch mean is one draw, whose tail has a closed form; the
    # bound is that value at zeta = 1, so it may sit an ulp below it there
    noise = NoiseModel.subweibull(zeta=zeta, sigma_g=sigma)
    for r in (0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0):
        exact = _single_draw_tail(zeta, sigma, r * sigma)
        assert eps_tail(noise, 1, r * sigma) >= exact * (1.0 - 1e-12), (r, exact)


def _laplace_mean_tail(n, m, sigma):
    # in 1-D the zeta = 1 batch sum is G1 - G2, G ~ Gamma(n, b), b = sigma/2;
    # (1/M) E[|gbar| 1{|gbar| > M}] = 2 E[D 1{D > nM}] / (n M), D = G1 - G2,
    # with E[(G1 - g) 1{G1 > g + nM}] = n b Q(n + 1, c) - g Q(n, c), c = (g + nM)/b
    b, a = sigma / 2.0, n * m

    def integrand(g):
        c = (g + a) / b
        return stats.gamma.pdf(g, n, scale=b) * (n * b * special.gammaincc(n + 1, c)
                                                 - g * special.gammaincc(n, c))

    value, _ = integrate.quad(integrand, 0.0, math.inf, limit=200)
    return 2.0 * value / (n * m)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32, 64])
def test_eps_tail_subexponential_covers_the_exact_1d_batch_tail(n):
    sigma = 0.2
    noise = NoiseModel.subweibull(zeta=1.0, sigma_g=sigma)
    for r in (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
        # n = 1 is the single-draw value, so the margin is the quadrature's error
        exact = _laplace_mean_tail(n, r * sigma, sigma)
        assert eps_tail(noise, n, r * sigma) >= exact * (1.0 - 1e-9), (r, exact)


def _shape_and_scale(noise):
    if noise.family == "polymoment":
        return f"polymoment{noise.k}-{noise.sigma_2k}"
    return f"{noise.zeta}-{noise.sigma_g}"


@pytest.mark.parametrize("noise", [
    NoiseModel.subweibull(1.0, 0.2), NoiseModel.subweibull(1.5, 0.5),
    NoiseModel.subweibull(3.0, 0.5), NoiseModel.subweibull(0.5, 0.2),
    NoiseModel.subweibull(2.0, 1.0), NoiseModel.polymoment(1, 0.15),
    NoiseModel.polymoment(2, 0.15),
], ids=_shape_and_scale)
def test_eps_tail_subweibull_covers_a_3d_monte_carlo_tail(noise):
    # the bound holds in every dimension; 10^5 seeded batch means at d = 3
    sigma = noise.sigma_g or noise.sigma_2k
    rng = make_rng(2026, 36)
    for n in (1, 2, 4, 8):
        z = np.linalg.norm(noise.sample_batch_rows(100_000, n, 3, rng), axis=1)
        for r in (0.25, 0.5, 1.0, 2.0, 3.0, 4.0):
            m = r * sigma
            empirical = float(np.mean(z * (z > m))) / m
            assert eps_tail(noise, n, m) >= empirical, (n, r, empirical)


def _twopoint_tail(p, m_shift, n, m):
    # gbar = m_shift (p - K/n), K ~ Binomial(n, p), enumerated
    k = np.arange(n + 1)
    z = np.abs(m_shift * (p - k / n))
    return float(np.sum(stats.binom.pmf(k, n, p) * z * (z > m))) / m


@pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.9])
def test_eps_tail_twopoint_covers_the_exact_batch_tail(p):
    noise = NoiseModel("twopoint", p=p, m_shift=1.5)
    levels = np.linspace(0.02, 1.6, 40)
    for n in range(1, 65):
        for m in levels:
            exact = _twopoint_tail(p, 1.5, n, m)
            assert eps_tail(noise, n, m) >= exact * (1.0 - 1e-12), (n, m, exact)
    # below m_shift a batch helps: m1/M at n = 1, far less at n = 64
    assert eps_tail(noise, 64, 0.5) < eps_tail(noise, 1, 0.5) / 10.0


def _gaussian_mean_tail(d, n, r):
    # the subgaussian batch mean is N(0, tau^2 I_d), tau = sigma_g / sqrt(n d),
    # so Z = tau chi_d and, with a = M / tau = r sqrt(n d),
    # (1/M) E[Z 1{Z > M}] = sqrt(2) Gamma((d+1)/2) / Gamma(d/2) Q((d+1)/2, a^2/2) / a
    a = r * math.sqrt(n * d)
    return (math.sqrt(2.0) * math.exp(special.gammaln((d + 1) / 2.0) - special.gammaln(d / 2.0))
            * special.gammaincc((d + 1) / 2.0, a * a / 2.0) / a)


def test_the_subgaussian_term_covers_the_exact_gaussian_batch_tail():
    # the proved term, finite where u = sqrt(n) r - 1 > 0, r = M / sigma_g, so
    # below r = 1 for n >= 2; it covers the exact tail in every d and n tried
    noise = NoiseModel.subgaussian(1.0)
    for d in (1, 2, 3, 8, 16, 64, 256):
        for n in (1, 2, 3, 8, 64, 256):
            start = 1.0 / math.sqrt(n)
            assert oracles._subgaussian_tail(noise, n, start) == math.inf
            for r in start * np.geomspace(1.001, 12.0 * math.sqrt(n), 111):
                term = oracles._subgaussian_tail(noise, n, r)
                assert _gaussian_mean_tail(d, n, r) <= term < math.inf, (d, n, r)


@settings(max_examples=60, deadline=None)
@given(label=st.sampled_from(["subgaussian", "subweibull", "polymoment",
                              "twopoint"]),
       n=st.integers(min_value=1, max_value=64),
       m=st.floats(min_value=0.05, max_value=20.0),
       bump=st.floats(min_value=0.01, max_value=5.0))
def test_eps_tail_monotone(label, n, m, bump):
    noise = FAMILIES[label]
    base = eps_tail(noise, n, m)
    assert eps_tail(noise, n, m + bump) <= base + 1e-15
    assert eps_tail(noise, n + 1, m) <= base + 1e-15


# polymoment k 1-200 and subweibull zeta 0.2-100, sigma log-uniform in 1e-2-1e2:
# tails whose bound terms leave the float range
_HEAVY_TAILS = st.builds(
    lambda poly, k, zeta, sigma: (NoiseModel.polymoment(k, sigma) if poly
                                  else NoiseModel.subweibull(zeta, sigma)),
    st.booleans(), st.integers(1, 200), st.floats(0.2, 100.0),
    st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e))


@settings(max_examples=200, deadline=None)
@given(noise=_HEAVY_TAILS, n=st.integers(1, 2 ** 40), more=st.integers(1, 2 ** 20),
       m=st.floats(1e-3, 1e4), bump=st.floats(0.0, 1e3))
def test_eps_tail_is_returned_and_monotone_on_heavy_tails(noise, n, more, m, bump):
    # a bound past the float range is returned (as 0 or inf), never raised
    base = eps_tail(noise, n, m)
    assert 0.0 <= base <= math.inf
    assert eps_tail(noise, n, m + bump) <= base
    assert eps_tail(noise, n + more, m) <= base


def _polymoment_tail_in_logs(k, sigma, n, m):
    return math.exp(math.lgamma(2 * k + 1) + 2 * k * math.log(sigma)
                    - k * math.log(n) - 2 * k * math.log(m))


@pytest.mark.parametrize("k, sigma, n, m", [
    (100, 1.0, 1, 10.0),              # (2k)! past the floats
    (85, 1.0, 1, 66.0),               # n^k M^(2k) past them
    (70, 3.0, 2978, 2.9164918463),    # the same, at a batch size phi tries
    (74, 0.0032, 1, 0.0093),          # sigma^(2k) below them
])
def test_eps_tail_polymoment_in_logs_past_the_normal_floats(k, sigma, n, m):
    assert oracles._polymoment_tail(NoiseModel.polymoment(k, sigma), n, m) == pytest.approx(
        _polymoment_tail_in_logs(k, sigma, n, m), rel=1e-12)


def test_eps_tail_terms_past_the_floats(monkeypatch):
    # (2k)! is never built past the floats: at k = 10^9 it would take gigabytes
    factorial = math.factorial

    def small_factorial(m):
        assert m <= 170, f"factorial({m}) is past the floats"
        return factorial(m)

    monkeypatch.setattr(math, "factorial", small_factorial)
    noise = NoiseModel.polymoment(10 ** 9, 1.0)
    assert oracles._polymoment_tail(noise, 2, 1.0) == math.inf
    assert eps_tail(noise, 2, 1.0) == pytest.approx(noise.second_moment() / 2)  # Chebyshev
    assert eps_tail(NoiseModel.subweibull(60.0, 1.0), 1, 1e6) == 0.0


# ---------------------------------------------------------------------------
# phi: frozen values and minimality
# ---------------------------------------------------------------------------

def test_phi_polymoment_frozen_value():
    # invert Chebyshev, sigma^2/(n M^2) <= delta/10, at sigma=1, M=1, delta=0.1
    noise = NoiseModel.polymoment(k=1, sigma_2k=1.0)
    assert phi(noise, 1.0, 0.1) == 100


def test_phi_exact_is_one():
    assert phi(NoiseModel.exact(), 1.0, 0.01) == 1


def test_phi_subgaussian_frozen_value():
    assert phi(NoiseModel.subgaussian(0.5), 1.0, 0.01) == 6


def test_phi_subgaussian_inverts_the_closed_form():
    # at M = sigma_g = 1 the subgaussian term is exp(-u^2/2) (1 + 1/(u (u+1)))
    # with u = sqrt(n) - 1, and Chebyshev 1/n does not bind below delta = 1e-2
    noise = NoiseModel.subgaussian(1.0)

    def closed_form(n):
        u = math.sqrt(n) - 1.0
        return math.exp(-u * u / 2.0) * (1.0 + 1.0 / (u * (u + 1.0))) if u > 0 else math.inf

    for delta in (10.0 ** -k for k in range(2, 8)):
        n = next(n for n in range(1, 10 ** 4) if closed_form(n) <= delta / 10.0)
        assert 1.0 / n > delta / 10.0
        assert phi(noise, 1.0, delta) == n, delta


def test_phi_subweibull_batches_when_one_draw_is_not_enough():
    noise = NoiseModel.subweibull(zeta=1.0, sigma_g=1.0)
    n = phi(noise, 2.0, 1e-6)
    assert n > 1
    assert eps_tail(noise, n, 2.0) <= 1e-7 < eps_tail(noise, n - 1, 2.0)
    # a high enough truncation level brings it back to n = 1
    assert phi(noise, 80.0, 1e-6) == 1


def test_phi_respects_cap():
    noise = NoiseModel.polymoment(k=1, sigma_2k=1.0)
    with pytest.raises(UnsupportedCombinationError):
        phi(noise, 1.0, 1e-6, cap=100)


@settings(max_examples=40, deadline=None)
@given(label=st.sampled_from(["subgaussian", "subweibull", "polymoment", "twopoint"]),
       m=st.floats(min_value=0.8, max_value=5.0),
       delta=st.floats(min_value=1e-3, max_value=0.5))
def test_phi_minimality(label, m, delta):
    noise = FAMILIES[label]
    n = phi(noise, m, delta)
    assert eps_tail(noise, n, m) <= delta / 10.0
    if n > 1:
        assert eps_tail(noise, n - 1, m) > delta / 10.0


# ---------------------------------------------------------------------------
# metered oracles
# ---------------------------------------------------------------------------

def test_exact_gradient_oracle_and_ledger():
    pot = make_gaussian_potential([0.0], precision=1.0)
    oracle = GradientOracle(pot, NoiseModel.exact(), make_rng(0, 1))
    out = oracle.draw_batch_rows([[2.0]], 7)
    assert out[0, 0] == pytest.approx(2.0)
    assert oracle.ledger.grad_queries == 7
    rows = oracle.draw_batch_rows(np.array([[1.0], [3.0]]), 5)
    np.testing.assert_allclose(rows[:, 0], [1.0, 3.0])
    assert oracle.ledger.grad_queries == 17


@pytest.mark.parametrize("label", ["subgaussian", "subweibull", "polymoment"])
def test_gradient_oracle_unbiasedness(label):
    pot = make_gaussian_potential([0.0, 0.0], precision=1.0)
    noise = FAMILIES[label]
    rng_pts = make_rng(9, 0)
    for point_idx in range(10):
        x = rng_pts.standard_normal(2)
        oracle = GradientOracle(pot, noise, make_rng(9, 1, point_idx))
        draws = oracle.draw_batch_rows(np.tile(x, (100_000, 1)), 1)
        err = draws - pot.grad_at_rows([x])[0]
        se = err.std(axis=0) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(err.mean(axis=0)) <= 5 * se)


def test_gradient_oracle_batch_variance_scaling():
    pot = make_gaussian_potential([0.0], precision=1.0)
    oracle = GradientOracle(pot, NoiseModel.subgaussian(1.0), make_rng(4, 0))
    draws = oracle.draw_batch_rows(np.zeros((100_000, 1)), 100)[:, 0]
    assert draws.var() == pytest.approx(1.0 / 100.0, rel=0.1)


def test_gradient_oracle_determinism():
    pot = make_gaussian_potential([0.0], precision=1.0)
    a = GradientOracle(pot, NoiseModel.subgaussian(1.0), make_rng(5, 0))
    b = GradientOracle(pot, NoiseModel.subgaussian(1.0), make_rng(5, 0))
    xs = np.linspace(-1, 1, 10)[:, None]
    np.testing.assert_array_equal(a.draw_batch_rows(xs, 3),
                                  b.draw_batch_rows(xs, 3))


def test_twopoint_oracle_requires_1d():
    pot = make_gaussian_potential([0.0, 0.0], precision=1.0)
    with pytest.raises(DimensionError):
        GradientOracle(pot, NoiseModel("twopoint", p=0.1, m_shift=1.0), make_rng(0, 0))


def test_value_oracle_exact_and_noisy():
    pot = make_gaussian_potential([0.0], precision=1.0)
    oracle = ValueOracle(pot, NoiseModel.exact(), make_rng(0, 2))
    assert oracle.draw_batch_rows([[1.0]], 1)[0] == pytest.approx(0.5)
    assert oracle.draw_batch_rows([[1.0]], 4)[0] == pytest.approx(0.5)
    assert oracle.ledger.value_queries == 5

    noisy = ValueOracle(pot, NoiseModel.subgaussian(1.0), make_rng(0, 3))
    vals = noisy.draw_batch_rows(np.zeros((200_000, 1)), 1)
    se = vals.std() / math.sqrt(vals.size)
    assert abs(vals.mean() - pot.value_at_rows([[0.0]])[0]) <= 4 * se


@pytest.mark.parametrize("oracle_cls", [GradientOracle, ValueOracle])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("rows", [1, 10_000])
def test_oracles_refuse_non_finite_rows(oracle_cls, bad, rows):
    # one non-finite entry, in the last row, is refused before any noise is
    # drawn or any query counted
    pot = make_gaussian_potential([0.0, 0.0], precision=1.0)
    oracle = oracle_cls(pot, NoiseModel.subgaussian(0.5), make_rng(0, 6))
    xs = np.zeros((rows, 2))
    xs[-1, 1] = bad
    state = oracle.rng.bit_generator.state
    with pytest.raises(DimensionError):
        oracle.draw_batch_rows(xs, 3)
    assert oracle.ledger == QueryLedger()
    assert oracle.rng.bit_generator.state == state


def test_batch_size_must_be_positive():
    pot = make_gaussian_potential([0.0], precision=1.0)
    oracle = GradientOracle(pot, NoiseModel.exact(), make_rng(0, 4))
    with pytest.raises(ValueError):
        oracle.draw_batch_rows([[0.0]], 0)


def test_ledger_merge_adds_counters():
    a = QueryLedger(grad_queries=3, w_draws=2)
    b = QueryLedger(grad_queries=5, fors_attempts=7)
    a.merge(b)
    assert a.grad_queries == 8
    assert a.w_draws == 2
    assert a.fors_attempts == 7
    assert a.as_dict()["grad_queries"] == 8


def test_row_formulas_of_the_wrong_shape_are_rejected():
    # a (k,) gradient or a (k, 1) value would broadcast against the (k, 1)
    # rows or the (k,) noise into a (k, k) array
    pot = Potential(dim=1, value_rows=lambda xs: xs.copy(),
                    grad_rows=lambda xs: xs[:, 0], holder_s=1.0, holder_beta=1.0)
    xs = np.zeros((3, 1))
    for call in (lambda: pot.grad_at_rows(xs),
                 lambda: GradientOracle(pot, NoiseModel.exact(),
                                        make_rng(0)).draw_batch_rows(xs, 1)):
        with pytest.raises(DimensionError, match="grad_rows returned shape"):
            call()
    for call in (lambda: pot.value_at_rows(xs),
                 lambda: ValueOracle(pot, NoiseModel.subgaussian(0.5),
                                     make_rng(0)).draw_batch_rows(xs, 1)):
        with pytest.raises(DimensionError, match="value_rows returned shape"):
            call()
    # row formulas may return array-likes of the right shape
    lists = Potential(dim=1, value_rows=lambda xs: [0.0] * len(xs),
                      grad_rows=lambda xs: xs.tolist(), holder_s=1.0, holder_beta=1.0)
    assert GradientOracle(lists, NoiseModel.exact(), make_rng(0)).draw_batch_rows(
        xs, 1).shape == (3, 1)
    assert lists.value_at_rows(xs).dtype == np.float64


@pytest.mark.parametrize("oracle_cls", [GradientOracle, ValueOracle])
def test_unanswered_queries_are_not_metered(oracle_cls):
    # the oracle reads the formula before it draws the noise and counts the
    # queries: a formula of the wrong shape moves neither the ledger nor the
    # oracle's stream
    pot = Potential(dim=1, value_rows=lambda xs: xs.copy(),
                    grad_rows=lambda xs: xs[:, 0], holder_s=1.0, holder_beta=1.0)
    oracle = oracle_cls(pot, NoiseModel.subgaussian(0.5), make_rng(0))
    state = oracle.rng.bit_generator.state
    with pytest.raises(DimensionError, match="returned shape"):
        oracle.draw_batch_rows(np.zeros((3, 1)), 2)
    assert oracle.ledger == QueryLedger()
    assert oracle.rng.bit_generator.state == state


def test_exact_draws_are_new_arrays_the_caller_may_update():
    # exact noise adds nothing, so the draw is the potential's own rows; a
    # formula that hands back its input (or a view of it) is copied, and the
    # query points stay as they were when the caller updates the draw in place
    ident = Potential(dim=1, value_rows=lambda xs: xs[:, 0], grad_rows=lambda xs: xs,
                      holder_s=1.0, holder_beta=1.0)
    xs = np.array([[1.0], [-2.0], [-0.0]])
    before = xs.copy()
    g = GradientOracle(ident, NoiseModel.exact(), make_rng(0)).draw_batch_rows(xs, 1)
    v = ValueOracle(ident, NoiseModel.exact(), make_rng(0)).draw_batch_rows(xs, 1)
    g *= 3.0
    v *= 3.0
    np.testing.assert_array_equal(xs, before)
    np.testing.assert_array_equal(g, 3.0 * before)
    np.testing.assert_array_equal(v, 3.0 * before[:, 0])
