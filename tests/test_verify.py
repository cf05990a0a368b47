"""Tests for the statistical verification toolkit."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from forsample import kstwo
from forsample.core import GaussianReference
from forsample.errors import DimensionError
from forsample.oracles import make_rng
from forsample.verify import (
    TVEstimate,
    chi2_discrete,
    discrete_law_oracle,
    empirical_tv_1d,
    empirical_tv_two_sample,
    gaussian_tv_exact,
    ks_test,
    scaling_slope,
    seeds_pass_rule,
)

_STD_REF = GaussianReference([0.0], [1.0])
_BAD_CDFS = pytest.mark.parametrize("bad", [
    lambda t: 0.5,                        # a scalar
    lambda t: np.full(t.size - 1, 0.5),   # one value short
    lambda t: np.where(t > 0, np.nan, 0.25),
    lambda t: np.where(t > 0, np.inf, 0.25),
    lambda t: stats.norm.cdf(t) - 0.01,   # below 0
    lambda t: stats.norm.cdf(t) + 0.01,   # above 1
], ids=["scalar", "short", "nan", "inf", "negative", "above_one"])


# ---------------------------------------------------------------------------
# sample shapes
# ---------------------------------------------------------------------------

def test_1d_checks_reject_multidim_batches():
    batch = np.zeros((200, 2))
    with pytest.raises(DimensionError):
        empirical_tv_1d(batch, _STD_REF)
    with pytest.raises(DimensionError):
        ks_test(batch, stats.norm.cdf)


def test_minimum_sample_count():
    with pytest.raises(ValueError):
        empirical_tv_1d(np.zeros(50), _STD_REF)


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------

def test_tv_of_reference_samples_is_small():
    samples = make_rng(101).standard_normal(100_000)
    est = empirical_tv_1d(samples, _STD_REF)
    assert est.value <= 0.02
    assert est.bins == 50 and est.n_samples == 100_000


def test_tv_detects_a_mean_shift():
    samples = make_rng(102).standard_normal(200_000)
    est = empirical_tv_1d(samples, GaussianReference([0.5], [1.0]))
    assert est.value == pytest.approx(gaussian_tv_exact(0.0, 0.5), abs=0.02)


def test_bias_bound_formula():
    est = TVEstimate(value=0.0, bins=50, n_samples=10_000)
    assert est.bias_bound == pytest.approx(math.sqrt(50 / 20_000.0))


def test_two_sample_tv_symmetry_and_null():
    rng = make_rng(103)
    xs, ys = rng.standard_normal((2, 50_000))
    a = empirical_tv_two_sample(xs, ys)
    b = empirical_tv_two_sample(ys, xs)
    assert a.value == pytest.approx(b.value, abs=1e-12)
    assert a.value <= 0.03


def test_two_sample_tv_disjoint_supports():
    xs = make_rng(104).uniform(0.0, 1.0, 10_000)
    est = empirical_tv_two_sample(xs, xs + 10.0)
    assert est.value >= 0.95


def test_gaussian_tv_exact_frozen_values():
    assert gaussian_tv_exact(0.0, 0.1) == pytest.approx(0.0398776, abs=1e-6)
    assert gaussian_tv_exact(0.0, 0.02) == pytest.approx(0.0079787, abs=1e-6)
    assert gaussian_tv_exact(0.0, 0.5) == pytest.approx(0.1974127, abs=1e-6)
    assert gaussian_tv_exact(1.0, 0.0) == gaussian_tv_exact(0.0, 1.0)
    assert gaussian_tv_exact(0.0, 1.0, sigma=2.0) == pytest.approx(
        gaussian_tv_exact(0.0, 0.5))
    with pytest.raises(ValueError):
        gaussian_tv_exact(0.0, 1.0, sigma=0.0)


def test_tv_refuses_fewer_than_two_bins():
    samples = make_rng(110).standard_normal(200)
    for bins in (1, 0):
        with pytest.raises(ValueError, match="2 bins"):
            empirical_tv_1d(samples, _STD_REF, bins=bins)


@_BAD_CDFS
def test_tv_refuses_a_cdf_that_is_no_cdf(bad):
    samples = make_rng(108).standard_normal(200)
    with pytest.raises(ValueError, match="cdf must return"):
        empirical_tv_1d(samples, SimpleNamespace(cdf=bad))


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov
# ---------------------------------------------------------------------------

def test_ks_null_p_values_are_uniform():
    ps = []
    for seed in range(100):
        samples = make_rng(105, seed).standard_normal(2_000)
        _, p = ks_test(samples, stats.norm.cdf)
        ps.append(p)
    counts, _ = np.histogram(ps, bins=10, range=(0.0, 1.0))
    assert stats.chisquare(counts).pvalue > 0.01


def test_ks_detects_a_small_shift():
    samples = make_rng(106).standard_normal(10_000) + 0.1
    _, p = ks_test(samples, stats.norm.cdf)
    assert p < 1e-6


# (n, D, the kernel of scipy's _kolmogn survival path that D reaches); t = n D
_KS_BRANCHES = [
    (100, 0.8 / 100, None),                            # t <= 1, Ruben-Gambino
    (10 ** 5, 0.8 / 10 ** 5, None),                    # t <= 1, by Stirling
    (100, 1 - 0.5 / 100, None),                        # t >= n - 1, Ruben-Gambino
    (141, 0.6, "smirnov"),                             # D >= 1/2, exact
    (100, math.sqrt(0.5 / 100), "durbin"),             # n D^2 < 0.754693
    (140, math.sqrt(0.7 / 140), "durbin"),
    (100, math.sqrt(2.0 / 100), "pomeranz"),           # n D^2 <= 4
    (140, math.sqrt(4.0 / 140), "pomeranz"),
    (100, math.sqrt(10.0 / 100), "smirnov"),           # n <= 140, n D^2 > 4
    (141, 0.04, "durbin"),                             # n D^2 < 2.2, n D^1.5 <= 1.4
    (10 ** 4, 2e-3, "durbin"),
    (10 ** 5, 3e-4, "durbin"),
    (141, math.sqrt(1.0 / 141), "pelz_good"),          # n D^2 < 2.2, n D^1.5 > 1.4
    (10 ** 4, math.sqrt(1.0 / 10 ** 4), "pelz_good"),
    (10 ** 5, math.sqrt(2.0 / 10 ** 5), "pelz_good"),
    (141, math.sqrt(2.2 / 141), "smirnov"),            # n D^2 >= 2.2
    (10 ** 4, math.sqrt(18.0 / 10 ** 4), "smirnov"),   # n D^2 >= 18
    (10 ** 5, math.sqrt(370.0 / 10 ** 5), None),       # n D^2 >= 370: zero
]


def test_ks_tail_matches_scipy_bit_for_bit_on_every_branch(monkeypatch):
    import scipy.special
    calls = []

    def spy(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    for name in ("durbin", "pomeranz", "pelz_good"):
        monkeypatch.setattr(kstwo, f"_{name}_cdf", spy(name, getattr(kstwo, f"_{name}_cdf")))
    monkeypatch.setattr(scipy.special, "smirnov", spy("smirnov", scipy.special.smirnov))
    for n, d, branch in _KS_BRANCHES:
        calls.clear()
        got = kstwo.kstwo_sf(d, n)
        assert calls == ([branch] if branch else []), (n, d)
        assert got == float(np.clip(stats.kstwo.sf(d, n), 0.0, 1.0)), (n, d)
    assert kstwo.kstwo_sf(0.5 / 100, 100) == 1.0 == stats.kstwo.sf(0.5 / 100, 100)
    assert kstwo.kstwo_sf(1.0, 100) == 0.0 == stats.kstwo.sf(1.0, 100)


@pytest.mark.parametrize("n", [100, 140, 141, 10 ** 4, 10 ** 5])
def test_ks_test_matches_scipy_kstest_bit_for_bit(n):
    # shifts from the null to D >= 1/2 span the branches of the tail
    for shift in (0.0, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0):
        xs = make_rng(107, n).standard_normal(n) + shift
        ref = stats.kstest(xs, stats.norm.cdf)
        assert ks_test(xs, _STD_REF.cdf) == (float(ref.statistic), float(ref.pvalue))
    # a near-perfect and a degenerate fit: t <= 1 and t >= n - 1
    grid = (np.arange(n) + 0.3) / n
    for xs in (grid, 1.0 - grid * 1e-3 / n):
        ref = stats.kstest(xs, lambda t: t)
        assert ks_test(xs, lambda t: t) == (float(ref.statistic), float(ref.pvalue))


@_BAD_CDFS
def test_ks_test_rejects_a_cdf_that_is_no_cdf(bad):
    samples = make_rng(108).standard_normal(200)
    with pytest.raises(ValueError, match="cdf must return"):
        ks_test(samples, bad)


def test_chi2_and_gaussian_match_scipy_stats_bit_for_bit():
    rng = make_rng(109)
    for k in (2, 3, 7, 40):
        probs = rng.dirichlet(np.ones(k))
        counts = rng.multinomial(5_000, probs)
        ref = stats.chisquare(counts, counts.sum() * probs)
        assert chi2_discrete(counts, probs) == (float(ref.statistic), float(ref.pvalue))
    ts = np.concatenate([rng.normal(0.0, 3.0, 50), [-np.inf, -40.0, 0.0, 40.0, np.inf]])
    for mean, var in ((0.0, 1.0), (2.0 / 3.0, 1.0 / 3.0), (-1.5, 7.0)):
        ref, law = GaussianReference([mean], [var]), stats.norm(mean, math.sqrt(var))
        assert np.array_equal(ref.cdf(ts), law.cdf(ts))
        assert ref.cdf(0.3) == law.cdf(0.3)
    for gap in (0.0, 0.02, 0.1, 0.5, 3.0, 40.0):
        assert gaussian_tv_exact(0.0, gap) == float(2.0 * stats.norm.cdf(gap / 2.0) - 1.0)


# ---------------------------------------------------------------------------
# discrete laws
# ---------------------------------------------------------------------------

def test_discrete_law_oracle_values():
    # q uniform on two points with tilts (0, log 3) gives (1/4, 3/4)
    assert np.allclose(discrete_law_oracle([0.5, 0.5], [0.0, math.log(3.0)]),
                       [0.25, 0.75])
    assert np.allclose(discrete_law_oracle([0.2, 0.3, 0.5], [1.0, 1.0, 1.0]),
                       [0.2, 0.3, 0.5])
    assert np.allclose(discrete_law_oracle([0.0, 1.0], [5.0, 0.0]), [0.0, 1.0])


def test_discrete_law_oracle_validation():
    with pytest.raises(ValueError):
        discrete_law_oracle([0.5], [0.0, 1.0])
    with pytest.raises(ValueError):
        discrete_law_oracle([-0.1, 1.1], [0.0, 0.0])
    with pytest.raises(ValueError):
        discrete_law_oracle([0.0, 0.0], [0.0, 0.0])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       size=st.integers(1, 8),
       shift=st.floats(-5.0, 5.0))
def test_discrete_law_oracle_properties(seed, size, shift):
    rng = make_rng(seed)
    q = rng.dirichlet(np.ones(size))
    w = rng.uniform(-3.0, 3.0, size)
    law = discrete_law_oracle(q, w)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(law >= 0)
    # shifting every tilt by a constant leaves the law unchanged
    assert np.allclose(law, discrete_law_oracle(q, w + shift), atol=1e-12)


def test_chi2_discrete():
    probs = np.array([0.25, 0.25, 0.5])
    _, p_good = chi2_discrete(np.array([250, 260, 490]), probs)
    assert p_good > 0.05
    _, p_bad = chi2_discrete(np.array([500, 250, 250]), probs)
    assert p_bad < 1e-6
    with pytest.raises(ValueError):
        chi2_discrete(np.array([1, 2]), np.array([0.4, 0.4]))
    with pytest.raises(ValueError):
        chi2_discrete(np.array([1, 2, 3]), probs[:2])


# ---------------------------------------------------------------------------
# slopes and seed rules
# ---------------------------------------------------------------------------

def test_scaling_slope_values():
    xs = np.array([5.0, 10.0, 20.0, 40.0, 80.0])
    assert scaling_slope(xs, 7.0 / xs) == pytest.approx(-1.0, abs=1e-9)
    assert scaling_slope(xs, 3.0 * xs ** 2) == pytest.approx(2.0, abs=1e-9)
    assert scaling_slope(xs, np.full(5, 4.2)) == pytest.approx(0.0, abs=1e-12)
    # logarithmic growth looks nearly flat on the log-log scale
    assert abs(scaling_slope(xs, np.log(10.0 * xs))) < 0.3


def test_scaling_slope_validation():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    with pytest.raises(ValueError):
        scaling_slope(xs[:3], xs[:3])
    with pytest.raises(ValueError):
        scaling_slope(xs, np.array([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        scaling_slope(np.full(4, 2.0), xs)


def test_seeds_pass_rule():
    ps = np.array([0.5] * 18 + [0.001] * 2)
    assert seeds_pass_rule(ps)
    assert not seeds_pass_rule(np.array([0.5] * 17 + [0.001] * 3))
    # the threshold is strict: p must exceed alpha
    assert not seeds_pass_rule(np.array([0.01] * 20))
    assert seeds_pass_rule(np.array([0.5] * 5), min_pass=5)
