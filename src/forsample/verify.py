"""Statistical verification tools: TV estimates, KS tests, exact discrete laws.

Total variation against an analytic 1-D reference is estimated by binning
into equal-mass cells of the reference, read off its cdf, so every cell
holds exactly 1/bins of the analytic mass and the estimate is half the L1
error of the empirical cell masses.  The plug-in estimator is upward biased
by at most sqrt(bins / (2 n)) in expectation, which reports carry alongside
the point estimate.

The KS and chi-square tests and the exact Gaussian TV equal scipy.stats's bit
for bit from ``scipy.special`` alone (the KS tail is ported in ``kstwo``),
imported on first use inside them: importing this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .kstwo import kstwo_sf

MIN_SAMPLES = 100  # the fewest samples a 1-D check takes; a config may give no fewer


def _as_1d_samples(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim > 1 and arr.size != arr.shape[0]:
        raise DimensionError("1-D check requires scalar samples; pass a coordinate")
    arr = arr.ravel()
    if arr.size < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples contain non-finite values")
    return arr


@dataclass(frozen=True)
class TVEstimate:
    value: float
    bins: int
    n_samples: int

    @property
    def bias_bound(self) -> float:
        """Expected upward bias of the plug-in estimate is below this."""
        return math.sqrt(self.bins / (2.0 * self.n_samples))


def _cdf_values(cdf, arr: np.ndarray) -> np.ndarray:
    """``cdf(arr)``; ValueError unless finite, in [0, 1] and of arr's shape."""
    f = np.asarray(cdf(arr), dtype=float)
    if f.shape != arr.shape or not np.all(np.isfinite(f)) or f.min() < 0 or f.max() > 1:
        raise ValueError(f"cdf must return finite values in [0, 1] of shape {arr.shape}")
    return f


def _cell_counts(samples: np.ndarray, cdf, bins: int) -> np.ndarray:
    """Samples per equal-mass cell of F = ``cdf``: x is in cell
    ceil(bins F(x)) - 1, clipped to [0, bins - 1], which is the cell of the
    edges F^-1(i/bins) that holds x, an x at an edge in the cell below it."""
    cells = np.ceil(bins * _cdf_values(cdf, samples)) - 1
    return np.bincount(np.clip(cells, 0, bins - 1).astype(np.intp), minlength=bins)


def empirical_tv_1d(samples, reference, bins: int = 50) -> TVEstimate:
    """Plug-in TV between 1-D samples and an analytic reference density,
    binned by the equal-mass cells of its ``cdf`` (checked as in ``ks_test``)."""
    arr = _as_1d_samples(samples)
    if bins < 2:
        raise ValueError("need at least 2 bins")
    emp = _cell_counts(arr, reference.cdf, bins) / arr.size
    tv = 0.5 * float(np.abs(emp - 1.0 / bins).sum())
    return TVEstimate(value=tv, bins=bins, n_samples=arr.size)


def empirical_tv_two_sample(xs, ys, bins: int = 50) -> TVEstimate:
    """Symmetric plug-in TV between two 1-D sample sets.

    Bin edges are equal-mass quantiles of the pooled sample, so swapping the
    arguments gives the identical estimate.
    """
    xs = _as_1d_samples(xs)
    ys = _as_1d_samples(ys)
    pooled = np.concatenate([xs, ys])
    edges = np.quantile(pooled, np.arange(1, bins) / bins)
    px = np.bincount(np.searchsorted(edges, xs), minlength=bins) / xs.size
    py = np.bincount(np.searchsorted(edges, ys), minlength=bins) / ys.size
    tv = 0.5 * float(np.abs(px - py).sum())
    return TVEstimate(value=tv, bins=bins, n_samples=min(xs.size, ys.size))


def gaussian_tv_exact(mean1: float, mean2: float, sigma: float = 1.0) -> float:
    """Exact TV between two equal-variance 1-D Gaussians: 2 Phi(|dm|/2s) - 1."""
    if not (sigma > 0):
        raise ValueError("sigma must be positive")
    from scipy.special import ndtr
    gap = abs(mean1 - mean2) / (2.0 * sigma)
    return float(2.0 * ndtr(gap) - 1.0)


def ks_test(samples, cdf) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov statistic and two-sided p-value.

    What ``scipy.stats.kstest`` returns by default: D = max(D+, D-) with
    D+ = max(i/n - F), D- = max(F - (i-1)/n) and F = ``cdf`` of the sorted
    sample, and the p-value is the finite-n ``kstwo.sf(D, n)``, not the
    asymptotic Kolmogorov tail.  ValueError unless F is finite, in [0, 1]
    and of the sample's shape.
    """
    arr = np.sort(_as_1d_samples(samples))
    f, n = _cdf_values(cdf, arr), arr.size
    d_plus = (np.arange(1.0, n + 1) / n - f).max()
    d_minus = (f - np.arange(0.0, n) / n).max()
    d = float(d_plus if d_plus > d_minus else d_minus)
    return d, kstwo_sf(d, n)


def discrete_law_oracle(q, w_means) -> np.ndarray:
    """Exact normalized law proportional to q(x) * exp(E[W | x]).

    Brute-force reference for the rejection sampler on finite supports; the
    largest exponent is subtracted before exponentiation for stability.
    """
    q = np.asarray(q, dtype=float)
    w = np.asarray(w_means, dtype=float)
    if q.shape != w.shape or q.ndim != 1 or q.size == 0:
        raise ValueError("q and w_means must be matching nonempty 1-D arrays")
    if np.any(q < 0) or q.sum() <= 0:
        raise ValueError("q must be a nonnegative vector with positive mass")
    raw = q * np.exp(w - w.max())
    return raw / raw.sum()


def scaling_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 4:
        raise ValueError("need matching 1-D arrays with at least 4 points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs strictly positive values")
    lx = np.log(xs)
    if np.ptp(lx) < 1e-12:
        raise ValueError("degenerate x-range")
    slope, _ = np.polyfit(lx, np.log(ys), 1)
    return float(slope)


def chi2_discrete(counts, probs) -> tuple[float, float]:
    """Chi-square statistic and p-value of observed counts vs a discrete law."""
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if counts.shape != probs.shape or counts.ndim != 1:
        raise ValueError("counts and probs must be matching 1-D arrays")
    if not math.isclose(probs.sum(), 1.0, abs_tol=1e-9):
        raise ValueError("probs must sum to 1")
    from scipy.special import chdtrc
    expected = counts.sum() * probs
    stat = float(((counts - expected) ** 2 / expected).sum())
    return stat, float(chdtrc(counts.size - 1, stat))


def seeds_pass_rule(p_values, alpha: float = 0.01, min_pass: int = 18) -> bool:
    """The flakiness rule: at least min_pass of the seeds exceed alpha."""
    ps = np.asarray(p_values, dtype=float)
    return int((ps > alpha).sum()) >= min_pass
