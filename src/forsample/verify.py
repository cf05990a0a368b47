"""Statistical verification tools: TV estimates, KS tests, exact discrete laws.

Total variation against an analytic 1-D reference is estimated by binning
into equal-mass cells of the reference (edges from its quantile function),
so every cell holds exactly 1/bins of the analytic mass and the estimate is
half the L1 error of the empirical cell masses.  The plug-in estimator is
upward biased by at most sqrt(bins / (2 n)) in expectation, which reports
carry alongside the point estimate.

The KS and chi-square tests and the exact Gaussian TV come from
``scipy.stats``, imported on first use inside those functions: importing
this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError


@dataclass(frozen=True)
class SampleBatch:
    """Points plus the metadata needed to reproduce them."""

    points: np.ndarray
    seed: int | None = None
    label: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise DimensionError("points must be a nonempty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise DimensionError("points contain non-finite values")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def coordinate(self, i: int = 0) -> np.ndarray:
        return self.points[:, i]


def _as_1d_samples(samples, min_n: int = 100) -> np.ndarray:
    if isinstance(samples, SampleBatch):
        if samples.dim != 1:
            raise DimensionError("1-D check requires scalar samples; pass a coordinate")
        arr = samples.coordinate()
    else:
        arr = np.asarray(samples, dtype=float).ravel()
    if arr.size < min_n:
        raise ValueError(f"need at least {min_n} samples, got {arr.size}")
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


def equal_mass_edges(reference, bins: int) -> np.ndarray:
    """Interior bin edges at the reference quantiles i/bins, i=1..bins-1."""
    if bins < 2:
        raise ValueError("need at least 2 bins")
    qs = np.arange(1, bins) / bins
    edges = np.asarray([float(reference.ppf(q)) for q in qs])
    if np.any(np.diff(edges) <= 0):
        raise ValueError("reference quantiles are not strictly increasing")
    return edges


def empirical_tv_1d(samples, reference, bins: int = 50) -> TVEstimate:
    """Plug-in TV between 1-D samples and an analytic reference density.

    ``reference`` needs a ppf method (the catalog references all have one).
    Bins are equal-mass under the reference, so the analytic mass per cell
    is exactly 1/bins.
    """
    arr = _as_1d_samples(samples)
    edges = equal_mass_edges(reference, bins)
    counts = np.bincount(np.searchsorted(edges, arr), minlength=bins)
    emp = counts / arr.size
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
    from scipy import stats
    gap = abs(mean1 - mean2) / (2.0 * sigma)
    return float(2.0 * stats.norm.cdf(gap) - 1.0)


def ks_test(samples, cdf) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""
    from scipy import stats
    arr = _as_1d_samples(samples)
    result = stats.kstest(arr, cdf)
    return float(result.statistic), float(result.pvalue)


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
    from scipy import stats
    expected = counts.sum() * probs
    result = stats.chisquare(counts, expected)
    return float(result.statistic), float(result.pvalue)


def chi2_uniformity(values, bins: int = 10) -> float:
    """P-value of a chi-square test that values are uniform on [0, 1]."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 2 * bins:
        raise ValueError("need a 1-D array with at least 2 samples per bin")
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError("values must lie in [0, 1]")
    from scipy import stats
    counts, _ = np.histogram(arr, bins=bins, range=(0.0, 1.0))
    return float(stats.chisquare(counts).pvalue)


def seeds_pass_rule(p_values, alpha: float = 0.01, min_pass: int = 18) -> bool:
    """The flakiness rule: at least min_pass of the seeds exceed alpha."""
    ps = np.asarray(p_values, dtype=float)
    return int((ps > alpha).sum()) >= min_pass
