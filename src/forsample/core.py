"""Potentials, smoothness metadata, and analytic reference densities.

A target density is represented by its potential f (the density is
proportional to exp(-f)) together with the smoothness metadata the
planners consume: a Hölder exponent ``s`` and constant ``beta`` with
||grad f(x) - grad f(y)|| <= beta * ||x - y||^s.  The functional-inequality
constant a plan targets is declared apart, in an ``AssumptionCase``.
Catalog constructors return well-known families with exact metadata and
their reference law, one analytic 1-D law per coordinate, which the
statistical verification tools test samples against.

The reference laws take the normal CDF and gamma functions from
``scipy.special``, imported inside the methods that call them: importing
this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Literal

import numpy as np

from .errors import DimensionError

Array = np.ndarray


def as_vector(x, dim: int | None = None) -> Array:
    """Validate and return ``x`` as a finite 1-D float64 array.

    Raises DimensionError on wrong shape, wrong length, or non-finite
    entries.  Dimension checks are eager everywhere: a bad vector fails at
    the call site, never deep inside a sampler loop.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionError(f"expected dimension {dim}, got {arr.shape[0]}")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:  # .all() costs 2x on tiny arrays
        raise DimensionError("vector has non-finite entries")
    return arr


def as_rows(x, dim: int | None = None) -> Array:
    """Validate a (k, d) stack of row vectors."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a (k, d) array, got shape {arr.shape}")
    if dim is not None and arr.shape[1] != dim:
        raise DimensionError(f"expected row dimension {dim}, got {arr.shape[1]}")
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise DimensionError("row array has non-finite entries")
    return arr


# ---------------------------------------------------------------------------
# reference densities (1-D analytic forms with pdf/cdf)
# ---------------------------------------------------------------------------

class Reference:
    """A law on R^dim with independent coordinates; ``marginal(i)`` is the
    law of coordinate i.

    cdf is a 1-D operation and refuses a dim > 1 law; a law gives its 1-D
    ``_cdf``.
    """

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim: must be >= 1, got {self.dim!r}")

    def marginal(self, i: int = 0):
        """The law of coordinate i; a product law's is its 1-D law."""
        self._coordinate(i)
        return replace(self, dim=1)

    def _coordinate(self, i: int) -> slice:
        if not 0 <= i < self.dim:
            raise DimensionError(f"coordinate {i} of a {self.dim}-D reference")
        return slice(i, i + 1)

    def cdf(self, t):
        if self.dim != 1:
            raise DimensionError("cdf is a 1-D operation; use marginal(i)")
        return self._cdf(t)


@dataclass(frozen=True)
class GaussianReference(Reference):
    """Diagonal-covariance Gaussian reference, exact in any dimension."""

    mean: Array
    variances: Array

    def __post_init__(self):
        object.__setattr__(self, "mean", as_vector(self.mean))
        super().__post_init__()
        object.__setattr__(self, "variances", as_vector(self.variances, self.dim))
        if np.any(self.variances <= 0):
            raise ValueError("variances must be positive")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def marginal(self, i: int = 0) -> "GaussianReference":
        at = self._coordinate(i)
        return GaussianReference(self.mean[at], self.variances[at])

    def _cdf(self, t):
        from scipy.special import ndtr
        return ndtr((t - self.mean[0]) / math.sqrt(self.variances[0]))


@dataclass(frozen=True)
class HuberReference(Reference):
    """Density proportional to exp(-sum_i h_c(t_i)) for the Huber potential."""

    threshold: float
    dim: int = 1

    def __post_init__(self):
        if not (self.threshold > 0):
            raise ValueError("threshold must be positive")
        super().__post_init__()

    @property
    def _z(self) -> float:
        from scipy.special import ndtr
        c = self.threshold
        core = math.sqrt(2 * math.pi) * (2 * ndtr(c) - 1)
        tails = (2.0 / c) * math.exp(-c * c / 2)
        return core + tails

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        c = self.threshold
        f = np.where(np.abs(t) <= c, t * t / 2, c * np.abs(t) - c * c / 2)
        return np.exp(-f) / self._z

    def _cdf(self, t):
        from scipy.special import ndtr
        t = np.asarray(t, dtype=float)
        c, z = self.threshold, self._z
        tail = np.exp(-c * c / 2) / c          # mass of one exponential tail
        lower = tail * np.exp(c * (np.minimum(t, -c) + c))
        mid = math.sqrt(2 * math.pi) * (ndtr(np.clip(t, -c, c)) - ndtr(-c))
        upper = tail * (1 - np.exp(-c * (np.maximum(t, c) - c)))
        return (lower + mid + upper) / z


@dataclass(frozen=True)
class PowerReference(Reference):
    """Density proportional to exp(-sum_i |t_i|^p / p), 1 < p <= 2."""

    p: float
    dim: int = 1

    def __post_init__(self):
        if not (1.0 < self.p <= 2.0):
            raise ValueError("p must lie in (1, 2]")
        super().__post_init__()

    @property
    def _half_z(self) -> float:
        from scipy import special
        p = self.p
        return (p ** (1.0 / p) / p) * special.gamma(1.0 / p)

    def variance(self) -> float:
        from scipy import special
        p = self.p
        return p ** (2.0 / p) * special.gamma(3.0 / p) / special.gamma(1.0 / p)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-np.abs(t) ** self.p / self.p) / (2 * self._half_z)

    def _cdf(self, t):
        from scipy import special
        t = np.asarray(t, dtype=float)
        g = special.gammainc(1.0 / self.p, np.abs(t) ** self.p / self.p)
        return 0.5 + 0.5 * np.sign(t) * g


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class Potential:
    """A potential f with gradient access and smoothness metadata.

    The potential is written once, as row formulas over a (k, dim) stack of
    points.  ``value_at_rows``/``grad_at_rows`` are the validated entry: a
    single point is the one-row stack ``[x]``.

    Parameters
    ----------
    dim : int
        Ambient dimension; every vector passed in is validated against it.
    value_rows, grad_rows : callables
        (k, dim) -> (k,) values and (k, dim) gradients, one per row.
    holder_s, holder_beta : float
        Hölder-gradient parameters, s in [0, 1], beta > 0.
    reference : optional analytic reference density for verification.
    """

    dim: int
    value_rows: Callable[[Array], Array]
    grad_rows: Callable[[Array], Array]
    holder_s: float
    holder_beta: float
    reference: Reference | None = None
    name: str = "custom"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim: must be >= 1, got {self.dim!r}")
        if not (0.0 <= self.holder_s <= 1.0):
            raise ValueError("holder_s must lie in [0, 1]")
        if not (self.holder_beta > 0):
            raise ValueError("holder_beta must be positive")

    @cached_property
    def m_s(self) -> float:
        """Effective smoothness scale beta^(1/(1+s))."""
        return self.holder_beta ** (1.0 / (1.0 + self.holder_s))

    def value_at_rows(self, xs: Array) -> Array:
        xs = as_rows(xs, self.dim)
        v = np.asarray(self.value_rows(xs), dtype=np.float64)
        if v.shape != xs.shape[:1]:
            raise DimensionError(f"value_rows returned shape {v.shape}, expected {xs.shape[:1]}")
        return v

    def grad_at_rows(self, xs: Array) -> Array:
        xs = as_rows(xs, self.dim)
        g = np.asarray(self.grad_rows(xs), dtype=np.float64)
        if g.shape != xs.shape:
            raise DimensionError(f"grad_rows returned shape {g.shape}, expected {xs.shape}")
        return g


CASE_TAGS = ("LSI", "PI", "LC")


@dataclass(frozen=True)
class AssumptionCase:
    """Which functional-inequality case a plan targets.

    ``constant`` is the log-Sobolev constant for tag "LSI" or the Poincaré
    constant for tag "PI"; ``w2_bound`` is an upper bound on the Wasserstein-2
    distance from the warm start to the target, required for tag "LC".
    ``warm_start_delta`` is log(1 + chi^2(mu_0 || target)).
    """

    tag: Literal["LSI", "PI", "LC"]
    constant: float | None = None
    warm_start_delta: float = 0.0
    w2_bound: float | None = None

    def __post_init__(self):
        if self.tag not in CASE_TAGS:
            raise ValueError(f"tag: expected one of {CASE_TAGS}, got {self.tag!r}")
        if self.tag in ("LSI", "PI"):
            if self.constant is None or not (self.constant > 0):
                raise ValueError(f"constant: must be positive for the {self.tag} "
                                 f"case, got {self.constant!r}")
        if self.tag == "LC":
            if self.w2_bound is None or not (self.w2_bound > 0):
                raise ValueError(f"w2_bound: must be positive for the LC case, "
                                 f"got {self.w2_bound!r}")
        if self.warm_start_delta < 0:
            raise ValueError(f"warm_start_delta: must be nonnegative, "
                             f"got {self.warm_start_delta!r}")


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _param_vector(name: str, value, dim: int | None = None) -> Array:
    """as_vector for a catalog parameter: its errors name the parameter."""
    try:
        return as_vector(value, dim)
    except DimensionError as exc:
        raise DimensionError(f"{name}: {exc}") from None


def make_gaussian_potential(mean, precision: float = 1.0) -> Potential:
    """Isotropic Gaussian: f(x) = (precision/2) * ||x - mean||^2, the
    axis-aligned Gaussian with every precision equal."""
    mean = _param_vector("mean", mean)
    if not (precision > 0):
        raise ValueError(f"precision: must be positive, got {precision!r}")
    lam = np.full(mean.shape[0], float(precision))
    return replace(make_aniso_gaussian_potential(mean, lam), name="gaussian")


def make_aniso_gaussian_potential(mean, precisions) -> Potential:
    """Axis-aligned Gaussian: f(x) = (1/2) * sum_i lam_i (x_i - m_i)^2.

    Its log-Sobolev and Poincaré constants are both the largest variance
    1/lam_i of the reference.
    """
    mean = _param_vector("mean", mean)
    lam = _param_vector("precisions", precisions, mean.shape[0])
    if np.any(lam <= 0):
        raise ValueError(f"precisions: must be positive, got {lam.tolist()!r}")

    return Potential(
        dim=mean.shape[0],
        value_rows=lambda xs: 0.5 * np.sum(lam * (xs - mean) ** 2, axis=1),
        grad_rows=lambda xs: lam * (xs - mean),
        holder_s=1.0,
        holder_beta=float(lam.max()),
        reference=GaussianReference(mean, 1.0 / lam),
        name="aniso_gaussian",
    )


def make_huber_potential(threshold: float = 0.5, dim: int = 1) -> Potential:
    """Huber potential: quadratic core, linear tails, bounded gradient.

    The gradient is clip(t, -c, c) per coordinate, so the Hölder condition
    holds with s = 0 and beta = 2*c*sqrt(dim).
    """
    c = float(threshold)
    if not (c > 0):
        raise ValueError(f"threshold: must be positive, got {threshold!r}")
    if dim < 1:  # before sqrt(dim)
        raise ValueError(f"dim: must be >= 1, got {dim!r}")

    return Potential(
        dim=dim,
        value_rows=lambda xs: np.sum(
            np.where(np.abs(xs) <= c, xs * xs / 2, c * np.abs(xs) - c * c / 2), axis=1),
        grad_rows=lambda xs: np.clip(xs, -c, c),
        holder_s=0.0,
        holder_beta=2.0 * c * math.sqrt(dim),
        reference=HuberReference(c, dim),
        name="huber",
    )


def make_power_potential(p: float = 1.5, dim: int = 1) -> Potential:
    """Heavy-tailed log-concave family: f(x) = sum_i |x_i|^p / p, 1 < p <= 2.

    For p < 2 the tails are heavier than Gaussian, so the density satisfies a
    Poincaré inequality but no log-Sobolev inequality: the test target for
    the Poincaré-case planner.  The gradient |t|^(p-1) sgn(t) is Hölder with
    s = p - 1 and beta = 2^(1-s) * dim^((1-s)/2).
    """
    if not (1.0 < p <= 2.0):
        raise ValueError(f"p: must be in (1, 2], got {p!r}")
    p = float(p)
    s = p - 1.0

    return Potential(
        dim=dim,
        value_rows=lambda xs: np.sum(np.abs(xs) ** p, axis=1) / p,
        grad_rows=lambda xs: np.abs(xs) ** s * np.sign(xs),
        holder_s=s,
        holder_beta=2.0 ** (1.0 - s) * dim ** ((1.0 - s) / 2.0),
        reference=PowerReference(p, dim),
        name="power",
    )


CATALOG: dict[str, Callable[..., Potential]] = {
    "gaussian": make_gaussian_potential,
    "aniso_gaussian": make_aniso_gaussian_potential,
    "huber": make_huber_potential,
    "power": make_power_potential,
}


def potential_from_config(name: str, params: dict) -> Potential:
    if name not in CATALOG:
        raise ValueError(f"name: unknown potential {name!r}; "
                         f"choices are {sorted(CATALOG)}")
    return CATALOG[name](**params)


def holder_spot_check(p: Potential, pairs: int = 10_000, *, scale: float = 3.0,
                      rng: np.random.Generator | None = None) -> float:
    """Max of ||grad f(x) - grad f(y)|| / (beta * ||x-y||^s) over random pairs.

    A value <= 1 is consistent with the declared Hölder metadata.
    """
    rng = rng or np.random.default_rng(0)
    xs = scale * rng.standard_normal((pairs, p.dim))
    ys = scale * rng.standard_normal((pairs, p.dim))
    gx = p.grad_at_rows(xs)
    gy = p.grad_at_rows(ys)
    num = np.linalg.norm(gx - gy, axis=1)
    dist = np.linalg.norm(xs - ys, axis=1)
    keep = dist > 1e-12
    ratio = num[keep] / (p.holder_beta * dist[keep] ** p.holder_s)
    return float(ratio.max()) if ratio.size else 0.0
