"""Stochastic gradient/value oracles, tail bounds, and query accounting.

An oracle wraps a potential with an additive mean-zero noise model and
meters every draw.  Batch draws average n independent samples.  For each
noise family the module provides:

* ``m1`` : the exact first absolute moment E||noise|| of one draw,
* ``eps_tail(noise, n, M)`` : a valid upper bound on the normalized
  truncation tail (1/M) * E[||g - E g|| * 1{||g - E g|| > M}] of the
  n-sample batch mean, nonincreasing in both M and n,
* ``phi(noise, M, delta)`` : the smallest batch size n whose tail bound is
  at most delta / 10.

Randomness comes from ``make_rng(seed, *path)``: one stream per (seed,
path), consumed in a fixed order, so identical seeds reproduce identical
draw sequences bit for bit.  Streams are not per chain: a sampler run draws
all its chains from one Generator (and its oracle from one more), so the
chain count shifts every stream.

The proximal stage reads its noise in blocks: ``GradientOracle.noise_block``
draws the noise of the next m iterations of k rows in one
``sample_batch_rows`` call, with m = max(1, _BLOCK // (k * n * d)) capped
by the iterations left, and each iteration hands its slice to
``draw_batch_rows(xs, n, noise=...)``, which validates and meters the query
as before.  Exact, subgaussian and twopoint noise read the generator one
value at a time, so a block gives the same numbers as m separate calls; the
norm-radius families draw all radii of a chunk before its signs or
directions, so their streams depend on m whenever m > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Array, Potential, as_rows, as_vector, check_shape
from .errors import DimensionError, UnsupportedCombinationError

NOISE_FAMILIES = ("exact", "subgaussian", "subweibull", "polymoment", "twopoint")

# largest per-call batch drawn in one numpy allocation; bigger requests chunk
_CHUNK = 4_000_000
# most noise draws in one prox block (GradientOracle.noise_block)
_BLOCK = 8192


def make_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic stream for (seed, path...): experiment -> chain -> ..."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


@dataclass(frozen=True)
class NoiseModel:
    """Additive noise family with declared tail behaviour.

    Fields are family-specific: ``sigma_g`` for subgaussian/subweibull,
    (``k``, ``sigma_2k``) for polymoment, (``p``, ``m_shift``) for twopoint.
    ``c_tail`` / ``c_rate`` are the constants in the exponential tail bounds
    (defaults 2 and 1/4).
    """

    family: str
    sigma_g: float = 0.0
    zeta: float = 2.0
    k: int = 1
    sigma_2k: float = 0.0
    p: float = 0.0
    m_shift: float = 0.0
    c_tail: float = 2.0
    c_rate: float = 0.25

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"family: unknown family {self.family!r}; "
                             f"choices are {sorted(NOISE_FAMILIES)}")
        if self.family in ("subgaussian", "subweibull") and not (self.sigma_g > 0):
            raise ValueError(f"sigma_g: must be positive, got {self.sigma_g!r}")
        if self.family == "subweibull" and not (self.zeta > 0):
            raise ValueError(f"zeta: must be positive, got {self.zeta!r}")
        if self.family == "polymoment":
            if self.k < 1:
                raise ValueError(f"k: must be a positive integer, got {self.k!r}")
            if not (self.sigma_2k > 0):
                raise ValueError(f"sigma_2k: must be positive, got {self.sigma_2k!r}")
        if self.family == "twopoint":
            if not (0.0 < self.p <= 1.0):
                raise ValueError(f"p: must be in (0, 1], got {self.p!r}")
            if not (self.m_shift > 0):
                raise ValueError(f"m_shift: must be positive, got {self.m_shift!r}")
        for name in ("c_tail", "c_rate"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name}: must be positive, got {getattr(self, name)!r}")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def exact() -> "NoiseModel":
        return NoiseModel("exact")

    @staticmethod
    def subgaussian(sigma_g: float, **kw) -> "NoiseModel":
        return NoiseModel("subgaussian", sigma_g=sigma_g, **kw)

    @staticmethod
    def subweibull(zeta: float, sigma_g: float, **kw) -> "NoiseModel":
        return NoiseModel("subweibull", sigma_g=sigma_g, zeta=zeta, **kw)

    @staticmethod
    def polymoment(k: int, sigma_2k: float, **kw) -> "NoiseModel":
        return NoiseModel("polymoment", k=k, sigma_2k=sigma_2k, **kw)

    @staticmethod
    def twopoint(p: float, m_shift: float) -> "NoiseModel":
        return NoiseModel("twopoint", p=p, m_shift=m_shift)

    # -- analytic moments ----------------------------------------------------

    @property
    def _pareto_index(self) -> float:
        return 2.0 * self.k + 1.0

    @property
    def _pareto_xm(self) -> float:
        # x_m such that E R^{2k} = sigma_2k^{2k} for Pareto index a = 2k + 1
        return self.sigma_2k * self._pareto_index ** (-1.0 / (2.0 * self.k))

    def m1(self, dim: int = 1) -> float:
        """Exact E||noise|| of a single draw in the given dimension."""
        if self.family == "exact":
            return 0.0
        if self.family == "subgaussian":
            from scipy import special
            # iid N(0, sigma_g^2/dim) coordinates; E||.|| via chi distribution
            chi_mean = math.sqrt(2.0) * math.exp(
                special.gammaln((dim + 1) / 2.0) - special.gammaln(dim / 2.0))
            return self.sigma_g / math.sqrt(dim) * chi_mean
        if self.family == "subweibull":
            # radius sigma_g * (E/2)^(1/zeta), E ~ Exp(1)
            return self.sigma_g * 2.0 ** (-1.0 / self.zeta) * math.gamma(1.0 + 1.0 / self.zeta)
        if self.family == "polymoment":
            a = self._pareto_index
            return self._pareto_xm * a / (a - 1.0)
        # twopoint: |noise| = m_shift*p w.p. (1-p) and m_shift*(1-p) w.p. p
        return 2.0 * self.p * (1.0 - self.p) * self.m_shift

    def second_moment(self, dim: int = 1) -> float:
        """Exact E||noise||^2 of a single draw (used in tests and fallbacks)."""
        if self.family == "exact":
            return 0.0
        if self.family == "subgaussian":
            return self.sigma_g ** 2
        if self.family == "subweibull":
            return self.sigma_g ** 2 * 2.0 ** (-2.0 / self.zeta) * math.gamma(1.0 + 2.0 / self.zeta)
        if self.family == "polymoment":
            a = self._pareto_index
            if a <= 2:
                return math.inf
            return self._pareto_xm ** 2 * a / (a - 2.0)
        return self.p * (1.0 - self.p) * self.m_shift ** 2

    # -- sampling ------------------------------------------------------------

    def _radii(self, size: int, rng: np.random.Generator) -> Array:
        # in place, in the order sigma_g * (E / 2)^(1/zeta) and x_m * U^(-1/a)
        if self.family == "subweibull":
            r = rng.exponential(1.0, size)
            r /= 2.0
            r **= 1.0 / self.zeta
            r *= self.sigma_g
            return r
        if self.family == "polymoment":
            # Pareto tail index a = 2k+1: R = x_m * U^(-1/a)
            r = rng.random(size)
            r **= -1.0 / self._pareto_index
            r *= self._pareto_xm
            return r
        raise AssertionError("radii only defined for norm-radius families")

    def sample_batch_rows(self, k: int, n: int, dim: int,
                          rng: np.random.Generator) -> Array:
        """(k, dim) array of n-sample batch-mean noise draws.

        Every one of the k rows averages n independent draws; heavy-tailed
        families materialize all k*n draws (chunked), the Gaussian family
        uses the exact stability shortcut N(0, sigma^2/n).  A norm-radius
        draw is a radius from the family law times a uniform direction on
        the unit sphere; in one dimension the direction is a fair sign,
        drawn from one uniform per draw.
        """
        if self.family == "exact":
            return np.zeros((k, dim))
        if self.family == "subgaussian":
            scale = self.sigma_g / math.sqrt(dim) / math.sqrt(n)
            return scale * rng.standard_normal((k, dim))
        if self.family == "twopoint":
            if dim != 1:
                raise DimensionError("twopoint noise is one-dimensional")
            draws = self.m_shift * (self.p - (rng.random((k, n)) < self.p))
            return _mean_rows(draws)
        # norm-radius families: direction uniform on the sphere, radius from
        # the family law; average n draws per row, chunking the k axis
        rows_per_chunk = max(1, _CHUNK // max(1, n * dim))
        out = None if 0 < k <= rows_per_chunk else np.empty((k, dim))
        for lo in range(0, k, rows_per_chunk):
            hi = min(k, lo + rows_per_chunk)
            kk = hi - lo
            if dim == 1:
                # the unit sphere of R^1 is {-1, +1}: a fair sign from one
                # uniform, exact since P(u >= 1/2) = 1/2 on numpy's 2^-53 grid
                radii = self._radii(kk * n, rng).reshape(kk, n)
                signs = rng.random((kk, n))
                signs -= 0.5
                np.copysign(radii, signs, out=radii)
                dirs = None
            else:
                dirs = rng.standard_normal((kk, n, dim))
                norms = np.sqrt(np.add.reduce(dirs * dirs, axis=2, keepdims=True))
                np.divide(dirs, norms, out=dirs, where=norms > 0)
                radii = self._radii(kk * n, rng).reshape(kk, n, 1)
            means = _row_means(radii, dirs)
            if self.family == "polymoment" and not np.isfinite(means).all():
                # a uniform of exactly 0.0 (probability 2^-53 a draw) gives the
                # infinite radius x_m * 0^(-1/a); give it the radius of u = 1,
                # x_m, so that u is uniform on numpy's grid in (0, 1]
                np.copysign(self._pareto_xm, radii, out=radii, where=np.isinf(radii))
                means = _row_means(radii, dirs)
            if out is None:
                return means  # one chunk: its means are the rows
            out[lo:hi] = means
        return out


def _mean_rows(draws: Array, keepdims: bool = True) -> Array:
    """Means over axis 1: the sum and divide of ``draws.mean(axis=1)``."""
    means = np.add.reduce(draws, axis=1, keepdims=keepdims)
    means /= draws.shape[1]
    return means


def _row_means(radii: Array, dirs: Array | None) -> Array:
    """Batch means of one chunk of norm-radius draws.

    In one dimension ``radii`` is (kk, n) and already signed; otherwise it is
    (kk, n, 1) and scales the unit directions ``dirs`` of shape (kk, n, dim).
    """
    if dirs is None:
        return radii if radii.shape[1] == 1 else _mean_rows(radii)
    return _mean_rows(dirs * radii, keepdims=False)


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------

def eps_tail(noise: NoiseModel, n: int, m_level: float) -> float:
    """Upper bound on the batch-mean truncation tail at level M = m_level.

    Returns a bound on (1/M) * E[||gbar - E gbar|| * 1{||gbar - E gbar|| > M}]
    for the mean gbar of n draws.  Guaranteed nonincreasing in M and in n for
    every supported combination.  SubWeibull with zeta != 2 has no batch
    formula: n > 1 raises UnsupportedCombinationError.
    """
    if n < 1 or int(n) != n:
        raise ValueError("batch size n must be a positive integer")
    if not (m_level >= 0):
        raise ValueError("truncation level must be nonnegative")
    n = int(n)

    if noise.family == "exact":
        return 0.0
    if m_level == 0:
        return math.inf

    if noise.family == "twopoint":
        # bounded support: |batch noise| <= m_shift always
        return 0.0 if m_level >= noise.m_shift else noise.m1() / m_level

    if noise.family == "polymoment":
        k = noise.k
        return (math.factorial(2 * k) * noise.sigma_2k ** (2 * k)
                / (n ** k * m_level ** (2 * k)))

    # Markov fallback, valid for any M and n: tail <= E||gbar|| / M and the
    # batch first moment is at most sqrt(E||noise||^2 / n)
    markov = math.sqrt(noise.second_moment() / n) / m_level

    if noise.family == "subgaussian":
        expo = noise.c_tail * math.exp(-noise.c_rate * n * (m_level / noise.sigma_g) ** 2)
        return min(markov, expo) if m_level >= noise.sigma_g else markov

    # subweibull
    if noise.zeta == 2.0:
        expo = noise.c_tail * math.exp(-noise.c_rate * n * (m_level / noise.sigma_g) ** 2)
        return min(markov, expo) if m_level >= noise.sigma_g else markov
    if n > 1:
        raise UnsupportedCombinationError(
            "subweibull noise with zeta != 2 has no batch tail bound for n > 1; "
            "increase the truncation level M instead of the batch size")
    expo = noise.c_tail * math.exp(-noise.c_rate * (m_level / noise.sigma_g) ** noise.zeta)
    return min(markov, expo) if m_level >= noise.sigma_g else markov


def phi(noise: NoiseModel, m_level: float, delta: float, cap: int = 10 ** 9) -> int:
    """Smallest batch size n with eps_tail(noise, n, M) <= delta / 10.

    Found by doubling then bisection directly on ``eps_tail`` so minimality
    holds for the implemented bound, not a paraphrase of it.  Raises
    UnsupportedCombinationError when no n <= cap works (including the
    subweibull zeta != 2 family whenever n = 1 is insufficient).
    """
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    target = delta / 10.0

    def ok(n: int) -> bool:
        return eps_tail(noise, n, m_level) <= target

    if ok(1):
        return 1
    if noise.family == "subweibull" and noise.zeta != 2.0:
        raise UnsupportedCombinationError(
            f"subweibull(zeta={noise.zeta}) cannot reach eps <= {target:g} at "
            f"M={m_level:g} with n=1, and batching is unsupported for zeta != 2")
    lo, hi = 1, 2
    while hi <= cap and not ok(hi):
        lo, hi = hi, hi * 2
    if hi > cap:
        raise UnsupportedCombinationError(
            f"no batch size up to {cap} reaches eps <= {target:g} at M={m_level:g}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# ledger and oracles
# ---------------------------------------------------------------------------

@dataclass
class QueryLedger:
    """Counts every oracle interaction; merged across chains at the end."""

    grad_queries: int = 0
    value_queries: int = 0
    w_draws: int = 0
    fors_attempts: int = 0
    prox_iters: int = 0
    rgo_calls: int = 0
    outer_steps: int = 0

    def merge(self, other: "QueryLedger") -> "QueryLedger":
        for label in self.__dataclass_fields__:
            setattr(self, label, getattr(self, label) + getattr(other, label))
        return self

    def as_dict(self) -> dict[str, int]:
        return {label: getattr(self, label) for label in self.__dataclass_fields__}


class GradientOracle:
    """Metered stochastic gradient access: grad f(x) + noise.

    Parameters
    ----------
    potential : Potential
    noise : NoiseModel
    rng : numpy Generator, the oracle's private stream.
    ledger : QueryLedger, optional; a fresh one is created when omitted.
    """

    def __init__(self, potential: Potential, noise: NoiseModel,
                 rng: np.random.Generator, ledger: QueryLedger | None = None):
        if noise.family == "twopoint" and potential.dim != 1:
            raise DimensionError("twopoint noise requires a 1-D potential")
        self.potential = potential
        self.noise = noise
        self.rng = rng
        self.ledger = ledger if ledger is not None else QueryLedger()

    @property
    def m1(self) -> float:
        """Analytic E||g - grad f|| of a single draw."""
        return self.noise.m1(self.potential.dim)

    def draw_batch(self, x, n: int) -> Array:
        """Mean of n independent draws at x: the one-row ``draw_batch_rows``."""
        return self.draw_batch_rows(as_vector(x, self.potential.dim)[None], n)[0]

    def noise_block(self, k: int, n: int, iters: int) -> Array:
        """(m, k, d) batch-mean noise for the next m <= iters prox iterations.

        m = max(1, _BLOCK // (k * n * d)), capped at ``iters``: one
        ``sample_batch_rows`` call of m * k rows, iteration j owning rows
        j*k to (j+1)*k.  Meters nothing; ``draw_batch_rows`` meters each
        iteration's slice when it is used.
        """
        d = self.potential.dim
        m = min(iters, max(1, _BLOCK // max(1, k * n * d)))
        return self.noise.sample_batch_rows(m * k, n, d, self.rng).reshape(m, k, d)

    def draw_batch_rows(self, xs: Array, n: int, noise: Array | None = None) -> Array:
        """Row-wise batch means at a (k, d) stack; meters k*n queries.

        ``noise``, when given, is the (k, d) batch-mean noise of these
        queries (one iteration of a ``noise_block``); otherwise it is drawn.
        """
        xs = as_rows(xs, self.potential.dim)
        if n < 1:
            raise ValueError("batch size must be >= 1")
        if noise is None:
            noise = self.noise.sample_batch_rows(xs.shape[0], n, self.potential.dim,
                                                 self.rng)
        elif noise.shape != xs.shape:
            raise DimensionError(f"noise block of shape {noise.shape} for queries "
                                 f"of shape {xs.shape}")
        self.ledger.grad_queries += n * xs.shape[0]
        return check_shape(self.potential.grad_rows(xs), xs.shape, "grad_rows") + noise


class ValueOracle:
    """Metered stochastic value access: f(x) + scalar noise."""

    def __init__(self, potential: Potential, noise: NoiseModel,
                 rng: np.random.Generator, ledger: QueryLedger | None = None):
        self.potential = potential
        self.noise = noise
        self.rng = rng
        self.ledger = ledger if ledger is not None else QueryLedger()

    @property
    def m1(self) -> float:
        return self.noise.m1(1)

    def draw_batch(self, x, n: int) -> float:
        """Mean of n independent draws at x: the one-row ``draw_batch_rows``."""
        return float(self.draw_batch_rows(as_vector(x, self.potential.dim)[None], n)[0])

    def draw_batch_rows(self, xs: Array, n: int) -> Array:
        xs = as_rows(xs, self.potential.dim)
        if n < 1:
            raise ValueError("batch size must be >= 1")
        self.ledger.value_queries += n * xs.shape[0]
        noise = self.noise.sample_batch_rows(xs.shape[0], n, 1, self.rng)[:, 0]
        return check_shape(self.potential.value_rows(xs), xs.shape[:1], "value_rows") + noise
