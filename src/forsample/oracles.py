"""Stochastic gradient/value oracles, tail bounds, and query accounting.

An oracle wraps a potential with an additive mean-zero noise model and
meters every draw in its own ledger.  Batch draws average n independent
samples.  For each noise family the module provides:

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
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .core import Array, Potential
from .errors import DimensionError, UnsupportedCombinationError

# the NoiseModel fields each family reads and their ranges; the rest keep defaults
_POSITIVE = (lambda v: v > 0, "must be positive")
_FAMILY_FIELDS = {
    "exact": {}, "subgaussian": {"sigma_g": _POSITIVE},
    "subweibull": {"sigma_g": _POSITIVE, "zeta": _POSITIVE},
    "polymoment": {"k": (lambda v: isinstance(v, numbers.Integral)
                         and not isinstance(v, bool) and v >= 1,
                         "must be a positive integer"),
                   "sigma_2k": _POSITIVE},
    # p = 1 would be noise identically 0, the exact family
    "twopoint": {"p": (lambda v: 0.0 < v < 1.0, "must be in (0, 1)"),
                 "m_shift": _POSITIVE},
}
NOISE_FAMILIES = tuple(_FAMILY_FIELDS)

# largest per-call batch drawn in one numpy allocation; bigger requests chunk
_CHUNK = 4_000_000
_HALF = np.array(0.5)  # 0-d: a ufunc takes it faster than a float
# the constants of the subgaussian/subweibull batch tail bound in eps_tail,
# C_TAIL * exp(-C_RATE * n * (M / sigma_g)^zeta): properties of the bound,
# not of the noise drawn, so no config sets them
C_TAIL = 2.0
C_RATE = 0.25
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # the largest x whose exp(x) is a float


def make_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic stream for (seed, path...): experiment -> chain -> ..."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


@dataclass(frozen=True)
class NoiseModel:
    """Additive noise family with declared tail behaviour.

    Fields are family-specific (``_FAMILY_FIELDS``); a field its family
    does not read must keep its default, so subgaussian noise runs zeta = 2.
    """

    family: str
    sigma_g: float = 0.0
    zeta: float = 2.0
    k: int = 1
    sigma_2k: float = 0.0
    p: float = 0.0
    m_shift: float = 0.0

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"family: unknown family {self.family!r}; "
                             f"choices are {sorted(NOISE_FAMILIES)}")
        reads = _FAMILY_FIELDS[self.family]
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name in reads:
                ok, rule = reads[f.name]
                if not ok(value):
                    raise ValueError(f"{f.name}: {rule}, got {value!r}")
            elif value != f.default:
                raise ValueError(f"{f.name}: {self.family} noise does not read this field")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def exact() -> "NoiseModel":
        return NoiseModel("exact")

    @staticmethod
    def subgaussian(sigma_g: float) -> "NoiseModel":
        return NoiseModel("subgaussian", sigma_g=sigma_g)

    @staticmethod
    def subweibull(zeta: float, sigma_g: float) -> "NoiseModel":
        return NoiseModel("subweibull", sigma_g=sigma_g, zeta=zeta)

    @staticmethod
    def polymoment(k: int, sigma_2k: float) -> "NoiseModel":
        return NoiseModel("polymoment", k=k, sigma_2k=sigma_2k)

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
            return self._weibull_moment(1.0)
        if self.family == "polymoment":
            a = self._pareto_index
            return self._pareto_xm * a / (a - 1.0)
        # twopoint: |noise| = m_shift*p w.p. (1-p) and m_shift*(1-p) w.p. p
        return 2.0 * self.p * (1.0 - self.p) * self.m_shift

    def _weibull_moment(self, p: float) -> float:
        # E R^p of the radius R = sigma_g * (E/2)^(1/zeta), E ~ Exp(1); in logs
        # where a term leaves the floats (Gamma(1 + p/zeta) past p/zeta ~ 171)
        try:
            return self.sigma_g ** p * 2.0 ** (-p / self.zeta) * math.gamma(1.0 + p / self.zeta)
        except OverflowError:
            a = p / self.zeta
            log_moment = p * math.log(self.sigma_g) - a * math.log(2.0) + math.lgamma(1.0 + a)
            return math.exp(log_moment) if log_moment <= _LOG_FLOAT_MAX else math.inf

    def second_moment(self) -> float:
        """Exact E||noise||^2 of a single draw (used in tests and fallbacks)."""
        if self.family == "exact":
            return 0.0
        if self.family == "subgaussian":
            return self.sigma_g ** 2
        if self.family == "subweibull":
            return self._weibull_moment(2.0)
        if self.family == "polymoment":
            a = self._pareto_index
            if a <= 2:
                return math.inf
            return self._pareto_xm ** 2 * a / (a - 2.0)
        return self.p * (1.0 - self.p) * self.m_shift ** 2

    # -- sampling ------------------------------------------------------------

    def _radii(self, shape: tuple, rng: np.random.Generator) -> Array:
        # in place, in the order sigma_g * (E / 2)^(1/zeta) and x_m * U^(-1/a);
        # the draws of exponential(0.5) are those of exponential(1.0) halved
        if self.family == "subweibull":
            r = rng.exponential(0.5, shape)
            r **= 1.0 / self.zeta
            r *= self.sigma_g
            return r
        if self.family == "polymoment":
            # Pareto tail index a = 2k+1: R = x_m * U^(-1/a)
            r = rng.random(shape)
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
            kk = min(k - lo, rows_per_chunk)
            if dim == 1:
                # the unit sphere of R^1 is {-1, +1}: a fair sign from one
                # uniform, exact since P(u >= 1/2) = 1/2 on numpy's 2^-53 grid
                radii = self._radii((kk, n), rng)
                signs = rng.random((kk, n))
                signs -= _HALF
                np.copysign(radii, signs, out=radii)
                dirs = None
            else:
                dirs = rng.standard_normal((kk, n, dim))
                norms = np.sqrt(np.add.reduce(dirs * dirs, axis=2, keepdims=True))
                np.divide(dirs, norms, out=dirs, where=norms > 0)
                radii = self._radii((kk, n, 1), rng)
            means = _row_means(radii, dirs)
            if self.family == "polymoment" and not np.isfinite(means).all():
                # a uniform of exactly 0.0 (probability 2^-53 a draw) gives the
                # infinite radius x_m * 0^(-1/a); give it the radius of u = 1,
                # x_m, so that u is uniform on numpy's grid in (0, 1]
                np.copysign(self._pareto_xm, radii, out=radii, where=np.isinf(radii))
                means = _row_means(radii, dirs)
            if out is None:
                return means  # one chunk: its means are the rows
            out[lo:lo + kk] = means
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
    for the mean gbar of n draws.  Nonincreasing in M and in n (to 1e-12 where
    the polymoment bound turns to logs), and returned for every n >= 1 and M >= 0.
    The one refusal, which ``phi`` passes on: subWeibull with zeta != 2 has
    no batch formula, so n > 1 raises UnsupportedCombinationError.
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
        # (2k)! sigma^(2k) / (n^k M^(2k)), in logs where a term leaves the normal floats
        k = noise.k
        try:
            s2k, m2k = noise.sigma_2k ** (2 * k), m_level ** (2 * k)
            num = (math.factorial(2 * k) if k <= 85 else math.inf) * s2k
            den = (n ** k if k * (n.bit_length() - 1) < 1024 else math.inf) * m2k
            if s2k >= 2.0 ** -1022 and m2k >= 2.0 ** -1022 and num < math.inf and den < math.inf:
                return num / den
        except OverflowError:
            pass
        log_tail = (math.lgamma(2 * k + 1) + 2 * k * math.log(noise.sigma_2k)
                    - k * math.log(n) - 2 * k * math.log(m_level))
        return math.exp(log_tail) if log_tail <= _LOG_FLOAT_MAX else math.inf

    # subgaussian is subweibull with zeta = 2
    zeta = 2.0 if noise.family == "subgaussian" else noise.zeta
    if zeta != 2.0 and n > 1:
        raise UnsupportedCombinationError(
            "subweibull noise with zeta != 2 has no batch tail bound for n > 1; "
            "increase the truncation level M instead of the batch size")
    # Markov, valid for any M and n: tail <= E||gbar|| / M <= sqrt(E||noise||^2 / n) / M;
    # a term past the floats keeps its default, inf or exp(-inf) = 0
    expo = 0.0
    try:
        expo = C_TAIL * math.exp(-C_RATE * n * (m_level / noise.sigma_g) ** zeta)
        markov = math.sqrt(noise.second_moment() / n) / m_level
    except OverflowError:
        markov = math.inf
    return min(markov, expo) if m_level >= noise.sigma_g else markov


def phi(noise: NoiseModel, m_level: float, delta: float, cap: int = 10 ** 9) -> int:
    """Smallest batch size n with eps_tail(noise, n, M) <= delta / 10.

    Found by doubling then bisection directly on ``eps_tail`` so minimality
    holds for the implemented bound, not a paraphrase of it.  Raises
    UnsupportedCombinationError when no n <= cap works; for subweibull
    zeta != 2 past n = 1, that is eps_tail's own refusal.
    """
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    target = delta / 10.0

    def ok(n: int) -> bool:
        return eps_tail(noise, n, m_level) <= target

    lo, hi = 0, 1
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
    """Counts every oracle interaction; merged across chains at the end.

    ``w_clipped`` counts the estimator draws clipped at |W| >= B, in the
    ledger of the oracle that made them.
    """

    grad_queries: int = 0
    value_queries: int = 0
    w_draws: int = 0
    w_clipped: int = 0
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


class _Oracle:
    """Metered access to a potential: its noise model, its private stream
    ``rng`` and its own ledger, which counts every query it answers.

    A draw reads the potential's rows, refuses n < 1, draws the noise
    (``_draw_noise``) and counts k*n queries, in that order.
    """

    def __init__(self, potential: Potential, noise: NoiseModel, rng: np.random.Generator):
        self.potential = potential
        self.noise = noise
        self.rng = rng
        self.ledger = QueryLedger()

    def _draw_noise(self, k: int, n: int, dim: int) -> Array | None:
        """(k, dim) n-sample batch-mean noise, or None for exact noise."""
        if n < 1:
            raise ValueError("batch size must be >= 1")
        return (None if self.noise.family == "exact" else
                self.noise.sample_batch_rows(k, n, dim, self.rng))


def _fresh(rows: Array, xs: Array) -> Array:
    # exact noise adds nothing: the potential's rows stand, copied only when
    # they share the query points' memory (a formula such as ``lambda xs: xs``)
    return rows.copy() if np.may_share_memory(rows, xs) else rows


class GradientOracle(_Oracle):
    """Metered stochastic gradient access: grad f(x) + noise."""

    def __init__(self, potential: Potential, noise: NoiseModel, rng: np.random.Generator):
        if noise.family == "twopoint" and potential.dim != 1:
            raise DimensionError("twopoint noise requires a 1-D potential")
        super().__init__(potential, noise, rng)

    def draw_batch_rows(self, xs: Array, n: int) -> Array:
        """Row-wise batch means at a (k, d) stack, as a new array; meters k*n
        queries."""
        g = self.potential.grad_at_rows(xs)
        noise = self._draw_noise(g.shape[0], n, self.potential.dim)
        self.ledger.grad_queries += n * g.shape[0]
        return _fresh(g, xs) if noise is None else g + noise


class ValueOracle(_Oracle):
    """Metered stochastic value access: f(x) + scalar noise."""

    def draw_batch_rows(self, xs: Array, n: int) -> Array:
        """Row-wise batch means at a (k, d) stack, as a new (k,) array; meters
        k*n queries."""
        v = self.potential.value_at_rows(xs)
        noise = self._draw_noise(v.shape[0], n, 1)
        self.ledger.value_queries += n * v.shape[0]
        return _fresh(v, xs) if noise is None else v + noise[:, 0]
