"""Stochastic gradient/value oracles, tail bounds, and query accounting.

An oracle wraps a potential with an additive mean-zero noise model and
meters every draw in its own ledger.  Batch draws average n independent
samples.  For each noise family the module provides:

* ``m1`` : the exact first absolute moment E||noise|| of one draw,
* ``eps_tail(noise, n, M)`` : a valid upper bound on the normalized
  truncation tail (1/M) * E[||g - E g|| * 1{||g - E g|| > M}] of the
  n-sample batch mean, nonincreasing in both M and n and returned for every
  family, n and M: Markov and Chebyshev for every family, proved once in
  ``eps_tail``, and each family's own term: for subgaussian noise Gaussian
  concentration, for subweibull noise with zeta >= 1 a dimension-free
  Chernoff bound (Pinelis 1994), for polymoment noise the (2k)! moment bound
  and for twopoint noise Hoeffding, each proved where it is written,
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
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # the largest x whose exp(x) is a float


def make_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic stream for (seed, path...): experiment -> chain -> ..."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


@dataclass(frozen=True)
class NoiseModel:
    """Additive noise family with declared tail behaviour.

    Fields are family-specific (``_FAMILY_FIELDS``); a field its family
    does not read must keep its default.
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
        drawn from one uniform per draw.  n < 1 is refused before any draw.
        """
        if n < 1:
            raise ValueError("batch size must be >= 1")
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

    Returns a bound on T = (1/M) * E[Z * 1{Z > M}], Z = ||gbar - E gbar||,
    for the mean gbar of n draws.  Nonincreasing in M and in n (to 1e-12 where
    the polymoment bound turns to logs), and returned for every n >= 1 and
    M >= 0, in every dimension.  The bound is the least of:

    * Markov and Chebyshev, for every family: Z * 1{Z > M} <= min(Z, Z^2 / M),
      and E Z^2 = E||noise||^2 / n for independent mean-zero draws (the cross
      terms vanish), so with q = sqrt(E||noise||^2 / n) / M, T <= min(q, q^2);
    * the family's own term, picked by ``noise.family`` alone: Gaussian
      concentration for subgaussian noise (``_subgaussian_tail``), the
      Chernoff and single-draw terms for subweibull noise at every zeta
      (``_subweibull_tail``), the (2k)! moment bound for polymoment noise
      (``_polymoment_tail``), and m1/M and Hoeffding for twopoint noise
      (``_twopoint_tail``), each proved where it is written.

    A term past the floats is 0 or inf as its limit is.
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
    try:
        mean_square = noise.second_moment() / n  # E Z^2
    except OverflowError:
        mean_square = math.inf
    markov_chebyshev = min(math.sqrt(mean_square) / m_level,
                           mean_square / m_level / m_level)
    return min(markov_chebyshev, _FAMILY_TAILS[noise.family](noise, n, m_level))


def _subgaussian_tail(noise: NoiseModel, n: int, m_level: float) -> float:
    """The subgaussian term of ``eps_tail``: exp(-u^2/2) (1 + 1/(u (u + 1)))
    with u = sqrt(n) M / sigma - 1, and inf at u <= 0.

    The batch mean is exactly N(0, tau^2 I_d), tau = sigma / sqrt(n d)
    (``sample_batch_rows`` draws it so), and Z = ||gbar|| is tau-Lipschitz in
    a standard normal vector, with E Z <= sqrt(E Z^2) = sigma / sqrt(n).  By
    Gaussian concentration (Boucheron, Lugosi & Massart 2013, Thm 5.6) and
    tau^2 <= sigma^2 / n, P(Z > s) <= exp(-h(s)) at s >= sigma / sqrt(n) in
    every dimension, h(s) = n (s - sigma/sqrt(n))^2 / (2 sigma^2).  At u > 0,
    M > sigma / sqrt(n) and h'(M) > 0; h is convex, so in T = P(Z > M) +
    (1/M) int_M^inf P(Z > s) ds the integral is at most exp(-h(M)) / h'(M);
    h(M) = u^2 / 2 and M h'(M) = u (u + 1), which both rise with n and M.
    """
    u = math.sqrt(n) * m_level / noise.sigma_g - 1.0
    if not u > 0.0:
        return math.inf
    return math.exp(-0.5 * u * u) * (1.0 + 1.0 / (u * (u + 1.0)))


def _polymoment_tail(noise: NoiseModel, n: int, m_level: float) -> float:
    """The moment term of polymoment noise, (2k)! sigma^(2k) / (n^k M^(2k)),
    in logs where a term leaves the normal floats; (2k)! is built only
    inside them."""
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


def _twopoint_tail(noise: NoiseModel, n: int, m_level: float) -> float:
    """The twopoint term of ``eps_tail``: 0 at M >= m_shift, else the lesser
    of two bounds.

    One draw is m (p - b), b ~ Bernoulli(p), m = m_shift: it lies in an
    interval of length m, so Z = |gbar| < m and the tail is 0 at M >= m.
    Below, with t = M / m:
    * m1 / M, since E Z <= E|noise| (Jensen);
    * Hoeffding, P(Z > s) <= 2 exp(-h(s)), h(s) = 2 n s^2 / m^2.  h is
      convex, h(s) >= h(M) + h'(M) (s - M), so in
      E[Z 1{Z > M}] / M = P(Z > M) + (1/M) int_M^inf P(Z > s) ds the
      integral is at most 2 exp(-h(M)) / h'(M), and the tail at most
      2 exp(-2 n t^2) (1 + 1 / (4 n t^2)).
    Each is nonincreasing in n and M.
    """
    if m_level >= noise.m_shift:
        return 0.0
    bound = noise.m1() / m_level
    t2 = (m_level / noise.m_shift) ** 2  # 0 only where Hoeffding is past the floats
    if t2 > 0:
        bound = min(bound, 2.0 * math.exp(-2.0 * n * t2) * (1.0 + 1.0 / (4.0 * n * t2)))
    return bound


def _subweibull_tail(noise: NoiseModel, n: int, m_level: float) -> float:
    """The subweibull term of ``eps_tail`` at every zeta >= 1, proved for
    every n and d; inf at zeta < 1, which has no moment generating function.

    A draw is X = R U: U uniform on the unit sphere, independent of the
    radius R = sigma (E/2)^(1/zeta), E ~ Exp(1), so E X = 0 and
    P(R > t) = exp(-2 (t/sigma)^zeta).  Write Z = ||gbar||, S = n gbar,
    r = M/sigma and T = E[Z 1{Z > M}] / M = P(Z > M) + (1/M) int_M^inf P(Z > t) dt.
    For zeta >= 1 the term is an exponential C(n).  For n >= 2 it is the
    Chernoff bound below; at n = 1 it is max(single draw, C(2)): a bound
    at n = 1 because it is at least the single-draw value, and at least
    C(2), so it never rises from n = 1 to n = 2.
    * Single draw: Z = R, and the exponent 2 (t/sigma)^zeta is convex for
      zeta >= 1, so the integral is at most exp(-2 r^zeta) over the
      exponent's slope at M: T <= exp(-2 r^zeta) (1 + 1/(2 zeta r^zeta)).
    * Chernoff: in a Hilbert space, for lambda >= 0 (Pinelis, Ann.
      Probab. 22 (1994), the bound for (2, D)-smooth spaces at D = 1),
      P(||S|| >= n t) <= 2 exp(-lambda n t) (1 + psi)^n,
      psi = E[exp(lambda R) - 1 - lambda R].  If log(1 + psi) <= L(lambda),
      P(Z >= t) <= 2 exp(-n (lambda t - L)) for t >= M, whose integral
      over t > M is that value at M over n lambda, so at any fixed lambda
      T <= 2 exp(-n (lambda M - L)) (1 + 1/(n lambda M)).  Two choices of
      L, each at its maximizing lambda, with b the scale below and
      x = lambda b in (0, 1):
      - zeta >= 1: y^(1/zeta) is concave, so it lies below its tangent
        at 1 and R <= sigma (1 - 1/zeta) + b E with b = sigma / (2 zeta).
        Then 1 + psi <= E exp(lambda R) <= exp(2 (zeta - 1) x) / (1 - x),
        and with v = M/b - 2 (zeta - 1) = 2 zeta r - 2 (zeta - 1) > 1 the
        exponent peaks at x = 1 - 1/v: lambda M - L = v - 1 - log v and
        lambda M = 2 zeta r (1 - 1/v).
      - zeta = 1: R ~ Exp(mean b), b = sigma / 2, so psi = x^2 / (1 - x)
        exactly and log(1 + psi) <= psi; with u = M/b = 2 r the exponent
        peaks at x = 1 - 1/s, s = sqrt(1 + u): lambda M - L = (s - 1)^2
        and lambda M = u (1 - 1/s).  It is the better one at small u.
    Each value is nonincreasing in n and M: its exponent sup_lambda
    (lambda M - L) is nonnegative and nondecreasing in M, and its
    maximizer lambda does not fall as M grows (the sup is convex in M).
    """
    zeta = noise.zeta
    if zeta < 1.0:
        return math.inf
    r = m_level / noise.sigma_g
    if n == 1:
        try:
            rz = r ** zeta
        except OverflowError:
            rz = math.inf
        single = math.exp(-2.0 * rz) * (1.0 + 1.0 / (2.0 * zeta * rz)) if rz > 0 else math.inf
        return max(single, _pinelis_chernoff(zeta, 2, r))
    return _pinelis_chernoff(zeta, n, r)


def _pinelis_chernoff(zeta: float, n: int, r: float) -> float:
    """The Chernoff term of ``_subweibull_tail`` at zeta >= 1, r = M / sigma:
    the least of 2 exp(-n J) (1 + 1/(n lambda M)) over its forms of L."""
    best = math.inf
    v = 2.0 * zeta * r - 2.0 * (zeta - 1.0)
    if v == math.inf:
        return 0.0
    if v > 1.0:
        best = 2.0 * math.exp(-n * (v - 1.0 - math.log(v))) * (
            1.0 + 1.0 / (n * 2.0 * zeta * r * (1.0 - 1.0 / v)))
    if zeta == 1.0:
        u = 2.0 * r
        s = math.sqrt(1.0 + u)
        slope = u * (1.0 - 1.0 / s)
        if slope > 0.0:
            best = min(best, 2.0 * math.exp(-n * (s - 1.0) ** 2) * (1.0 + 1.0 / (n * slope)))
    return best


# each family's own term in eps_tail; exact noise returns before the lookup
_FAMILY_TAILS = {"subgaussian": _subgaussian_tail, "subweibull": _subweibull_tail,
                 "polymoment": _polymoment_tail, "twopoint": _twopoint_tail}


def phi(noise: NoiseModel, m_level: float, delta: float, cap: int = 10 ** 9) -> int:
    """Smallest batch size n with eps_tail(noise, n, M) <= delta / 10.

    Found by doubling then bisection directly on ``eps_tail`` so minimality
    holds for the implemented bound, not a paraphrase of it; that needs the
    bound nonincreasing in n, which it is for every family.  Raises
    UnsupportedCombinationError when no n <= cap works, the one refusal.
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
        """(k, dim) n-sample batch-mean noise, or None for exact noise; the
        noise model refuses n < 1."""
        if self.noise.family == "exact" and n >= 1:
            return None
        return self.noise.sample_batch_rows(k, n, dim, self.rng)


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
