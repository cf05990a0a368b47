"""Exact sampling from Gaussian tilts of a potential via FORS: the tilt step.

The target is nu(x) proportional to exp(-f(x) - ||x - x0||^2 / (2 eta)).
With proposal q = N(xhat, eta I) the log ratio satisfies

    log nu(x) - log q(x) = -f(x) + <x, u> + const,   u = (x0 - xhat) / eta,

and two clipped unbiased estimators of it drive the rejection loop:

* first order: draw r ~ U[0,1], z ~ N(0, eta I), follow the trigonometric
  path gamma(r) = a_r x + (1 - a_r) xhat + b_r z with a_r = sin(pi r / 2),
  b_r = cos(pi r / 2), and return <gamma'(r), u - g> clipped to [-B, B],
  where g is a stochastic gradient at gamma(r);
* zeroth order: draw z ~ q and stochastic values v at x, v' at z, and return
  v' - v + <u, x - z> clipped to [-B, B].

Both have E[W | x] = log nu(x) - log q(x) + const up to the clipping
residual, which the step-size conditions make negligible.

The step is written once, over rows: ``tilt_source`` builds it for a stack
of tilts, one per row of (x0, xhat), picking the estimator by the oracle's
type (a GradientOracle draws first-order W, a ValueOracle zeroth-order W).
The source draws the proposal (``propose_rows``) and the W
(``draw_w_rows``) for ``fors.fors_accept_rows``, whose lanes (one per chain)
share each tick's calls; the sampler ``recenter``s a chain's tilt in the
tick the chain accepts, and its next step's first attempt joins the next
tick, so chains do not step in lockstep.  ``sample_tilt_many`` collects iid
samples from one tilt.
"""

from __future__ import annotations

import math

import numpy as np

from .core import as_vector
from .errors import DimensionError
from .fors import FORSConfig, fors_sample_many
from .oracles import GradientOracle, QueryLedger, ValueOracle


# scalars as 0-d float64 arrays: on a few rows a ufunc takes one in about two
# thirds of the time it takes a Python float, for the same float64 result
_HALF_PI = np.array(np.pi / 2)
_ONE = np.array(1.0)


def _path_rows(xs: np.ndarray, xh: np.ndarray, z: np.ndarray,
               r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points and velocities of the interpolation path, one row per time r.

    gamma(r) = a_r x + (1 - a_r) xhat + b_r z with a_r = sin(pi r / 2) and
    b_r = cos(pi r / 2); the velocity is the literal r-derivative
    a'_r (x - xhat) + b'_r z.  Endpoints: gamma(0) = xhat + z, gamma(1) = x.
    """
    t = _HALF_PI * r
    a = np.sin(t)[:, None]
    c = np.cos(t, out=t)[:, None]
    gamma = a * xs
    gamma += (_ONE - a) * xh
    gamma += c * z
    gamma_dot = xs - xh
    gamma_dot *= c
    gamma_dot -= a * z
    gamma_dot *= _HALF_PI
    return gamma, gamma_dot


def _clip(w: np.ndarray, bounds: tuple, ledger: QueryLedger) -> np.ndarray:
    """``np.clip(w, -b, b)``, in place on the fresh array w, for 0-d ``bounds``
    (-b, b); the ledger's ``w_clipped`` counts the draws with |W| >= b."""
    low, high = bounds
    np.maximum(w, low, out=w)
    np.minimum(w, high, out=w)
    ledger.w_clipped += int(np.count_nonzero(np.abs(w) == high))
    return w


class _RowEstimator:
    """One tilt per slot: the tilt center x0 and proposal center xhat of
    slot i are row i of ``x0_rows`` and ``xhat_rows``.

    ``propose_rows(slots, rng)`` draws one proposal row per slot from
    N(xhat, eta I); ``draw_w_rows(slots, xs, rng)`` returns one clipped W per
    row of the (k, d) stack ``xs``, row i drawn for the tilt of ``slots[i]``.
    """

    def __init__(self, oracle, x0_rows: np.ndarray, xhat_rows: np.ndarray,
                 eta: float, b: float, n_batch: int):
        self.oracle = oracle
        self.xhat_rows = xhat_rows
        self.u_rows = (x0_rows - xhat_rows) / eta
        self.eta = np.array(eta)
        self.sd = np.array(math.sqrt(eta))
        self.b = b
        self.bounds = (np.array(-b), np.array(b))
        self.n_batch = n_batch

    def recenter(self, slots: np.ndarray, x0_rows: np.ndarray, xhat_rows: np.ndarray) -> None:
        """Move the tilts of ``slots`` to centers x0_rows, proposals xhat_rows."""
        self.xhat_rows[slots] = xhat_rows
        self.u_rows[slots] = (x0_rows - xhat_rows) / self.eta

    @staticmethod
    def _tilt_rows(table: np.ndarray, slots: np.ndarray) -> np.ndarray:
        return table if len(table) == 1 else table.take(slots, axis=0)  # one tilt broadcasts

    def propose_rows(self, slots: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        xs = self.sd * rng.standard_normal((slots.size, self.xhat_rows.shape[1]))
        xs += self._tilt_rows(self.xhat_rows, slots)
        return xs


class _FirstOrderRows(_RowEstimator):
    """Row-vectorized first-order estimator over per-slot tilts."""

    def draw_w_rows(self, slots: np.ndarray, xs: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
        r = rng.random(xs.shape[0])
        z = self.sd * rng.standard_normal(xs.shape)
        gamma, gamma_dot = _path_rows(xs, self._tilt_rows(self.xhat_rows, slots), z, r)
        g = self.oracle.draw_batch_rows(gamma, self.n_batch)
        u_g = np.subtract(self._tilt_rows(self.u_rows, slots), g, out=g)
        return _clip(np.einsum("kd,kd->k", gamma_dot, u_g), self.bounds, self.oracle.ledger)


class _ZerothOrderRows(_RowEstimator):
    """Row-vectorized zeroth-order estimator over per-slot tilts."""

    def draw_w_rows(self, slots: np.ndarray, xs: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
        z = self.sd * rng.standard_normal(xs.shape)
        z += self._tilt_rows(self.xhat_rows, slots)
        v = self.oracle.draw_batch_rows(xs, self.n_batch)
        w = self.oracle.draw_batch_rows(z, self.n_batch) - v
        w += np.einsum("kd,kd->k", self._tilt_rows(self.u_rows, slots), np.subtract(xs, z, out=z))
        return _clip(w, self.bounds, self.oracle.ledger)


def tilt_source(oracle, x0_rows: np.ndarray, xhat_rows: np.ndarray, eta: float,
                b: float, n_batch: int) -> _RowEstimator:
    """The tilt step for one tilt per row of (x0_rows, xhat_rows).

    The oracle picks the estimator: a GradientOracle draws first-order W, a
    ValueOracle zeroth-order W, anything else is a TypeError.  W is clipped
    to [-b, b], and each oracle query averages ``n_batch`` draws.
    """
    if isinstance(oracle, GradientOracle):
        return _FirstOrderRows(oracle, x0_rows, xhat_rows, eta, b, n_batch)
    if isinstance(oracle, ValueOracle):
        return _ZerothOrderRows(oracle, x0_rows, xhat_rows, eta, b, n_batch)
    raise TypeError("need a GradientOracle or a ValueOracle, "
                    f"got {type(oracle).__name__}")


def sample_tilt_many(oracle, x0, xhat, eta: float, cfg: FORSConfig, n_samples: int,
                     rng: np.random.Generator, n_batch: int = 1) -> np.ndarray:
    """Vectorized iid tilt sampling: (n_samples, d) accepted points.

    The tilt is centered at x0 with step eta, the proposal N(xhat, eta I),
    and the oracle picks the estimator as in ``tilt_source`` and meters it
    all, one rgo call per sample, in its ledger.  Bad inputs are refused
    before the generator or the ledger is touched; zero samples are a (0, d)
    array.
    """
    if not (eta > 0):
        raise ValueError("eta must be positive")
    if n_batch < 1:
        raise ValueError("n_batch must be >= 1")
    if not n_samples >= 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples!r}")
    x0 = as_vector(x0)
    xhat = as_vector(xhat, x0.shape[0])
    source = tilt_source(oracle, x0[None], xhat[None], eta, cfg.b, n_batch)
    if x0.shape[0] != oracle.potential.dim:
        raise DimensionError(f"expected dimension {oracle.potential.dim}, "
                             f"got {x0.shape[0]}")
    if n_samples == 0:
        return np.empty((0, x0.shape[0]))
    oracle.ledger.rgo_calls += n_samples
    return fors_sample_many(source.propose_rows, source.draw_w_rows, cfg, n_samples, rng,
                            ledger=oracle.ledger)
