"""Exact sampling from Gaussian tilts of a potential via FORS.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Array, Potential, as_vector
from .fors import FORSConfig, fors_sample_many
from .oracles import GradientOracle, QueryLedger, ValueOracle


def _path_rows(xs: np.ndarray, xh: np.ndarray, z: np.ndarray,
               r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points and velocities of the interpolation path, one row per time r."""
    t = (np.pi / 2) * r
    a = np.sin(t)[:, None]
    c = np.cos(t)[:, None]
    gamma = a * xs + (1 - a) * xh + c * z
    gamma_dot = (np.pi / 2) * (c * (xs - xh) - a * z)
    return gamma, gamma_dot


def path_gamma(x: Array, xhat: Array, z: Array, r: float) -> tuple[Array, Array]:
    """Point and velocity of the interpolation path at time r in [0, 1].

    gamma(r) = a_r x + (1 - a_r) xhat + b_r z with a_r = sin(pi r / 2) and
    b_r = cos(pi r / 2); the velocity is the literal r-derivative
    a'_r (x - xhat) + b'_r z.  Endpoints: gamma(0) = xhat + z, gamma(1) = x.
    This is the one-row case of the formula every first-order W draw uses.
    """
    if not (0.0 <= r <= 1.0):
        raise ValueError("path time r must lie in [0, 1]")
    x = as_vector(x)
    xhat = as_vector(xhat, x.shape[0])
    z = as_vector(z, x.shape[0])
    gamma, gamma_dot = _path_rows(x[None], xhat[None], z[None], np.array([r]))
    return gamma[0], gamma_dot[0]


@dataclass(frozen=True)
class TiltProblem:
    """The tilt target: potential, Gaussian center x0, and step size eta."""

    potential: Potential
    x0: Array
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "x0", as_vector(self.x0, self.potential.dim))
        if not (self.eta > 0):
            raise ValueError("eta must be positive")


@dataclass(frozen=True)
class RGOContext:
    """Estimator configuration for one tilt problem.

    xhat is the proposal center (an approximate proximal point for the
    first-order mode, x0 itself for the zeroth-order default); u is the
    induced linear-tilt vector (x0 - xhat)/eta.  n_batch is the oracle
    batch size of each W draw.
    """

    problem: TiltProblem
    xhat: Array
    n_batch: int = 1

    def __post_init__(self):
        object.__setattr__(self, "xhat",
                           as_vector(self.xhat, self.problem.potential.dim))
        if self.n_batch < 1:
            raise ValueError("n_batch must be >= 1")

    @property
    def u(self) -> Array:
        return (self.problem.x0 - self.xhat) / self.problem.eta


def _clip(w: np.ndarray, b: float) -> np.ndarray:
    """``np.clip(w, -b, b)``, in place on the fresh array w."""
    np.maximum(w, -b, out=w)
    return np.minimum(w, b, out=w)


class _RowEstimator:
    """Per-slot proposal centers and tilt vectors shared by both estimators.

    ``draw_w_rows(slots, xs, rng)`` returns one clipped W per row of the
    (k, d) stack ``xs``, row i drawn for the target of slot ``slots[i]``.
    """

    def __init__(self, oracle, xhat_rows: np.ndarray, u_rows: np.ndarray,
                 eta: float, b: float, n_batch: int):
        self.oracle = oracle
        self.xhat_rows = xhat_rows
        self.u_rows = u_rows
        self.eta = eta
        self.b = b
        self.n_batch = n_batch


class _FirstOrderRows(_RowEstimator):
    """Row-vectorized first-order estimator over per-slot contexts."""

    def draw_w_rows(self, slots: np.ndarray, xs: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
        r = rng.random(xs.shape[0])
        z = math.sqrt(self.eta) * rng.standard_normal(xs.shape)
        gamma, gamma_dot = _path_rows(xs, self.xhat_rows[slots], z, r)
        g = self.oracle.draw_batch_rows(gamma, self.n_batch)
        w = np.einsum("kd,kd->k", gamma_dot, self.u_rows[slots] - g)
        return _clip(w, self.b)


class _ZerothOrderRows(_RowEstimator):
    """Row-vectorized zeroth-order estimator over per-slot contexts."""

    def draw_w_rows(self, slots: np.ndarray, xs: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
        xh = self.xhat_rows[slots]
        z = xh + math.sqrt(self.eta) * rng.standard_normal(xs.shape)
        v = self.oracle.draw_batch_rows(xs, self.n_batch)
        v_prime = self.oracle.draw_batch_rows(z, self.n_batch)
        w = v_prime - v + np.einsum("kd,kd->k", self.u_rows[slots], xs - z)
        return _clip(w, self.b)


def sample_tilt_many(ctx: RGOContext, oracle, cfg: FORSConfig, n_samples: int,
                     rng: np.random.Generator,
                     ledger: QueryLedger | None = None) -> np.ndarray:
    """Vectorized iid tilt sampling: (n_samples, d) accepted points.

    The oracle fixes the estimator: a GradientOracle draws first-order W, a
    ValueOracle zeroth-order W.  The proposal is N(xhat, eta I).
    """
    if isinstance(oracle, GradientOracle):
        estimator = _FirstOrderRows
    elif isinstance(oracle, ValueOracle):
        estimator = _ZerothOrderRows
    else:
        raise TypeError("need a GradientOracle or a ValueOracle, "
                        f"got {type(oracle).__name__}")
    pot = ctx.problem.potential
    eta = ctx.problem.eta
    ledger = ledger if ledger is not None else QueryLedger()
    ledger.rgo_calls += n_samples
    rows = estimator(oracle, ctx.xhat[None], ctx.u[None], eta, cfg.b, ctx.n_batch)

    def proposal_rows(k: int, r: np.random.Generator) -> np.ndarray:
        return ctx.xhat + math.sqrt(eta) * r.standard_normal((k, pot.dim))

    return fors_sample_many(proposal_rows, rows, cfg, n_samples, rng, ledger=ledger)


def tilt_eta_bound(pot: Potential, m_trunc: float, eps_prox: float,
                   delta: float, c_step: float = 64.0) -> float:
    """Largest eta meeting the first-order tilt step condition.

    1/eta >= c_step * [ (beta^2 d^s L + s beta^2 d^(s-1) L^2)^(1/(1+s))
                        + (M^2 + eps_prox^2) L ],   L = log(1/delta).
    """
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    s, beta, d = pot.holder_s, pot.holder_beta, pot.dim
    ell = math.log(1.0 / delta)
    smooth = (beta ** 2 * d ** s * ell
              + s * beta ** 2 * d ** (s - 1.0) * ell ** 2) ** (1.0 / (1.0 + s))
    trunc = (m_trunc ** 2 + eps_prox ** 2) * ell
    return 1.0 / (c_step * (smooth + trunc))
