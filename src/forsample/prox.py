"""Approximate proximal oracle via a linearized fixed-point iteration.

The proximal point x* = argmin f(x) + ||x - x0||^2 / (2 eta) satisfies
x* + eta grad f(x*) = x0.  Iterating

    X_{k+1} = (X_k - eta g_k + x0) / 2,   g_k a batch-of-n gradient draw,

from X_0 = x0 contracts toward x* whenever eta <= 1/(2 m_s), with
m_s = beta^(1/(1+s)) the natural gradient scale.  After
k >= 10 log(4G / (M + m_s)) steps the residual

    || X_k + eta grad f(X_k) - x0 ||  <=  10 eta (m_s + M)

holds with probability at least 1 - eps_n(M), where G bounds the gradient
norm at x0 and M is the noise truncation level the batch size was sized for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Array, Potential, as_rows, as_vector
from .errors import DimensionError, InfeasibleScheduleError, NumericError
from .oracles import GradientOracle


def default_k_iters(g_bound: float, m_trunc: float, m_s: float) -> int:
    """Iteration count meeting the contraction threshold, plus one spare."""
    if g_bound <= 0 or m_trunc < 0 or m_s <= 0:
        raise ValueError("need g_bound > 0, m_trunc >= 0, m_s > 0")
    k = 10.0 * math.log(4.0 * g_bound / (m_trunc + m_s))
    return max(int(math.ceil(k)) + 1, 1)


@dataclass(frozen=True)
class ProxConfig:
    """Step size, batch size and iteration count of one proximal run.

    The step-size condition eta <= 1/(2 m_s) depends on the potential and is
    enforced by approx_prox, not here.
    """

    eta: float
    n_batch: int
    k_iters: int

    def __post_init__(self):
        if not (self.eta > 0):
            raise ValueError("eta must be positive")
        if self.n_batch < 1 or self.k_iters < 1:
            raise ValueError("n_batch and k_iters must be positive")


def _check_step(potential: Potential, eta: float) -> None:
    limit = 1.0 / (2.0 * potential.m_s)
    if eta > limit * (1 + 1e-12):
        raise InfeasibleScheduleError(
            f"prox step size {eta} violates eta <= 1/(2 m_s) = {limit}")


def approx_prox(potential: Potential, oracle: GradientOracle, x0: Array,
                cfg: ProxConfig, rng: np.random.Generator) -> Array:
    """Approximate proximal point of the potential at x0.

    Consumes exactly cfg.n_batch * cfg.k_iters gradient queries (metered by
    the oracle's ledger).  Raises InfeasibleScheduleError if the step-size
    condition fails and NumericError on a non-finite iterate.  The one-row
    case of ``approx_prox_rows``; ``rng`` is never read, the noise comes
    from the oracle's own generator.
    """
    return approx_prox_rows(potential, oracle, as_vector(x0, potential.dim)[None],
                            cfg, rng)[0]


def approx_prox_rows(potential: Potential, oracle: GradientOracle,
                     x0_rows: np.ndarray, cfg: ProxConfig,
                     rng: np.random.Generator) -> np.ndarray:
    """Row-vectorized approx_prox: one independent proximal run per row.

    ``rng`` is never read.  The gradient noise comes from the oracle's own
    generator, in blocks of iterations (``GradientOracle.noise_block``);
    every query still goes through ``draw_batch_rows``.  Each iterate is
    checked for finiteness once: by the oracle's row validation when it is
    queried at the next step, and after the loop for the last one.
    """
    _check_step(potential, cfg.eta)
    x0_rows = as_rows(x0_rows, potential.dim)
    x = x0_rows.copy()
    k = 0
    while k < cfg.k_iters:
        for noise in oracle.noise_block(x.shape[0], cfg.n_batch, cfg.k_iters - k):
            try:
                g = oracle.draw_batch_rows(x, cfg.n_batch, noise=noise)
            except DimensionError as err:
                if np.isfinite(x).all():
                    raise  # a shape error, not a blow-up
                raise NumericError(f"non-finite prox iterate at step {k}") from err
            # x = (x - eta g + x0) / 2, in place, in that order
            g *= cfg.eta
            x -= g
            x += x0_rows
            x /= 2.0
            k += 1
    if not np.isfinite(x).all():
        raise NumericError(f"non-finite prox iterate at step {cfg.k_iters}")
    return x


def prox_residual(potential: Potential, xhat: Array, x0: Array,
                  eta: float) -> float:
    """|| xhat + eta grad f(xhat) - x0 ||, via the analytic gradient.

    Verification helper; touches no ledger.
    """
    xhat = as_vector(xhat, potential.dim)
    x0 = as_vector(x0, potential.dim)
    return float(np.linalg.norm(xhat + eta * potential.grad_at(xhat) - x0))


def prox_residual_bound(eta: float, m_s: float, m_trunc: float) -> float:
    """The guaranteed residual level 10 eta (m_s + M)."""
    return 10.0 * eta * (m_s + m_trunc)
