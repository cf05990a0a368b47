"""Approximate proximal oracle via a relaxed fixed-point iteration.

The proximal point x* = argmin f(x) + ||x - x0||^2 / (2 eta) is the root of
R(x) = x + eta grad f(x) - x0.  Iterating

    X_{k+1} = X_k - theta (X_k + eta g_k - x0),   g_k a batch-of-n gradient draw,

from X_0 = x0, with theta = 2 / (2 + eta L), contracts toward x* by
rho = eta L / (2 + eta L) per step (``relaxation``).  For s = 1, L = beta:
Baillon-Haddad makes grad f cocoercive, <u, v> >= |v|^2 / beta for
u = x - y and v = grad f(x) - grad f(y), so the exact map T gives

    |T x - T y|^2 = |(1 - theta) u - theta eta v|^2
                 <= (1 - theta)^2 |u|^2 + theta eta |v|^2 (theta eta - 2 (1 - theta) / beta),

whose last factor is 0 at theta = 2 / (2 + eta beta): T is a
(1 - theta) = rho contraction for every eta > 0, the optimal relaxation of a
cocoercive fixed-point map (Bauschke & Combettes, Convex Analysis and
Monotone Operator Theory, 2011).  Hölder s < 1 has no such constant; there
eta L = 2, so theta = rho = 1/2 and the map is the damped
(X - eta g + x0) / 2, whose residual the tests check on every catalog
potential.

Each step adds theta eta xi_k to the exact map's iterate, xi_k the batch
noise, so while |xi_k| <= M the iterate stays within
theta eta M / (1 - rho) = eta M of it.  The start's distance to x* is
eta ||grad f(x*)|| <= eta ||grad f(x0)|| <= eta G for convex f (the Moreau
inequality, Parikh & Boyd, Proximal Algorithms, 2014), so after the k of
``default_k_iters``, the smallest with rho^k 8G / (M + m_s) <= 1,

    || X_k - x* ||  <=  rho^k eta G + eta M  <=  eta (M + m_s) / 8 + eta M,

where m_s = beta^(1/(1+s)) is the natural gradient scale.  At rho = 1/2
this is the damped map's bound at its own k, ceil(log2(4G / (M + m_s))) + 1,
on the same failure events: the weights theta rho^(k-j) of the k noise
draws sum to 1 - rho^k < 1 either way.  It holds with probability at least
1 - eps_n(M), M being the noise truncation level the batch size was sized
for, and so does the residual certificate

    || X_k + eta grad f(X_k) - x0 ||  <=  10 eta (m_s + M)

where s = 1 and eta beta <= 7, since |R(x)| <= (1 + eta beta) |x - x*|
there; the tests check it on every catalog potential.

The planner prices k with one worst-case G for the whole chain; the
sampler sizes k per row (``approx_prox_rows_budgeted``), with the planned
k as the cap.  The first iteration's query g_1 = grad f(x0) + xi_1 gives
each row its own G_i = ||g_1|| + M, a valid bound on ||grad f(x0)|| unless
||xi_1|| > M.  An exact oracle (M = 0) adds no failure event.  For a noisy
one Markov's inequality bounds P(||xi_1|| > M) by eps_n(M), which ``phi``
keeps at or below delta / (100 N) per chain and outer step, so a row meets
the bounds with probability at least 1 - 2 eps_n(M).  The sampler's
per-step tail share delta / (10 N) holds both events
(``sampler._TAIL_SPLIT``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Array, Potential, as_rows
from .errors import DimensionError, InfeasibleScheduleError, NumericError
from .oracles import GradientOracle


def relaxation(potential: Potential, eta: float) -> tuple[float, float]:
    """(theta, rho) of the prox map at step eta: theta = 2 / (2 + eta L) and
    rho = eta L / (2 + eta L), with eta L = eta beta for s = 1 and 2 for
    s < 1 (see the module docstring)."""
    eta_l = eta * potential.holder_beta if potential.holder_s == 1.0 else 2.0
    return 2.0 / (2.0 + eta_l), eta_l / (2.0 + eta_l)


def default_k_iters(g_bound, m_trunc: float, m_s: float, rho: float):
    """The smallest k >= 1 with rho^k 8G / (M + m_s) <= 1, rho the map's
    contraction factor (``relaxation``).  At rho = 1/2 it is
    ceil(log2(4G / (M + m_s))) + 1; for Hölder s < 1, where 1/2 is not a
    proved factor, the tests check the residual on every catalog
    potential, at the planned k and at the sampler's per-row k_i.

    ``g_bound`` is a number (the planner's chain-wide G, which holds with
    the failure budget of ``sampler.gradient_norm_bound``), for an int, or
    an array of per-row bounds (the sampler's G_i = ||g_1|| + M, which
    fails only where the first query's noise exceeds M: probability at most
    eps_n(M), see the module docstring), for an int array.  The count is
    ceil(log(ratio) / log(1/rho)), moved one step where rounding put it on
    the wrong side of rho^k ratio <= 1; at rho = 1/2 that product is exact,
    and so is k.  G = 0, a start at the proximal point, takes one iteration.
    """
    if not (m_trunc >= 0 and m_s > 0 and 0 < rho < 1):
        raise ValueError("need m_trunc >= 0, m_s > 0 and 0 < rho < 1")
    ratio = 8.0 * np.asarray(g_bound, dtype=float) / (m_trunc + m_s)
    if ratio.size and not (0 <= ratio.min() and ratio.max() < np.inf):  # or nan
        raise ValueError("need 0 <= 8 g_bound / (m_trunc + m_s) < inf")
    with np.errstate(divide="ignore"):  # log 0 = -inf: one iteration
        ks = np.maximum(np.ceil(np.log(ratio) / -np.log(rho)), 1).astype(int)
    powers = rho ** np.arange(ks.max(initial=0) + 2)  # rho^k for every k in reach
    ks += powers[ks] * ratio > 1
    ks -= (ks > 1) & (powers[ks - 1] * ratio <= 1)
    return int(ks) if ks.ndim == 0 else ks


@dataclass(frozen=True)
class ProxConfig:
    """Step size, batch size and iteration count of one proximal run.

    The step-size condition eta <= 1/(2 m_s) depends on the potential and is
    enforced by approx_prox_rows, not here.
    """

    eta: float
    n_batch: int
    k_iters: int

    def __post_init__(self):
        if not (self.eta > 0):
            raise ValueError("eta must be positive")
        if self.n_batch < 1 or self.k_iters < 1:
            raise ValueError("n_batch and k_iters must be positive")


def approx_prox_rows(potential: Potential, oracle: GradientOracle,
                     x0_rows: np.ndarray, cfg: ProxConfig,
                     start: np.ndarray | None = None) -> np.ndarray:
    """Approximate proximal points of the potential, one independent run per
    row of the (k, d) stack x0_rows.

    Runs cfg.k_iters iterations of the relaxed map (module docstring) on
    every row, from ``start`` (the rows of an earlier call's iterate, to
    continue it) or from x0 itself.  Each iteration is one
    ``draw_batch_rows`` query of cfg.n_batch draws a row, after which the
    oracle's ledger counts the iteration's rows in ``prox_iters``.  Raises
    InfeasibleScheduleError if the step-size condition fails and
    NumericError on a non-finite iterate.  Each iterate is checked for
    finiteness once: by the oracle's row validation when it is queried at
    the next step, and after the loop for the last one.
    """
    limit = 1.0 / (2.0 * potential.m_s)
    if cfg.eta > limit * (1 + 1e-12):
        raise InfeasibleScheduleError(
            f"prox step size {cfg.eta} violates eta <= 1/(2 m_s) = {limit}")
    theta, _ = relaxation(potential, cfg.eta)
    x0_rows = as_rows(x0_rows, potential.dim)
    # a non-finite start fails the oracle's row check at step 0
    x = np.array(x0_rows if start is None else start, dtype=np.float64)
    if x.shape != x0_rows.shape:
        raise DimensionError(f"start of shape {x.shape} for x0 of shape "
                             f"{x0_rows.shape}")
    for k in range(cfg.k_iters):
        try:
            g = oracle.draw_batch_rows(x, cfg.n_batch)
        except DimensionError as err:
            if np.isfinite(x).all():
                raise  # a shape error, not a blow-up
            raise NumericError(f"non-finite prox iterate at step {k}") from err
        oracle.ledger.prox_iters += x.shape[0]
        # x -= theta (eta g + x - x0), in place, in that order
        g *= cfg.eta
        g += x
        g -= x0_rows
        g *= theta
        x -= g
    if not np.isfinite(x).all():
        raise NumericError(f"non-finite prox iterate at step {cfg.k_iters}")
    return x


def approx_prox_rows_budgeted(potential: Potential, oracle: GradientOracle,
                              x0_rows: np.ndarray, cfg: ProxConfig,
                              m_trunc: float) -> tuple[np.ndarray, np.ndarray]:
    """The sampler's prox stage: each row runs its own k_i <= cfg.k_iters.

    One iteration runs on every row; its query g_1 bounds the row's
    gradient, G_i = ||g_1|| + M (see the module docstring), and row i runs
    k_i = min(cfg.k_iters, default_k_iters(G_i, M, m_s, rho)) iterations in
    all.  The rows go on in one ``approx_prox_rows`` call per distinct
    k_i > 1, in increasing order, each taking the rows still short of their
    k_i to that level, in their own order.  Returns the final rows and the
    k_i, whose sum the oracle's ledger has already counted in
    ``prox_iters``.  A cap of 1 leaves nothing to size.
    """
    x = approx_prox_rows(potential, oracle, x0_rows,
                         ProxConfig(cfg.eta, cfg.n_batch, 1))
    if cfg.k_iters == 1:
        return x, np.ones(x.shape[0], dtype=int)
    x0_rows = np.asarray(x0_rows, dtype=np.float64)  # validated by the call
    theta, rho = relaxation(potential, cfg.eta)
    # eta g_1 = (x0 - x_1) / theta in real arithmetic.  The roundings of the
    # update, of the norms and of this bound stay below
    # c (|x0| + |x_1|) / theta with c = (d + 16) eps, and
    # |x_1| <= |x0| + |x0 - x_1|.
    c = (potential.dim + 16) * _EPS
    step = _norms(x0_rows - x)
    g_rows = (step * (1.0 + c) + _norms(x0_rows) * (2.0 * c)) / (theta * cfg.eta)
    g_rows += m_trunc
    ks = default_k_iters(g_rows, m_trunc, potential.m_s, rho)
    np.minimum(ks, cfg.k_iters, out=ks)
    done = 1  # every row has run one iteration
    # the distinct k_i, in increasing order (np.unique would import numpy.ma,
    # tens of milliseconds, on its first call)
    for k in np.flatnonzero(np.bincount(ks)).tolist():
        if k > done:
            rows = np.flatnonzero(ks >= k)
            x[rows] = approx_prox_rows(potential, oracle, x0_rows[rows],
                                       ProxConfig(cfg.eta, cfg.n_batch, k - done),
                                       start=x[rows])
            done = k
    return x, ks


_EPS = float(np.finfo(float).eps)


def _norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def prox_residual(potential: Potential, xhat_rows: Array, x0_rows: Array,
                  eta: float) -> np.ndarray:
    """|| xhat + eta grad f(xhat) - x0 || of each row, via the analytic gradient.

    Verification helper; touches no ledger.
    """
    xhat_rows = as_rows(xhat_rows, potential.dim)
    residual = xhat_rows + eta * potential.grad_at_rows(xhat_rows)
    residual -= as_rows(x0_rows, potential.dim)
    return _norms(residual)


def prox_residual_bound(eta: float, m_s: float, m_trunc: float) -> float:
    """The guaranteed residual level 10 eta (m_s + M)."""
    return 10.0 * eta * (m_s + m_trunc)
