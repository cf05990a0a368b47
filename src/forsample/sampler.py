"""Proximal sampler outer loop and its schedule planners.

The sampler is a Gibbs chain on the augmented target
pi(x, y) proportional to exp(-f(x) - ||x - y||^2 / (2 eta)): it alternates
Y ~ N(X, eta I) with X ~ nu_Y, the Gaussian tilt at center Y, implemented
by the rejection sampler in :mod:`forsample.rgo`.  After N steps the law of
X_N is within the planned total-variation budget delta of mu ~ exp(-f).

``plan_first_order`` / ``plan_zeroth_order`` turn (potential, noise model,
assumption case, delta) into a concrete Schedule: step size eta, outer count
N, truncation level M, per-estimator batch size n, prox iteration budget,
and the gradient-norm bound G.  Each mode writes its rate once, where it
gets (N, eta): N is closed-form in the combined factor
A = d + Delta + 1/delta + (case weight) * (gradient scale), so the target
accuracy enters the iteration count only logarithmically, and eta follows
from the rate at log(N/delta).  All absolute constants come from a
PlanConstants snapshot that is stored on the schedule and serialized with
every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import DEFAULT_CONSTANTS, PlanConstants
from .core import AssumptionCase, Potential, as_vector
from .errors import BudgetExhaustedError, InfeasibleScheduleError, UnsupportedCombinationError
from .fors import FORSConfig, fors_accept_rows
from .oracles import GradientOracle, NoiseModel, QueryLedger, ValueOracle, phi
from .prox import ProxConfig, approx_prox_rows_budgeted, default_k_iters, relaxation
from .rgo import tilt_source

MODES = ("first_order", "zeroth_order")

# each outer step's share of delta for the batch-size tail: delta / (split N).
# phi sizes the batch so that one tail event, of probability at most
# eps_n(M), takes a tenth of the share: delta / (100 N) in first order.  A
# first-order step has two such events per chain, the prox residual and the
# per-row prox budget's first query (see prox), so 2 eps_n(M) <= delta / (50 N)
# stays within the share.
_TAIL_SPLIT = {"first_order": 10.0, "zeroth_order": 4.0}


def _tail_budget(mode: str, delta: float, n_steps: int) -> float:
    return delta / (_TAIL_SPLIT[mode] * max(n_steps, 1))


@dataclass(frozen=True)
class Schedule:
    """A fully planned sampler run; every field is an input to the loop.

    ``k_iters`` is the cap on each row's prox iterations: the first-order
    loop runs k_i <= k_iters on row i, sized from the row's first gradient
    query (``prox.approx_prox_rows_budgeted``).  ``planned_queries`` is the
    price at the cap, every row at k_iters, so it bounds the prox share of
    the realized queries from above.  Reports store the schedule as
    ``dataclasses.asdict``.  The planners are deterministic, so re-planning
    from a report's config and constants re-creates it.
    """

    mode: str
    eta: float
    n_steps: int
    m_trunc: float
    n_batch: int
    g_bound: float
    k_iters: int
    b: float
    delta: float
    case: AssumptionCase
    constants: PlanConstants
    planned_queries: int

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not (self.eta > 0) or self.n_steps < 0:
            raise ValueError("need eta > 0 and n_steps >= 0")
        if not (0 < self.delta < 1):
            raise ValueError("delta must lie in (0, 1)")
        if self.n_batch < 1:
            raise ValueError("n_batch must be >= 1")


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------

def gradient_norm_bound(pot: Potential, warm_start_delta: float,
                        n_steps: int, delta: float) -> float:
    """High-probability bound G on ||grad f|| along the chain.

    G^2 = 64 beta^(2/(1+s)) / d^((1-s)/(1+s)) * (Delta + d + log(10 N / delta)),
    valid simultaneously for all N outer laws with failure budget delta/(10N)
    each, given log(1 + chi^2(mu_0 || mu)) <= Delta.
    """
    s, beta, d = pot.holder_s, pot.holder_beta, pot.dim
    g2 = (64.0 * beta ** (2.0 / (1.0 + s)) / d ** ((1.0 - s) / (1.0 + s))
          * (warm_start_delta + d + math.log(10.0 * max(n_steps, 1) / delta)))
    return math.sqrt(g2)


def _log_a(pot: Potential, case: AssumptionCase, delta: float,
           gradient_scale: float) -> float:
    """log A, A = d + Delta + 1/delta + (case weight) * gradient_scale.

    The scale is m_s^2, plus M^2 in first order; the weight is the case's
    constant, or W_2^2 for LC.  delta enters N only through this logarithm.
    """
    weight = case.w2_bound ** 2 if case.tag == "LC" else case.constant
    a = pot.dim + case.warm_start_delta + 1.0 / delta + weight * gradient_scale
    return math.log(a)


def _n_eta_first_order(pot: Potential, case: AssumptionCase, m_trunc: float,
                       delta: float, constants: PlanConstants) -> tuple[int, float]:
    """(N, eta) of the first-order plan at level M, from its one rate.

    R(L) = (beta^2 d^s L + beta^2 L^2)^(1/(1+s)) + M^2 L.  N ~ C_PI R(log A)
    (Delta + log(1/delta)) under PI, R(log A) W_2^2 / delta^2 under LC and
    C_LSI (beta sqrt(d) log^(3/2) A + (beta + M^2) log^2 A) under LSI; then
    1/eta = c_eta_first R(log(N/delta)), within the prox's eta <= 1/(2 m_s).
    """
    s, beta, d = pot.holder_s, pot.holder_beta, pot.dim

    def rate(ell: float) -> float:
        return ((beta ** 2 * d ** s * ell + beta ** 2 * ell ** 2) ** (1.0 / (1.0 + s))
                + m_trunc ** 2 * ell)

    ell = _log_a(pot, case, delta, pot.m_s ** 2 + m_trunc ** 2)
    if case.tag == "LSI":
        val = case.constant * (beta * math.sqrt(d) * ell ** 1.5
                               + (beta + m_trunc ** 2) * ell ** 2)
    elif case.tag == "PI":
        val = case.constant * rate(ell) * (case.warm_start_delta + math.log(1.0 / delta))
    else:
        val = rate(ell) * case.w2_bound ** 2 / delta ** 2
    n_steps = max(int(math.ceil(constants.c_n * val)), 1)
    eta = 1.0 / (constants.c_eta_first * rate(math.log(max(n_steps, 2) / delta)))
    return n_steps, min(eta, 1.0 / (2.0 * pot.m_s))


def _n_eta_zeroth_order(pot: Potential, case: AssumptionCase, delta: float,
                        constants: PlanConstants) -> tuple[int, float]:
    """(N, eta) of the zeroth-order plan, from its one rate.

    F(L) = (beta d^s)^(2/(1+s)) (1 + (Delta + L)/d).  N ~ F(log A) log A times
    C_LSI log A (LSI), C_PI (Delta + log(1/delta)) (PI) or W_2^2 / delta^2
    (LC); then 1/eta = c_eta_zeroth F(L) L at L = log(N/delta).
    """
    s, beta, d = pot.holder_s, pot.holder_beta, pot.dim

    def rate(ell: float) -> float:
        return (beta * d ** s) ** (2.0 / (1.0 + s)) * (1.0 + (case.warm_start_delta + ell) / d)

    ell = _log_a(pot, case, delta, pot.m_s ** 2)
    if case.tag == "LSI":
        val = case.constant * rate(ell) * ell ** 2
    elif case.tag == "PI":
        val = case.constant * rate(ell) * (case.warm_start_delta + math.log(1.0 / delta)) * ell
    else:
        val = rate(ell) * ell * case.w2_bound ** 2 / delta ** 2
    n_steps = max(int(math.ceil(constants.c_n * val)), 1)
    ell = math.log(max(n_steps, 2) / delta)
    return n_steps, 1.0 / (constants.c_eta_zeroth * (rate(ell) * ell))


def _plan(mode: str, pot: Potential, noise: NoiseModel, case: AssumptionCase,
          delta: float, constants: PlanConstants, levels: list[float]) -> Schedule:
    """The planner both modes share: the cheapest plan over ``levels``.

    Each truncation level M is priced in turn: the mode's (N, eta) at M,
    the batch size phi at M with the step's tail share, the gradient bound G,
    then the queries of N steps.  A level whose batch size phi cannot reach
    is skipped; a plan with no level left is refused.
    """
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    first = mode == "first_order"
    b = constants.b_first if first else constants.b_zeroth
    best: Schedule | None = None
    last_error: Exception | None = None
    for m_trunc in levels:
        try:
            n_steps, eta = (_n_eta_first_order(pot, case, m_trunc, delta, constants) if first
                            else _n_eta_zeroth_order(pot, case, delta, constants))
            n_batch = phi(noise, m_trunc, _tail_budget(mode, delta, n_steps),
                          cap=constants.phi_cap)
        except (UnsupportedCombinationError, ValueError, OverflowError) as err:
            # OverflowError: N or eta past the floats, at an M that heavy tails push there
            last_error = err
            continue
        g_bound = gradient_norm_bound(pot, case.warm_start_delta, n_steps, delta)
        # per outer step: at most k_iters prox batches (first order; a row may
        # run fewer), then the rejection loop's W draws, each one gradient
        # batch or two value batches, every batch of size n_batch; with W = 0
        # a call makes e^B attempts of sum_n P(J >= n) 2^(1-n) = 2(1 - e^-B) draws
        k_iters = (default_k_iters(g_bound, m_trunc, pot.m_s, relaxation(pot, eta)[1])
                   if first else 0)
        w_batches = 1 if first else 2
        per_step = n_batch * (k_iters + w_batches * (2.0 * math.expm1(b)))
        sched = Schedule(
            mode=mode, eta=eta, n_steps=n_steps, m_trunc=m_trunc, n_batch=n_batch,
            g_bound=g_bound, k_iters=k_iters, b=b, delta=delta, case=case,
            constants=constants, planned_queries=int(math.ceil(n_steps * per_step)))
        if best is None or sched.planned_queries < best.planned_queries:
            best = sched
    if best is None:
        raise InfeasibleScheduleError(
            f"no feasible {mode} plan for {noise.family} noise at delta={delta:g}: "
            f"{last_error}") from last_error
    return best


def plan_first_order(pot: Potential, noise: NoiseModel, case: AssumptionCase,
                     delta: float,
                     constants: PlanConstants = DEFAULT_CONSTANTS) -> Schedule:
    """Plan a first-order (stochastic gradient) sampler run.

    The truncation level M is chosen by scanning a geometric grid upward
    from the noise's exact first moment and keeping the candidate whose
    planned query count is smallest.  Exact oracles, whose first moment is
    0, use M = 0 and n_batch = 1.
    """
    base = noise.m1(pot.dim)
    levels = ([base * constants.m_grid_ratio ** i for i in range(constants.m_grid_points)]
              if base > 0 else [0.0])
    return _plan("first_order", pot, noise, case, delta, constants, levels)


def plan_zeroth_order(pot: Potential, noise: NoiseModel, case: AssumptionCase,
                      delta: float,
                      constants: PlanConstants = DEFAULT_CONSTANTS) -> Schedule:
    """Plan a zeroth-order (stochastic value) sampler run.

    The proposal center is the query point itself (no prox stage).  The
    estimator truncation level is pinned at B/3 and the batch size is phi
    at that level with per-step budget delta/(4N).
    """
    return _plan("zeroth_order", pot, noise, case, delta, constants,
                 [constants.b_zeroth / 3.0])


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def gaussian_initializer(mean, variance: float = 1.0) -> Callable[[int, np.random.Generator], np.ndarray]:
    """Initial law N(mean, variance * I) as a (k, rng) -> rows callable.

    The mean is a finite vector (a number is a 1-D one) and the variance a
    finite positive number."""
    mean = as_vector(mean)
    if not (0 < variance < math.inf):
        raise ValueError(f"variance must be finite and positive, got {variance!r}")
    std = math.sqrt(variance)

    def draw(k: int, rng: np.random.Generator) -> np.ndarray:
        return mean + std * rng.standard_normal((k, mean.shape[0]))

    return draw


def run_proximal_sampler(pot: Potential, oracle, sched: Schedule,
                         mu0: Callable[[int, np.random.Generator], np.ndarray],
                         chains: int, rng: np.random.Generator,
                         max_attempts: int = 10 ** 6) -> tuple[np.ndarray, QueryLedger]:
    """Run ``chains`` independent proximal-sampler chains for N outer steps.

    Per step and chain: Y ~ N(X, eta I); then X' is drawn from the Gaussian
    tilt at center Y via the rejection loop, with the tilt proposal centered
    at the approximate proximal point of Y (first order; each chain runs its
    own number of prox iterations, at most ``sched.k_iters``, and the ledger
    counts those run) or at Y itself (zeroth order).  The chains share
    ``rng``, so their count shifts every stream, but do not step in
    lockstep: a chain starts its next step in the tick after it accepts.
    A BudgetExhaustedError names the chain and its own step.  Returns the
    (chains, dim) final states and the ledger, whose ``outer_steps`` counts
    the steps all chains finished.  The oracle type must match the mode:
    GradientOracle for first_order, ValueOracle for zeroth_order.
    """
    if chains < 1:
        raise ValueError("chains must be >= 1")
    first = sched.mode == "first_order"
    if first and not isinstance(oracle, GradientOracle):
        raise TypeError("first_order schedules need a GradientOracle")
    if not first and not isinstance(oracle, ValueOracle):
        raise TypeError("zeroth_order schedules need a ValueOracle")

    ledger = oracle.ledger
    eta = sched.eta
    cfg = FORSConfig(b=sched.b, max_attempts=max_attempts)
    prox_cfg = ProxConfig(eta=eta, n_batch=sched.n_batch, k_iters=sched.k_iters) if first else None

    x = np.asarray(mu0(chains, rng), dtype=float)
    if x.shape != (chains, pot.dim):
        raise ValueError(f"mu0 returned shape {x.shape}, expected {(chains, pot.dim)}")
    if sched.n_steps == 0:
        return x, ledger
    source = tilt_source(oracle, x, np.zeros_like(x), eta, sched.b, sched.n_batch)
    steps = np.full(chains, -1)  # steps each chain finished; renew starts step 0

    def renew(slots: np.ndarray, xs: np.ndarray) -> np.ndarray:
        # chains that finished a step start their next: Y ~ N(X, eta I), its tilt
        steps[slots] += 1
        left = steps[slots] < sched.n_steps
        slots, xs = slots.compress(left), xs.compress(left, axis=0)
        if slots.size:
            y = xs + math.sqrt(eta) * rng.standard_normal(xs.shape)
            xhat = (approx_prox_rows_budgeted(pot, oracle, y, prox_cfg, sched.m_trunc)[0]
                    if first else y)
            source.recenter(slots, y, xhat)
            ledger.rgo_calls += slots.size
        return slots

    renew(np.arange(chains), x)
    try:
        x = fors_accept_rows(source.propose_rows, source.draw_w_rows, cfg, chains, rng,
                             ledger=ledger, renew=renew)
    except BudgetExhaustedError as err:
        err.step = int(steps[err.chain])
        raise
    finally:
        ledger.outer_steps += int(steps.min())
    return x, ledger
