"""Proximal sampler outer loop and its schedule planners.

The sampler is a Gibbs chain on the augmented target
pi(x, y) proportional to exp(-f(x) - ||x - y||^2 / (2 eta)): it alternates
Y ~ N(X, eta I) with X ~ nu_Y, the Gaussian tilt at center Y, implemented
by the rejection sampler in :mod:`forsample.rgo`.  After N steps the law of
X_N is within the planned total-variation budget delta of mu ~ exp(-f).

``plan_first_order`` / ``plan_zeroth_order`` turn (potential, noise model,
assumption case, delta) into a concrete Schedule: step size eta, outer count
N, truncation level M, per-estimator batch size n, prox iteration budget,
and the gradient-norm bound G.  N is closed-form in the combined factor
A = d + Delta + 1/delta + (case weight) * (gradient scale), so the target
accuracy enters the iteration count only logarithmically; eta then follows
from log(N/delta) in a single pass.  All absolute constants come from a
PlanConstants snapshot that is stored on the schedule and serialized with
every report.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .constants import DEFAULT_CONSTANTS, PlanConstants
from .core import AssumptionCase, Potential
from .errors import BudgetExhaustedError, InfeasibleScheduleError, UnsupportedCombinationError
from .fors import FORSConfig, fors_accept_rows
from .oracles import (GradientOracle, NoiseModel, QueryLedger, ValueOracle,
                      eps_tail, phi)
from .prox import ProxConfig, approx_prox_rows, default_k_iters
from .rgo import _FirstOrderRows, _ZerothOrderRows

MODES = ("first_order", "zeroth_order")


@dataclass(frozen=True)
class Schedule:
    """A fully planned sampler run; every field is an input to the loop."""

    mode: str
    eta: float
    n_steps: int
    m_trunc: float
    n_batch: int
    eps_prox: float
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

    @property
    def tail_budget(self) -> float:
        """The per-run tail budget the batch size was sized for."""
        split = 10.0 if self.mode == "first_order" else 4.0
        return self.delta / (split * max(self.n_steps, 1))


def schedule_to_dict(sched: Schedule) -> dict:
    return asdict(sched)


def schedule_from_dict(data: dict) -> Schedule:
    return Schedule(**{**data, "case": AssumptionCase(**data["case"]),
                       "constants": PlanConstants(**data["constants"])})


def schedule_to_json(sched: Schedule) -> str:
    return json.dumps(schedule_to_dict(sched), indent=2, sort_keys=True)


def schedule_from_json(text: str) -> Schedule:
    return schedule_from_dict(json.loads(text))


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


def _eta_first_order(pot: Potential, m_trunc: float, delta: float,
                     n_steps: int, constants: PlanConstants) -> float:
    s, beta, d = pot.holder_s, pot.holder_beta, pot.dim
    ell = math.log(max(n_steps, 2) / delta)
    base = ((beta ** 2 * d ** s * ell + beta ** 2 * ell ** 2) ** (1.0 / (1.0 + s))
            + m_trunc ** 2 * ell)
    eta = 1.0 / (constants.c_eta_first * base)
    # the prox contraction additionally needs eta <= 1/(2 m_s)
    return min(eta, 1.0 / (2.0 * pot.m_s))


def _eta_zeroth_order(pot: Potential, case: AssumptionCase, delta: float,
                      n_steps: int, constants: PlanConstants) -> float:
    s, beta, d = pot.holder_s, pot.holder_beta, pot.dim
    ell = math.log(max(n_steps, 2) / delta)
    base = ((beta * d ** s) ** (2.0 / (1.0 + s))
            * (1.0 + (case.warm_start_delta + ell) / d) * ell)
    return 1.0 / (constants.c_eta_zeroth * base)


def _log_a(pot: Potential, case: AssumptionCase, delta: float,
           gradient_scale: float) -> float:
    """log of the A-factor: A = d + Delta + 1/delta + (case weight) * scale.

    ``gradient_scale`` is the squared natural gradient scale of the plan
    (m_s^2 for zeroth order, m_s^2 + M^2 for first order).  The case weight
    is the functional-inequality constant for LSI/PI and W_2^2 for LC, so
    delta enters the iteration counts only through this logarithm.
    """
    weight = case.w2_bound ** 2 if case.tag == "LC" else case.constant
    a = pot.dim + case.warm_start_delta + 1.0 / delta + weight * gradient_scale
    return math.log(a)


def _n_first_order(pot: Potential, case: AssumptionCase, m_trunc: float,
                   delta: float, constants: PlanConstants) -> int:
    """Outer-iteration count for the first-order plan, by assumption case.

    LSI: N ~ C_LSI (beta sqrt(d) log^(3/2) A + (beta + M^2) log^2 A).
    PI:  N ~ C_PI ((beta^2 d^s log A + beta^2 log^2 A)^(1/(1+s)) + M^2 log A)
         * (Delta + log(1/delta)).
    LC:  N ~ (same bracket) * W_2^2 / delta^2.
    """
    s, beta, d = pot.holder_s, pot.holder_beta, pot.dim
    ell = _log_a(pot, case, delta, pot.m_s ** 2 + m_trunc ** 2)
    if case.tag == "LSI":
        val = case.constant * (beta * math.sqrt(d) * ell ** 1.5
                               + (beta + m_trunc ** 2) * ell ** 2)
    else:
        bracket = ((beta ** 2 * d ** s * ell + beta ** 2 * ell ** 2) ** (1.0 / (1.0 + s))
                   + m_trunc ** 2 * ell)
        if case.tag == "PI":
            val = case.constant * bracket * (case.warm_start_delta
                                             + math.log(1.0 / delta))
        else:
            val = bracket * case.w2_bound ** 2 / delta ** 2
    return max(int(math.ceil(constants.c_n * val)), 1)


def _n_zeroth_order(pot: Potential, case: AssumptionCase, delta: float,
                    constants: PlanConstants) -> int:
    """Outer-iteration count for the zeroth-order plan, by assumption case.

    All cases share the factor (beta d^s)^(2/(1+s)) (1 + (Delta + log A)/d);
    LSI multiplies by C_LSI log^2 A, PI by C_PI (Delta + log(1/delta)) log A,
    LC by W_2^2 log A / delta^2.
    """
    s, beta, d = pot.holder_s, pot.holder_beta, pot.dim
    ell = _log_a(pot, case, delta, pot.m_s ** 2)
    factor = ((beta * d ** s) ** (2.0 / (1.0 + s))
              * (1.0 + (case.warm_start_delta + ell) / d))
    if case.tag == "LSI":
        val = case.constant * factor * ell ** 2
    elif case.tag == "PI":
        val = case.constant * factor * (case.warm_start_delta
                                        + math.log(1.0 / delta)) * ell
    else:
        val = factor * ell * case.w2_bound ** 2 / delta ** 2
    return max(int(math.ceil(constants.c_n * val)), 1)


def _estimator_draws_per_call(b: float) -> float:
    """Expected W draws of one acceptance call when W is identically 0.

    An attempt draws its n-th W when J >= n and the first n - 1 factors
    (each 1/2) stay above the coin: sum_n P(J >= n) 2^(1-n) = 2(1 - e^-B)
    draws per attempt, and a call takes e^B attempts on average.
    """
    return 2.0 * math.expm1(b)


def _first_order_cost(n_steps: int, n_batch: int, k_iters: int, b: float) -> int:
    # per outer step: k_iters prox batches plus the rejection loop's
    # estimator batches, each of size n_batch
    per_step = n_batch * (k_iters + _estimator_draws_per_call(b))
    return int(math.ceil(n_steps * per_step))


def plan_first_order(pot: Potential, noise: NoiseModel, case: AssumptionCase,
                     delta: float,
                     constants: PlanConstants = DEFAULT_CONSTANTS) -> Schedule:
    """Plan a first-order (stochastic gradient) sampler run.

    The truncation level M is chosen by scanning a geometric grid upward
    from the noise's exact first moment and keeping the candidate whose
    planned query count is smallest; each candidate is priced by resolving
    the eta <-> N pair and inverting the tail bound for the batch size.
    Exact oracles use M = 0 and n_batch = 1.
    """
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    if noise.family == "exact":
        candidates = [0.0]
    else:
        base = noise.m1(pot.dim)
        if base <= 0:
            raise InfeasibleScheduleError("noise first moment must be positive")
        candidates = [base * constants.m_grid_ratio ** i
                      for i in range(constants.m_grid_points)]

    best: Schedule | None = None
    last_error: Exception | None = None
    for m_trunc in candidates:
        n_steps = _n_first_order(pot, case, m_trunc, delta, constants)
        eta = _eta_first_order(pot, m_trunc, delta, n_steps, constants)
        try:
            n_batch = (1 if noise.family == "exact" else
                       phi(noise, m_trunc, delta / (10.0 * n_steps), cap=constants.phi_cap))
        except (UnsupportedCombinationError, ValueError) as err:
            last_error = err
            continue
        g_bound = gradient_norm_bound(pot, case.warm_start_delta, n_steps, delta)
        k_iters = default_k_iters(g_bound, m_trunc, pot.m_s)
        sched = Schedule(
            mode="first_order", eta=eta, n_steps=n_steps, m_trunc=m_trunc,
            n_batch=n_batch, eps_prox=10.0 * (pot.m_s + m_trunc),
            g_bound=g_bound, k_iters=k_iters, b=constants.b_first,
            delta=delta, case=case, constants=constants,
            planned_queries=_first_order_cost(n_steps, n_batch, k_iters,
                                              constants.b_first))
        if best is None or sched.planned_queries < best.planned_queries:
            best = sched
    if best is None:
        raise InfeasibleScheduleError(
            f"no feasible truncation level for {noise.family} noise at "
            f"delta={delta:g}: {last_error}")
    return best


def plan_zeroth_order(pot: Potential, noise: NoiseModel, case: AssumptionCase,
                      delta: float,
                      constants: PlanConstants = DEFAULT_CONSTANTS) -> Schedule:
    """Plan a zeroth-order (stochastic value) sampler run.

    The proposal center is the query point itself (no prox stage), so
    eps_prox is the gradient-norm bound G.  The estimator truncation level
    is pinned at B/3 and the batch size is phi at that level with per-step
    budget delta/(4N).
    """
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    m_level = constants.b_zeroth / 3.0
    n_steps = _n_zeroth_order(pot, case, delta, constants)
    eta = _eta_zeroth_order(pot, case, delta, n_steps, constants)
    try:
        n_batch = (1 if noise.family == "exact" else
                   phi(noise, m_level, delta / (4.0 * n_steps), cap=constants.phi_cap))
    except (UnsupportedCombinationError, ValueError) as err:
        raise InfeasibleScheduleError(
            f"zeroth-order batch size infeasible at delta={delta:g}: {err}") from err
    g_bound = gradient_norm_bound(pot, case.warm_start_delta, n_steps, delta)
    # two value batches per estimator draw
    per_step = n_batch * 2.0 * _estimator_draws_per_call(constants.b_zeroth)
    return Schedule(
        mode="zeroth_order", eta=eta, n_steps=n_steps, m_trunc=m_level,
        n_batch=n_batch, eps_prox=g_bound, g_bound=g_bound, k_iters=0,
        b=constants.b_zeroth, delta=delta, case=case, constants=constants,
        planned_queries=int(math.ceil(n_steps * per_step)))


def schedule_tail_ok(sched: Schedule, noise: NoiseModel) -> bool:
    """Check eps_tail(noise, n_batch, M) <= delta / (10N or 4N)."""
    level = sched.m_trunc if sched.mode == "first_order" else sched.b / 3.0
    try:
        return eps_tail(noise, sched.n_batch, level) <= sched.tail_budget
    except UnsupportedCombinationError:
        return False


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def gaussian_initializer(mean, variance: float = 1.0) -> Callable[[int, np.random.Generator], np.ndarray]:
    """Initial law N(mean, variance * I) as a (k, rng) -> rows callable."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    if not (variance > 0):
        raise ValueError("variance must be positive")
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
    at the approximate proximal point of Y (first order) or at Y itself
    (zeroth order).  Returns the (chains, dim) final states and the merged
    query ledger.  Oracle type must match the mode: GradientOracle for
    first_order, ValueOracle for zeroth_order.
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
    root_eta = math.sqrt(eta)
    d = pot.dim
    cfg = FORSConfig(b=sched.b, max_attempts=max_attempts)
    if first:
        prox_cfg = ProxConfig(eta=eta, n_batch=sched.n_batch, k_iters=sched.k_iters)

    x = np.asarray(mu0(chains, rng), dtype=float)
    if x.shape != (chains, d):
        raise ValueError(f"mu0 returned shape {x.shape}, expected {(chains, d)}")

    for step in range(sched.n_steps):
        y = x + root_eta * rng.standard_normal((chains, d))
        if first:
            xhat = approx_prox_rows(pot, oracle, y, prox_cfg, rng)
            ledger.prox_iters += sched.k_iters * chains
            u_rows = (y - xhat) / eta
            source = _FirstOrderRows(oracle, xhat, u_rows, eta, sched.b, sched.n_batch)
        else:
            xhat = y
            u_rows = np.zeros_like(y)
            source = _ZerothOrderRows(oracle, xhat, u_rows, eta, sched.b, sched.n_batch)

        def propose_rows(slots: np.ndarray, r: np.random.Generator) -> np.ndarray:
            return xhat[slots] + root_eta * r.standard_normal((slots.size, d))

        ledger.rgo_calls += chains
        try:
            x = fors_accept_rows(propose_rows, source, cfg, chains, rng, ledger=ledger)
        except BudgetExhaustedError as err:
            err.step = step
            raise
        ledger.outer_steps += 1
    return x, ledger
