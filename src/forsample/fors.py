"""Rejection sampling driven by unbiased estimators of a log-density tilt.

Given a proposal q and a source of independent draws W at each point x with
W in [-B, B] and E[W | x] = log(target(x)/q(x)) + const, each loop attempt

    draws x ~ q, J ~ Poisson(2B), W_1..W_J iid from the source at x,
    and accepts x with probability  prod_j (B + W_j) / (2B),

which is an unbiased coin for exp(E[W|x] - B) (the Poisson estimator and
Bernoulli factory of Beskos, Papaspiliopoulos & Roberts 2006 and Fearnhead,
Papaspiliopoulos & Roberts 2008), so accepted points follow the density
proportional to q(x) * exp(E[W|x]) exactly.

Each factor (B + W_j)/(2B) is at most 1, so the running product only
decreases and an attempt can be rejected as soon as it falls below the coin;
its remaining W are never drawn.  The coin is written twice, in two kernels
that reject this way and hold no budget.  The scalar one, ``_scalar_coin``,
flips one attempt over a W-draw callable: ``fors_sample`` charges its cap
there, and ``lowerbound.proximal_adapter`` passes its path-integral W.  The
row kernel, ``_coin_rounds``, is the one round step: it proposes a row per
slot with ``propose(slots, rng)`` and draws the n-th W, in one ``draw_w``
call, for the attempts still alive after n - 1 draws; each engine owns its
caps and charges W draws in the ``draw_w`` it passes.  ``fors_accept_rows``
(one acceptance per slot, which a ``renew`` hook may start again) caps each
slot, its attempts by round stamps (a slot's attempts are the rounds since
its acceptance started), ``fors_sample_many`` (iid collector for one target)
caps totals over its samples, and ``fors_attempt_batch`` (fixed attempt
count, for the acceptance-law diagnostic) has no cap.  The iid engines send
all-zero slots in rounds of at most ``_ROUND_ROWS`` attempts, whatever B and
the sample count, so a per-row array of a round holds at most 2^16 floats
(512 KB); ``fors_sample_many`` sizes its last round at the attempts its
remaining need takes, plus three standard errors.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Protocol

import numpy as np

from .core import Array, as_vector
from .errors import BudgetExhaustedError, DimensionError, EstimatorRangeError
from .oracles import QueryLedger

_POISSON_INVERSION_MAX_LAM = 30.0
_GUIDE = 1024  # guide-table buckets of the row Poisson draw; a power of two
# attempts per round of the iid engines: of 2^15, 2^16 and 2^17, the fastest
# on the criterion-4 tilt job list (B = 3, 2 vCPUs), where it peaks at 139 MB
_ROUND_ROWS = 2 ** 16


@lru_cache(maxsize=64)
def _poisson_cdf_table(lam: float) -> np.ndarray:
    # exact CDF out to where the remaining mass is < 1e-16
    if not (0 < lam <= _POISSON_INVERSION_MAX_LAM):
        raise ValueError(f"inversion table supports 0 < lam <= {_POISSON_INVERSION_MAX_LAM}")
    kmax = int(lam + 12.0 * math.sqrt(lam) + 30)
    pmf = np.empty(kmax + 1)
    pmf[0] = math.exp(-lam)
    for k in range(1, kmax + 1):
        pmf[k] = pmf[k - 1] * lam / k
    return np.cumsum(pmf)


@lru_cache(maxsize=64)
def _poisson_cdf_list(lam: float) -> list[float]:
    return _poisson_cdf_table(lam).tolist()


@lru_cache(maxsize=64)
def _poisson_guide_table(lam: float) -> tuple[np.ndarray, np.ndarray]:
    top = np.append(_poisson_cdf_table(lam)[:-1] * _GUIDE, np.inf)
    return top, np.searchsorted(top, np.arange(_GUIDE), side="left")


def poisson_inversion(lam: float, rng: np.random.Generator,
                      size: int | None = None):
    """Exact Poisson(lam) draws by CDF inversion of one uniform each.

    A draw is ``min(searchsorted(cdf, r, side="left"), len(cdf) - 1)``;
    ``size=None`` returns one int by ``bisect_left`` on the table's float
    list, so n scalar draws equal one size-n draw.  Rows start at a guide
    table (Chen & Asau 1974; Devroye 1986, III.2.4) and stay exact: G =
    ``_GUIDE`` is a power of two, so s = rG and G cdf carry no rounding, and
    a row with s in [b, b + 1) draws guide[b] = searchsorted(G cdf, b) unless
    G cdf[guide[b]] < s, when it is searched.  The last entry, +inf, clips.
    """
    if size is None:
        cdf = _poisson_cdf_list(float(lam))
        return min(bisect_left(cdf, rng.random()), len(cdf) - 1)
    top, guide = _poisson_guide_table(float(lam))
    s = rng.random(size) * _GUIDE
    j = guide[s.astype(np.intp)]
    short = (top[j] < s).nonzero()[0]
    if short.size:
        j[short] = np.searchsorted(top, s[short], side="left")
    return j


@dataclass(frozen=True)
class FORSConfig:
    """Loop parameters: estimator range B and hard budget caps."""

    b: float = 1.0
    max_attempts: int = 10 ** 6
    max_w_per_call: int = 10 ** 6

    def __post_init__(self):
        if not (self.b > 0):
            raise ValueError("B must be positive")
        if 2 * self.b > _POISSON_INVERSION_MAX_LAM:
            raise ValueError("B too large for the exact inversion sampler (2B <= 30)")
        if self.max_attempts < 1 or self.max_w_per_call < 1:
            raise ValueError("budget caps must be positive")


class EstimatorSource:
    """Wraps a per-point W sampler and meters its draws.

    ``draw_w(x, rng) -> float`` must return values in [-B, B]; the loop
    validates the range on every draw and raises EstimatorRangeError on a
    violation rather than clipping silently.
    """

    def __init__(self, draw_w: Callable[[Array, np.random.Generator], float],
                 ledger: QueryLedger | None = None):
        self._draw_w = draw_w
        self.ledger = ledger if ledger is not None else QueryLedger()

    def draw(self, x: Array, rng: np.random.Generator) -> float:
        self.ledger.w_draws += 1
        return float(self._draw_w(x, rng))


class RowEstimatorSource(Protocol):
    """Vectorized counterpart: one W per row of a point stack."""

    def draw_w_rows(self, slots: np.ndarray, xs: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray: ...


@dataclass(frozen=True)
class FORSResult:
    point: Array
    attempts: int
    w_draws: int


def _scalar_coin(b: float) -> Callable[..., bool]:
    """The scalar coin ``flip(random, draw_w, x) -> bool`` for range B.

    J and u come from ``random``, then up to J factors from ``draw_w(x)``;
    a W outside the closed [-B, B], NaN and +-inf included, raises
    EstimatorRangeError.
    """
    b2 = 2 * b
    # poisson_inversion(2B, rng)'s scalar path, with its table bound once
    cdf = _poisson_cdf_list(float(b2))
    j_top = len(cdf) - 1

    def flip(random, draw_w, x) -> bool:
        j = min(bisect_left(cdf, random()), j_top)
        u = random()
        product = 1.0
        for _ in range(j):
            w = draw_w(x)
            if not (-b <= w <= b):  # also false for NaN
                raise EstimatorRangeError(f"estimator draw {w} outside [-{b}, {b}]")
            product *= (b + w) / b2
            if product < u:
                return False
        return u < product

    return flip


def fors_sample(proposal: Callable[[np.random.Generator], Array],
                source: EstimatorSource, cfg: FORSConfig,
                rng: np.random.Generator,
                ledger: QueryLedger | None = None) -> FORSResult:
    """Draw one exact sample from the proposal ``proposal(rng)`` tilted by W.

    ``rng`` draws the proposals, Poisson counts and coins; the source may
    share it or hold its own.  The source's ledger meters W draws and
    ``ledger`` the attempts: pass one QueryLedger to both for unified
    accounting.  Raises BudgetExhaustedError, carrying the partial
    accounting, when the attempt or the per-call W-draw cap is hit.
    """
    ledger = ledger if ledger is not None else QueryLedger()
    flip, random, draw = _scalar_coin(cfg.b), rng.random, source.draw
    w_draws = 0

    def draw_w(x):
        nonlocal w_draws
        if w_draws >= cfg.max_w_per_call:
            raise BudgetExhaustedError("W-draw budget exhausted", attempts=attempt, w_draws=w_draws)
        w_draws += 1
        return draw(x, rng)

    for attempt in range(1, cfg.max_attempts + 1):
        ledger.fors_attempts += 1
        x = as_vector(proposal(rng))
        if flip(random, draw_w, x):
            return FORSResult(point=x, attempts=attempt, w_draws=w_draws)
    raise BudgetExhaustedError(
        "attempt budget exhausted", attempts=cfg.max_attempts, w_draws=w_draws)


def _coin_rounds(propose: Callable[[np.ndarray, np.random.Generator], np.ndarray],
                 draw_w: Callable[[np.ndarray, np.ndarray, np.random.Generator], np.ndarray],
                 b: float, rng: np.random.Generator, ledger: QueryLedger):
    """The row engines' round step, as a generator of ``(xs, mask)`` rounds.

    Prime with ``next``, then ``send(slots)`` per round: the int64 slot of
    each attempt of the round, distinct, or all 0 with one shared target.
    The round proposes ``xs = propose(slots, rng)``, one row per slot, draws
    each row's J ~ Poisson(2B) and coin u, then runs sub-rounds n = 1, 2,
    ...: sub-round n draws the n-th W of each row still alive (J >= n and
    running product >= u) in one ``draw_w(slots, xs, rng)`` call, validates
    it (shape, finiteness, the closed range [-B, B]) and multiplies
    (B + W)/(2B) into the row's product.  Each factor is at most 1, so a row
    whose product fell below u is rejected without its remaining draws; the
    mask u < prod is the one the full product gives.  As a generator it
    keeps a round's arrays alive until the next round replaces them, so the
    next round does not page-fault them in again.
    """
    out = None
    while True:
        slots = yield out
        xs = propose(slots, rng)
        if xs.ndim != 2 or xs.shape[:1] != slots.shape:
            raise DimensionError(f"proposal returned rows of shape {xs.shape} "
                                 f"for slots of shape {slots.shape}")
        k = slots.size
        js = poisson_inversion(2 * b, rng, size=k)
        u = rng.random(k)
        ledger.fors_attempts += k
        prods = np.ones(k)
        live = js.nonzero()[0]
        n = 1
        while live.size:
            ws = np.asarray(draw_w(slots[live], xs[live], rng))
            ledger.w_draws += live.size
            if ws.shape != live.shape:
                raise EstimatorRangeError(f"row source returned shape {ws.shape}")
            if not np.logical_and.reduce(np.abs(ws) <= b):  # also false for NaN
                raise EstimatorRangeError(f"row estimator draw outside [-{b}, {b}]")
            p = prods[live] * ((b + ws) / (2 * b))
            prods[live] = p
            n += 1
            live = live[(js[live] >= n) & (p >= u[live])]
        out = xs, u < prods


def _check_count(name: str, value: int, least: int) -> None:
    if not value >= least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def fors_accept_rows(propose_rows: Callable[[np.ndarray, np.random.Generator], np.ndarray],
                     source: RowEstimatorSource, cfg: FORSConfig, n_slots: int,
                     rng: np.random.Generator, ledger: QueryLedger | None = None,
                     renew: Callable[..., np.ndarray] | None = None) -> np.ndarray:
    """Run one FORS acceptance per slot, vectorized across slots.

    Each slot owns its own (possibly distinct) target; ``propose_rows`` and
    the source receive the slot indices so heterogeneous problems (one per
    chain) batch together.  Law-equivalent to calling ``fors_sample`` per
    slot, including both budget caps, which this engine counts per slot: it
    refuses, naming the slot, before the attempt or the W draw that would
    pass one.  W draws stop at the rejection, as in ``fors_sample``.  The
    row dimension comes from the proposals, so ``n_slots`` must be >= 1.
    ``renew(slots, rows)``, if given, gets each round's accepted slots and
    rows, may move their targets, and returns the slots to run again, as
    fresh acceptances in the next round.  Slots share ``rng``, so their
    count shifts every stream.  The result holds the last accepted rows.
    """
    _check_count("n_slots", n_slots, 1)
    ledger = ledger if ledger is not None else QueryLedger()
    out: np.ndarray | None = None
    active = np.arange(n_slots)
    started = np.zeros(n_slots, dtype=np.int64)  # the round each acceptance started
    oldest = 0  # at most the earliest start among the active slots
    w_spent = np.zeros(n_slots, dtype=np.int64)  # the running acceptance's W draws
    top = 0  # at least the largest count in w_spent

    def draw_w(slots, xs, rng):
        # a round's slots are distinct, so a call adds at most 1 to a count
        nonlocal top
        if top >= cfg.max_w_per_call:
            over = w_spent[slots] >= cfg.max_w_per_call
            if over.any():
                raise BudgetExhaustedError("W-draw budget exhausted", w_draws=cfg.max_w_per_call,
                                           chain=int(slots[np.argmax(over)]))
            top = int(w_spent.max())
        w_spent[slots] += 1
        top += 1
        return source.draw_w_rows(slots, xs, rng)

    coin = _coin_rounds(propose_rows, draw_w, cfg.b, rng, ledger)
    next(coin)
    rounds = 0
    while active.size:
        if rounds - oldest >= cfg.max_attempts:  # a slot's attempts: rounds since it started
            over = started[active] <= rounds - cfg.max_attempts
            if over.any():
                raise BudgetExhaustedError("attempt budget exhausted", attempts=cfg.max_attempts,
                                           chain=int(active[np.argmax(over)]))
            oldest = int(started[active].min())
        xs, acc = coin.send(active)
        if out is None:
            out = np.empty((n_slots, xs.shape[1]))
        done, rows = active.compress(acc), xs.compress(acc, axis=0)
        out[done] = rows
        w_spent[done] = 0
        active = active.compress(~acc)
        rounds += 1
        if renew is not None and done.size:
            again = renew(done, rows)
            started[again] = rounds
            active = np.concatenate((active, again))
    return out


def fors_sample_many(propose_rows: Callable[[np.ndarray, np.random.Generator], np.ndarray],
                     source: RowEstimatorSource, cfg: FORSConfig, n_samples: int,
                     rng: np.random.Generator,
                     ledger: QueryLedger | None = None) -> np.ndarray:
    """Collect ``n_samples`` iid accepted points from one shared target.

    ``propose_rows(slots, rng)`` returns one row from q per slot; every slot
    is 0.  Attempts run in rounds sized from the acceptance seen so far
    until enough are accepted; output order is acceptance order, which for
    iid attempts is itself iid.  The caps of ``cfg`` hold as totals, counted
    here, over the ``n_samples`` calls this stands for.  The row dimension
    comes from the proposals, so ``n_samples`` must be >= 1.
    """
    _check_count("n_samples", n_samples, 1)
    ledger = ledger if ledger is not None else QueryLedger()
    got: list[np.ndarray] = []
    n_got = total_attempts = w_spent = 0
    acc_est = math.exp(-cfg.b)  # pessimistic-ish initial guess, refined as we go
    attempt_cap, w_cap = cfg.max_attempts * n_samples, cfg.max_w_per_call * n_samples

    def draw_w(slots, xs, rng):
        # every slot is the one shared target: the live rows' draws add up
        nonlocal w_spent
        if w_spent + slots.size > w_cap:
            raise BudgetExhaustedError("W-draw budget exhausted", chain=0, w_draws=w_spent)
        w_spent += slots.size
        return source.draw_w_rows(slots, xs, rng)

    shared = np.zeros(_ROUND_ROWS, dtype=np.int64)
    coin = _coin_rounds(propose_rows, draw_w, cfg.b, rng, ledger)
    next(coin)
    while n_got < n_samples:
        need = n_samples - n_got
        # need acceptances take need/p attempts, standard error
        # sqrt(need (1 - p))/p; three of those make a short last round rare.
        # The round sizes fix how many rounds run, and so the random streams
        k = int(min(max((need + 3 * math.sqrt(need * (1 - acc_est))) / acc_est, 1024),
                    _ROUND_ROWS, attempt_cap - total_attempts))
        if k <= 0:
            raise BudgetExhaustedError("attempt budget exhausted", attempts=total_attempts)
        total_attempts += k
        xs, acc = coin.send(shared[:k])
        got.append(xs.compress(acc, axis=0))
        n_got += int(acc.sum())
        acc_est = max(n_got / total_attempts, 1e-4)
    return np.concatenate(got, axis=0)[:n_samples]


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def fors_attempt_batch(propose_rows: Callable[[np.ndarray, np.random.Generator], np.ndarray],
                       source: RowEstimatorSource, cfg: FORSConfig,
                       n_attempts: int, rng: np.random.Generator,
                       ledger: QueryLedger | None = None) -> np.ndarray:
    """Simulate a fixed number of independent acceptance attempts.

    ``propose_rows`` is as in ``fors_sample_many``.  Returns the boolean
    acceptance mask, one entry per attempt, for checking the per-attempt
    acceptance law against exp(E[W] - B).  No points are collected.  No
    budget cap applies: the attempt count is the argument.
    """
    _check_count("n_attempts", n_attempts, 0)
    ledger = ledger if ledger is not None else QueryLedger()
    mask = np.empty(n_attempts, dtype=bool)
    shared = np.zeros(min(n_attempts, _ROUND_ROWS), dtype=np.int64)
    coin = _coin_rounds(propose_rows, source.draw_w_rows, cfg.b, rng, ledger)
    next(coin)
    for done in range(0, n_attempts, _ROUND_ROWS):
        k = min(n_attempts - done, _ROUND_ROWS)
        mask[done:done + k] = coin.send(shared[:k])[1]
    return mask


@dataclass(frozen=True)
class WDrawReport:
    quantile: float
    bound: float
    passed: bool
    calls: int
    aggregate_constant: float


def wdraw_tail_check(b: float, delta: float, counts) -> WDrawReport:
    """Compare per-call W-draw counts against the 3*B*e^(2B)*log(2/delta) bound.

    ``counts`` holds the number of W draws each of T calls consumed.  The
    report carries the empirical (1-delta) quantile, the theoretical bound,
    and the aggregate constant total / (B e^{2B} (T + log(1/delta))) for
    logging (no hard assertion on the aggregate).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("counts must be a nonempty 1-D array")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    bound = 3.0 * b * math.exp(2.0 * b) * math.log(2.0 / delta)
    q = float(np.quantile(counts, 1.0 - delta))
    agg = int(counts.sum()) / (b * math.exp(2.0 * b) * (counts.size + math.log(1.0 / delta)))
    return WDrawReport(quantile=q, bound=bound, passed=q <= bound,
                       calls=counts.size, aggregate_constant=agg)
