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
its remaining W are never drawn.

Every engine takes a proposal, a W-draw callable and one QueryLedger, in
which it counts its attempts (``fors_attempts``) and W draws (``w_draws``).
``fors_sample`` draws one point with ``proposal(rng)`` and ``source(x,
rng)``; the row engines propose with ``propose_rows(slots, rng)`` and draw
with ``draw_w_rows(slots, xs, rng)``, one W per row of ``xs``.  The coin is
written twice, in two kernels that reject this way and hold no budget.  The
scalar one, ``_scalar_coin``, flips one attempt over a W-draw callable:
``fors_sample`` charges its cap there, and ``lowerbound.proximal_adapter``
passes its path-integral W.  The row kernel, ``_CoinLanes``, runs attempts
on lanes, lane i for slot i, one in flight per lane: each tick proposes a
row for the lanes whose attempt just ended, settles those with J = 0, and
draws the next W of every attempt in flight in one call; each engine owns
its caps and charges W draws in the callable it passes.
``fors_accept_rows`` (one acceptance per slot, which a ``renew`` hook may
start again) caps each slot: its attempts by a count per acceptance, its W
draws by tick stamps (an acceptance in flight draws one W a tick, so its
draws are the ticks since it started), each checked only when a bound could
pass the cap.  ``fors_sample_many`` (iid collector for one target) caps
totals over its samples, and ``fors_attempt_batch`` (fixed attempt count,
for the acceptance-law diagnostic) has no cap.  The iid engines run rounds
of at most ``_ROUND_ROWS`` lanes, whatever B and the sample count, a round
only when none is in flight, so a per-row array of a round holds at most
2^16 floats (512 KB); ``fors_sample_many`` sizes its last round at the
attempts its remaining need takes, plus three standard errors.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

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


def poisson_inversion(lam: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` exact Poisson(lam) draws by CDF inversion of one uniform each.

    A draw is ``min(searchsorted(cdf, r, side="left"), len(cdf) - 1)``.  Rows
    start at a guide table (Chen & Asau 1974; Devroye 1986, III.2.4) and stay
    exact: G = ``_GUIDE`` is a power of two, so s = rG and G cdf carry no
    rounding, and a row with s in [b, b + 1) draws guide[b] =
    searchsorted(G cdf, b) unless G cdf[guide[b]] < s, when it is searched.
    The last entry, +inf, clips.
    """
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
    # J by bisection of the table that poisson_inversion(2B, ...) searches
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
                source: Callable[[Array, np.random.Generator], float], cfg: FORSConfig,
                rng: np.random.Generator, ledger: QueryLedger) -> FORSResult:
    """Draw one exact sample from the proposal ``proposal(rng)`` tilted by W.

    ``source(x, rng)`` returns one W at x, which must lie in [-B, B]: the
    coin raises EstimatorRangeError otherwise.  ``rng`` draws the proposals,
    Poisson counts and coins and is passed to the source.  ``ledger`` counts
    the attempts and the W draws.  Raises BudgetExhaustedError, carrying the
    partial accounting, when the attempt or the per-call W-draw cap is hit.
    """
    flip, random = _scalar_coin(cfg.b), rng.random
    w_draws = 0

    def draw_w(x):
        nonlocal w_draws
        if w_draws >= cfg.max_w_per_call:
            raise BudgetExhaustedError("W-draw budget exhausted", attempts=attempt, w_draws=w_draws)
        w_draws += 1
        ledger.w_draws += 1
        return float(source(x, rng))

    for attempt in range(1, cfg.max_attempts + 1):
        ledger.fors_attempts += 1
        x = as_vector(proposal(rng))
        if flip(random, draw_w, x):
            return FORSResult(point=x, attempts=attempt, w_draws=w_draws)
    raise BudgetExhaustedError(
        "attempt budget exhausted", attempts=cfg.max_attempts, w_draws=w_draws)


_NO_LANES = np.empty(0, dtype=np.int64)
_ProposeRows = Callable[[np.ndarray, np.random.Generator], np.ndarray]
_DrawWRows = Callable[[np.ndarray, np.ndarray, np.random.Generator], np.ndarray]


class _CoinLanes:
    """The row kernel: the coin on lanes, each holding one attempt at a time.

    Lane i's attempts are for slot i.  ``tick(new)`` starts an attempt on
    each lane of ``new`` (distinct, none in flight; the first tick's ``new``
    is ``every``, all lanes in order): ``propose(new, rng)`` returns one row
    per lane, as wide as the first tick's (DimensionError otherwise), each
    draws its J ~ Poisson(2B) and coin u, and an attempt with J = 0 accepts
    at once.  Then one ``draw_w(live, xs, rng)`` call draws the next W of
    every attempt in flight, in ``live`` order (the lanes that were in
    flight, then the new ones), validates it (shape, finiteness, the closed
    range [-B, B]) and multiplies (B + W)/(2B) into the attempt's product.
    Each factor is at most 1, so an attempt whose product fell below u is
    rejected without its remaining draws, and one that has drawn its J
    accepts if u < product, the decision the full product gives.  A tick
    returns its (accepted, rejected) lanes; ``xs`` holds each lane's last
    proposal, and an attempt in flight draws one W every tick.
    """

    def __init__(self, propose: _ProposeRows, draw_w: _DrawWRows, b: float,
                 rng: np.random.Generator, ledger: QueryLedger, n_lanes: int):
        self.propose, self.draw_w, self.b, self.rng, self.ledger = propose, draw_w, b, rng, ledger
        self.every = np.arange(n_lanes)  # the first tick starts every lane
        # each lane's row, coin and product, and the tick of its J-th draw
        self.xs = self.u = self.last = None
        self.prods = np.empty(n_lanes)
        self.live = _NO_LANES
        self.ticks = 0

    def tick(self, new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        b, rng, t = self.b, self.rng, self.ticks
        live, accepted, rejected = self.live, _NO_LANES, _NO_LANES
        if new.size:
            rows = self.propose(new, rng)
            width = rows.shape[1:] if new is self.every else self.xs.shape[1:]
            if rows.ndim != 2 or rows.shape != new.shape + width:
                raise DimensionError(f"proposal returned rows of shape {rows.shape} for slots "
                                     f"of shape {new.shape} and lanes of shape "
                                     f"{self.every.shape + width}")
            js = poisson_inversion(2 * b, rng, size=new.size)
            coins = rng.random(new.size)
            if new is self.every:  # every lane starts, in lane order: new tables
                self.xs, self.u, self.last = rows.astype(float), coins, js + (t - 1)
            else:
                self.xs[new], self.u[new], self.last[new] = rows, coins, js + (t - 1)
            self.ledger.fors_attempts += new.size
            drawing = js.astype(bool)
            accepted = new.compress(~drawing)  # u < 1, the empty product
            live = np.concatenate((live, new.compress(drawing)))
        if live.size:
            ws = np.asarray(self.draw_w(live, self.xs.take(live, axis=0), rng))
            self.ledger.w_draws += live.size
            if ws.shape != live.shape:
                raise EstimatorRangeError(f"row source returned shape {ws.shape}")
            if not np.logical_and.reduce(np.abs(ws) <= b):  # also false for NaN
                raise EstimatorRangeError(f"row estimator draw outside [-{b}, {b}]")
            # a new attempt's product is 1, and 1 * factor is the factor
            p = (b + ws) / (2 * b)
            p[:self.live.size] *= self.prods.take(self.live)
            self.prods[live] = p
            u = self.u.take(live)
            at_j = self.last.take(live) == t
            acc = at_j & (u < p)
            ended = at_j | (p < u)
            if ended.any():
                accepted = np.concatenate((accepted, live.compress(acc)))
                rejected = live.compress(ended ^ acc)
                live = live.compress(~ended)
        self.live = live
        self.ticks = t + 1
        return accepted, rejected

    def round(self) -> np.ndarray:
        """An attempt on every lane, run until none is in flight: the
        acceptance mask."""
        mask = np.zeros(self.every.size, dtype=bool)
        new = self.every
        while True:
            mask[self.tick(new)[0]] = True
            if not self.live.size:
                return mask
            new = _NO_LANES


def _check_count(name: str, value: int, least: int) -> None:
    if not value >= least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def fors_accept_rows(propose_rows: _ProposeRows, draw_w_rows: _DrawWRows, cfg: FORSConfig,
                     n_slots: int, rng: np.random.Generator, ledger: QueryLedger,
                     renew: Callable[..., np.ndarray] | None = None) -> np.ndarray:
    """Run one FORS acceptance per slot, vectorized across slots.

    Each slot owns its own (possibly distinct) target; ``propose_rows`` and
    ``draw_w_rows`` receive the slot indices so heterogeneous problems (one
    per chain) batch together.  Law-equivalent to calling ``fors_sample`` per
    slot, including both budget caps, which this engine counts per slot: it
    refuses before the attempt or the W draw that would pass one, naming
    the first slot over in the tick's order.  Each slot is a lane: a tick
    starts a new attempt for every slot whose last one was rejected or that
    ``renew`` started again, and one call draws a W for every attempt in
    flight.  W draws stop at the rejection, as in ``fors_sample``.  The row
    dimension comes from the proposals, so ``n_slots`` must be >= 1.
    ``renew(slots, rows)``, if given, gets each tick's accepted slots and
    rows, may move their targets, and returns the slots to run again, as
    fresh acceptances from the next tick.  Slots share ``rng``, so their
    count shifts every stream.  The result holds the last accepted rows.
    """
    _check_count("n_slots", n_slots, 1)
    tries = np.zeros(n_slots, dtype=np.int64)  # the running acceptance's attempts
    top = 0  # at least the largest count in tries
    started = np.zeros(n_slots, dtype=np.int64)  # the tick each acceptance started
    oldest = 0  # at most the earliest start among the acceptances in flight

    def draw_w(slots, xs, rng):
        # an acceptance in flight draws one W a tick: its draws are the ticks since it started
        nonlocal oldest
        if lanes.ticks - oldest >= cfg.max_w_per_call:
            stamps = started.take(slots)
            over = stamps <= lanes.ticks - cfg.max_w_per_call
            if over.any():
                raise BudgetExhaustedError("W-draw budget exhausted", w_draws=cfg.max_w_per_call,
                                           chain=int(slots[np.argmax(over)]))
            oldest = int(stamps.min())
        return draw_w_rows(slots, xs, rng)

    lanes = _CoinLanes(propose_rows, draw_w, cfg.b, rng, ledger, n_slots)
    new = lanes.every
    while new.size or lanes.live.size:
        if new.size:  # a tick adds at most 1 to a count
            if top >= cfg.max_attempts:
                over = tries.take(new) >= cfg.max_attempts
                if over.any():
                    raise BudgetExhaustedError("attempt budget exhausted",
                                               attempts=cfg.max_attempts,
                                               chain=int(new[np.argmax(over)]))
                top = int(tries.max())
            tries[new] += 1
            top += 1
        done, new = lanes.tick(new)
        tries[done] = 0
        if renew is not None and done.size:
            again = renew(done, lanes.xs.take(done, axis=0))
            started[again] = lanes.ticks
            new = np.concatenate((new, again))
    return lanes.xs  # a slot's last proposal is the row it last accepted


def fors_sample_many(propose_rows: _ProposeRows, draw_w_rows: _DrawWRows, cfg: FORSConfig,
                     n_samples: int, rng: np.random.Generator,
                     ledger: QueryLedger) -> np.ndarray:
    """Collect ``n_samples`` iid accepted points from one shared target.

    Attempts run in rounds of lanes, sized from the acceptance seen so far
    until enough are accepted; a round starts when none of the last is in
    flight.  The slots that ``propose_rows`` and ``draw_w_rows`` receive are
    the round's lane indices, and a source for the one shared target
    ignores them.  Output order is the order of the attempts, which for iid
    attempts is itself iid.  The caps of ``cfg`` hold as totals, counted
    here, over the ``n_samples`` calls this stands for.  The row dimension
    comes from the proposals, so ``n_samples`` must be >= 1.
    """
    _check_count("n_samples", n_samples, 1)
    got: list[np.ndarray] = []
    n_got = total_attempts = w_spent = 0
    acc_est = math.exp(-cfg.b)  # pessimistic-ish initial guess, refined as we go
    attempt_cap, w_cap = cfg.max_attempts * n_samples, cfg.max_w_per_call * n_samples

    def draw_w(slots, xs, rng):
        # every lane draws for the one shared target: the live rows' draws add up
        nonlocal w_spent
        if w_spent + slots.size > w_cap:
            raise BudgetExhaustedError("W-draw budget exhausted", w_draws=w_spent)
        w_spent += slots.size
        return draw_w_rows(slots, xs, rng)

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
        lanes = _CoinLanes(propose_rows, draw_w, cfg.b, rng, ledger, k)
        acc = lanes.round()
        got.append(lanes.xs.compress(acc, axis=0))
        n_got += int(acc.sum())
        acc_est = max(n_got / total_attempts, 1e-4)
    return np.concatenate(got, axis=0)[:n_samples]


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def fors_attempt_batch(propose_rows: _ProposeRows, draw_w_rows: _DrawWRows, cfg: FORSConfig,
                       n_attempts: int, rng: np.random.Generator,
                       ledger: QueryLedger) -> np.ndarray:
    """Simulate a fixed number of independent acceptance attempts.

    Slots and rounds are as in ``fors_sample_many``.  Returns the boolean
    acceptance mask, one entry per attempt, for checking the per-attempt
    acceptance law against exp(E[W] - B).  No points are collected.  No
    budget cap applies: the attempt count is the argument.
    """
    _check_count("n_attempts", n_attempts, 0)
    mask = np.empty(n_attempts, dtype=bool)
    for done in range(0, n_attempts, _ROUND_ROWS):
        k = min(n_attempts - done, _ROUND_ROWS)
        mask[done:done + k] = _CoinLanes(propose_rows, draw_w_rows, cfg.b, rng,
                                         ledger, k).round()
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
