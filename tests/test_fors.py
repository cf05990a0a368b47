"""Tests for the Poisson-product rejection sampler.

Covers the exact inversion Poisson draws, the scalar acceptance loop and its
short-circuit, the vectorized engines (law equivalence to the exact discrete
law, heterogeneous slots, lazy W draws), budget accounting, and the W-draw
tail diagnostic.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from forsample.errors import BudgetExhaustedError, DimensionError, EstimatorRangeError
from forsample.fors import (
    FORSConfig,
    _poisson_cdf_table,
    _scalar_coin,
    fors_accept_rows,
    fors_attempt_batch,
    fors_sample,
    fors_sample_many,
    poisson_inversion,
    wdraw_tail_check,
)
from forsample.harness import discrete_instances
from forsample.oracles import QueryLedger, make_rng
from forsample.verify import chi2_discrete, discrete_law_oracle


class _FixedUniform:
    """Stand-in rng feeding a scripted sequence of uniforms."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None):
        if size is None:
            return self._values.pop(0)
        return np.array([self._values.pop(0) for _ in range(size)])


def _zero_proposal(rng):
    return np.array([0.0])


def _zero_rows(slots, rng):
    return np.zeros((slots.size, 1))


class _ConstantRows:
    def __init__(self, w):
        self.w = w

    def draw_w_rows(self, slots, xs, rng):
        return np.full(slots.size, self.w)


# ---------------------------------------------------------------------------
# Poisson inversion
# ---------------------------------------------------------------------------

def test_poisson_inversion_quantile_semantics():
    # lam = 2: CDF(0) = e^{-2} = 0.13534, CDF(5) = 0.98344, CDF(6) = 0.99547
    assert poisson_inversion(2.0, _FixedUniform([0.13]), size=1) == 0
    assert poisson_inversion(2.0, _FixedUniform([0.14]), size=1) == 1
    assert poisson_inversion(2.0, _FixedUniform([0.9834]), size=1) == 5
    assert poisson_inversion(2.0, _FixedUniform([0.99]), size=1) == 6


def test_poisson_inversion_matches_analytic_pmf():
    rng = make_rng(41)
    draws = poisson_inversion(2.0, rng, size=200_000)
    kmax = 10
    probs = np.array([stats.poisson.pmf(k, 2.0) for k in range(kmax)])
    probs = np.append(probs, 1.0 - probs.sum())
    counts = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1)
    _, p = chi2_discrete(counts, probs)
    assert p > 1e-3


def test_poisson_inversion_moments():
    rng = make_rng(42)
    draws = poisson_inversion(3.5, rng, size=200_000)
    assert draws.mean() == pytest.approx(3.5, abs=3 * math.sqrt(3.5 / 200_000))
    assert draws.var() == pytest.approx(3.5, rel=0.05)


class _Uniforms:
    """Stand-in rng whose one row draw is the given uniforms."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        assert size == self.values.size
        return self.values.copy()


def _inverted_by_search(lam, r):
    cdf = _poisson_cdf_table(lam)
    return np.minimum(np.searchsorted(cdf, r, side="left"), len(cdf) - 1)


def _edge_uniforms(lam):
    # every table entry and bucket edge b/1024 below 1, each with both float
    # neighbours, 0, the largest uniform, and a sweep across the top bucket
    cdf = _poisson_cdf_table(lam)
    points = np.concatenate((cdf, np.arange(1024) / 1024))
    points = np.concatenate((points, np.nextafter(points, 0.0), np.nextafter(points, 1.0),
                             [0.0, 1.0 - 2.0 ** -53], np.linspace(1023 / 1024, 1.0, 4097)))
    return points[(points >= 0.0) & (points < 1.0)]


@pytest.mark.parametrize("lam", [2.0, 6.0, 30.0])
def test_row_poisson_draws_are_the_table_search_at_its_edges(lam):
    # the guide table starts each row's search without changing its result:
    # 2B for B = 1 and 3, and the largest rate the table takes
    r = _edge_uniforms(lam)
    np.testing.assert_array_equal(poisson_inversion(lam, _Uniforms(r), size=r.size),
                                  _inverted_by_search(lam, r))


@pytest.mark.parametrize("size", [0, 1, 4, 2 ** 16])
@pytest.mark.parametrize("lam", [2.0, 6.0, 30.0])
def test_row_poisson_draws_are_the_table_search_at_every_size(lam, size):
    j = poisson_inversion(lam, make_rng(17, size), size=size)
    assert j.shape == (size,) and j.dtype == np.intp
    np.testing.assert_array_equal(j, _inverted_by_search(lam, make_rng(17, size).random(size)))


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.0, 30.0, exclude_min=True), seed=st.integers(0, 2 ** 32 - 1))
def test_row_poisson_draws_are_the_table_search_at_any_rate(lam, seed):
    r = np.concatenate((_edge_uniforms(lam), make_rng(seed).random(2_000)))
    np.testing.assert_array_equal(poisson_inversion(lam, _Uniforms(r), size=r.size),
                                  _inverted_by_search(lam, r))


def test_poisson_inversion_rejects_large_rate():
    rng = make_rng(0)
    with pytest.raises(ValueError):
        poisson_inversion(31.0, rng, size=1)
    with pytest.raises(ValueError):
        poisson_inversion(0.0, rng, size=1)
    with pytest.raises(ValueError):
        poisson_inversion(-1.0, rng, size=1)


def test_config_validation():
    FORSConfig(b=15.0)  # 2B = 30 is the largest supported rate
    with pytest.raises(ValueError):
        FORSConfig(b=0.0)
    with pytest.raises(ValueError):
        FORSConfig(b=-1.0)
    with pytest.raises(ValueError):
        FORSConfig(b=15.1)
    with pytest.raises(ValueError):
        FORSConfig(max_attempts=0)
    with pytest.raises(ValueError):
        FORSConfig(max_w_per_call=0)


# ---------------------------------------------------------------------------
# scalar loop
# ---------------------------------------------------------------------------

class _Script:
    """Scripted W values, with the points they were drawn at."""

    def __init__(self, values):
        self.values, self.points = list(values), []

    def __call__(self, x):
        self.points.append(x)
        return self.values.pop(0)


# uniforms that make J ~ Poisson(2) come out 0 and 3: the CDF is e^-2 (0.135)
# at 0 and 19/3 e^-2 (0.857) at 3, past 5 e^-2 (0.677) at 2
_J0, _J3 = 0.1, 0.8


@pytest.mark.parametrize("j_uniform, u, ws, drawn, accepted", [
    (_J3, 0.3, [0.5, 0.5, 0.5, 0.5], 3, True),     # 0.75^3 = 0.42 > u: J draws
    (_J3, 0.6, [0.5, 0.5, 0.5, 0.5], 2, False),    # 0.75^2 = 0.5625 < u: stop
    (_J3, 0.9, [-1.0, 1.0, 1.0], 1, False),        # a zero factor stops at once
    (_J3, 0.75, [1.0, 0.5, 1.0], 3, False),        # the product equals u: u < prod fails
    (_J3, 0.7499, [1.0, 0.5, 1.0], 3, True),
    (_J0, 0.999, [0.0], 0, True),                  # J = 0: the empty product is 1
])
def test_scalar_coin_decides_u_below_the_product(j_uniform, u, ws, drawn, accepted):
    flip, script = _scalar_coin(1.0), _Script(ws)
    uniforms = _FixedUniform([j_uniform, u])
    assert flip(uniforms.random, script, "x") is accepted
    assert uniforms._values == []                  # J's uniform and u, no more
    assert script.points == ["x"] * drawn


@pytest.mark.parametrize("bad", [1.0 + 1e-9, -1.0 - 1e-9, float("nan"), math.inf])
def test_scalar_coin_refuses_w_outside_the_closed_range(bad):
    flip = _scalar_coin(1.0)
    with pytest.raises(EstimatorRangeError):
        flip(_FixedUniform([_J3, 0.3]).random, _Script([0.5, bad, 0.5]), None)


def test_w_equal_b_accepts_every_first_attempt():
    # W = +B makes every factor (B+W)/(2B) equal to 1, so the product never
    # drops below the acceptance uniform and the first attempt wins.
    cfg = FORSConfig(b=1.0)
    ledger = QueryLedger()
    source = lambda x, rng: 1.0
    total_w = 0
    for i in range(50):
        res = fors_sample(_zero_proposal, source, cfg, make_rng(7, i), ledger=ledger)
        assert res.attempts == 1
        total_w += res.w_draws
    assert ledger.fors_attempts == 50
    assert ledger.w_draws == total_w


def test_w_equal_minus_b_short_circuits_after_one_draw():
    # W = -B zeroes the product on the first factor, so every rejected
    # attempt consumes exactly one draw and the accepted attempt (J = 0)
    # consumes none: w_draws == attempts - 1 exactly.
    cfg = FORSConfig(b=1.0)
    for i in range(200):
        source = lambda x, rng: -1.0
        res = fors_sample(_zero_proposal, source, cfg, make_rng(13, i), QueryLedger())
        assert res.w_draws == res.attempts - 1


def test_point_passes_through_proposal():
    cfg = FORSConfig(b=1.0)
    source = lambda x, rng: 1.0
    res = fors_sample(lambda rng: np.array([2.5, -3.0]), source, cfg, make_rng(3), QueryLedger())
    assert res.point.shape == (2,)
    assert np.array_equal(res.point, [2.5, -3.0])


def test_out_of_range_w_raises():
    cfg = FORSConfig(b=1.0)
    source = lambda x, rng: 2.0
    with pytest.raises(EstimatorRangeError):
        fors_sample(_zero_proposal, source, cfg, make_rng(0), QueryLedger())
    for bad in (float("nan"), math.inf, -math.inf):
        source = lambda x, rng: bad
        with pytest.raises(EstimatorRangeError):
            fors_sample(_zero_proposal, source, cfg, make_rng(0), QueryLedger())


def test_attempt_budget_error_carries_accounting():
    cfg = FORSConfig(b=1.0, max_attempts=3)
    source = lambda x, rng: -1.0
    with pytest.raises(BudgetExhaustedError) as exc:
        fors_sample(_zero_proposal, source, cfg, make_rng(1), QueryLedger())
    assert exc.value.attempts == 3
    assert exc.value.w_draws == 3


def test_w_draw_budget_error_carries_accounting():
    cfg = FORSConfig(b=1.0, max_w_per_call=1)
    source = lambda x, rng: 1.0
    with pytest.raises(BudgetExhaustedError) as exc:
        fors_sample(_zero_proposal, source, cfg, make_rng(0), QueryLedger())
    assert exc.value.attempts == 1
    assert exc.value.w_draws == 1


def test_scalar_loop_meters_its_draws_in_the_ledger():
    # the source is a plain callable: the loop counts attempts and W draws
    # in the one ledger it is given, on success and on either refusal
    ledger = QueryLedger()
    results = [fors_sample(_zero_proposal, lambda x, rng: 0.0, FORSConfig(b=1.0),
                           make_rng(17, i), ledger=ledger) for i in range(200)]
    assert ledger.w_draws == sum(r.w_draws for r in results) > 0
    assert ledger.fors_attempts == sum(r.attempts for r in results)
    for cfg, w in ((FORSConfig(b=1.0, max_attempts=3), -1.0),
                   (FORSConfig(b=1.0, max_w_per_call=1), 1.0)):
        ledger = QueryLedger()
        with pytest.raises(BudgetExhaustedError) as exc:
            fors_sample(_zero_proposal, lambda x, rng: w, cfg, make_rng(1), ledger=ledger)
        assert ledger.w_draws == exc.value.w_draws > 0
        assert ledger.fors_attempts == exc.value.attempts


# ---------------------------------------------------------------------------
# acceptance law
# ---------------------------------------------------------------------------

def test_acceptance_rate_w_zero_is_exp_minus_b():
    cfg = FORSConfig(b=1.0)
    mask = fors_attempt_batch(
        _zero_rows, _ConstantRows(0.0).draw_w_rows, cfg,
        200_000, make_rng(21), QueryLedger())
    p = math.exp(-1.0)
    se = math.sqrt(p * (1 - p) / mask.size)
    assert abs(mask.mean() - p) <= 3 * se


def test_acceptance_rate_w_minus_b_is_exp_minus_2b():
    cfg = FORSConfig(b=1.0)
    mask = fors_attempt_batch(
        _zero_rows, _ConstantRows(-1.0).draw_w_rows, cfg,
        200_000, make_rng(22), QueryLedger())
    p = math.exp(-2.0)
    se = math.sqrt(p * (1 - p) / mask.size)
    assert abs(mask.mean() - p) <= 3 * se


def test_row_coin_draws_lazily_on_the_flat_instance():
    # W = 0 makes every factor 1/2, so an attempt draws its n-th W only when
    # J >= n and u <= 2^(1-n): P(D >= n) = P(J >= n) 2^(1-n), and
    # E[D] = 2(1 - e^-B).  Drawing all J would give E[D] = 2B.
    flat = discrete_instances()[0]
    ledger = QueryLedger()
    n = 100_000
    fors_attempt_batch(flat.propose_rows, flat.draw_w_rows, FORSConfig(b=flat.b), n,
                       make_rng(23), ledger=ledger)
    steps = np.arange(1, 60)
    tail = stats.poisson.sf(steps - 1, 2 * flat.b) * 0.5 ** (steps - 1)
    mean = float(tail.sum())
    assert mean == pytest.approx(2 * (1 - math.exp(-flat.b)), rel=1e-12)
    var = float(((2 * steps - 1) * tail).sum()) - mean ** 2
    assert ledger.fors_attempts == n
    assert abs(ledger.w_draws / n - mean) <= 4 * math.sqrt(var / n)


@pytest.mark.parametrize("engine,arg,counts", [
    (fors_accept_rows, "n_slots", (0, -1)),
    (fors_sample_many, "n_samples", (0, -3)),
    (fors_attempt_batch, "n_attempts", (-1,)),
])
def test_row_engines_refuse_counts_by_name(engine, arg, counts):
    # the accepting engines take their row dimension from a proposal, so
    # they need a positive count; a negative count is refused by name, not
    # by numpy, before the generator or the ledger is touched
    flat = discrete_instances()[0]
    for count in counts:
        rng, ledger = make_rng(24), QueryLedger()
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^{arg} must be >= "):
            engine(flat.propose_rows, flat.draw_w_rows, FORSConfig(b=flat.b), count, rng,
                   ledger=ledger)
        assert rng.bit_generator.state == before
        assert ledger.as_dict() == QueryLedger().as_dict()


def test_zero_attempts_are_an_empty_mask():
    flat = discrete_instances()[0]
    ledger = QueryLedger()
    mask = fors_attempt_batch(flat.propose_rows, flat.draw_w_rows, FORSConfig(b=flat.b), 0,
                              make_rng(24), ledger=ledger)
    assert mask.shape == (0,) and mask.dtype == bool
    assert ledger.fors_attempts == 0


# ---------------------------------------------------------------------------
# law equivalence of the vectorized engines
# ---------------------------------------------------------------------------

_Q3 = np.array([0.5, 0.3, 0.2])
_M3 = np.array([-1.0, 0.0, 1.0])


class _DeterministicTilt:
    """W is the deterministic value m(x) on the support {0, 1, 2}."""

    def draw_w_rows(self, slots, xs, rng):
        return _M3[xs[:, 0].astype(int)]


def _propose3(slots, rng):
    return rng.choice(3, size=slots.size, p=_Q3).astype(float)[:, None]


def test_sample_many_matches_discrete_law():
    cfg = FORSConfig(b=1.0)
    out = fors_sample_many(_propose3, _DeterministicTilt().draw_w_rows, cfg, 40_000, make_rng(31),
                           QueryLedger())
    assert out.shape == (40_000, 1)
    counts = np.bincount(out[:, 0].astype(int), minlength=3)
    _, p = chi2_discrete(counts, discrete_law_oracle(_Q3, _M3))
    assert p > 1e-3


def test_scalar_loop_matches_discrete_law():
    cfg = FORSConfig(b=1.0)
    source = lambda x, rng: float(_M3[int(x[0])])
    rng = make_rng(32)
    draws = [fors_sample(lambda r: np.array([float(r.choice(3, p=_Q3))]),
                         source, cfg, rng, QueryLedger()).point[0]
             for _ in range(4_000)]
    counts = np.bincount(np.asarray(draws, dtype=int), minlength=3)
    _, p = chi2_discrete(counts, discrete_law_oracle(_Q3, _M3))
    assert p > 1e-3


def test_noisy_w_law_depends_only_on_conditional_mean():
    # W = m(x) +/- 0.3 with a fair coin has the same conditional mean as the
    # deterministic instance, so the accepted law must not change.
    means = np.array([-0.7, 0.0, 0.7])
    q = np.full(3, 1.0 / 3.0)

    class _NoisyTilt:
        def draw_w_rows(self, slots, xs, rng):
            signs = rng.choice([-0.3, 0.3], size=slots.size)
            return means[xs[:, 0].astype(int)] + signs

    def propose(slots, rng):
        return rng.choice(3, size=slots.size, p=q).astype(float)[:, None]

    out = fors_sample_many(propose, _NoisyTilt().draw_w_rows, FORSConfig(b=1.0), 40_000,
                           make_rng(33), QueryLedger())
    counts = np.bincount(out[:, 0].astype(int), minlength=3)
    _, p = chi2_discrete(counts, discrete_law_oracle(q, means))
    assert p > 1e-3


def test_sample_many_is_reproducible():
    a = fors_sample_many(_propose3, _DeterministicTilt().draw_w_rows, FORSConfig(b=1.0),
                         2_000, make_rng(34), QueryLedger())
    b = fors_sample_many(_propose3, _DeterministicTilt().draw_w_rows, FORSConfig(b=1.0),
                         2_000, make_rng(34), QueryLedger())
    assert np.array_equal(a, b)


def test_sample_many_budget_error():
    cfg = FORSConfig(b=1.0, max_attempts=1)
    with pytest.raises(BudgetExhaustedError) as exc:
        fors_sample_many(_zero_rows, _ConstantRows(-1.0).draw_w_rows,
                         cfg, 2_000, make_rng(35), QueryLedger())
    assert exc.value.attempts == 2_000


# ---------------------------------------------------------------------------
# slot engine
# ---------------------------------------------------------------------------

def test_accept_rows_heterogeneous_slots():
    # Even slots sample from support {0, 1}, odd slots from {1, 2}, with
    # different tilts; each group's marginal must match its own law.
    w_even = np.array([-0.8, 0.3])
    w_odd = np.array([0.5, -0.2])

    def propose(active, rng):
        base = rng.integers(0, 2, size=active.size).astype(float)
        return np.where(active % 2 == 0, base, base + 1.0)[:, None]

    class _SlotTilt:
        def draw_w_rows(self, slots, xs, rng):
            x = xs[:, 0]
            even = np.where(x < 0.5, w_even[0], w_even[1])
            odd = np.where(x < 1.5, w_odd[0], w_odd[1])
            return np.where(slots % 2 == 0, even, odd)

    n_slots = 20_000
    out = fors_accept_rows(propose, _SlotTilt().draw_w_rows, FORSConfig(b=1.0), n_slots,
                           make_rng(37), QueryLedger())
    assert out.shape == (n_slots, 1)
    even_vals = out[0::2, 0].astype(int)
    odd_vals = out[1::2, 0].astype(int) - 1
    _, p_even = chi2_discrete(np.bincount(even_vals, minlength=2),
                              discrete_law_oracle([0.5, 0.5], w_even))
    _, p_odd = chi2_discrete(np.bincount(odd_vals, minlength=2),
                             discrete_law_oracle([0.5, 0.5], w_odd))
    assert p_even > 1e-3
    assert p_odd > 1e-3


def test_accept_rows_budget_error_names_slot():
    cfg = FORSConfig(b=1.0, max_attempts=1)
    with pytest.raises(BudgetExhaustedError) as exc:
        fors_accept_rows(_zero_rows,
                         _ConstantRows(-1.0).draw_w_rows, cfg, 64, make_rng(38), QueryLedger())
    assert exc.value.attempts == 1
    assert exc.value.chain is not None


def test_accept_rows_attempt_cap_names_the_first_slot_over_it():
    # W = B/2 accepts an attempt with chance e^-1/2 and every slot is renewed:
    # at this seed every slot's running acceptance began in a later proposal
    # call than its first, and before the tenth call slots 7 and 3, in that
    # order of the tick, are both due their fourth attempt; the refusal
    # names slot 7.  With a cap of 4 the run is the same up to there, and
    # the tenth call opens with both slots' fourth attempts
    def run(max_attempts):
        calls, tries, started = [], np.zeros(8, dtype=np.int64), {}

        def propose(slots, rng):
            tries[slots] += 1
            calls.append(list(zip(slots.tolist(), tries[slots].tolist())))
            started.update((s, len(calls)) for s, k in calls[-1] if k == 1)
            return _zero_rows(slots, rng)

        def renew(slots, rows):
            tries[slots] = 0
            return slots

        ledger = QueryLedger()
        try:
            fors_accept_rows(propose, _ConstantRows(0.5).draw_w_rows,
                             FORSConfig(b=1.0, max_attempts=max_attempts), 8,
                             make_rng(132), ledger=ledger, renew=renew)
        except BudgetExhaustedError as err:
            return err, calls, started, ledger
        raise AssertionError("no refusal")

    exc, calls, started, ledger = run(3)
    assert (exc.chain, exc.attempts) == (7, 3)
    assert started == {0: 8, 1: 7, 2: 9, 3: 7, 4: 8, 5: 6, 6: 6, 7: 5}
    assert (len(calls), ledger.fors_attempts, ledger.w_draws) == (9, 45, 70)
    assert run(4)[1][9][:2] == [(7, 4), (3, 4)]


def test_accept_rows_ledger_accounting():
    ledger = QueryLedger()
    fors_accept_rows(_zero_rows,
                     _ConstantRows(1.0).draw_w_rows, FORSConfig(b=1.0), 500, make_rng(39),
                     ledger=ledger)
    assert ledger.fors_attempts == 500  # W = +B accepts every slot first try
    assert ledger.w_draws > 0


# ---------------------------------------------------------------------------
# checks every row engine makes
# ---------------------------------------------------------------------------

_ROW_ENGINES = {
    "accept_rows": lambda propose, draw_w, cfg, rng: fors_accept_rows(
        propose, draw_w, cfg, 64, rng, QueryLedger()),
    "sample_many": lambda propose, draw_w, cfg, rng: fors_sample_many(
        propose, draw_w, cfg, 100, rng, QueryLedger()),
    "attempt_batch": lambda propose, draw_w, cfg, rng: fors_attempt_batch(
        propose, draw_w, cfg, 2_000, rng, QueryLedger()),
}

_BAD_DRAWS = {
    "above_b": lambda n: np.full(n, 1.5),
    "just_above_b": lambda n: np.full(n, 1.0 + 5e-13),
    "below_b": lambda n: np.full(n, -1.5),
    "nan": lambda n: np.full(n, np.nan),
    "column": lambda n: np.zeros((n, 1)),
}


class _BadRows:
    def __init__(self, make):
        self.make = make

    def draw_w_rows(self, slots, xs, rng):
        return self.make(slots.size)


@pytest.mark.parametrize("engine", sorted(_ROW_ENGINES))
@pytest.mark.parametrize("draws", sorted(_BAD_DRAWS))
def test_row_engines_reject_bad_draws(engine, draws):
    # the range is the closed [-B, B] of the scalar loop, with no slack
    with pytest.raises(EstimatorRangeError):
        _ROW_ENGINES[engine](_zero_rows, _BadRows(_BAD_DRAWS[draws]).draw_w_rows,
                             FORSConfig(b=1.0), make_rng(40))


@pytest.mark.parametrize("engine", sorted(_ROW_ENGINES))
def test_row_engines_reject_a_proposal_with_the_wrong_row_count(engine):
    def one_short(slots, rng):
        return np.zeros((slots.size - 1, 1))

    with pytest.raises(DimensionError,
                       match=r"rows of shape \(\d+, 1\) for slots of shape \(\d+,\)"):
        _ROW_ENGINES[engine](one_short, _ConstantRows(1.0).draw_w_rows, FORSConfig(b=1.0),
                             make_rng(40))


@pytest.mark.parametrize("engine", sorted(_ROW_ENGINES))
def test_row_engines_reject_a_one_dimensional_proposal(engine):
    # a (k,) array has the right row count, but no row is a point
    with pytest.raises(DimensionError,
                       match=r"rows of shape \(\d+,\) for slots of shape \(\d+,\)"):
        _ROW_ENGINES[engine](lambda s, r: np.zeros(s.size), _ConstantRows(1.0).draw_w_rows,
                             FORSConfig(b=1.0), make_rng(40))


def test_accept_rows_refuses_a_proposal_that_changes_width():
    # (k, 1) rows for a (4, 2) lane table would broadcast, one draw filling
    # both columns of each row
    calls = []

    def narrowing(slots, rng):
        calls.append(slots.size)
        return rng.random((slots.size, 2 if len(calls) == 1 else 1))

    with pytest.raises(DimensionError, match=r"rows of shape \(\d+, 1\) for slots of shape "
                                             r"\(\d+,\) and lanes of shape \(4, 2\)"):
        fors_accept_rows(narrowing, _ConstantRows(-0.9).draw_w_rows, FORSConfig(b=1.0), 4,
                         make_rng(46), QueryLedger())
    assert len(calls) == 2


class _CountingRows(_ConstantRows):
    """Constant W that counts the draws made for each slot."""

    def __init__(self, w, n_slots):
        super().__init__(w)
        self.drawn = np.zeros(n_slots, dtype=np.int64)

    def draw_w_rows(self, slots, xs, rng):
        np.add.at(self.drawn, slots, 1)
        return super().draw_w_rows(slots, xs, rng)


def test_accept_rows_w_draw_budget_names_slot():
    # W = -B rejects every attempt with J >= 1 after one draw, so some slot
    # is about to draw its fourth W long before every slot has drawn J = 0
    # (for one slot, B = 5 makes J = 0 an e^-10 chance an attempt); the
    # error carries exactly the three draws that slot made.  One slot and
    # many are refused alike.
    for n_slots, b in ((1, 5.0), (64, 1.0)):
        source = _CountingRows(-b, n_slots)
        cfg = FORSConfig(b=b, max_w_per_call=3)
        with pytest.raises(BudgetExhaustedError) as exc:
            fors_accept_rows(_zero_rows, source.draw_w_rows, cfg, n_slots, make_rng(41),
                             QueryLedger())
        assert exc.value.chain is not None
        assert exc.value.w_draws == 3
        assert source.drawn[exc.value.chain] == 3


@pytest.mark.parametrize("inst", discrete_instances(), ids=lambda inst: inst.name)
def test_renewed_slots_keep_the_law(inst):
    # every slot is renewed three times; each acceptance index's outputs,
    # across slots, must follow the instance's law on their own
    n_slots, renewals = 4_000, 3
    done = np.zeros(n_slots, dtype=np.int64)
    seen = np.zeros((renewals + 1, inst.n_points), dtype=np.int64)

    def renew(slots, rows):
        np.add.at(seen, (done[slots], rows[:, 0].astype(int)), 1)
        done[slots] += 1
        return slots[done[slots] <= renewals]

    out = fors_accept_rows(inst.propose_rows, inst.draw_w_rows, FORSConfig(b=inst.b), n_slots,
                           make_rng(43), QueryLedger(), renew=renew)
    assert (done == renewals + 1).all() and out.shape == (n_slots, 1)
    for counts in seen:
        _, p = chi2_discrete(counts, inst.law())
        assert p > 1e-3


def test_one_w_call_a_tick_carries_every_attempt_in_flight():
    # Each proposal row carries its attempt's id, so the source sees which
    # attempts draw.  A tick is a proposal call and the draw call after it,
    # or a draw call alone.  Every slot runs from the first tick to its last
    # acceptance, in each tick drawing one W or settling a J = 0 attempt, so
    # the ticks are the largest per-slot count of both, and an attempt draws
    # in consecutive calls.
    n_slots, renewals = 64, 4
    owner, events, drew = [], [], {}
    done = np.zeros(n_slots, dtype=np.int64)

    def propose(slots, rng):
        events.append("p")
        owner.extend(slots.tolist())
        return np.arange(len(owner) - slots.size, len(owner), dtype=float)[:, None]

    class _Tagged:
        def draw_w_rows(self, slots, xs, rng):
            events.append("w")
            assert np.unique(slots).size == slots.size
            for attempt in xs[:, 0].astype(int).tolist():
                drew.setdefault(attempt, []).append(events.count("w"))
            return rng.uniform(-1.0, 1.0, slots.size)

    def renew(slots, rows):
        done[slots] += 1
        return slots[done[slots] <= renewals]

    fors_accept_rows(propose, _Tagged().draw_w_rows, FORSConfig(b=1.0), n_slots, make_rng(45),
                     QueryLedger(), renew=renew)
    assert (done == renewals + 1).all()
    ticks = "".join(events).replace("pw", "t").replace("p", "t").replace("w", "t")
    calls = events.count("w")
    w = np.bincount([owner[a] for a, seen in drew.items() for _ in seen], minlength=n_slots)
    j0 = np.bincount([owner[a] for a in range(len(owner)) if a not in drew],
                     minlength=n_slots)
    assert j0.sum() > 0 and w.sum() > 4 * calls
    assert calls <= len(ticks) == (w + j0).max()
    assert all(seen == list(range(seen[0], seen[0] + len(seen))) for seen in drew.values())


@pytest.mark.parametrize("n_slots", [1, 4])
def test_renewal_restarts_both_caps(n_slots):
    # W = +B accepts every attempt, after its J ~ Poisson(2) draws.  Each
    # acceptance stays within one attempt and 30 draws, while each slot's
    # 40 acceptances add up to far more of both: the one-slot path and the
    # per-slot path restart a renewed slot's counts
    source = _CountingRows(1.0, n_slots)
    done = np.zeros(n_slots, dtype=np.int64)

    def renew(slots, rows):
        done[slots] += 1
        return slots[done[slots] < 40]

    cfg = FORSConfig(b=1.0, max_attempts=1, max_w_per_call=30)
    ledger = QueryLedger()
    fors_accept_rows(_zero_rows, source.draw_w_rows, cfg, n_slots, make_rng(44), ledger=ledger,
                     renew=renew)
    assert (done == 40).all() and ledger.fors_attempts == 40 * n_slots
    assert source.drawn.min() > 30


def test_a_finished_slot_at_the_w_cap_refuses_no_other():
    # W = +B accepts every attempt after its J ~ Poisson(1/2) draws.  Slot 0
    # accepts in tick 1 after exactly max_w_per_call = 2 draws and is not
    # renewed; slots 1-3 run on for five more acceptances each, within the
    # cap, while slot 0's stamp is the oldest
    source = _CountingRows(0.25, 4)
    done = np.zeros(4, dtype=np.int64)

    def renew(slots, rows):
        done[slots] += 1
        return slots[(slots != 0) & (done[slots] < 6)]

    cfg = FORSConfig(b=0.25, max_attempts=1, max_w_per_call=2)
    ledger = QueryLedger()
    fors_accept_rows(_zero_rows, source.draw_w_rows, cfg, 4, make_rng(79), ledger=ledger,
                     renew=renew)
    assert done.tolist() == [1, 6, 6, 6]
    assert source.drawn.tolist() == [2, 2, 7, 9]
    assert (ledger.fors_attempts, ledger.w_draws) == (19, 20)


def test_sample_many_w_draw_budget_is_a_total():
    cfg = FORSConfig(b=1.0, max_w_per_call=3)
    ledger = QueryLedger()
    with pytest.raises(BudgetExhaustedError) as exc:
        fors_sample_many(_zero_rows, _ConstantRows(-1.0).draw_w_rows,
                         cfg, 100, make_rng(42), ledger=ledger)
    assert exc.value.w_draws <= 300
    assert ledger.w_draws == exc.value.w_draws


@pytest.mark.parametrize("cfg", [FORSConfig(b=1.0, max_attempts=1),
                                 FORSConfig(b=1.0, max_w_per_call=3)],
                         ids=["attempts", "w_draws"])
def test_sample_many_refusals_name_no_chain(cfg):
    # both caps are totals over the samples, and no lane is the target
    with pytest.raises(BudgetExhaustedError) as exc:
        fors_sample_many(_zero_rows, _ConstantRows(-1.0).draw_w_rows, cfg, 100,
                         make_rng(42), QueryLedger())
    assert exc.value.chain is None


# ---------------------------------------------------------------------------
# W-draw tail diagnostic
# ---------------------------------------------------------------------------

def test_wdraw_bound_value():
    report = wdraw_tail_check(1.0, 0.01, [1, 2, 3])
    assert report.bound == pytest.approx(3.0 * math.exp(2.0) * math.log(200.0))
    assert report.bound == pytest.approx(117.4487, abs=1e-3)


def test_wdraw_tail_check_pass_and_fail():
    ok = wdraw_tail_check(1.0, 0.01, [100] * 100)
    assert ok.passed and ok.quantile == 100.0
    bad = wdraw_tail_check(1.0, 0.01, [118] * 100)
    assert not bad.passed
    assert ok.calls == 100


def test_wdraw_tail_check_aggregate_constant():
    report = wdraw_tail_check(1.0, 0.01, [10] * 50)
    expect = 500.0 / (math.exp(2.0) * (50 + math.log(100.0)))
    assert report.aggregate_constant == pytest.approx(expect)


def test_wdraw_tail_check_validation():
    with pytest.raises(ValueError):
        wdraw_tail_check(1.0, 0.01, [])
    with pytest.raises(ValueError):
        wdraw_tail_check(1.0, 0.0, [1])
    with pytest.raises(ValueError):
        wdraw_tail_check(1.0, 1.0, [1])


def _scalar_counts(cfg, n):
    source = lambda x, rng: 1.0
    return np.array([
        fors_sample(_zero_proposal, source, cfg, make_rng(11, i), QueryLedger()).w_draws
        for i in range(n)])


def _slot_counts(cfg, n):
    # criterion 3's form: one acceptance a slot, W draws counted per slot
    counts = np.zeros(n, dtype=np.int64)

    def draw_w_rows(slots, xs, rng):
        counts[slots] += 1
        return np.ones(slots.size)

    ledger = QueryLedger()
    fors_accept_rows(_zero_rows, draw_w_rows, cfg, n, make_rng(11), ledger)
    assert ledger.fors_attempts == n and ledger.w_draws == counts.sum()
    return counts


@pytest.mark.parametrize("draw_counts", [_scalar_counts, _slot_counts])
def test_per_call_draw_count_is_poisson(draw_counts):
    # With W = +B the first attempt always accepts, so the per-call (or
    # per-slot) W-draw count is exactly one Poisson(2B) variable.  At B = 1
    # the 99th percentile of Poisson(2) is 6: CDF(5) = 0.98344 < 0.99 <= CDF(6).
    cfg = FORSConfig(b=1.0)
    counts = draw_counts(cfg, 10_000)
    assert counts.mean() == pytest.approx(2.0, abs=3 * math.sqrt(2.0 / 10_000))
    pmf = stats.poisson.pmf(np.arange(8), 2.0)
    _, p_value = chi2_discrete(np.bincount(np.minimum(counts, 8), minlength=9),
                               np.append(pmf, 1.0 - pmf.sum()))
    assert p_value > 1e-3
    assert float(np.quantile(counts, 0.99)) == 6.0
    report = wdraw_tail_check(1.0, 0.01, counts)
    assert report.passed and report.quantile == 6.0


# ---------------------------------------------------------------------------
# round sizes of the iid engines
# ---------------------------------------------------------------------------

class _RowSpy:
    """The flat instance's proposal and W source, recording each call's rows."""

    def __init__(self):
        self.flat = discrete_instances()[0]
        self.rows = []

    def propose_rows(self, slots, rng):
        self.rows.append(slots.size)
        return self.flat.propose_rows(slots, rng)

    def draw_w_rows(self, slots, xs, rng):
        self.rows.append(xs.shape[0])
        return self.flat.draw_w_rows(slots, xs, rng)


def test_sample_many_rounds_stay_within_round_rows():
    from forsample.fors import _ROUND_ROWS
    spy = _RowSpy()
    ledger = QueryLedger()
    n = 100_000
    out = fors_sample_many(spy.propose_rows, spy.draw_w_rows, FORSConfig(b=spy.flat.b), n,
                           make_rng(24), ledger=ledger)
    assert out.shape == (n, 1)
    assert max(spy.rows) <= _ROUND_ROWS
    # the flat instance accepts with probability e^-1, so n samples need
    # n e attempts; rounds sized at need/p plus three standard errors spend
    # about 1.0013 n e
    assert ledger.fors_attempts <= 1.005 * n * math.e


class _SlotSpy(_RowSpy):
    """The flat instance, recording the slots of each call."""

    def propose_rows(self, slots, rng):
        self.rows.append(("p", slots.copy()))
        return self.flat.propose_rows(slots, rng)

    def draw_w_rows(self, slots, xs, rng):
        self.rows.append(("w", slots.copy()))
        return self.flat.draw_w_rows(slots, xs, rng)


@pytest.mark.parametrize("engine", [fors_sample_many, fors_attempt_batch])
def test_iid_engines_hand_lane_indices_as_slots(engine):
    # a round proposes on every lane 0..k-1 at once, and each W call draws
    # for distinct lanes of that round
    spy = _SlotSpy()
    engine(spy.propose_rows, spy.draw_w_rows, FORSConfig(b=spy.flat.b), 3_000,
           make_rng(26), QueryLedger())
    rounds = [slots for kind, slots in spy.rows if kind == "p"]
    assert rounds and all(np.array_equal(s, np.arange(s.size)) for s in rounds)
    k = 0
    for kind, slots in spy.rows:
        if kind == "p":
            k = slots.size
        else:
            assert np.unique(slots).size == slots.size and 0 <= slots.min() <= slots.max() < k


def test_attempt_batch_rounds_stay_within_round_rows():
    from forsample.fors import _ROUND_ROWS
    spy = _RowSpy()
    ledger = QueryLedger()
    n = 200_000
    mask = fors_attempt_batch(spy.propose_rows, spy.draw_w_rows, FORSConfig(b=spy.flat.b), n,
                              make_rng(25), ledger=ledger)
    assert mask.shape == (n,) and ledger.fors_attempts == n
    assert max(spy.rows) <= _ROUND_ROWS
