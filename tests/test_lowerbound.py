"""Tests for the adversarial lower-bound construction.

The power gauges admit closed forms for the rate functional: psi(m) = m^2
gives F(delta) = 1/delta - delta and psi(m) = m^3 gives
F(delta) = sqrt((1 - delta^3)/delta), so the scan-plus-bisection solver can
be checked to six digits.  The coupling invariant is structural: on trials
with zero corruptions the two arms must produce bit-identical outputs.
"""

import math

import numpy as np
import pytest
from scipy import stats

from forsample.core import GaussianReference
from forsample.errors import BudgetViolationError
from forsample.lowerbound import (
    AdversarialOraclePair,
    CoupledRunResult,
    PsiFunction,
    _MeteredOracle,
    coupled_run,
    f_psi,
    proximal_adapter,
    sgld_adapter,
)
from forsample.oracles import make_rng
from forsample.verify import empirical_tv_1d, empirical_tv_two_sample, gaussian_tv_exact


# ---------------------------------------------------------------------------
# gauges and the rate functional
# ---------------------------------------------------------------------------

def test_psi_values_and_monotonicity():
    square = PsiFunction.power(2.0)
    assert square(0.0) == 0.0
    assert square(3.0) == 9.0
    expo = PsiFunction("exp_power", 1.0)
    assert expo(0.0) == 0.0
    assert expo(1.0) == pytest.approx(math.e - 1.0)
    for psi in (square, expo):
        vals = [psi(m) for m in np.linspace(0.0, 5.0, 21)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        square(-0.5)


def test_psi_validation():
    with pytest.raises(ValueError):
        PsiFunction.power(0.5)
    with pytest.raises(ValueError):
        PsiFunction("exp_power", 0.0)
    with pytest.raises(ValueError):
        PsiFunction("cubic", 3.0)


def test_f_psi_square_gauge_closed_form():
    psi = PsiFunction.power(2.0)
    for delta in (0.2, 0.1, 0.05, 0.02, 0.01):
        expect = 1.0 / delta - delta
        assert f_psi(psi, delta) == pytest.approx(expect, rel=1e-6)


def test_f_psi_cubic_gauge_closed_form():
    psi = PsiFunction.power(3.0)
    for delta in (0.2, 0.1, 0.05):
        expect = math.sqrt((1.0 - delta ** 3) / delta)
        assert f_psi(psi, delta) == pytest.approx(expect, rel=1e-6)
    assert f_psi(psi, 0.1) == pytest.approx(3.16070, abs=1e-4)


def test_f_psi_exponential_gauge_grows_logarithmically():
    psi = PsiFunction("exp_power", 1.0)
    for delta in (0.2, 0.1, 0.05, 0.01):
        assert f_psi(psi, delta) >= 0.5 * math.log(1.0 / delta)
    # slower than any power: at delta = 1e-4 the rate is still below 1/delta^0.5
    assert f_psi(psi, 1e-4) < 100.0


def test_f_psi_edge_cases():
    # psi(m) = m never binds, so the solver hits its cap
    assert f_psi(PsiFunction.power(1.0), 0.1) == 1e12
    # for delta > 1/2 the identity gauge is infeasible even at u = delta
    assert f_psi(PsiFunction.power(1.0), 0.6) == 0.6
    with pytest.raises(ValueError):
        f_psi(PsiFunction.power(2.0), 0.0)
    with pytest.raises(ValueError):
        f_psi(PsiFunction.power(2.0), 1.0)
    # psi(delta) >= 1 means the moment class is empty
    with pytest.raises(ValueError):
        f_psi(PsiFunction("exp_power", 0.1), 0.5)


# ---------------------------------------------------------------------------
# the oracle pair
# ---------------------------------------------------------------------------

def test_pair_shift_and_moment():
    pair = AdversarialOraclePair(PsiFunction.power(2.0), delta=0.1, p=0.01)
    assert pair.m_shift == pytest.approx(10.0)
    expect = 0.01 * 9.9 ** 2 + 0.99 * 0.01
    assert pair.psi_moment == pytest.approx(expect)


def test_pair_from_psi_is_feasible_and_tight():
    pair = AdversarialOraclePair.from_psi(PsiFunction.power(2.0), 0.1)
    assert pair.m_shift == pytest.approx(9.9, rel=1e-6)
    assert pair.p == pytest.approx(0.1 / 9.9, rel=1e-6)
    assert pair.psi_moment <= 1.0 + 1e-9


def test_pair_validation():
    psi = PsiFunction.power(2.0)
    with pytest.raises(ValueError):
        AdversarialOraclePair(psi, delta=0.1, p=1e-4)  # moment ~ 100
    with pytest.raises(ValueError):
        AdversarialOraclePair(psi, delta=0.1, p=0.0)
    with pytest.raises(ValueError):
        AdversarialOraclePair(psi, delta=1.5, p=0.5)


def test_metered_oracle_budget_and_corruption():
    pair = AdversarialOraclePair(PsiFunction.power(2.0), delta=0.1, p=0.5)
    uniforms = np.array([0.9, 0.1, 0.9])
    oracle = _MeteredOracle(pair, uniforms, budget=3, shifted=True)
    assert oracle(1.0) == 1.0                      # u = 0.9 >= p: clean
    assert oracle(1.0) == 1.0 - pair.m_shift       # u = 0.1 < p: corrupted
    assert oracle(1.0) == 1.0
    assert oracle.corruptions == 1
    with pytest.raises(BudgetViolationError):
        oracle(1.0)
    clean = _MeteredOracle(pair, uniforms, budget=3, shifted=False)
    assert [clean(x) for x in (0.5, -2.0, 7.0)] == [0.5, -2.0, 7.0]


# ---------------------------------------------------------------------------
# coupled execution
# ---------------------------------------------------------------------------

def test_vanishing_p_makes_the_arms_identical():
    # with p ~ 1e-12 no corruption ever fires, so the coupled arms are the
    # same process and every trial must agree bit for bit
    pair = AdversarialOraclePair(PsiFunction.power(2.0), delta=1e-6, p=1e-12)
    result = coupled_run(sgld_adapter(0.1), pair, t_budget=10, trials=500, seed=11)
    assert result.corrupted_fraction == 0.0
    assert result.clean_mismatches == 0
    assert np.array_equal(result.outputs_base, result.outputs_shifted)
    assert result.coupling_tv_bound == pytest.approx(1e-11)


def test_corruption_law_matches_binomial():
    pair = AdversarialOraclePair.from_psi(PsiFunction.power(2.0), 0.1)
    t_budget, trials = 10, 10_000
    result = coupled_run(sgld_adapter(0.1), pair, t_budget, trials, seed=12)
    assert result.clean_mismatches == 0
    expect = 1.0 - (1.0 - pair.p) ** t_budget
    se = math.sqrt(expect * (1.0 - expect) / trials)
    assert abs(result.corrupted_fraction - expect) <= 3 * se
    assert result.corrupted_fraction <= result.coupling_tv_bound
    assert result.coupling_tv_bound == pytest.approx(t_budget * pair.p)


def test_arm_tv_stays_under_coupling_bound():
    pair = AdversarialOraclePair.from_psi(PsiFunction.power(2.0), 0.1)
    result = coupled_run(sgld_adapter(0.1), pair, 10, 10_000, seed=13)
    est = empirical_tv_two_sample(result.outputs_base, result.outputs_shifted)
    assert est.value <= result.coupling_tv_bound + est.bias_bound + 3 * result.corrupted_se


def test_budget_violation_propagates():
    pair = AdversarialOraclePair(PsiFunction.power(2.0), delta=0.1, p=0.01)

    def greedy(oracle, budget, rng):
        for _ in range(budget + 1):
            oracle(0.0)
        return 0.0

    with pytest.raises(BudgetViolationError):
        coupled_run(greedy, pair, t_budget=5, trials=2, seed=14)


def test_coupled_run_validation():
    pair = AdversarialOraclePair(PsiFunction.power(2.0), delta=0.1, p=0.01)
    with pytest.raises(ValueError):
        coupled_run(sgld_adapter(), pair, t_budget=-1, trials=10, seed=0)
    with pytest.raises(ValueError):
        coupled_run(sgld_adapter(), pair, t_budget=5, trials=0, seed=0)


def test_corrupted_se():
    res = CoupledRunResult(np.zeros(1), np.zeros(1), 0.2, 0.5, 0, 100, queries=0)
    assert res.corrupted_se == pytest.approx(math.sqrt(0.2 * 0.8 / 100))


# ---------------------------------------------------------------------------
# adapters
# ---------------------------------------------------------------------------

def test_sgld_adapter_uses_exactly_the_budget():
    pair = AdversarialOraclePair(PsiFunction.power(2.0), delta=1e-6, p=1e-12)
    oracle = _MeteredOracle(pair, np.full(5, 0.9), budget=5, shifted=True)
    out = sgld_adapter(0.1)(oracle, 5, make_rng(15))
    assert oracle.queries == 5
    assert math.isfinite(out)
    with pytest.raises(ValueError):
        sgld_adapter(0.0)


def test_proximal_adapter_exhausts_the_budget():
    pair = AdversarialOraclePair(PsiFunction.power(2.0), delta=1e-6, p=1e-12)
    oracle = _MeteredOracle(pair, np.full(12, 0.9), budget=12, shifted=False)
    out = proximal_adapter(0.25, 1.0)(oracle, 12, make_rng(16))
    assert oracle.queries == 12
    assert math.isfinite(out)
    with pytest.raises(ValueError):
        proximal_adapter(0.0, 1.0)
    with pytest.raises(ValueError):
        proximal_adapter(0.25, 0.0)


# ---------------------------------------------------------------------------
# the contradiction at starved budgets
# ---------------------------------------------------------------------------

def test_budget_rule_stays_under_a_tenth_of_the_rate():
    # whenever the floor T >= 1 is not what binds, the rule keeps the total
    # corruption budget T p strictly below delta / 10
    psi = PsiFunction.power(2.0)
    for delta in (0.2, 0.1, 0.05, 0.02):
        rate = f_psi(psi, delta)
        t_budget = max(int(math.ceil(rate / 10.0)) - 1, 1)
        pair = AdversarialOraclePair.from_psi(psi, delta)
        assert t_budget >= 1
        if t_budget > 1:
            assert t_budget < rate / 10.0
            assert t_budget * pair.p < delta / 10.0
        else:
            assert t_budget * pair.p == pytest.approx(delta / rate)


def test_starved_budget_leaves_an_arm_far_from_its_target():
    # delta = 0.02: F = 49.98, so the rule gives T = 4 queries; four SGLD
    # steps from a point mass cannot reach either Gaussian, while the exact
    # targets differ by 2 Phi(delta/2) - 1 >= delta/3
    delta = 0.02
    psi = PsiFunction.power(2.0)
    rate = f_psi(psi, delta)
    t_budget = max(int(math.ceil(rate / 10.0)) - 1, 1)
    assert t_budget == 4
    assert gaussian_tv_exact(0.0, delta) >= delta / 3.0
    pair = AdversarialOraclePair.from_psi(psi, delta)
    result = coupled_run(sgld_adapter(0.1), pair, t_budget, 20_000, seed=17)
    assert result.clean_mismatches == 0
    tv_base = empirical_tv_1d(result.outputs_base, GaussianReference([0.0], [1.0]))
    tv_shifted = empirical_tv_1d(result.outputs_shifted,
                                 GaussianReference([delta], [1.0]))
    worst = max(tv_base.value, tv_shifted.value)
    assert worst > delta / 8.0


# ---------------------------------------------------------------------------
# the randomness tape
# ---------------------------------------------------------------------------

def _starved_pair():
    return AdversarialOraclePair.from_psi(PsiFunction.power(2.0), 0.02)


def test_coupled_run_counts_both_arms_queries():
    # both adapters spend exactly T answered queries per arm and trial
    pair = _starved_pair()
    for adapter in (sgld_adapter(0.1), proximal_adapter(0.25, 1.0)):
        result = coupled_run(adapter, pair, 4, 300, seed=18)
        assert result.queries == 2 * 4 * 300


@pytest.mark.parametrize("adapter", [sgld_adapter(0.1), proximal_adapter(0.25, 1.0)],
                         ids=["sgld", "proximal"])
def test_fewer_trials_are_a_prefix_of_more(adapter):
    pair = _starved_pair()
    short = coupled_run(adapter, pair, 4, 200, seed=19)
    long = coupled_run(adapter, pair, 4, 500, seed=19)
    assert np.array_equal(short.outputs_base, long.outputs_base[:200])
    assert np.array_equal(short.outputs_shifted, long.outputs_shifted[:200])


def test_extra_draws_do_not_carry_over_to_the_next_trial():
    # one adapter spends a trial-dependent number of extra draws after its
    # first; the next trial's first draw must not move
    pair = _starved_pair()

    def first_draw(oracle, budget, rng):
        return rng.random()

    def greedy(oracle, budget, rng):
        first = rng.random()
        rng.standard_normal(int(first * 50))
        return first

    plain = coupled_run(first_draw, pair, 3, 400, seed=20)
    spent = coupled_run(greedy, pair, 3, 400, seed=20)
    assert np.array_equal(plain.outputs_base, spent.outputs_base)
    assert np.array_equal(plain.outputs_shifted, spent.outputs_shifted)


def test_each_trial_gets_a_fresh_stream():
    # the first normal of every trial's stream: N(0, 1) and uncorrelated
    # from one trial to the next
    pair = _starved_pair()
    trials = 20_000
    result = coupled_run(lambda oracle, budget, rng: rng.standard_normal(),
                         pair, 4, trials, seed=21)
    first = result.outputs_base
    assert np.array_equal(first, result.outputs_shifted)
    assert stats.kstest(first, "norm").pvalue > 1e-4
    lag1 = np.corrcoef(first[:-1], first[1:])[0, 1]
    assert abs(lag1) < 4.0 / math.sqrt(trials - 1)


def test_coupled_run_builds_one_generator(monkeypatch):
    # the tape is the only generator a coupled run seeds, whatever the
    # number of trials
    from forsample import lowerbound
    calls = []

    def counting(*key):
        calls.append(key)
        return make_rng(*key)

    monkeypatch.setattr(lowerbound, "make_rng", counting)
    pair = _starved_pair()
    coupled_run(sgld_adapter(0.1), pair, 4, 50, seed=22)
    coupled_run(proximal_adapter(0.25, 1.0), pair, 4, 70, seed=23)
    assert calls == [(22,), (23,)]
