"""Adversarial-oracle lower-bound construction and coupled execution.

Two 1-D quadratic targets whose potentials have gradients x and x - delta
(Gaussians N(0,1) and N(delta,1)) are served by a pair of stochastic
gradient oracles:

* the base oracle answers every query x exactly with x;
* the shifted oracle answers x - M_shift with probability p and x otherwise,
  where p * M_shift = delta, so it is unbiased for the shifted target.

With M_shift = F_psi(delta) the shifted oracle satisfies the psi-moment
constraint E psi(|g - grad f|) <= 1.  Running any algorithm against both
oracles with shared internal randomness and shared per-query coupling
uniforms makes the two executions bit-identical unless some query was
corrupted, so

    TV(law of output vs base, law vs shifted) <= P(any corruption) <= T p.

A query budget T below F_psi(delta)/10 therefore forces at least one arm's
output law to be far from its own target: exact targets differ by
TV(N(0,1), N(delta,1)) = 2 Phi(delta/2) - 1 >= delta/3 while the arms'
outputs are within Tp <= delta/10 of each other.

All of a coupled run's randomness comes from one tape generator,
``make_rng(seed)``, read one fixed-width row per trial: the trial's
max(T, 1) coupling uniforms, then four raw 64-bit words that seed the
algorithm's stream.  Trial t's row starts at raw word t (max(T, 1) + 4), so
a trial's draws depend only on the seed and t, never on how many random
numbers earlier trials spent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BudgetViolationError
from .fors import poisson_inversion
from .oracles import make_rng

_F_PSI_CAP = 1e12
_MASK_128 = (1 << 128) - 1

Adapter = Callable[[Callable[[float], float], int, np.random.Generator], float]


@dataclass(frozen=True)
class PsiFunction:
    """Increasing moment gauge psi with psi(0) = 0.

    tag "power": psi(m) = m^s with s >= 1 (s = 2 is the variance gauge).
    tag "exp_power": psi(m) = exp(m^s) - 1 with s > 0.
    """

    tag: str
    s: float

    def __post_init__(self):
        if self.tag not in ("power", "exp_power"):
            raise ValueError(f"unknown psi tag {self.tag!r}")
        if self.tag == "power" and not (self.s >= 1):
            raise ValueError("power gauge needs s >= 1")
        if self.tag == "exp_power" and not (self.s > 0):
            raise ValueError("exp_power gauge needs s > 0")

    def __call__(self, m: float) -> float:
        if m < 0:
            raise ValueError("psi is defined on [0, infinity)")
        if self.tag == "power":
            return m ** self.s
        return math.expm1(min(m ** self.s, 700.0))

    @staticmethod
    def power(s: float) -> "PsiFunction":
        return PsiFunction("power", s)

    @staticmethod
    def exp_power(s: float) -> "PsiFunction":
        return PsiFunction("exp_power", s)


def f_psi(psi: PsiFunction, delta: float) -> float:
    """The rate functional sup{u >= delta : delta psi(u) <= (1 - psi(delta)) u}.

    Found by a geometric scan for the last feasible u followed by bisection;
    capped at 1e12 for gauges too weak to pin a finite value.  Requires
    psi(delta) < 1; if no u >= delta is feasible the infimum convention
    returns delta itself.
    """
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    pd = psi(delta)
    if pd >= 1:
        raise ValueError(f"psi(delta) = {pd:g} >= 1: the moment class is empty")
    slack = 1.0 - pd

    def feasible(u: float) -> bool:
        return delta * psi(u) <= slack * u

    if not feasible(delta):
        return delta
    lo = delta
    hi = delta
    while feasible(hi):
        lo, hi = hi, hi * 2.0
        if hi >= _F_PSI_CAP:
            return _F_PSI_CAP
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class AdversarialOraclePair:
    """The two coupled oracles: parameters and feasibility witness.

    m_shift = delta / p; feasibility requires the psi-moment of the shifted
    oracle, p psi(m_shift - delta) + (1 - p) psi(delta), to be at most 1.
    """

    psi: PsiFunction
    delta: float
    p: float

    def __post_init__(self):
        if not (0 < self.delta < 1):
            raise ValueError("delta must lie in (0, 1)")
        if not (0 < self.p <= 1):
            raise ValueError("p must lie in (0, 1]")
        moment = self.psi_moment
        if moment > 1.0 + 1e-9:
            raise ValueError(
                f"infeasible pair: psi-moment {moment:g} exceeds 1")

    @property
    def m_shift(self) -> float:
        return self.delta / self.p

    @property
    def psi_moment(self) -> float:
        return (self.p * self.psi(self.m_shift - self.delta)
                + (1.0 - self.p) * self.psi(self.delta))

    @staticmethod
    def from_psi(psi: PsiFunction, delta: float) -> "AdversarialOraclePair":
        """The proof's choice: shift by F_psi(delta), corrupt with p = delta/shift."""
        shift = f_psi(psi, delta)
        return AdversarialOraclePair(psi=psi, delta=delta, p=delta / shift)

    def base_mean(self, x: float) -> float:
        return x

    def shifted_mean(self, x: float) -> float:
        return x - self.delta


class _MeteredOracle:
    """One arm's oracle for one trial: budget-capped, coupling-uniform driven.

    Query i consumes uniforms[i]; the shifted arm corrupts the answer when
    that uniform falls below p, so the two arms agree query-by-query
    whenever no corruption fires.
    """

    def __init__(self, pair: AdversarialOraclePair, uniforms: np.ndarray,
                 budget: int, shifted: bool):
        self.pair = pair
        self.uniforms = uniforms
        self.budget = budget
        self.shifted = shifted
        self.queries = 0
        self.corruptions = 0

    def __call__(self, x: float) -> float:
        if self.queries >= self.budget:
            raise BudgetViolationError(
                f"oracle query budget {self.budget} exceeded")
        u = self.uniforms[self.queries]
        self.queries += 1
        if self.shifted and u < self.pair.p:
            self.corruptions += 1
            return x - self.pair.m_shift
        return x


@dataclass(frozen=True)
class CoupledRunResult:
    outputs_base: np.ndarray
    outputs_shifted: np.ndarray
    corrupted_fraction: float
    coupling_tv_bound: float
    clean_mismatches: int
    trials: int
    queries: int       # answered oracle queries, both arms, all trials

    @property
    def corrupted_se(self) -> float:
        f = self.corrupted_fraction
        return math.sqrt(max(f * (1.0 - f), 1e-12) / self.trials)


def coupled_run(alg: Adapter, pair: AdversarialOraclePair, t_budget: int,
                trials: int, seed: int) -> CoupledRunResult:
    """Run the algorithm against both arms with shared randomness per trial.

    Trial t reads one row of the tape ``make_rng(seed)`` when it starts:
    max(t_budget, 1) coupling uniforms, consumed query by query, and four
    raw words w0..w3.  The words set the algorithm's PCG64 stream for the
    trial, state w0 2^64 + w1 and odd increment 2 (w2 2^64 + w3) + 1 mod
    2^128, and both arms start from that same state.  Outputs must agree
    exactly on trials with zero corruptions; the count of violations of
    that invariant is reported (it must be zero for a sound adapter).
    """
    if t_budget < 0 or trials < 1:
        raise ValueError("need t_budget >= 0 and trials >= 1")
    width = max(t_budget, 1)
    tape = make_rng(seed)
    words = tape.bit_generator
    alg_rng = np.random.Generator(np.random.PCG64())
    alg_bits = alg_rng.bit_generator
    state = alg_bits.state
    out0 = np.empty(trials)
    out1 = np.empty(trials)
    corrupted = 0
    clean_mismatches = 0
    queries = 0
    for trial in range(trials):
        uniforms = tape.random(width)
        w0, w1, w2, w3 = words.random_raw(4).tolist()
        state["state"] = {"state": w0 << 64 | w1,
                          "inc": ((w2 << 64 | w3) << 1 | 1) & _MASK_128}
        arms = []
        for shifted in (False, True):
            oracle = _MeteredOracle(pair, uniforms, t_budget, shifted)
            alg_bits.state = state
            arms.append((alg(oracle, t_budget, alg_rng), oracle))
        out0[trial], oracle0 = arms[0]
        out1[trial], oracle1 = arms[1]
        queries += oracle0.queries + oracle1.queries
        if oracle1.corruptions > 0:
            corrupted += 1
        elif out0[trial] != out1[trial] or oracle0.queries != oracle1.queries:
            clean_mismatches += 1
    frac = corrupted / trials
    return CoupledRunResult(
        outputs_base=out0, outputs_shifted=out1, corrupted_fraction=frac,
        coupling_tv_bound=min(t_budget * pair.p, 1.0),
        clean_mismatches=clean_mismatches, trials=trials, queries=queries)


# ---------------------------------------------------------------------------
# algorithm adapters
# ---------------------------------------------------------------------------

def sgld_adapter(step: float = 0.1) -> Adapter:
    """Stochastic-gradient Langevin baseline: exactly T queries per run.

    x <- x - step * g(x) + sqrt(2 step) * xi, started at 0.
    """
    if not (step > 0):
        raise ValueError("step must be positive")

    def run(oracle: Callable[[float], float], budget: int,
            rng: np.random.Generator) -> float:
        x = 0.0
        for _ in range(budget):
            g = oracle(x)
            x = x - step * g + math.sqrt(2.0 * step) * rng.standard_normal()
        return x

    return run


def proximal_adapter(eta: float = 0.25, b: float = 1.0) -> Adapter:
    """Budget-capped proximal sampler on the 1-D quadratic pair.

    Each outer step spends one query on a single linearized prox iteration
    and one query per rejection-loop estimator draw (first-order path
    construction with n = 1), then repeats until the budget runs out; the
    state at exhaustion is the output.
    """
    if not (eta > 0) or not (b > 0):
        raise ValueError("eta and b must be positive")

    def run(oracle: Callable[[float], float], budget: int,
            rng: np.random.Generator) -> float:
        x = 0.0
        try:
            while True:
                y = x + math.sqrt(eta) * rng.standard_normal()
                xhat = y - eta * oracle(y) / 2.0    # one prox iteration from x0=y
                u = (y - xhat) / eta
                # inline: fors_sample's per-attempt checks and objects cost about 2x
                while True:                          # rejection loop for this tilt
                    cand = xhat + math.sqrt(eta) * rng.standard_normal()
                    j = poisson_inversion(2.0 * b, rng)
                    coin = rng.random()
                    product = 1.0
                    for _ in range(j):
                        r = rng.random()
                        z = math.sqrt(eta) * rng.standard_normal()
                        a_r = math.sin(math.pi * r / 2.0)
                        b_r = math.cos(math.pi * r / 2.0)
                        gamma = a_r * cand + (1.0 - a_r) * xhat + b_r * z
                        gamma_dot = (math.pi / 2.0) * (b_r * (cand - xhat) - a_r * z)
                        w = gamma_dot * (u - oracle(gamma))
                        product *= (b + max(-b, min(b, w))) / (2.0 * b)
                        if product < coin:
                            break
                    if coin < product:
                        x = cand
                        break
        except BudgetViolationError:
            return x

    return run
