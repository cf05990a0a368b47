"""Pins the random streams of the sampling engines.

Each case runs a small fixed-seed call and compares a SHA-256 digest of its
outputs and ledger (or the exact floats, for the scalar estimators) with
the value recorded when the test was written.  A refactor that keeps every
stream passes unchanged.  A change to how random numbers are consumed fails
here on purpose: such a change reruns the acceptance gate at the documented
seeds, and the new digests are recorded together with its verdicts.
"""

import hashlib
from functools import partial

import numpy as np
import pytest

from forsample.constants import DEFAULT_CONSTANTS
from forsample.core import AssumptionCase, make_gaussian_potential
from forsample.fors import (FORSConfig, _scalar_coin, fors_accept_rows, fors_attempt_batch,
                            fors_sample, fors_sample_many, poisson_inversion)
from forsample.harness import discrete_instances
from forsample.lowerbound import (AdversarialOraclePair, PsiFunction, coupled_run,
                                  proximal_adapter, sgld_adapter)
from forsample.oracles import GradientOracle, NoiseModel, QueryLedger, ValueOracle, make_rng
from forsample.prox import ProxConfig, approx_prox_rows
from forsample.rgo import sample_tilt_many, tilt_source
from forsample.sampler import Schedule, gaussian_initializer, run_proximal_sampler


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, QueryLedger):
            # the clip count follows from the W values, and the pins predate it
            part = sorted((k, v) for k, v in part.as_dict().items() if k != "w_clipped")
        if isinstance(part, np.ndarray):
            h.update(str((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def _spread():
    # four support points, two-valued W: every draw consumes the source's rng
    return discrete_instances()[3]


def _tilt(noise_sigma: float = 0.5):
    # a 2-d tilt (x0, xhat, eta); its estimators batch 3 oracle draws
    pot = make_gaussian_potential([0.3, -0.2])
    noise = NoiseModel.subgaussian(noise_sigma)
    return pot, ([1.0, 0.5], [0.6, 0.2], 0.25), noise


def _accept_rows():
    inst = _spread()
    ledger = QueryLedger()
    out = fors_accept_rows(inst.propose_rows, inst.draw_w_rows, FORSConfig(b=inst.b), 257,
                           make_rng(5, 1), ledger=ledger)
    return _digest(out, ledger)


def _scalar_loop():
    # the scalar loop, call after call on one stream: points, per-call
    # attempts and W draws, and the shared ledger
    inst = _spread()
    ledger = QueryLedger()
    source = inst.scalar_source()
    cfg, rng = FORSConfig(b=inst.b), make_rng(5, 20)
    calls = [fors_sample(lambda r: inst.proposal_rows(1, r)[0], source, cfg, rng,
                         ledger=ledger) for _ in range(2_000)]
    return _digest(np.array([c.point[0] for c in calls]),
                   np.array([(c.attempts, c.w_draws) for c in calls]), ledger)


def _sample_many():
    inst = _spread()
    ledger = QueryLedger()
    out = fors_sample_many(inst.propose_rows, inst.draw_w_rows, FORSConfig(b=inst.b), 3_000,
                           make_rng(5, 2), ledger=ledger)
    return _digest(out, ledger)


def _attempt_batch():
    inst = _spread()
    ledger = QueryLedger()
    mask = fors_attempt_batch(inst.propose_rows, inst.draw_w_rows, FORSConfig(b=inst.b), 5_000,
                              make_rng(5, 3), ledger=ledger)
    return _digest(mask, ledger)


def _sample_tilt_many(oracle_cls):
    pot, (x0, xhat, eta), noise = _tilt()
    oracle = oracle_cls(pot, noise, make_rng(5, 6))
    out = sample_tilt_many(oracle, x0, xhat, eta, FORSConfig(b=2.0), 2_000,
                           make_rng(5, 7), n_batch=3)
    # the oracle's ledger meters the loop too; the pins digest the loop's
    # counts apart from the queries, as when the loop had a ledger of its own
    queries = oracle.ledger.as_dict()
    loop = {k: queries.pop(k) for k in ("fors_attempts", "w_draws", "rgo_calls")}
    return _digest(out, QueryLedger(**loop), QueryLedger(**queries))


def _sampler(noise=NoiseModel.subgaussian(0.5), k_iters=5, mode="first_order", start=2.0):
    pot = make_gaussian_potential([0.0])
    sched = Schedule(mode=mode, eta=0.05, n_steps=6, m_trunc=0.5,
                     n_batch=4, g_bound=10.0, k_iters=k_iters, b=1.0,
                     delta=0.05, case=AssumptionCase("LSI", constant=1.0),
                     constants=DEFAULT_CONSTANTS, planned_queries=0)
    oracle_cls = GradientOracle if mode == "first_order" else ValueOracle
    oracle = oracle_cls(pot, noise, make_rng(5, 8))
    x, ledger = run_proximal_sampler(pot, oracle, sched, gaussian_initializer([start]),
                                     64, make_rng(5, 9))
    return _digest(x, ledger)


def _prox_rows():
    pot, _, noise = _tilt()
    cfg = ProxConfig(eta=0.25, n_batch=3, k_iters=7)
    oracle = GradientOracle(pot, noise, make_rng(5, 10))
    x0 = make_rng(5, 11).standard_normal((9, 2))
    return _digest(approx_prox_rows(pot, oracle, x0, cfg), oracle.ledger)


def _noise_rows(noise, dim):
    # batch means (n = 5) and single draws (n = 1), one stream
    rng = make_rng(5, 18)
    return _digest(noise.sample_batch_rows(6, 5, dim, rng),
                   noise.sample_batch_rows(4, 1, dim, rng))


def _coupled(adapter):
    # delta = 0.02 and T = 4, the lower bound's starved budget
    pair = AdversarialOraclePair.from_psi(PsiFunction.power(2.0), 0.02)
    res = coupled_run(adapter, pair, 4, 300, seed=5)
    return _digest(res.outputs_base, res.outputs_shifted, res.corrupted_fraction,
                   res.clean_mismatches, res.queries)


_POLYMOMENT = NoiseModel.polymoment(k=1, sigma_2k=0.5)
_SUBWEIBULL = NoiseModel.subweibull(zeta=1.0, sigma_g=0.5)
_SUBWEIBULL_HALF = NoiseModel.subweibull(zeta=0.5, sigma_g=0.5)

PINNED = {
    "fors_accept_rows": (_accept_rows, "9bcef8592dfe3f7e"),
    "fors_sample": (_scalar_loop, "a31284b6ca0f9912"),
    "fors_sample_many": (_sample_many, "bf610e7459aae012"),
    "fors_attempt_batch": (_attempt_batch, "8006b6ba2a7569ce"),
    "sample_tilt_many_first": (partial(_sample_tilt_many, GradientOracle),
                               "b0aaf23b9163f558"),
    "sample_tilt_many_zeroth": (partial(_sample_tilt_many, ValueOracle),
                                "03da7d391b4601b6"),
    "run_proximal_sampler": (_sampler, "b34b0aa9547c4cf6"),
    "approx_prox_rows": (_prox_rows, "cac88e1e40ddfd20"),
    # radius noise in one dimension: a fair sign per draw
    "noise_polymoment_d1": (partial(_noise_rows, _POLYMOMENT, 1),
                            "491c93810fcfb58b"),
    "noise_subweibull_d1": (partial(_noise_rows, _SUBWEIBULL, 1),
                            "f3c58c6e5df0d75f"),
    # the prox stage's 1-D radius noise, drawn one iteration at a time
    "run_proximal_sampler_subweibull_d1": (partial(_sampler, _SUBWEIBULL),
                                           "fedc5e3e73b67f2d"),
    # the lower bound: one tape row per trial
    "coupled_run_sgld": (partial(_coupled, sgld_adapter(0.1)), "e9257b8c74edc6a3"),
    "coupled_run_proximal": (partial(_coupled, proximal_adapter(0.25, 1.0)),
                             "e6d3339c3d952313"),
    # radius noise in d >= 2: a normal divided by its norm per draw
    "noise_polymoment_d3": (partial(_noise_rows, _POLYMOMENT, 3),
                            "2aecae1878d334c7"),
    "noise_subweibull_d3": (partial(_noise_rows, _SUBWEIBULL, 3),
                            "29e6e5e3af4e917a"),
    # subweibull zeta != 1: the radius power 1/zeta is not the identity
    "noise_subweibull_half_d1": (partial(_noise_rows, _SUBWEIBULL_HALF, 1),
                                 "8257c3d2fccdcdac"),
    "noise_subweibull_half_d3": (partial(_noise_rows, _SUBWEIBULL_HALF, 3),
                                 "fab27acc89189258"),
    # a cap of one prox iteration, the stage's first call alone; from 40 the
    # first steps' rows would run two
    "run_proximal_sampler_cap1": (partial(_sampler, _SUBWEIBULL, 1, start=40.0),
                                  "d64c1ae4c38d5005"),
    # from 400 the rows run two or three iterations: a call per level past one
    "run_proximal_sampler_far": (partial(_sampler, _SUBWEIBULL, 5, start=400.0),
                                 "60d2debaff02324a"),
    # exact noise: the potential's rows stand, with no noise drawn
    "run_proximal_sampler_exact": (partial(_sampler, NoiseModel.exact()),
                                   "a9fe83ad9243de75"),
    # zeroth order: two value queries per W, no prox stage
    "run_proximal_sampler_zeroth": (partial(_sampler, mode="zeroth_order", k_iters=0),
                                    "f1bbf96d9f3c345b"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_stream_digest_is_pinned(name):
    run, want = PINNED[name]
    assert run() == want


def test_scalar_estimator_draws_are_pinned():
    # One-row draws of the row estimators, the single-point W draws.  The
    # random numbers each draw consumes are pinned exactly, through the
    # generators' states afterwards.  The values are pinned to 1e-12: two
    # algebraically equal forms of the same estimator (a dot product against
    # a row-wise sum, say) round differently in the last few bits.
    pot, (x0, xhat, eta), noise = _tilt()
    g_oracle = GradientOracle(pot, noise, make_rng(5, 13))
    v_oracle = ValueOracle(pot, noise, make_rng(5, 14))
    rng = make_rng(5, 15)
    points = ([0.1, 0.4], [0.9, -0.3], [-0.5, 0.7])
    slot = np.zeros(1, dtype=np.int64)
    args = (np.array([x0]), np.array([xhat]), eta, 2.0, 3)
    first_rows = tilt_source(g_oracle, *args)
    zeroth_rows = tilt_source(v_oracle, *args)
    first = [float(first_rows.draw_w_rows(slot, np.array([x]), rng)[0]) for x in points]
    zeroth = [float(zeroth_rows.draw_w_rows(slot, np.array([x]), rng)[0]) for x in points]
    assert first == pytest.approx(
        [0.11741641532112121, -0.8746173843389878, -1.8944420225265846], rel=1e-12)
    assert zeroth == pytest.approx(
        [0.5863611163640727, -0.07590968748857058, -1.0679938600775043], rel=1e-12)
    assert (g_oracle.ledger.grad_queries, v_oracle.ledger.value_queries) == (9, 18)
    states = [r.bit_generator.state for r in (g_oracle.rng, v_oracle.rng, rng)]
    assert _digest(states) == "6711215a9e5d0934"


def test_scalar_prox_is_pinned():
    pot, _, noise = _tilt()
    cfg = ProxConfig(eta=0.25, n_batch=3, k_iters=7)
    oracle = GradientOracle(pot, noise, make_rng(5, 16))
    xhat = approx_prox_rows(pot, oracle, [[0.8, -0.4]], cfg)[0]
    assert xhat.tolist() == [0.6988202224425142, -0.39340651868250887]
    assert oracle.ledger.grad_queries == 21


@pytest.mark.parametrize("lam", [2.0, 6.0, 30.0])
def test_scalar_poisson_draws_equal_one_row_draw(lam):
    # the scalar coin bisects the row draw's table: with W = B every factor
    # is 1, so a flip draws all its J and accepts, and fed the row draw's
    # uniforms (then u = 1/2) its W-draw counts are the row draw's J
    b = lam / 2
    flip = _scalar_coin(b)
    counts = []
    for r in make_rng(5, 19).random(2_000).tolist():
        drawn = []
        assert flip(iter((r, 0.5)).__next__, lambda x: drawn.append(x) or b, None)
        counts.append(len(drawn))
    assert counts == poisson_inversion(lam, make_rng(5, 19), size=2_000).tolist()


@pytest.mark.parametrize("key", [(5,), (5, 20), (7, 3, 1)])
def test_raw_words_give_the_generators_uniforms(key):
    # coupled_run reads its coupling uniforms as raw words: the top 53 bits
    # of a word, times 2^-53, is what Generator.random returns on PCG64
    raw = make_rng(*key).bit_generator.random_raw(1_000)
    want = make_rng(*key).random(1_000).tolist()
    assert [(w >> 11) * 2.0 ** -53 for w in raw.tolist()] == want
    assert ((raw >> 11) * 2.0 ** -53).tolist() == want    # coupled_run's uint64 form
