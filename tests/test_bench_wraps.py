"""The benchmark's traced run wraps named layers of the package.

``perfbench/tracing.py`` replaces module attributes and class methods (the
acceptance engines, the row estimators' ``draw_w_rows``, the prox
iteration, ...) with counting wrappers.  Building a ``Tracer`` looks every
wrap point up without applying any, and raises KeyError or AttributeError
for one the package no longer has, so a refactor that renames a layer
fails here and not only in the traced benchmark.  A short traced run checks
that the oracle counts at the wrap points equal the query ledger, so a
query path that goes around ``GradientOracle.draw_batch_rows`` fails here
too, and so does a prox iteration that skips it.
"""

import importlib.util
from pathlib import Path

from forsample import fors, rgo, sampler
from forsample.constants import DEFAULT_CONSTANTS
from forsample.core import AssumptionCase, make_gaussian_potential
from forsample.oracles import GradientOracle, NoiseModel, make_rng
from forsample.sampler import Schedule

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_wrap_point():
    before = (fors.fors_accept_rows, rgo._FirstOrderRows.draw_w_rows,
              rgo._ZerothOrderRows.draw_w_rows)
    tracer = _tracing().Tracer()
    wrapped = {(getattr(owner, "__name__", None), attr)
               for owner, attr, _, _ in tracer._patches}
    for name in ("fors_accept_rows", "fors_sample_many", "fors_sample",
                 "approx_prox_rows", "sample_tilt_many"):
        assert any(attr == name for _, attr in wrapped), name
    assert ("_FirstOrderRows", "draw_w_rows") in wrapped
    assert ("_ZerothOrderRows", "draw_w_rows") in wrapped
    # building the tracer patches nothing
    assert (fors.fors_accept_rows, rgo._FirstOrderRows.draw_w_rows,
            rgo._ZerothOrderRows.draw_w_rows) == before


def test_traced_oracle_counts_match_the_ledger(monkeypatch):
    # every gradient query goes through GradientOracle.draw_batch_rows, the
    # traced wrap point: a path around it would leave these counts short
    pot = make_gaussian_potential([0.0])
    sched = Schedule(mode="first_order", eta=0.05, n_steps=4, m_trunc=0.5,
                     n_batch=3, g_bound=10.0, k_iters=5, b=1.0,
                     delta=0.05, case=AssumptionCase("LSI", constant=1.0),
                     constants=DEFAULT_CONSTANTS, planned_queries=0)
    oracle = GradientOracle(pot, NoiseModel.subweibull(zeta=1.0, sigma_g=0.5),
                            make_rng(3, 1))
    budgets = []  # each prox stage call's per-row iteration counts k_i
    stage = sampler.approx_prox_rows_budgeted

    def recorded(*args):
        x, ks = stage(*args)
        budgets.append(ks)
        return x, ks

    monkeypatch.setattr(sampler, "approx_prox_rows_budgeted", recorded)
    tracer = _tracing().Tracer()
    tracer.enable()
    try:
        _, ledger = sampler.run_proximal_sampler(
            pot, oracle, sched, sampler.gaussian_initializer([1.0]), 8, make_rng(3, 2))
    finally:
        tracer.disable()
    _, counts, _ = tracer.collect()
    assert ledger.grad_queries > 0
    assert counts["oracles.queries"] == ledger.grad_queries
    assert counts["oracles.noise_draws"] == ledger.grad_queries  # d = 1
    assert counts["sampler.outer_steps"] == sched.n_steps
    # chains step on as they accept, so a stage call holds the chains that
    # start a step together: every chain's every step, once
    assert sum(ks.size for ks in budgets) == 8 * sched.n_steps
    # each row runs its own k_i <= k_iters, and the ledger counts what ran
    assert all(1 <= ks.min() and ks.max() <= sched.k_iters for ks in budgets)
    realized = sum(int(ks.sum()) for ks in budgets)
    assert counts["prox.iters"] == ledger.prox_iters == realized
    assert realized < sched.n_steps * sched.k_iters * 8
    # each prox iteration is one draw_batch_rows call: a stage call's calls
    # carry its rows up to the largest k_i, beside one call per W call
    assert counts["oracles.calls"] == (sum(int(ks.max()) for ks in budgets)
                                       + counts["rgo.estimator_calls"])
