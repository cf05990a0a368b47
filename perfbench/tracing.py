"""Span tracer for the traced benchmark run.

The tracer never edits the package: it replaces module attributes and class
methods that the layers call through (``forsample.sampler.approx_prox_rows``,
``GradientOracle.draw_batch_rows``, ...) with wrappers, and puts the
originals back when disabled.  A wrap point the package no longer has
raises, so a renamed layer fails the traced run instead of reading 0.  Each
wrapper records a span (name, job id, start, end, parent span) and counts
taken from the call's arguments, ledger deltas or result at the same
boundary.

``make_rng`` in ``forsample.lowerbound`` runs three times per trial, so it is
counted and timed but gets no span.  The validation helpers in
``forsample.core`` run about a million times per job, where two clock reads
per call would be much of what they measure: every call is counted, and
only every ``VALIDATE_STRIDE``-th call is timed; ``core.validate_s`` is the
sampled time scaled by the stride.  The (scaled) time of these helpers is
taken out of the enclosing span's self time.

A layer's self time is the summed duration of its spans minus, per span, the
union of the intervals its child spans cover (children may run on worker
threads and overlap) and the time spent in the counted-only helpers.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import threading
import time
from collections import defaultdict

from forsample import (core, fors, harness, lowerbound, oracles, prox, rgo,
                       sampler, verify)

perf_counter = time.perf_counter

# one validation call in this many is timed; a power of two
VALIDATE_STRIDE = 64

# span record fields
NAME, JOB, START, END, PARENT, EXCL = range(6)


class _ThreadState:
    __slots__ = ("stack", "spans", "counts", "timers")

    def __init__(self):
        self.stack: list = []
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.timers: defaultdict = defaultdict(float)


def _arg(args, kwargs, pos, name):
    """A call argument by position or keyword (None when absent)."""
    return args[pos] if len(args) > pos else kwargs.get(name)


class Tracer:
    """Records spans and counts while enabled; see the module docstring."""

    def __init__(self):
        self.job = "setup"
        # key -> itertools.count of the sampled helpers' calls (thread-safe)
        self._calls: dict = {}
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._main = self._state()
        self._patches = self._plan_patches()

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _parent(self, st: _ThreadState):
        # a worker thread's first span hangs under the main thread's open span
        if st.stack:
            return st.stack[-1]
        return self._main.stack[-1] if self._main.stack else None

    def reset(self) -> None:
        """Drop everything recorded so far (all threads)."""
        with self._lock:
            for st in self._states:
                st.spans.clear()
                st.counts.clear()
                st.timers.clear()
            for key in self._calls:
                self._calls[key] = itertools.count()

    # -- wrappers --------------------------------------------------------------

    def _span(self, fn, name, pre=None, post=None):
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            memo = None
            if pre is not None:
                args, memo = pre(args, kwargs, st)
            rec = [name, tracer.job, perf_counter(), 0.0, tracer._parent(st), 0.0]
            st.stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                st.stack.pop()
                st.spans.append(rec)
            if post is not None:
                post(args, kwargs, result, st, rec, memo)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _light(self, fn, key, stride=1):
        """A counted, spanless wrapper timing one call in ``stride``."""
        tracer = self
        calls = self._calls
        calls[key] = itertools.count()
        mask = stride - 1

        def wrapper(*args, **kwargs):
            if next(calls[key]) & mask:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = (perf_counter() - t0) * stride
                st = tracer._state()
                st.timers[key + "_s"] += dt
                parent = tracer._parent(st)
                if parent is not None:
                    parent[EXCL] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # -- wrap points -----------------------------------------------------------

    def _plan_patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for each wrap point.

        Raises KeyError or AttributeError for a wrap point the package no
        longer has.
        """
        plan: list[tuple[object, str, object, object]] = []

        def method(cls, attr, name, pre=None, post=None):
            fn = vars(cls)[attr]
            plan.append((cls, attr, fn, self._span(fn, name, pre, post)))

        def function(module, attr, replacement_for):
            fn = getattr(module, attr)
            wrapped = replacement_for(fn)
            # every module that imported the function holds its own binding
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        plan.append((mod, key, fn, wrapped))

        def span(name, pre=None, post=None):
            return lambda fn: self._span(fn, name, pre, post)

        # oracles: draw calls and the noise kernel
        def oracle_rows(args, kwargs, result, st, rec, memo):
            st.counts["oracles.calls"] += 1
            st.counts["oracles.queries"] += (int(_arg(args, kwargs, 2, "n"))
                                             * len(_arg(args, kwargs, 1, "xs")))

        def noise(args, kwargs, result, st, rec, memo):
            if args[0].family != "exact":
                k, n, dim = (int(_arg(args, kwargs, i + 1, key))
                             for i, key in enumerate(("k", "n", "dim")))
                st.counts["oracles.noise_draws"] += k * n * dim
                st.timers["oracles.noise_s"] += rec[END] - rec[START]

        for cls in (oracles.GradientOracle, oracles.ValueOracle):
            method(cls, "draw_batch_rows", "oracles.draw", post=oracle_rows)
        method(oracles.NoiseModel, "sample_batch_rows", "oracles.noise", post=noise)

        # core: shape and finiteness validation, counted, timed by sampling
        for name in ("as_rows", "as_vector"):
            function(core, name,
                     lambda fn: self._light(fn, "core.validate", VALIDATE_STRIDE))

        # prox
        def prox_post(args, kwargs, result, st, rec, memo):
            st.counts["prox.calls"] += 1
            st.counts["prox.iters"] += _arg(args, kwargs, 3, "cfg").k_iters * len(result)

        function(prox, "approx_prox_rows", span("prox.iterate", post=prox_post))

        # rgo: estimator draws and the iid tilt collector
        def estimator(args, kwargs, result, st, rec, memo):
            st.counts["rgo.estimator_calls"] += 1
            st.counts["rgo.w_draws"] += len(_arg(args, kwargs, 2, "xs"))

        for cls in (rgo._FirstOrderRows, rgo._ZerothOrderRows):
            method(cls, "draw_w_rows", "rgo.estimator", post=estimator)
        function(rgo, "sample_tilt_many", span("rgo.tilt"))

        # fors: the three acceptance engines
        def counting(callable_, st):
            def counted(*a, **k):
                st.counts["fors.rounds"] += 1
                return callable_(*a, **k)
            return counted

        # the engines count attempts and W draws into the ledger they are
        # given; rounds are calls of the proposal callable
        def rows_pre(args, kwargs, st):
            led = _arg(args, kwargs, 5, "ledger")
            memo = (led, led.fors_attempts, led.w_draws) if led is not None else None
            return (counting(args[0], st),) + tuple(args[1:]), memo

        def rows_post(args, kwargs, result, st, rec, memo):
            st.counts["fors.calls"] += 1
            st.counts["fors.accepted"] += len(result)
            if memo is not None:
                led, attempts, draws = memo
                st.counts["fors.attempts"] += led.fors_attempts - attempts
                st.counts["fors.w_draws"] += led.w_draws - draws

        def scalar_post(args, kwargs, result, st, rec, memo):
            st.counts["fors.calls"] += 1
            st.counts["fors.accepted"] += 1
            st.counts["fors.rounds"] += result.attempts
            st.counts["fors.attempts"] += result.attempts
            st.counts["fors.w_draws"] += result.w_draws

        function(fors, "fors_accept_rows",
                 span("fors.accept_rows", rows_pre, rows_post))
        function(fors, "fors_sample_many",
                 span("fors.sample_many", rows_pre, rows_post))
        function(fors, "fors_sample", span("fors.sample", post=scalar_post))

        # sampler: outer loop and planners
        def sampler_pre(args, kwargs, st):
            led = args[1].ledger
            return args, (led, led.outer_steps)

        def sampler_post(args, kwargs, result, st, rec, memo):
            led, steps = memo
            st.counts["sampler.outer_steps"] += led.outer_steps - steps

        def plan_post(args, kwargs, result, st, rec, memo):
            st.timers["sampler.plan_s"] += rec[END] - rec[START]

        function(sampler, "run_proximal_sampler",
                 span("sampler.run", sampler_pre, sampler_post))
        for name in ("plan_first_order", "plan_zeroth_order"):
            function(sampler, name, span("sampler.plan", post=plan_post))

        # verify: the statistical checks the jobs run
        def verify_post(args, kwargs, result, st, rec, memo):
            st.counts["verify.calls"] += 1

        for name in ("empirical_tv_1d", "ks_test", "chi2_discrete", "seeds_pass_rule"):
            function(verify, name, span("verify." + name, post=verify_post))
        function(fors, "wdraw_tail_check", span("verify.wdraw_tail_check", post=verify_post))

        # lowerbound: coupled two-arm runs and their stream construction
        def coupled_post(args, kwargs, result, st, rec, memo):
            st.counts["lowerbound.trials"] += int(_arg(args, kwargs, 3, "trials"))
            st.counts["lowerbound.clean_mismatches"] += int(result.clean_mismatches)

        function(lowerbound, "coupled_run", span("lowerbound.coupled_run", post=coupled_post))
        # only lowerbound's own binding: make_rng also runs in every other layer
        plan.append((lowerbound, "make_rng", lowerbound.make_rng,
                     self._light(lowerbound.make_rng, "lowerbound.rng")))

        # harness: the suites the workloads drive
        for name in ("run_sampler_e2e", "run_tilt_exactness"):
            function(harness, name, span("harness." + name))
        return plan

    # -- switching -------------------------------------------------------------

    def enable(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def disable(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def job_span(self, job: str):
        """A root span for one benchmark job; spans inside carry its id."""
        self.job = job
        st = self._state()
        rec = [f"bench.{job}", job, perf_counter(), 0.0, None, 0.0]
        st.stack.append(rec)
        try:
            yield
        finally:
            rec[END] = perf_counter()
            st.stack.pop()
            st.spans.append(rec)

    # -- results ---------------------------------------------------------------

    def collect(self) -> tuple[list, dict, dict]:
        """(spans, counts, timers) merged over threads."""
        spans: list = []
        counts: defaultdict = defaultdict(int)
        timers: defaultdict = defaultdict(float)
        with self._lock:
            for st in self._states:
                spans.extend(st.spans)
                for k, v in st.counts.items():
                    counts[k] += v
                for k, v in st.timers.items():
                    timers[k] += v
            for key, calls in self._calls.items():
                n = next(calls)  # reading advances the count; put it back
                self._calls[key] = itertools.count(n)
                counts[key + "_calls"] += n
        spans.sort(key=lambda r: r[START])
        return spans, dict(counts), dict(timers)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "forsample" or name.startswith("forsample."))]


def self_times(spans: list) -> list[float]:
    """Per-span self time: duration minus covered child intervals and EXCL."""
    children: dict[int, list] = defaultdict(list)
    for rec in spans:
        if rec[PARENT] is not None:
            children[id(rec[PARENT])].append((rec[START], rec[END]))
    out = []
    for rec in spans:
        lo, hi = rec[START], rec[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted(children.get(id(rec), ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(hi - lo - covered - rec[EXCL], 0.0))
    return out


def layer_table(spans: list, counts: dict, timers: dict) -> dict[str, float]:
    """The per-layer metrics of one traced job list, keyed by metric name."""
    selfs = self_times(spans)
    layer_self: defaultdict = defaultdict(float)
    for rec, s in zip(spans, selfs):
        layer_self[rec[NAME].split(".", 1)[0]] += s
    c = defaultdict(int, counts)
    t = defaultdict(float, timers)
    attempts = c["fors.attempts"]
    draws = c["oracles.noise_draws"]
    return {
        "oracles.calls": c["oracles.calls"],
        "oracles.queries": c["oracles.queries"],
        "oracles.noise_draws": draws,
        "oracles.self_s": layer_self["oracles"],
        "oracles.ns_per_draw": 1e9 * t["oracles.noise_s"] / draws if draws else 0.0,
        "core.validate_calls": c["core.validate_calls"],
        "core.validate_s": t["core.validate_s"],
        "prox.calls": c["prox.calls"],
        "prox.iters": c["prox.iters"],
        "prox.self_s": layer_self["prox"],
        "rgo.estimator_calls": c["rgo.estimator_calls"],
        "rgo.w_draws": c["rgo.w_draws"],
        "rgo.self_s": layer_self["rgo"],
        "fors.calls": c["fors.calls"],
        "fors.attempts": attempts,
        "fors.rounds": c["fors.rounds"],
        "fors.accept_ratio": c["fors.accepted"] / attempts if attempts else 0.0,
        "fors.draws_per_attempt": c["fors.w_draws"] / attempts if attempts else 0.0,
        "fors.self_s": layer_self["fors"],
        "sampler.outer_steps": c["sampler.outer_steps"],
        "sampler.plan_s": t["sampler.plan_s"],
        "sampler.self_s": layer_self["sampler"],
        "verify.calls": c["verify.calls"],
        "verify.self_s": layer_self["verify"],
        "lowerbound.trials": c["lowerbound.trials"],
        "lowerbound.self_s": layer_self["lowerbound"],
        "lowerbound.rng_s": t["lowerbound.rng_s"],
        "lowerbound.clean_mismatches": c["lowerbound.clean_mismatches"],
        "harness.self_s": layer_self["harness"],
    }


def span_rows(spans: list) -> list[list]:
    """Spans as plain rows: [id, name, job, start, end, parent id, self_s]."""
    index = {id(rec): i for i, rec in enumerate(spans)}
    selfs = self_times(spans)
    t0 = spans[0][START] if spans else 0.0
    return [[i, rec[NAME], rec[JOB], rec[START] - t0, rec[END] - t0,
             index.get(id(rec[PARENT])) if rec[PARENT] is not None else None, s]
            for i, (rec, s) in enumerate(zip(spans, selfs))]

