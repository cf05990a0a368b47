"""One benchmark measurement in a fresh process; ``run.py`` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--size full|smoke] [--setup-only] [--spans PATH]

Setup is timed from the start of ``import forsample`` to the start of the
first job.  Then ``calibrate.py``'s set-up kernel runs SETUP_KERNELS times,
which gives the machine's speed at set-up.  The job list then runs a fixed
number of times, ``workloads.repetitions(workload, seconds)``: the count
depends on ``--seconds`` and the workload, never on how fast this code runs,
so two commits are compared over the same number of samples.  Every
repetition uses the same inputs, so its outputs and counts must match the
first repetition exactly.  An untimed warm-up repetition runs first.  A
repetition's time is the sum of its jobs' times.  Before each job and after
the last job of a repetition the workload's kernel (``workloads.KERNEL``)
runs SLOT_KERNELS times, outside those times.  ``wall_s`` is the mean
repetition divided by the machine's mean speed over all of the run's
kernels; the raw times are kept too.  A workload without a kernel reports
its mean raw repetition.  Means, not medians: the machine flips between its
states within a second, and a job pays for the share of time spent in each.
With ``--trace 1`` a fixed number of untraced and traced repetitions
alternate, without the kernel.  The traced ones give the per-layer table,
and the difference of the fastest traced and untraced repetitions is the
tracing overhead.  The result is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SETUP_KERNELS = 6   # reference kernels run right after set-up
SLOT_KERNELS = 3    # reference kernels run before each job and after a repetition

# ledger field -> tracer count that must agree with it
LEDGER_VS_TRACE = {
    "queries": "oracles.queries",
    "fors_attempts": "fors.attempts",
    "w_draws": "fors.w_draws",
    "prox_iters": "prox.iters",
    "outer_steps": "sampler.outer_steps",
}


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _ledger_totals(outcomes) -> dict:
    tot = dict.fromkeys(LEDGER_VS_TRACE, 0)
    for o in outcomes:
        led = o.ledger
        tot["queries"] += led.get("grad_queries", 0) + led.get("value_queries", 0)
        for key in ("fors_attempts", "w_draws", "prox_iters", "outer_steps"):
            tot[key] += led.get(key, 0)
    return tot


def _rep(workloads, jobs, on_job=None, parts=()) -> dict:
    """Run the job list once.  ``wall`` is the sum of the jobs' times;
    ``kernels`` are the times of the reference kernel made of ``parts``,
    run around every job."""
    import calibrate  # not at the top: it loads numpy, which set-up must time
    walls, kernels = [], []

    @contextlib.contextmanager
    def timed(name):
        if parts:
            kernels.extend(calibrate.sample(parts, SLOT_KERNELS))
        with on_job(name) if on_job is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                yield
            finally:
                walls.append(time.perf_counter() - t0)

    c0 = _cpu()
    outcomes = workloads.run_jobs(jobs, timed)
    if parts:
        kernels.extend(calibrate.sample(parts, SLOT_KERNELS))
    return {"wall": sum(walls), "cpu": _cpu() - c0 - sum(kernels),
            "kernels": kernels, "outcomes": outcomes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import forsample  # noqa: F401  (timed: setup starts here)
    import workloads
    if not Path(forsample.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"forsample was imported from {forsample.__file__}, "
              f"not from this checkout", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.enable()
    jobs = workloads.setup(args.workload, args.seed, args.size)
    setup_s = time.perf_counter() - t0
    import calibrate
    setup_kernels = calibrate.sample(calibrate.SETUP_PARTS, SETUP_KERNELS)
    result = {"setup_s": setup_s,
              "setup_speed": calibrate.speed(calibrate.SETUP_PARTS, setup_kernels)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    count = workloads.repetitions(args.workload, args.seconds)
    parts = workloads.KERNEL[args.workload]
    if tracer is not None:
        tracer.disable()
        setup_spans, _, setup_timers = tracer.collect()
        tracer.reset()
    # untimed warm-up: lazy imports, caches, the allocator's first growth and
    # the harness's thread pool; its outputs are checked like the others
    warm = _rep(workloads, jobs)
    if tracer is None:
        reps = [_rep(workloads, jobs, parts=parts) for _ in range(count)]
    else:
        reps, traced, tables = [], [], []
        # pairs of untraced and traced repetitions, as many pairs as fit the
        # count of single repetitions
        for _ in range(max(count // 2, 1)):
            reps.append(_rep(workloads, jobs))
            tracer.enable()
            try:
                traced.append(_rep(workloads, jobs, tracer.job_span))
            finally:
                tracer.disable()
            spans, counts, timers = tracer.collect()
            timers["sampler.plan_s"] = (timers.get("sampler.plan_s", 0.0)
                                        + setup_timers.get("sampler.plan_s", 0.0))
            table = tracing.layer_table(spans, counts, timers)
            table["harness.cpu_s"] = traced[-1]["cpu"]
            tables.append((table, counts))
            if len(traced) == 1:
                first_spans = setup_spans + spans  # kept in memory until the end
            tracer.reset()
        result.update(_trace_summary(reps, traced, tables))
        if args.spans is not None:
            _write_spans(args.spans, first_spans, tables[0][0], tables[0][1])

    first = reps[0]["outcomes"]
    walls = [r["wall"] for r in reps]
    fingerprints = [[o.fingerprint() for o in r["outcomes"]] for r in [warm] + reps]
    all_outcomes = [o for r in [warm] + reps for o in r["outcomes"]]
    queries = sum(o.queries for o in first)
    samples = sum(o.samples for o in first)
    import numpy
    import scipy
    if tracer is None:
        kernels = [k for r in reps for k in r["kernels"]]
        speed = calibrate.speed(parts, kernels)
        result.update({"wall_s": statistics.mean(walls) / speed, "speed": speed,
                       "kernels": kernels})
    result.update({
        "reps": len(reps),
        "walls": walls,
        "wall_min_s": min(walls),
        "wall_mean_s": statistics.mean(walls),
        "cpu_s": statistics.median(r["cpu"] for r in reps),
        "queries": queries,
        "samples": samples,
        "queries_per_sample": queries / samples if samples else 0.0,
        "attempted": len(all_outcomes),
        "failed": sum(not o.ok for o in all_outcomes),
        "repeatable": all(f == fingerprints[0] for f in fingerprints),
        "outcomes": [vars(o) for o in first],
        "ledger_totals": _ledger_totals(first),
        "peak_rss_mb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                           resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "blas": _blas(numpy)},
    })
    if tracer is not None:
        mismatched = {k: (result["ledger_totals"][k], result["counts"].get(v, 0))
                      for k, v in LEDGER_VS_TRACE.items()
                      if result["ledger_totals"][k] != result["counts"].get(v, 0)}
        traced_fp = [[o.fingerprint() for o in r["outcomes"]] for r in traced]
        result["trace_consistent"] = (not mismatched and
                                      all(f == fingerprints[0] for f in traced_fp))
        result["trace_mismatches"] = mismatched
    print(json.dumps(result))
    return 0


def _blas(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _trace_summary(reps, traced, tables) -> dict:
    counts = tables[0][1]
    per_layer = {}
    for key, value in tables[0][0].items():
        if isinstance(value, float):  # times and ratios: median over traced reps
            per_layer[key] = statistics.median(t[key] for t, _ in tables)
        else:
            per_layer[key] = value
    per_layer["trace.overhead_s"] = (min(r["wall"] for r in traced)
                                     - min(r["wall"] for r in reps))
    return {
        "per_layer": per_layer,
        "counts": counts,
        "counts_repeat": all(c == counts for _, c in tables),
        "traced_walls": [r["wall"] for r in traced],
    }


def _write_spans(path: Path, spans, table, counts) -> None:
    import tracing
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"columns": ["id", "name", "job", "start_s", "end_s", "parent", "self_s"],
               "spans": tracing.span_rows(spans), "table": table, "counts": counts}
    with gzip.open(path, "wt") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
