#!/usr/bin/env python3
"""Run one forsample benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs come from the seed.
Set-up is timed in several fresh processes.  The measurement runs in one
more fresh process (``worker.py``), which repeats the job list a fixed
number of times that fills about S seconds at the baseline's speed.  Times
are divided by the machine's speed, which the reference kernels of
``calibrate.py`` measure beside them: ``setup_s`` is the median normalized
set-up of the processes, ``wall_s`` the mean repetition over the mean speed
of the run.  Every job output is checked.  Human-readable lines come first.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones.  With ``--trace 1`` they are the per-layer ones
from the traced run.  A results file stamped with the machine and versions
goes to ``perfbench/out/``; the traced run adds a gzipped span dump there.

The process exits non-zero, without a result line, when the checkout has no
``src/forsample`` package or the measurement process fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROCESSES = 5          # fresh processes whose median normalized set-up is setup_s
                             # (the traced run reports no set-up time: one process)
DEADLINE_S = 170             # every child process is done or killed by then


def child_env() -> dict:
    """Environment for the measured processes: BLAS/OMP threads capped at nproc."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        try:
            current = int(env.get(var, nproc))
        except ValueError:
            current = nproc
        env[var] = str(max(1, min(current, nproc)))
    return env


def git_commit() -> str:
    """The checkout's commit, or "unknown" outside a git checkout."""
    # the ceiling keeps git from reporting a repository that encloses ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(env: dict, versions: dict) -> dict:
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "blas": versions.get("blas"),
        "threads": {k: env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def run_worker(extra: list, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py")] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    # workload names and metric units come from the benchmark's definition
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke is a seconds-long size for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    # on SIGTERM, unwind so subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "forsample" / "__init__.py").is_file():
        print(f"no src/forsample package under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size]
    tag = f"{args.workload}-seed{args.seed}-{args.size}" + ("-trace" if args.trace else "")
    spans_path = OUT / f"{tag}-spans.json.gz"
    try:
        probes = 0 if args.trace else SETUP_PROCESSES - 1
        probed = [run_worker(common + ["--setup-only"], env, deadline)
                  for _ in range(probes)]
        res = run_worker(common + ["--seconds", str(args.seconds),
                                   "--trace", str(args.trace),
                                   "--spans", str(spans_path)],
                         env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
            IndexError, KeyError) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1
    probed.append(res)
    setups = [p["setup_s"] for p in probed]
    setup_s = statistics.median(p["setup_s"] / p["setup_speed"] for p in probed)

    correct = res["failed"] == 0 and res["repeatable"]
    if args.trace:
        correct = correct and res["trace_consistent"] and res["counts_repeat"]
        metrics = {m["name"]: {"value": res["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        values = {"setup_s": setup_s, "wall_s": res["wall_s"],
                  "queries_per_sample": res["queries_per_sample"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    failed_frac = res["failed"] / res["attempted"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "environment": environment(env, res["versions"]),
        "correct": correct, "failed_frac": failed_frac,
        "metrics": metrics, "setup_samples_s": setups,
        "setup_speeds": [p["setup_speed"] for p in probed], "worker": res,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    walls = res["walls"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{res['reps']} repetitions of the job list, {res['attempted']} jobs checked")
    if not args.trace:
        print(f"  setup_s             {setup_s:.4f} s at reference speed (median of "
              f"{len(setups)} fresh processes; raw {min(setups):.4f}-{max(setups):.4f} s)")
        print(f"  wall_s              {res['wall_s']:.4f} s at reference speed (mean "
              f"of {len(walls)} repetitions; raw mean {res['wall_mean_s']:.4f} s, "
              f"machine {res['speed']:.3f}x slower than reference)")
    print(f"  queries_per_sample  {res['queries_per_sample']:.6g} queries/sample "
          f"({res['queries']} over {res['samples']})")
    print(f"  failed_frac         {failed_frac:.4g} ({res['failed']}/{res['attempted']})")
    print(f"  peak_rss_mb         {res['peak_rss_mb']:.1f} MB")
    for o in res["outcomes"]:
        print(f"  {'ok  ' if o['ok'] else 'FAIL'} {o['job']}: {o['detail']}")
    if args.trace:
        print(f"  tracing overhead    {res['per_layer']['trace.overhead_s']:+.4f} s; "
              f"consistent with ledgers: {res['trace_consistent']}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
