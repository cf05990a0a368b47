#!/usr/bin/env python3
"""Run every workload over several seeds and summarize each metric.

    python3 perfbench/suite.py [--seeds 0-9] [--workloads a,b] [--trace 0|1]
                               [--seconds S] [--out perfbench/out/suite.json]

Each (workload, seed) pair is one ``run.py`` process, run one after another.
For each end-to-end metric the summary gives the median over seeds, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread, which is
the interquartile distance as a share of the median (null when the median
is not positive).  For every end-to-end metric, the spread is checked
against the metric's bound in ``BENCHMARK.json`` (the exit code is 3 when
one is above it) and against a third of the bound (flagged when above).  It also gives
failed_frac, the failed checks over the checks attempted across all runs,
and the wall-clock time of each run.  This is the command that measured the
baseline in ``perfbench/BENCH_baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> tuple[float, float, float, float | None]:
    """(median, q1, q3, (q3 - q1) / median); the share is None unless median > 0."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med > 0 else None


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out", type=Path, default=HERE / "out" / "suite.json")
    args = ap.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace,
               "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["run_s"] = elapsed
            tag = f"{workload}-seed{seed}-full" + ("-trace" if args.trace else "")
            record = json.loads((HERE / "out" / f"{tag}.json").read_text())
            summary.setdefault("environment", record["environment"])
            runs.append(res)
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct {res['correct']}, "
                  + ", ".join(f"{k} {v['value']:.6g}" for k, v in res["metrics"].items()
                              if k in bounds or args.trace),
                  flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"runs": len(runs), "correct": all(r["correct"] for r in runs),
                 "failed_frac": failed / attempted, "attempted": attempted,
                 "run_s": [r["run_s"] for r in runs], "metrics": {}}
        ok &= entry["correct"]
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med, q1, q3, rel = spread(values) if len(values) > 1 else (values[0],) * 3 + (0.0,)
            item = {"unit": runs[0]["metrics"][metric]["unit"], "median": med,
                    "q1": q1, "q3": q3, "spread": rel, "values": values}
            if metric in bounds:
                item["bound"] = bounds[metric]
                item["within_bound"] = rel is not None and rel <= bounds[metric]
                item["steady"] = rel is not None and rel < bounds[metric] / 3.0
                ok &= item["within_bound"]
            entry["metrics"][metric] = item
        summary["workloads"][workload] = entry
        print(f"== {workload}: failed_frac {entry['failed_frac']:.4g} "
              f"({failed}/{attempted}), mean run {statistics.mean(entry['run_s']):.1f} s")
        for metric, item in entry["metrics"].items():
            flag = ("" if item.get("steady", True) else "  <-- spread above bound/3"
                    if item["within_bound"] else "  <-- SPREAD ABOVE BOUND")
            print(f"   {metric:20s} median {item['median']:.6g} {item['unit']}, "
                  f"q1 {item['q1']:.6g}, q3 {item['q3']:.6g}, "
                  f"spread {'-' if item['spread'] is None else format(item['spread'], '.4f')}"
                  f"{flag}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
