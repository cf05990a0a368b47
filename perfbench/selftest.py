#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size (a minute or two on two cores).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit in
both modes, that queries_per_sample and every per-layer count repeat exactly
across runs at one seed and between the traced and untraced runs, that a
deliberately broken estimator raises failed_frac above zero, that the
reference kernels load no program code, and that the benchmark refuses to
run without the package sources.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 7


@functools.lru_cache(maxsize=None)
def smoke_run(workload: str, trace: int, attempt: int = 0) -> tuple[dict, dict]:
    """(final JSON line, results file) of one smoke-size run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed{SEED}-smoke" + ("-trace" if trace else "")
    record = json.loads((HERE / "out" / f"{tag}.json").read_text())
    return result, record


def test_every_metric_emitted_with_its_unit():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in BENCH[section]}
        for workload in WORKLOADS:
            result, _ = smoke_run(workload, trace, 0)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace)
            for name, item in result["metrics"].items():
                assert isinstance(item["value"], (int, float)), name
            if trace == 0:
                assert all(result["metrics"][m]["value"] > 0 for m in want), workload


def test_counts_repeat_exactly():
    for workload in WORKLOADS:
        untraced = smoke_run(workload, 0, 0)[1]["worker"]
        first, first_record = smoke_run(workload, 1, 0)
        second, second_record = smoke_run(workload, 1, 1)
        counts = [name for name, item in first["metrics"].items()
                  if item["unit"] == "count"]
        for name in counts:
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], \
                (workload, name)
        for record in (first_record, second_record):
            assert record["worker"]["queries"] == untraced["queries"], workload
            assert record["worker"]["samples"] == untraced["samples"], workload
            assert record["worker"]["trace_consistent"], record["worker"]["trace_mismatches"]


def test_broken_estimator_raises_failed_frac():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from forsample import rgo

    original = rgo._FirstOrderRows.draw_w_rows

    def halved(self, slots, xs, rng):
        # a biased estimator: half of every draw, so the tilt law is wrong
        return 0.5 * original(self, slots, xs, rng)

    rgo._FirstOrderRows.draw_w_rows = halved
    try:
        outcomes = workloads.run_jobs(workloads.setup("tilt_iid", SEED, "smoke"))
    finally:
        rgo._FirstOrderRows.draw_w_rows = original
    failed = [o.job for o in outcomes if not o.ok]
    assert len(failed) / len(outcomes) > 0
    assert set(failed) == {"tilt_first_exact", "tilt_first_subgaussian"}, failed


def test_reference_kernels_stand_alone():
    # the kernels that normalize times must not load or run program code
    code = ("import sys, calibrate\n"
            "assert not any(m.startswith('forsample') for m in sys.modules)\n"
            "import workloads\n"
            "for parts in set(workloads.KERNEL.values()) | {calibrate.SETUP_PARTS}:\n"
            "    assert calibrate.speed(parts, calibrate.sample(parts, 1)) > 0\n"
            "assert calibrate.speed((), []) == 1.0\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, timeout=180,
                          env=dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}:{HERE}"))
    assert proc.returncode == 0, proc.stderr


def test_refuses_to_run_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
