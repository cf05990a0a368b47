"""Per-layer microbench of the few-row hot path, one checkout against another.

    python tools/bench_few_rows.py --parent DIR [--rounds 6]
        [--pairs 10 --seeds 61-70] [--out BENCH_few_rows.json]

DIR is a checkout of the commit to compare with (``git archive`` or ``git
clone``).  Each side runs in fresh processes that import ``forsample`` from
its own ``src``, the two sides alternating, so that both meet the machine in
the same states.  The script writes one JSON file stamped with the machine
and the versions:

* ``per_call``: seconds per call of each row kernel at 4, 10^4 and 2^16 rows,
  each width timed in a fresh process, so that no width's timing depends on
  what an earlier width allocated; the median over the rounds of each
  process's fastest repeat: both oracles'
  ``draw_batch_rows`` under exact, subgaussian, subweibull (zeta = 1) and
  polymoment noise, ``core.as_rows``, one first-order ``draw_w_rows`` and one
  prox stage call (``approx_prox_rows_budgeted``) at caps 1 and 2;
* ``per_tick``: the sampler job of criterion 7's shape (1-D Gaussian from
  N(10, 1), subexponential noise, delta 0.2, 4 chains, seed 41): its ticks,
  oracle calls and ``forsample`` frames per tick;
* ``pairs`` (with ``--pairs``): that many alternating runs of
  ``perfbench/run.py --seconds 12`` per workload of ``BENCHMARK.json``, at
  the given seeds, run as subprocesses from each checkout.

It imports only ``forsample`` (in the subprocesses) and numpy; no test runs it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WIDTHS = (4, 10 ** 4, 2 ** 16)
FAMILIES = ("exact", "subgaussian", "subweibull", "polymoment")


# ---------------------------------------------------------------------------
# workers: run inside one checkout
# ---------------------------------------------------------------------------

def _best(call, budget_s: float = 0.02, repeat: int = 5) -> float:
    """Fastest of ``repeat`` timings of ``call``, in seconds per call."""
    call()
    t0 = time.perf_counter()
    call()
    number = max(1, int(budget_s / max(time.perf_counter() - t0, 1e-7)))
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, (time.perf_counter() - t0) / number)
    return best


def _noise(family: str):
    from forsample.oracles import NoiseModel
    return {"exact": NoiseModel.exact(), "subgaussian": NoiseModel.subgaussian(0.5),
            "subweibull": NoiseModel.subweibull(zeta=1.0, sigma_g=0.5),
            "polymoment": NoiseModel.polymoment(k=1, sigma_2k=0.5)}[family]


def worker_calls(width: int) -> dict:
    """Seconds per call of each row kernel at ``width`` rows."""
    import numpy as np
    from forsample.core import as_rows, make_gaussian_potential
    from forsample.oracles import GradientOracle, ValueOracle, make_rng
    from forsample.prox import ProxConfig, approx_prox_rows_budgeted
    from forsample.rgo import tilt_source

    pot = make_gaussian_potential([0.0])
    xs = make_rng(1, width).standard_normal((width, 1))
    slots = np.arange(width)
    out: dict = {}
    for family in FAMILIES:
        for cls in (GradientOracle, ValueOracle):
            oracle = cls(pot, _noise(family), make_rng(2, width))
            out[f"{cls.__name__}.draw_batch_rows/{family}"] = _best(
                lambda o=oracle: o.draw_batch_rows(xs, 1))
    out["core.as_rows"] = _best(lambda: as_rows(xs, 1))
    oracle = GradientOracle(pot, _noise("subweibull"), make_rng(3, width))
    source = tilt_source(oracle, xs + 0.1, xs.copy(), 0.05, 1.0, 1)
    rng = make_rng(4, width)
    out["rgo.draw_w_rows/first_order"] = _best(lambda: source.draw_w_rows(slots, xs, rng))
    for cap in (1, 2):
        cfg = ProxConfig(eta=0.05, n_batch=1, k_iters=cap)
        out[f"prox.stage/cap{cap}"] = _best(
            lambda cfg=cfg: approx_prox_rows_budgeted(pot, oracle, xs, cfg, 0.5))
    return out


def worker_counts(seed: int = 41) -> dict:
    """Ticks, oracle calls and forsample frames of the criterion-7 light job."""
    from dataclasses import replace

    import numpy as np
    from forsample import fors, harness, oracles, sampler
    from forsample.core import AssumptionCase, make_gaussian_potential

    pot = make_gaussian_potential([0.0])
    warm = harness.SCALING_WARM_START
    case = AssumptionCase("LSI", constant=1.0, warm_start_delta=warm ** 2)
    noise = harness.SCALING_FAMILIES["subexponential"]
    sched = sampler.plan_first_order(pot, noise, case, 0.2)
    sched = replace(sched, n_steps=min(1_000, sched.n_steps))
    mu0 = sampler.gaussian_initializer(np.array([warm]), 1.0)
    package = str(Path(fors.__file__).parent)
    counts = {"ticks": 0, "oracle_calls": 0, "frames": 0}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(package):
                counts["frames"] += 1
                if code.co_name == "tick":
                    counts["ticks"] += 1
                elif code.co_name == "draw_batch_rows":
                    counts["oracle_calls"] += 1

    oracle = oracles.GradientOracle(pot, noise, oracles.make_rng(seed, 6, 0))
    sys.setprofile(profile)
    try:
        _, ledger = sampler.run_proximal_sampler(pot, oracle, sched, mu0, 4,
                                                 oracles.make_rng(seed, 6, 0, 1))
    finally:
        sys.setprofile(None)
    counts["frames_per_tick"] = counts["frames"] / counts["ticks"]
    counts["oracle_calls_per_tick"] = counts["oracle_calls"] / counts["ticks"]
    counts["grad_queries"] = ledger.grad_queries
    return counts


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _run_worker(root: Path, kind: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, __file__, "--worker", kind, *args], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _calls(root: Path) -> dict:
    """Seconds per call, by kernel and width, one fresh worker per width."""
    out: dict = {}
    for width in WIDTHS:
        for name, seconds in _run_worker(root, "calls", "--width", str(width)).items():
            out.setdefault(name, {})[str(width)] = seconds
    return out


def _alternate(roots: dict, rounds: int, run) -> dict:
    """``run(side, root)`` for each side, ``rounds`` times, the order flipping."""
    got: dict = {side: [] for side in roots}
    order = list(roots)
    for i in range(rounds):
        for side in (order if i % 2 == 0 else order[::-1]):
            got[side].append(run(side, roots[side]))
    return got


def _quartiles(values: list) -> tuple[float, float, float]:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], statistics.median(values), q[2]


def per_call(roots: dict, rounds: int) -> dict:
    got = _alternate(roots, rounds, lambda side, root: _calls(root))
    table: dict = {}
    for name in got["change"][0]:
        for width in got["change"][0][name]:
            row = {}
            for side in roots:
                runs = [r[name][width] for r in got[side]]
                lo, mid, hi = _quartiles(runs)
                row[f"{side}_us"] = round(mid * 1e6, 3)
                row[f"{side}_iqr_us"] = round((hi - lo) * 1e6, 3)
                row[f"{side}_runs_us"] = [round(t * 1e6, 3) for t in runs]
            row["change_pct"] = round(100 * (row["change_us"] / row["parent_us"] - 1), 1)
            table.setdefault(name, {})[width] = row
    return table


def _perfbench(root: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "12", "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    line = json.loads(out.splitlines()[-1])
    return {"correct": line["correct"], "failed": line["failed"],
            **{k: v["value"] for k, v in line["metrics"].items()}}


def pairs(roots: dict, seeds: list[int]) -> dict:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    result: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs: dict = {side: [] for side in roots}
        order = list(roots)
        for i, seed in enumerate(seeds):
            for side in (order if i % 2 == 0 else order[::-1]):
                runs[side].append(_perfbench(roots[side], workload, seed))
        entry: dict = {"seeds": seeds,
                       "all_correct": all(r["correct"] for s in runs.values() for r in s)}
        for metric in (m["name"] for m in spec["end_to_end"]):
            p = [r[metric] for r in runs["parent"]]
            c = [r[metric] for r in runs["change"]]
            lo, mid, hi = _quartiles(p)
            entry[metric] = {
                "parent_runs": p, "change_runs": c, "parent_median": mid,
                "change_median": statistics.median(c), "parent_iqr": hi - lo,
                "change_pct": round(100 * (statistics.median(c) / mid - 1), 1),
                "change_lower_pairs": sum(b < a for a, b in zip(p, c)),
                "equal_pairs": sum(b == a for a, b in zip(p, c))}
        result[workload] = entry
    return result


def _machine() -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in
                   Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


def _commit(root: Path) -> str | None:
    out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--worker", choices=("calls", "counts"), help=argparse.SUPPRESS)
    ap.add_argument("--width", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--parent", type=Path, help="checkout of the commit to compare with")
    ap.add_argument("--rounds", type=int, default=6, help="alternating processes per side")
    ap.add_argument("--pairs", type=int, default=0, help="perfbench pairs per workload")
    ap.add_argument("--seeds", default="61-70", help="perfbench seeds, A-B")
    ap.add_argument("--out", type=Path, default=REPO / "BENCH_few_rows.json")
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker_calls(args.width) if args.worker == "calls"
                         else worker_counts()))
        return
    if args.parent is None:
        ap.error("--parent is required")
    roots = {"parent": args.parent.resolve(), "change": REPO}
    report = {"machine": _machine(),
              "commits": {side: _commit(root) for side, root in roots.items()},
              "per_call": per_call(roots, args.rounds),
              "per_tick": {side: _run_worker(root, "counts") for side, root in roots.items()}}
    if args.pairs:
        report["pairs"] = pairs(roots, _seeds(args.seeds)[:args.pairs])
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
