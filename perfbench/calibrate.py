"""Fixed reference kernels that measure how fast the machine runs right now.

On a shared host other tenants slow the same code by up to 1.7 times, in
states that outlast a run.  The benchmark runs a reference kernel between
the jobs of a run and divides the jobs' times by the kernel's speed relative
to its reference time, so a run taken in a slow state reads like one taken
in a fast state.  The kernels import nothing from ``forsample``: a change to
the program under test cannot change them.

Different kinds of work slow down by different factors, so a kernel is made
of the parts that match a workload's own work (``workloads.KERNEL``):

- ``scalar``: interpreter-bound scalar Python;
- ``tiny``: many numpy calls on a (4, 1) array, where call overhead rules;
- ``wide``: numpy passes over 10^4-element arrays;
- ``draws``: bulk normal and Poisson draws.

A kernel is timed with the calling thread's CPU clock, so a thread the
program leaves running cannot make the machine look slower.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# thread CPU seconds of each part on a 2-vCPU "Intel(R) Xeon(R) Processor"
# host in its fast state; normalized times are in seconds at this speed
REF_S = {"scalar": 0.0085, "tiny": 0.0100, "wide": 0.0045, "draws": 0.0135}

SETUP_PARTS = ("scalar", "tiny", "wide", "draws")   # the kernel for set-up times

_SMALL = np.random.default_rng(1).standard_normal((4, 1))
_WIDE = np.random.default_rng(2).standard_normal(10_000)


def _scalar() -> float:
    s = 0.0
    for i in range(60_000):
        s += math.sqrt(i * 0.5 + 1.0) / (i % 7 + 1)
    return s


def _tiny() -> float:
    a = _SMALL
    for _ in range(1_800):
        b = np.asarray(a, dtype=float)
        if not np.all(np.isfinite(b)):
            break
        a = b + 1e-3 * np.linalg.norm(b)
    return float(a[0, 0])


def _wide() -> float:
    w = _WIDE
    for _ in range(60):
        w = np.sort(np.exp(-0.5 * w * w) + w)
    return float(w[0])


def _draws() -> float:
    rng = np.random.default_rng(3)
    total = 0.0
    for _ in range(5):
        total += float(rng.standard_normal(100_000)[0]) + float(rng.poisson(6.0, 20_000)[0])
    return total


_PARTS = {"scalar": _scalar, "tiny": _tiny, "wide": _wide, "draws": _draws}


def kernel(parts) -> float:
    """Run the named parts once; return their thread CPU seconds."""
    t0 = time.thread_time()
    check = sum(_PARTS[p]() for p in parts)
    elapsed = time.thread_time() - t0
    if not math.isfinite(check):
        raise FloatingPointError("reference kernel diverged")
    return elapsed


def sample(parts, count: int) -> list[float]:
    """Thread CPU seconds of ``count`` back-to-back kernels."""
    return [kernel(parts) for _ in range(count)]


def speed(parts, samples: list[float]) -> float:
    """How many times slower than the reference the machine ran the kernel
    on average; 1 for a kernel of no parts."""
    if not parts:
        return 1.0
    return statistics.mean(samples) / sum(REF_S[p] for p in parts)
