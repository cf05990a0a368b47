"""scipy loads on first use, not when forsample is imported, and then only
``scipy.special``.

scipy serves only the statistical checks, the reference laws and the
subgaussian noise moments; importing it costs about a second in a fresh
process, and ``scipy.stats`` or ``scipy.optimize`` would add 46 and 23 MB of
resident memory to the 18 MB of ``scipy.special``.  Each test runs its
script in a fresh interpreter, so that what this test process already
imported cannot hide a module-level import.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(script: str, tmp_path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_NO_SCIPY_SCRIPT = """
    import contextlib, io, json, sys

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    import forsample, forsample.harness, forsample.cli
    from forsample import cli, verify
    from forsample.core import AssumptionCase, make_gaussian_potential
    from forsample.oracles import NoiseModel
    from forsample.sampler import plan_first_order

    with open("config.yaml", "w") as fh:
        fh.write("experiment: fors_unit\\nseeds: [1, 2]\\n")
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(["validate", "--config", "config.yaml"]),
                 cli.main(["list-noise"])]
    pot = make_gaussian_potential([0.0])
    case = AssumptionCase("LSI", constant=1.0, warm_start_delta=1.0)
    for noise in (NoiseModel.exact(), NoiseModel.polymoment(k=2, sigma_2k=0.8),
                  NoiseModel.subweibull(zeta=1.0, sigma_g=0.2)):
        plan_first_order(pot, noise, case, 0.1)
    for zeta in (0.5, 1.0, 2.0):
        NoiseModel.subweibull(zeta=zeta, sigma_g=0.2).m1(3)
        NoiseModel.subweibull(zeta=zeta, sigma_g=0.2).second_moment()
    before = scipy_modules()
    verify.ks_test([(i + 0.5) / 100 for i in range(100)], lambda t: t)
    print(json.dumps({"codes": codes, "before": before,
                      "special_after": "scipy.special" in sys.modules,
                      "stats_after": "scipy.stats" in sys.modules}))
"""


def test_import_validate_and_plan_load_no_scipy(tmp_path):
    out = _run(_NO_SCIPY_SCRIPT, tmp_path)
    assert out["codes"] == [0, 0]
    assert out["before"] == []
    # the KS test loads scipy.special and nothing of scipy.stats
    assert out["special_after"]
    assert not out["stats_after"]


_THREADS_SCRIPT = """
    import json, sys, threading

    class FirstImport:
        # records the thread that first looks for scipy.special
        thread = None

        def find_spec(self, name, path=None, target=None):
            if name == "scipy.special" and FirstImport.thread is None:
                FirstImport.thread = threading.current_thread().name
            return None

    sys.meta_path.insert(0, FirstImport())
    from forsample.harness import ExperimentConfig, run_tilt_exactness

    cfg = ExperimentConfig(experiment="tilt_exactness", seeds=(0, 1), samples=2000)
    loaded = "scipy.special" in sys.modules
    first = run_tilt_exactness(cfg).per_seed
    again = run_tilt_exactness(cfg).per_seed
    print(json.dumps({"loaded_before": loaded, "thread": FirstImport.thread,
                      "main": threading.main_thread().name,
                      "first": first, "again": again}))
"""


def test_first_scipy_import_inside_the_tilt_pool(tmp_path):
    # the first run imports scipy.special from its 4-worker thread pool; the
    # second finds it loaded; KS values and ledgers must agree exactly
    out = _run(_THREADS_SCRIPT, tmp_path)
    assert not out["loaded_before"]
    assert out["thread"] not in (None, out["main"])
    assert len(out["first"]) == 8
    assert out["first"] == out["again"]


_SUITES_SCRIPT = """
    import json, sys
    from forsample.harness import SUITES, ExperimentConfig, run_experiment

    small = {
        "fors_unit": {"seeds": (0,), "samples": 2000},
        "tilt_exactness": {"seeds": (0,), "samples": 2000},
        "prox_check": {"seeds": (0,), "trials": 300},
        "sampler_e2e": {"seeds": (0,), "chains": 200, "delta": 0.2},
        "delta_scaling": {"delta_grid": (0.4, 0.3, 0.2, 0.1), "chains": 1,
                          "constants": {"c_n": 0.05}},
        "lower_bound": {"trials": 500},
    }
    for name, kw in small.items():
        run_experiment(ExperimentConfig(experiment=name, **kw))
    print(json.dumps({"suites": sorted(SUITES), "ran": sorted(small),
                      "loaded": sorted(m for m in ("scipy.special", "scipy.stats",
                                                   "scipy.optimize")
                                       if m in sys.modules)}))
"""


def test_every_suite_runs_on_scipy_special_alone(tmp_path):
    out = _run(_SUITES_SCRIPT, tmp_path)
    assert out["ran"] == out["suites"]
    assert out["loaded"] == ["scipy.special"]
