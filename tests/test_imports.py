"""scipy loads on first use, not when forsample is imported.

scipy serves only the statistical checks, the reference laws and the
noise-moment formulas; importing it costs about a second in a fresh
process.  Each test runs its script in a fresh interpreter, so that what
this test process already imported cannot hide a module-level import.
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
    for noise in (NoiseModel.exact(), NoiseModel.polymoment(k=2, sigma_2k=0.8)):
        plan_first_order(pot, noise, case, 0.1)
    before = scipy_modules()
    verify.ks_test([(i + 0.5) / 100 for i in range(100)], lambda t: t)
    print(json.dumps({"codes": codes, "before": before,
                      "stats_after": "scipy.stats" in sys.modules}))
"""


def test_import_validate_and_plan_load_no_scipy(tmp_path):
    out = _run(_NO_SCIPY_SCRIPT, tmp_path)
    assert out["codes"] == [0, 0]
    assert out["before"] == []
    assert out["stats_after"]


_THREADS_SCRIPT = """
    import json, sys
    from forsample.harness import ExperimentConfig, run_tilt_exactness

    cfg = ExperimentConfig(experiment="tilt_exactness", seeds=(0, 1), samples=2000)
    loaded = "scipy.stats" in sys.modules
    first = run_tilt_exactness(cfg).per_seed
    again = run_tilt_exactness(cfg).per_seed
    print(json.dumps({"loaded_before": loaded, "first": first, "again": again}))
"""


def test_first_scipy_import_inside_the_tilt_pool(tmp_path):
    # the first run imports scipy.stats from its 4-worker thread pool; the
    # second finds it loaded; KS values and ledgers must agree exactly
    out = _run(_THREADS_SCRIPT, tmp_path)
    assert not out["loaded_before"]
    assert len(out["first"]) == 8
    assert out["first"] == out["again"]
