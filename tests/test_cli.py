"""Config validation and the command-line entry point."""

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from forsample.cli import main, validate_config
from forsample.constants import DEFAULT_CONSTANTS
from forsample.core import AssumptionCase, potential_from_config
from forsample.errors import ConfigError
from forsample.harness import SUITES, ExperimentConfig, ExperimentReport
from forsample.oracles import NoiseModel


# ---------------------------------------------------------------------------
# validate_config
# ---------------------------------------------------------------------------

def test_minimal_config_gets_defaults():
    cfg = validate_config({"experiment": "sampler_e2e"})
    assert cfg.experiment == "sampler_e2e"
    assert cfg.potential == {"name": "gaussian",
                             "params": {"mean": [0.0], "precision": 1.0}}
    assert cfg.noise == {"family": "subgaussian", "sigma_g": 0.5}
    assert cfg.case == {"tag": "LSI", "constant": 1.0, "warm_start_delta": 1.0}
    assert cfg.mode == "first_order"
    assert cfg.delta == 0.05
    assert cfg.seeds == tuple(range(20))
    assert cfg.chains == 10_000
    assert cfg.constants is DEFAULT_CONSTANTS
    assert cfg.output_dir is None
    # a field the suite does not read stays unset
    cfg = validate_config({"experiment": "fors_unit"})
    assert (cfg.samples, cfg.chains, cfg.potential, cfg.constants) == (
        100_000, None, None, None)


def test_unknown_potential_name():
    with pytest.raises(ConfigError) as exc:
        validate_config({"experiment": "fors_unit",
                         "potential": {"name": "banana"}})
    assert any(e.startswith("potential.name: unknown potential 'banana'")
               for e in exc.value.errors)


def test_delta_out_of_range():
    with pytest.raises(ConfigError) as exc:
        validate_config({"experiment": "sampler_e2e", "delta": 1.5})
    assert "delta: must be in (0, 1), got 1.5" in exc.value.errors


def test_errors_are_aggregated_not_first_only():
    raw = {
        "experiment": "nope",
        "mode": "sideways",
        "delta": -0.2,
        "seeds": [],
        "chains": 0,
        "bogus_key": 1,
    }
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    joined = "\n".join(exc.value.errors)
    assert len(exc.value.errors) >= 5
    assert "experiment: expected one of" in joined
    assert "mode: expected one of" in joined
    assert "delta: must be in (0, 1), got -0.2" in exc.value.errors
    assert "seeds: expected a nonempty list" in joined
    assert "chains: expected an integer >= 1" in joined
    assert "config: unrecognized keys ['bogus_key']" in joined


def test_unrecognized_keys_listed_sorted():
    with pytest.raises(ConfigError) as exc:
        validate_config({"experiment": "fors_unit", "zz": 1, "aa": 2})
    assert "config: unrecognized keys ['aa', 'zz']" in exc.value.errors


def test_seed_entries_validated():
    with pytest.raises(ConfigError) as exc:
        validate_config({"experiment": "fors_unit", "seeds": [0, -1, "x"]})
    joined = "\n".join(exc.value.errors)
    assert "seeds[1]: expected an integer >= 0" in joined
    assert "seeds[2]: expected an integer >= 0" in joined


def test_constants_override_merges_and_keeps_types():
    cfg = validate_config({"experiment": "sampler_e2e",
                           "constants": {"c_n": 3, "m_grid_points": 7}})
    merged = cfg.constants.as_dict()
    assert merged["c_n"] == 3.0
    assert merged["m_grid_points"] == 7
    assert isinstance(merged["m_grid_points"], int)
    # untouched names keep their defaults
    assert merged["b_first"] == DEFAULT_CONSTANTS.b_first


def test_keys_a_suite_does_not_read_are_rejected():
    with pytest.raises(ConfigError) as exc:
        validate_config({"experiment": "fors_unit", "chains": 5,
                         "mode": "first_order", "seeds": [0]})
    assert exc.value.errors == ["mode: fors_unit does not read this field",
                                "chains: fors_unit does not read this field"]
    cfg = validate_config({"experiment": "delta_scaling", "chains": 8})
    assert (cfg.chains, cfg.seeds) == (8, (0,))


def test_one_seed_suite_rejects_a_seed_list():
    with pytest.raises(ConfigError) as exc:
        validate_config({"experiment": "lower_bound", "seeds": [0, 1]})
    assert exc.value.errors == ["seeds: lower_bound runs one seed, got [0, 1]"]


def test_unknown_constant_rejected():
    with pytest.raises(ConfigError) as exc:
        validate_config({"experiment": "fors_unit",
                         "constants": {"c_quantum": 2.0}})
    assert "constants: unexpected key 'c_quantum'" in exc.value.errors


def test_c_step_is_not_a_constant():
    # no planner reads a tilt step multiplier, so a config may not set one
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(experiment="sampler_e2e", constants={"c_step": 1.0})
    assert "constants: unexpected key 'c_step'" in exc.value.errors


def test_noise_field_errors():
    with pytest.raises(ConfigError) as exc:
        validate_config({"experiment": "sampler_e2e",
                         "noise": {"family": "subgaussian"}})
    assert "noise.sigma_g: must be positive, got 0.0" in exc.value.errors

    with pytest.raises(ConfigError) as exc:
        validate_config({"experiment": "sampler_e2e",
                         "noise": {"family": "twopoint", "p": 1.2,
                                   "m_shift": 0.5}})
    assert "noise.p: must be in (0, 1), got 1.2" in exc.value.errors

    with pytest.raises(ConfigError) as exc:
        validate_config({"experiment": "sampler_e2e",
                         "noise": {"family": "cauchy"}})
    assert any(e.startswith("noise.family: unknown family 'cauchy'")
               for e in exc.value.errors)


def test_twopoint_p_one_is_rejected():
    # p = 1 is noise identically 0, the exact family; it used to validate
    # and then fail the run with no field path
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(experiment="sampler_e2e",
                         noise={"family": "twopoint", "p": 1.0, "m_shift": 1.0})
    assert exc.value.errors == ["noise.p: must be in (0, 1), got 1.0"]


# per family: the fields it reads, and one field it does not read
_FOREIGN_NOISE_FIELD = {
    "exact": ({}, "sigma_g", 7.0),
    "subgaussian": ({"sigma_g": 0.5}, "zeta", 1.0),
    "subweibull": ({"sigma_g": 0.5, "zeta": 1.0}, "k", 2),
    "polymoment": ({"k": 2, "sigma_2k": 0.8}, "sigma_g", 0.5),
    "twopoint": ({"p": 0.2, "m_shift": 1.5}, "sigma_2k", 0.8),
}


@pytest.mark.parametrize("family", sorted(_FOREIGN_NOISE_FIELD))
def test_noise_rejects_a_field_its_family_does_not_read(family):
    read, field, value = _FOREIGN_NOISE_FIELD[family]
    noise = {"family": family, **read}
    ExperimentConfig(experiment="sampler_e2e", noise=noise)
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(experiment="sampler_e2e", noise={**noise, field: value})
    assert exc.value.errors == [f"noise.{field}: {family} noise does not read this field"]


def test_lc_case_requires_w2_bound():
    with pytest.raises(ConfigError) as exc:
        validate_config({"experiment": "sampler_e2e", "case": {"tag": "LC"}})
    assert "case.w2_bound: must be positive for the LC case, got None" in exc.value.errors
    cfg = validate_config({"experiment": "sampler_e2e",
                           "case": {"tag": "LC", "w2_bound": 2.0}})
    assert cfg.case == {"tag": "LC", "constant": 1.0, "warm_start_delta": 1.0,
                        "w2_bound": 2.0}


_REJECTED = [
    ({"experiment": "sampler_e2e", "case": {"tag": "LSI", "constnat": 5.0}},
     "case: unexpected key 'constnat'"),
    ({"experiment": "sampler_e2e",
      "noise": {"family": "subgaussian", "sigma_g": 0.5, "sigma": 3}},
     "noise: unexpected key 'sigma'"),
    ({"experiment": "sampler_e2e",
      "potential": {"name": "gaussian", "params": {"meen": [1.0]}}},
     "potential.params: unexpected key 'meen'"),
    ({"experiment": "sampler_e2e",
      "potential": {"name": "gaussian", "params": {"mean": [1.0], "precision": -1}}},
     "potential.params.precision: must be positive, got -1.0"),
    ({"experiment": "sampler_e2e", "potential": {"name": "huber", "params": {"dim": 1.5}}},
     "potential.params.dim: expected an integer, got 1.5"),
    ({"experiment": "sampler_e2e", "noise": {"family": "subgaussian", "sigma_g": None}},
     "noise.sigma_g: expected a number, got None"),
    ({"experiment": "sampler_e2e", "case": {"tag": "PI", "constant": "2"}},
     "case.constant: expected a number, got '2'"),
    ({"experiment": "sampler_e2e", "constants": {"c_n": True}},
     "constants.c_n: expected a number, got True"),
    ({"experiment": "delta_scaling", "delta_grid": [0.2, 0.1, 0.05, 1.5]},
     "delta_grid[3]: must be in (0, 1), got 1.5"),
    # these three used to validate and then fail the run with no field path
    ({"experiment": "delta_scaling", "delta_grid": [0.1, 0.1, 0.1, 0.1]},
     "delta_grid: expected at least 2 distinct accuracies, got [0.1, 0.1, 0.1, 0.1]"),
    ({"experiment": "sampler_e2e", "constants": {"b_first": 20}},
     "constants.b_first: must be <= 15, got 20.0"),
    ({"experiment": "sampler_e2e", "mode": "zeroth_order", "constants": {"b_zeroth": 16}},
     "constants.b_zeroth: must be <= 15, got 16.0"),
    ({"experiment": "fors_unit", "chains": 5}, "chains: fors_unit does not read this field"),
    ({"experiment": "fors_unit", "chains": 0}, "chains: expected an integer >= 1, got 0"),
    ({"experiment": "fors_unit", "seeds": (-1,)}, "seeds[0]: expected an integer >= 0, got -1"),
    # a float leaf must be finite; these validated, then failed the run with
    # no field path, or raised OverflowError out of the config itself
    ({"experiment": "sampler_e2e", "case": {"tag": "LSI", "warm_start_delta": math.nan}},
     "case.warm_start_delta: expected a finite number, got nan"),
    ({"experiment": "sampler_e2e", "case": {"tag": "LC", "w2_bound": math.inf}},
     "case.w2_bound: expected a finite number, got inf"),
    ({"experiment": "sampler_e2e", "noise": {"family": "polymoment", "sigma_2k": math.inf}},
     "noise.sigma_2k: expected a finite number, got inf"),
    ({"experiment": "sampler_e2e",
      "noise": {"family": "twopoint", "p": 0.5, "m_shift": math.inf}},
     "noise.m_shift: expected a finite number, got inf"),
    ({"experiment": "sampler_e2e",
      "noise": {"family": "subweibull", "zeta": math.inf, "sigma_g": 0.5}},
     "noise.zeta: expected a finite number, got inf"),
    ({"experiment": "sampler_e2e", "constants": {"m_grid_ratio": math.inf}},
     "constants.m_grid_ratio: expected a finite number, got inf"),
    ({"experiment": "sampler_e2e", "constants": {"c_eta_first": math.inf}},
     "constants.c_eta_first: expected a finite number, got inf"),
    ({"experiment": "sampler_e2e",
      "potential": {"name": "huber", "params": {"threshold": math.inf}}},
     "potential.params.threshold: expected a finite number, got inf"),
    ({"experiment": "sampler_e2e", "delta": 10 ** 400},
     "delta: expected a finite number, got an integer past the floats"),
    # a count below what its suite's 1-D checks take validated, then failed
    # the run after the work; an int leaf past np.intp validated, then died
    # in numpy
    ({"experiment": "lower_bound", "trials": 99},
     "trials: lower_bound needs at least 100, got 99"),
    ({"experiment": "tilt_exactness", "samples": 5},
     "samples: tilt_exactness needs at least 100, got 5"),
    ({"experiment": "sampler_e2e", "chains": 5},
     "chains: sampler_e2e needs at least 100, got 5"),
]


@pytest.mark.parametrize("raw, message", _REJECTED,
                         ids=[message.split(":")[0] for _, message in _REJECTED])
def test_both_entry_points_reject_with_the_field_path(raw, message, monkeypatch):
    monkeypatch.delenv("FORSAMPLE_OUT", raising=False)
    for build in (validate_config, lambda raw: ExperimentConfig(**raw)):
        with pytest.raises(ConfigError) as exc:
            build(raw)
        assert message in exc.value.errors


# more float leaves that must be finite, apart because _REJECTED's ids are
# its field paths and these paths are taken there: id -> (raw, path)
_NOT_FINITE = {
    "case.constant": ({"experiment": "sampler_e2e",
                       "case": {"tag": "PI", "constant": math.inf}}, "case.constant"),
    "noise.sigma_g_inf": ({"experiment": "sampler_e2e",
                           "noise": {"family": "subgaussian", "sigma_g": math.inf}},
                          "noise.sigma_g"),
    "noise.sigma_g_huge": ({"experiment": "sampler_e2e",
                            "noise": {"family": "subgaussian", "sigma_g": 10 ** 400}},
                           "noise.sigma_g"),
    "constants.c_n": ({"experiment": "sampler_e2e", "constants": {"c_n": -math.inf}},
                      "constants.c_n"),
}


@pytest.mark.parametrize("name", sorted(_NOT_FINITE))
def test_float_leaves_must_be_finite(name, monkeypatch):
    monkeypatch.delenv("FORSAMPLE_OUT", raising=False)
    raw, path = _NOT_FINITE[name]
    for build in (validate_config, lambda raw: ExperimentConfig(**raw)):
        with pytest.raises(ConfigError) as exc:
            build(raw)
        assert [e.partition(" got ")[0] for e in exc.value.errors] == [
            f"{path}: expected a finite number,"]


# int leaves past np.intp, apart for the same reason as _NOT_FINITE: they
# validated, then died in numpy. id -> raw; the id is the field path
_PAST_INTP = {
    "chains": {"experiment": "sampler_e2e", "chains": 10 ** 30},
    "potential.params.dim": {"experiment": "sampler_e2e",
                             "potential": {"name": "huber", "params": {"dim": 10 ** 20}}},
}


@pytest.mark.parametrize("path", sorted(_PAST_INTP))
def test_int_leaves_must_fit_intp(path, monkeypatch):
    monkeypatch.delenv("FORSAMPLE_OUT", raising=False)
    for build in (validate_config, lambda raw: ExperimentConfig(**raw)):
        with pytest.raises(ConfigError) as exc:
            build(_PAST_INTP[path])
        assert (f"{path}: expected an integer <= 9223372036854775807, got a larger one"
                in exc.value.errors)


def test_noise_takes_no_tail_bound_constant(monkeypatch):
    # the tail bound's constants are fixed: a c_rate of 100 would cut the
    # crit-6 plan from n_batch 3 to 1 while the oracle drew the same noise
    monkeypatch.delenv("FORSAMPLE_OUT", raising=False)
    for key in ("c_tail", "c_rate"):
        raw = {"experiment": "sampler_e2e",
               "noise": {"family": "subgaussian", "sigma_g": 0.5, key: 100}}
        for build in (validate_config, lambda raw: ExperimentConfig(**raw)):
            with pytest.raises(ConfigError) as exc:
                build(raw)
            assert exc.value.errors == [f"noise: unexpected key {key!r}"]


def test_seeds_take_any_nonnegative_integer(monkeypatch):
    # SeedSequence takes integers of any size, so no ceiling applies to seeds
    monkeypatch.delenv("FORSAMPLE_OUT", raising=False)
    raw = {"experiment": "fors_unit", "seeds": [10 ** 30, 0]}
    for build in (validate_config, lambda raw: ExperimentConfig(**raw)):
        assert build(raw).seeds == (10 ** 30, 0)


# errors raised below the catalog function name the parameter too
_PARAM_REJECTED = {
    "huber_dim": ({"name": "huber", "params": {"dim": -1}},
                  "potential.params.dim: must be >= 1, got -1"),
    "gaussian_2d_mean": ({"name": "gaussian", "params": {"mean": [[1.0, 2.0]]}},
                         "potential.params.mean: expected a 1-D vector, got shape (1, 2)"),
    "gaussian_nan_mean": ({"name": "gaussian", "params": {"mean": [float("nan")]}},
                          "potential.params.mean: vector has non-finite entries"),
}


@pytest.mark.parametrize("name", sorted(_PARAM_REJECTED))
def test_potential_param_errors_name_the_field(name, monkeypatch):
    monkeypatch.delenv("FORSAMPLE_OUT", raising=False)
    potential, message = _PARAM_REJECTED[name]
    raw = {"experiment": "sampler_e2e", "potential": potential}
    for build in (validate_config, lambda raw: ExperimentConfig(**raw)):
        with pytest.raises(ConfigError) as exc:
            build(raw)
        assert exc.value.errors == [message]


def _readme_config() -> dict:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("Example config:\n\n```yaml\n", 1)[1].split("```", 1)[0]
    return yaml.safe_load(block)


def _potential_summary(pot):
    xs = np.array([[-1.0], [0.5], [2.0]])
    return (pot.name, pot.dim, pot.holder_s, pot.holder_beta,
            pot.reference.variances.tolist(),
            pot.value_at_rows(xs).tolist(), pot.grad_at_rows(xs).tolist())


@pytest.mark.parametrize("raw", [_readme_config()]
                         + [{"experiment": name} for name in SUITES],
                         ids=lambda raw: raw["experiment"] + ("_readme" if len(raw) > 1 else ""))
def test_yaml_and_python_configs_mean_the_same_run(raw, monkeypatch):
    monkeypatch.delenv("FORSAMPLE_OUT", raising=False)
    from_file, from_python = validate_config(raw), ExperimentConfig(**raw)
    assert from_file == from_python
    assert from_file.echo() == from_python.echo()
    assert from_file.constants == from_python.constants
    if "potential" in SUITES[raw["experiment"]].reads:
        assert (_potential_summary(potential_from_config(**from_file.potential))
                == _potential_summary(potential_from_config(**from_python.potential)))
        assert NoiseModel(**from_file.noise) == NoiseModel(**from_python.noise)
        assert AssumptionCase(**from_file.case) == AssumptionCase(**from_python.case)


def test_output_dir_env_default(monkeypatch, tmp_path):
    monkeypatch.setenv("FORSAMPLE_OUT", str(tmp_path))
    cfg = validate_config({"experiment": "fors_unit"})
    assert cfg.output_dir == str(tmp_path)
    # explicit config key wins over the environment
    cfg = validate_config({"experiment": "fors_unit", "output_dir": "elsewhere"})
    assert cfg.output_dir == "elsewhere"


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def _write_config(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return str(path)


def test_list_subcommands(capsys):
    assert main(["list-potentials"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["aniso_gaussian", "gaussian", "huber", "power"]
    assert main(["list-noise"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["exact", "polymoment", "subgaussian", "subweibull",
                   "twopoint"]


def test_validate_subcommand(tmp_path, capsys):
    path = _write_config(tmp_path, "experiment: fors_unit\nseeds: [1, 2]\n")
    assert main(["validate", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"experiment": "fors_unit", "samples": 100_000,
                       "seeds": [1, 2], "valid": True}


def test_validate_reports_errors_on_stderr(tmp_path, capsys):
    path = _write_config(tmp_path, "experiment: fors_unit\ndelta: 1.5\n")
    assert main(["validate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "error: delta: must be in (0, 1), got 1.5" in err

    path = _write_config(tmp_path, "experiment: sampler_e2e\n"
                                   "potential: {name: gaussian, params: {meen: [1.0]}}\n")
    assert main(["validate", "--config", path]) == 1
    assert "error: potential.params: unexpected key 'meen'" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.yaml")]) == 1
    assert "config: file not found" in capsys.readouterr().err


def test_invalid_yaml(tmp_path, capsys):
    path = _write_config(tmp_path, "experiment: [unclosed\n")
    assert main(["validate", "--config", path]) == 1
    assert "config: invalid YAML" in capsys.readouterr().err


def test_empty_yaml(tmp_path, capsys):
    path = _write_config(tmp_path, "")
    assert main(["validate", "--config", path]) == 1
    assert "config: file is empty" in capsys.readouterr().err


def test_run_small_experiment(tmp_path, capsys):
    out_dir = tmp_path / "results"
    path = _write_config(tmp_path,
                         "experiment: fors_unit\nseeds: [0, 1]\n"
                         "samples: 3000\n")
    code = main(["run", "--config", path, "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    verdict_lines = [l for l in lines if l.startswith(("PASS", "FAIL"))]
    assert verdict_lines
    assert all(l.startswith("PASS fors_unit.") for l in verdict_lines)
    assert verdict_lines == sorted(verdict_lines)
    assert any(l.startswith("wall clock: ") and l.endswith("s") for l in lines)
    assert f"report written to {out_dir}" in lines
    assert (out_dir / "fors_unit_report.json").exists()
    assert (out_dir / "fors_unit_rows.csv").exists()


def test_run_lower_bound_writes_every_row(tmp_path, capsys):
    # the suite's rows are of two kinds, rate-functional and per-adapter:
    # the CSV header holds every key, and a row's missing cells are blank
    out_dir = tmp_path / "results"
    path = _write_config(tmp_path, "experiment: lower_bound\ntrials: 200\n")
    code = main(["run", "--config", path, "--out", str(out_dir)])
    capsys.readouterr()
    assert code in (0, 2)
    with (out_dir / "lower_bound_rows.csv").open(newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["delta", "f_psi", "closed_form", "rel_err", "adapter",
                                 "corrupted_fraction", "tv_between_arms",
                                 "tv_arm0_vs_target", "tv_arm1_vs_target"]
    assert [row["adapter"] for row in rows] == ["", "", "", "", "sgld", "proximal"]
    assert rows[0]["f_psi"] and not rows[4]["f_psi"]


def test_seed_and_chain_overrides(tmp_path, capsys):
    path = _write_config(tmp_path,
                         "experiment: sampler_e2e\nseeds: [0, 1, 2]\n")
    code = main(["validate", "--config", path,
                 "--seed-override", "7", "9", "--chains", "500"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seeds"] == [7, 9]


def test_chain_override_rejected_where_unread(tmp_path, capsys):
    path = _write_config(tmp_path, "experiment: tilt_exactness\n")
    assert main(["validate", "--config", path, "--chains", "500"]) == 1
    assert ("error: chains: tilt_exactness does not read this field"
            in capsys.readouterr().err)


def test_env_output_dir_used_by_run(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "from_env"
    monkeypatch.setenv("FORSAMPLE_OUT", str(out_dir))
    path = _write_config(tmp_path,
                         "experiment: fors_unit\nseeds: [0]\nsamples: 2000\n")
    assert main(["run", "--config", path]) == 0
    capsys.readouterr()
    assert (out_dir / "fors_unit_report.json").exists()


def test_failing_verdict_exits_two(tmp_path, capsys, monkeypatch):
    fake = ExperimentReport(
        experiment="fors_unit", config={}, constants={}, per_seed=[],
        merged_ledger={}, verdicts={"chi2_flat": False, "wdraw_quantile": True},
        rows=[], wall_clock_seconds=0.0)
    monkeypatch.setattr("forsample.cli.run_experiment", lambda cfg: fake)
    path = _write_config(tmp_path, "experiment: fors_unit\n")
    assert main(["run", "--config", path]) == 2
    out = capsys.readouterr().out
    assert "FAIL fors_unit.chi2_flat" in out
    assert "PASS fors_unit.wdraw_quantile" in out


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "forsample.cli", "list-noise"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "subgaussian" in proc.stdout
