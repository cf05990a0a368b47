"""Experiment harness: discrete instances, reports, dispatch, partial flush."""

import json
import math

import numpy as np
import pytest

from forsample import harness
from forsample.core import make_gaussian_potential
from forsample.errors import ConfigError, DimensionError
from forsample.fors import FORSConfig
from forsample.harness import (SUITES, TILT_B, TILT_ETA, TILT_X0, DiscreteWInstance,
                               ExperimentConfig, ExperimentReport, PartialSink,
                               _json_default, discrete_instances, run_experiment,
                               run_fors_unit, run_lower_bound, run_prox_check,
                               tilt_reference, write_report)
from forsample.oracles import NoiseModel, ValueOracle, make_rng
from forsample.rgo import sample_tilt_many
from forsample.sampler import gaussian_initializer
from forsample.verify import discrete_law_oracle, ks_test


# ---------------------------------------------------------------------------
# discrete instances
# ---------------------------------------------------------------------------

# per-attempt acceptance sum_x q(x) e^{E[W|x] - B}, worked out by hand
_ACCEPTANCE = {
    "flat": math.exp(-1.0),
    "det_tilt": (math.exp(-1.5) + math.exp(-1.0) + math.exp(-0.5)) / 3.0,
    "mixed": 0.5 * (math.exp(-1.0) + math.exp(-0.2)),
    "spread": (0.4 * math.exp(-1.0) + 0.3 * math.exp(-0.6)
               + 0.2 * math.exp(-1.4) + 0.1 * math.exp(-0.4)),
}

_W_MEANS = {
    "flat": [0.0, 0.0],
    "det_tilt": [-0.5, 0.0, 0.5],
    "mixed": [0.0, 0.8],
    "spread": [0.0, 0.4, -0.4, 0.6],
}


def test_catalog_names_and_validity():
    insts = discrete_instances()
    assert [i.name for i in insts] == ["flat", "det_tilt", "mixed", "spread"]
    for inst in insts:
        assert inst.q.sum() == pytest.approx(1.0)
        assert np.all(np.abs(inst.w_values) <= inst.b)


@pytest.mark.parametrize("idx,name", list(enumerate(["flat", "det_tilt",
                                                     "mixed", "spread"])))
def test_instance_means_and_acceptance(idx, name):
    inst = discrete_instances()[idx]
    assert inst.w_means() == pytest.approx(_W_MEANS[name], abs=1e-12)
    assert inst.acceptance() == pytest.approx(_ACCEPTANCE[name], rel=1e-12)


def test_instance_law_matches_tilt_oracle():
    for inst in discrete_instances():
        law = inst.law()
        expected = discrete_law_oracle(inst.q, inst.w_means())
        assert law == pytest.approx(expected, rel=1e-12)
        # brute force: law proportional to q * exp(mean)
        raw = inst.q * np.exp(inst.w_means())
        assert law == pytest.approx(raw / raw.sum(), rel=1e-12)


def test_instance_out_of_range_w_rejected():
    with pytest.raises(ValueError, match="w_values must lie in"):
        DiscreteWInstance(name="bad", q=np.array([1.0]),
                          w_values=np.array([[1.5]]),
                          w_probs=np.array([[1.0]]), b=1.0)


@pytest.mark.parametrize("w_values, w_probs, field", [
    ([[0.5, -0.5]], [[1.0]], "w_values shape"),
    ([[0.5, -0.5]], [[0.5, 0.6]], "w_probs rows"),
], ids=["shape", "row_sum"])
def test_bad_instance_is_refused_naming_the_field(w_values, w_probs, field):
    # a ValueError, not an assert, so the check holds under python -O too
    with pytest.raises(ValueError, match=field):
        DiscreteWInstance(name="bad", q=np.array([1.0]), w_values=np.array(w_values),
                          w_probs=np.array(w_probs), b=1.0)


def test_tilt_reference_law():
    ref = tilt_reference()
    assert ref.mean == pytest.approx([2.0 / 3.0])
    assert ref.variances == pytest.approx([1.0 / 3.0])


# (noise, noise_sd of v' - v, n_batch): criterion 4's zeroth-order arms
_ZEROTH_ARMS = {"exact": (NoiseModel.exact(), 0.0, 1),
                "subgaussian": (NoiseModel.subgaussian(0.5), 0.25, 8)}
_GRID = np.linspace(-3.5, 5.5, 20_001)


@pytest.mark.parametrize("arm", sorted(_ZEROTH_ARMS))
def test_clipped_tilt_cdf_is_accurate_to_1e6(arm):
    from forsample.harness import clipped_tilt_cdf
    _, noise_sd, _ = _ZEROTH_ARMS[arm]
    # a 3x finer grid in x, with twice the quadrature nodes in z
    fine = clipped_tilt_cdf(TILT_B, noise_sd, n_grid=12_001,
                            n_nodes=143 if noise_sd else 801)
    err = np.abs(clipped_tilt_cdf(TILT_B, noise_sd)(_GRID) - fine(_GRID))
    assert err.max() <= 1e-6


@pytest.mark.parametrize("arm", sorted(_ZEROTH_ARMS))
def test_clipped_tilt_cdf_tends_to_the_tilt_law(arm):
    from forsample.harness import clipped_tilt_cdf
    _, noise_sd, _ = _ZEROTH_ARMS[arm]
    gauss = tilt_reference().cdf(_GRID)
    gaps = [np.abs(clipped_tilt_cdf(b, noise_sd)(_GRID) - gauss).max()
            for b in (3.0, 6.0, 12.0)]
    assert gaps[0] > 1e-3 > 1e-4 > gaps[1] > gaps[2]
    assert gaps[2] < 1e-5


@pytest.mark.parametrize("arm", sorted(_ZEROTH_ARMS))
def test_zeroth_order_tilt_follows_the_clipped_law(arm):
    # criterion 4's zeroth-order instance at 3e5 samples
    from forsample.harness import clipped_tilt_cdf
    noise, noise_sd, n_batch = _ZEROTH_ARMS[arm]
    pot = make_gaussian_potential([0.0])
    oracle = ValueOracle(pot, noise, make_rng(26, 1))
    pts = sample_tilt_many(oracle, [TILT_X0], [TILT_X0], TILT_ETA, FORSConfig(b=TILT_B),
                           300_000, make_rng(26, 2), n_batch=n_batch)
    _, p = ks_test(pts[:, 0], clipped_tilt_cdf(TILT_B, noise_sd))
    assert p > 1e-3


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _toy_report(verdicts):
    return ExperimentReport(
        experiment="toy", config={"experiment": "toy"}, constants={},
        per_seed=[{"seed": 0}], merged_ledger={}, verdicts=verdicts,
        rows=[{"seed": 0, "value": 1.5}, {"seed": 1, "value": 2.5}],
        wall_clock_seconds=0.1)


def test_all_pass_property():
    assert _toy_report({"a": True, "b": True}).all_pass
    assert not _toy_report({"a": True, "b": False}).all_pass


def test_write_report_files(tmp_path):
    report = _toy_report({"a": True})
    json_path, csv_path = write_report(report, tmp_path)
    assert json_path.name == "toy_report.json"
    assert csv_path.name == "toy_rows.csv"
    payload = json.loads(json_path.read_text())
    assert payload["schema_version"] == 2
    assert payload["all_pass"] is True
    assert json_path.read_text().endswith("\n")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "seed,value"
    assert lines[1] == "0,1.5"
    assert len(lines) == 3


def test_json_default_handles_numpy_scalars():
    assert _json_default(np.bool_(True)) is True
    assert _json_default(np.int64(3)) == 3
    assert _json_default(np.float64(0.5)) == 0.5
    assert _json_default(np.arange(3)) == [0, 1, 2]
    with pytest.raises(TypeError, match="not JSON serializable"):
        _json_default(object())


# ---------------------------------------------------------------------------
# dispatch and small end-to-end runs
# ---------------------------------------------------------------------------

def test_unknown_experiment_raises_config_error():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(experiment="nonsense")
    assert exc.value.errors == [f"experiment: expected one of {sorted(SUITES)}, "
                                "got 'nonsense'"]


def test_fors_unit_smoke(tmp_path):
    cfg = ExperimentConfig(experiment="fors_unit", seeds=(0, 1), samples=4000,
                           output_dir=str(tmp_path))
    report = run_experiment(cfg)
    names = [i.name for i in discrete_instances()]
    expect = ({f"chi2_{n}" for n in names} | {f"acceptance_{n}" for n in names}
              | {"wdraw_quantile"})
    assert set(report.verdicts) == expect
    # one row per (seed, instance)
    assert len(report.rows) == 2 * len(names)
    assert {r["seed"] for r in report.rows} == {0, 1}
    # per_seed carries the two seed entries plus the W-draw tail summary
    assert len(report.per_seed) == 3
    assert "wdraw_check" in report.per_seed[-1]
    # the merged ledger holds every seed's instances and the W-draw check's
    # scalar calls, at least one attempt each
    instances = [i for r in report.per_seed[:-1] for i in r["instances"]]
    led = report.merged_ledger
    assert (led["fors_attempts"] - sum(i["attempts"] for i in instances)
            >= report.per_seed[-1]["wdraw_check"]["calls"])
    assert led["w_draws"] > sum(i["w_draws"] for i in instances) > 0
    assert led["grad_queries"] == led["value_queries"] == 0
    assert (tmp_path / "fors_unit_report.json").exists()
    assert (tmp_path / "fors_unit_rows.csv").exists()
    payload = json.loads((tmp_path / "fors_unit_report.json").read_text())
    assert payload["config"]["seeds"] == [0, 1]
    assert "c_n" in payload["constants"]


def test_fors_unit_reproducible_bit_for_bit():
    cfg = ExperimentConfig(experiment="fors_unit", seeds=(3,), samples=3000)
    a = json.loads(run_experiment(cfg).to_json())
    b = json.loads(run_experiment(cfg).to_json())
    a.pop("wall_clock_seconds")
    b.pop("wall_clock_seconds")
    assert a == b


def test_prox_check_runs_without_sink():
    cfg = ExperimentConfig(experiment="prox_check", seeds=(0, 1), trials=300)
    report = run_prox_check(cfg)
    assert set(report.verdicts) == {"exact_convergence", "residual_guarantee",
                                    "query_accounting"}
    assert report.verdicts["exact_convergence"]
    assert report.per_seed[0]["exact_error"] < 1e-10
    assert len(report.rows) == 2
    # 20 exact iterations, then 300 rows x 25 iterations per seed
    led = report.merged_ledger
    assert led["grad_queries"] == led["prox_iters"] == 20 + 2 * 300 * 25
    assert led["grad_queries"] == 20 + sum(r["grad_queries"] for r in report.per_seed[1:])


def test_lower_bound_budget_rule_smoke():
    cfg = ExperimentConfig(experiment="lower_bound", seeds=(5,), trials=2000)
    report = run_lower_bound(cfg)
    # delta defaults to 0.02: F = 1/0.02 - 0.02 = 49.98, so the largest
    # budget strictly under F/10 is 4
    for entry in report.per_seed:
        assert entry["t_budget"] == 4
        assert entry["delta"] == 0.02
    assert report.verdicts["f_psi_closed_form"]
    assert report.verdicts["coupling_sgld"]
    assert report.verdicts["coupling_proximal"]
    # two adapters x two arms x 2000 trials, each arm answering T = 4 queries
    led = report.merged_ledger
    assert led["grad_queries"] == 2 * 2 * 2000 * 4
    assert led["grad_queries"] == sum(e["grad_queries"] for e in report.per_seed)


@pytest.mark.parametrize("potential", [
    {"name": "gaussian", "params": {"mean": [0.0]}},
    {"name": "aniso_gaussian", "params": {"mean": [0.0, 0.0], "precisions": [1.0, 2.0]}},
    {"name": "huber", "params": {"threshold": 0.5}},
    {"name": "huber", "params": {"threshold": 0.5, "dim": 2}},
    {"name": "power", "params": {"p": 1.5}},
    {"name": "power", "params": {"p": 1.5, "dim": 2}},
], ids=["gaussian", "aniso_gaussian", "huber", "huber_2d", "power", "power_2d"])
def test_sampler_e2e_reports_on_every_catalog_potential(potential):
    # a report against each reference's first marginal, not a passing
    # verdict: the default LSI case need not hold for every potential
    cfg = ExperimentConfig(experiment="sampler_e2e", potential=potential,
                           seeds=(0,), chains=200, delta=0.2)
    report = run_experiment(cfg)
    assert [r["noise"] for r in report.per_seed] == ["exact", "subgaussian"]
    for entry in report.per_seed:
        assert math.isfinite(entry["tv"]) and 0.0 <= entry["tv"] <= 1.0
        assert 0.0 <= entry["ks_p"] <= 1.0
    assert set(report.verdicts) == {"tv_exact", "tv_subgaussian"}
    # each arm's clip count shows in its row, and the merged ledger sums them
    clipped = [entry["ledger"]["w_clipped"] for entry in report.per_seed]
    assert [row["w_clipped"] for row in report.rows] == clipped
    assert report.merged_ledger["w_clipped"] == sum(clipped)


def test_sampler_e2e_start_spends_the_warm_start_delta(monkeypatch):
    # N(m 1, I) against the standard Gaussian N(0, I) in d dimensions has
    # log(1 + chi^2) = |m 1|^2 = d m^2, which the start sets to Delta
    means = []
    monkeypatch.setattr(harness, "gaussian_initializer",
                        lambda mean, variance: means.append(mean) or
                        gaussian_initializer(mean, variance))
    delta = 0.7
    for d in (1, 3):
        run_experiment(ExperimentConfig(
            experiment="sampler_e2e", chains=100, delta=0.2, seeds=(0,),
            potential={"name": "gaussian", "params": {"mean": [0.0] * d}},
            case={"tag": "LSI", "constant": 1.0, "warm_start_delta": delta}))
    assert means[0].tolist() == [math.sqrt(delta)]
    assert means[1].tolist() == [math.sqrt(delta / 3)] * 3
    assert float(means[1] @ means[1]) == pytest.approx(delta, rel=1e-15)


# ---------------------------------------------------------------------------
# suite defaults: every config field runs as given
# ---------------------------------------------------------------------------

def test_lower_bound_runs_the_configured_delta():
    cfg = ExperimentConfig(experiment="lower_bound", delta=0.05, trials=500)
    report = run_lower_bound(cfg)
    # F = 1/0.05 - 0.05 = 19.95, so the largest budget under F/10 is 1
    assert [(e["delta"], e["t_budget"]) for e in report.per_seed] == [(0.05, 1)] * 2


def test_lower_bound_runs_the_configured_trials():
    report = run_lower_bound(ExperimentConfig(experiment="lower_bound", trials=500))
    # two adapters x two arms x 500 trials x T = 4 queries
    assert report.merged_ledger["grad_queries"] == 2 * 2 * 500 * 4


@pytest.mark.parametrize("experiment", ["delta_scaling", "lower_bound"])
def test_one_seed_suites_reject_more_seeds(experiment):
    assert ExperimentConfig(experiment=experiment).seeds == (0,)
    assert ExperimentConfig(experiment=experiment, seeds=(7,)).seeds == (7,)
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(experiment=experiment, seeds=(0, 1))
    assert exc.value.errors == [f"seeds: {experiment} runs one seed, got [0, 1]"]


def test_echo_shows_the_suite_defaults_that_ran():
    echo = json.loads(json.dumps(ExperimentConfig(experiment="lower_bound").echo()))
    assert echo == {"experiment": "lower_bound", "delta": 0.02,
                    "seeds": [0], "trials": 100_000}
    echo = ExperimentConfig(experiment="delta_scaling").echo()
    assert (echo["chains"], echo["seeds"]) == (4, (0,))
    # common defaults elsewhere
    cfg = ExperimentConfig(experiment="sampler_e2e")
    assert (cfg.delta, cfg.seeds, cfg.chains) == (0.05, tuple(range(20)), 10_000)


def test_echo_lists_only_the_fields_a_suite_reads():
    fields = set(ExperimentConfig.__dataclass_fields__)
    for name, suite in SUITES.items():
        assert set(suite.reads) <= fields
        echo = ExperimentConfig(experiment=name).echo()
        assert set(echo) == {"experiment"} | set(suite.reads) - {"constants"}
    assert set(ExperimentConfig(experiment="tilt_exactness").echo()) == {
        "experiment", "seeds", "samples"}


# ---------------------------------------------------------------------------
# partial flush on mid-sweep failure
# ---------------------------------------------------------------------------

def _failing_config(tmp_path):
    # twopoint noise only supports 1-D potentials, so the noisy arm of the
    # first seed raises after the exact arm has already finished
    return ExperimentConfig(
        experiment="sampler_e2e",
        potential={"name": "gaussian", "params": {"mean": [0.0, 0.0]}},
        noise={"family": "twopoint", "p": 0.1, "m_shift": 0.5},
        seeds=(0, 1), chains=200, output_dir=str(tmp_path))


def test_partial_results_flushed_on_failure(tmp_path):
    cfg = _failing_config(tmp_path)
    with pytest.raises(DimensionError, match="twopoint"):
        run_experiment(cfg)
    partial = tmp_path / "sampler_e2e_partial.json"
    assert partial.exists()
    assert not (tmp_path / "sampler_e2e_report.json").exists()
    payload = json.loads(partial.read_text())
    assert payload["partial"] is True
    assert payload["error"].startswith("DimensionError")
    assert payload["schema_version"] == 2
    # seed 0's exact arm completed before the failure and was preserved
    assert [(r["seed"], r["noise"]) for r in payload["per_seed"]] == [(0, "exact")]
    assert len(payload["rows"]) == 1
    assert payload["config"]["seeds"] == [0, 1]


def test_no_partial_file_without_output_dir(tmp_path):
    cfg = _failing_config(tmp_path)
    cfg = ExperimentConfig(**{**cfg.__dict__, "output_dir": None})
    with pytest.raises(DimensionError):
        run_experiment(cfg)
    assert list(tmp_path.iterdir()) == []


def test_partial_sink_collects_for_direct_runner_calls():
    sink = PartialSink()
    cfg = ExperimentConfig(experiment="fors_unit", seeds=(0,), samples=2000)
    report = run_fors_unit(cfg, sink=sink)
    assert sink.per_seed  # runner really used the shared accumulator
    assert sink.rows == report.rows
