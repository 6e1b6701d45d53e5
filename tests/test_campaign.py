import filecmp
import sys
from pathlib import Path

import numpy as np
import pytest

from adastrat.campaign import (
    final_report,
    load_state,
    run_campaign,
    run_iteration,
    run_preliminary,
    write_report,
)
from adastrat.config import RunConfig, config_from_dict
from adastrat.errors import ConfigError, EvaluationThresholdError
from adastrat.persist import read_table
from adastrat.space import evaluated

FIXTURES = Path(__file__).resolve().parent / "fixtures"

SYNTH = {"type": "synthetic", "kind": "quadratic", "noise_scale": 0.025, "seed": 0}


def small_config(**overrides):
    base = dict(
        critical_value=0.95,
        evaluator=SYNTH,
        preliminary_count=40,
        iteration_budgets=(20, 10),
        inner_strata=20,
        pool_size=100_000,
        mode="multi",
        seed=11,
    )
    base.update(overrides)
    return RunConfig(**base).validate()


def test_preliminary_reference_shapes():
    state = run_preliminary(small_config(preliminary_count=100, inner_strata=100, mode="single"))
    assert len(state.samples) == 100
    assert state.strata.n_strata == 102
    assert state.model.training_count == 100
    assert all(s.stratum is not None and s.j_tilde is not None for s in state.samples)

    state = run_preliminary(small_config(preliminary_count=10, inner_strata=20))
    assert state.strata.n_strata == 22


def test_preliminary_product_design():
    # each group needs more distinct draws than its own dimension count,
    # otherwise the per-group columns are collinear with the intercept
    cfg = small_config(
        preliminary_count=16,
        preliminary_design={"type": "product", "counts": {"geometry": 4, "freestream": 4}},
    )
    state = run_preliminary(cfg)
    assert len(state.samples) == 16


def test_sigma_zero_fallback_two_strata():
    cfg = small_config(
        evaluator={"type": "synthetic", "kind": "linear", "noise_scale": 0.0, "seed": 0},
        preliminary_count=7,
    )
    state = run_preliminary(cfg)
    assert state.model.sigma < 1e-12
    assert state.strata.n_strata == 2
    assert state.strata.inner_count == 0


def test_budget_zero_iteration_only_appends_estimate(tmp_path):
    state = run_preliminary(small_config(), tmp_path / "r")
    ids_before = [s.id for s in state.samples]
    run_iteration(state, 0)
    assert [s.id for s in state.samples] == ids_before
    assert state.iteration == 1
    assert len(state.estimates) == 1
    assert (tmp_path / "r" / "iter_001" / "estimate.json").exists()
    assert not (tmp_path / "r" / "iter_001" / "allocation.tsv").exists()


def test_iteration_accounting_and_monotone_information():
    cfg = small_config()
    state = run_preliminary(cfg)
    counts = [state.model.training_count]
    for budget in cfg.iteration_budgets:
        run_iteration(state, budget)
        counts.append(state.model.training_count)
    assert counts == [40, 60, 70]
    assert state.total_evaluations() == 40 + 20 + 10
    ids = [s.id for s in state.samples]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)
    # every sample is re-binned under the current model
    samples = evaluated(state.samples)
    rebinned = state.strata.bin_many(state.model.predict_many(np.vstack([s.params for s in samples])))
    assert [s.stratum for s in samples] == rebinned.tolist()
    assert len(state.estimates) == 2


def test_single_mode_freezes_model_and_strata(tmp_path):
    cfg = small_config(mode="single", preliminary_count=60, iteration_budgets=(25,))
    state = run_preliminary(cfg, tmp_path / "r")
    model_before = state.model
    edges_before = state.strata.edges.copy()
    run_iteration(state, 25)
    assert state.model is model_before
    np.testing.assert_array_equal(state.strata.edges, edges_before)
    assert state.total_evaluations() == 85
    # every new sample re-bins into the stratum its candidate search claimed
    header, rows = read_table(tmp_path / "r" / "iter_001" / "allocation.tsv")
    additional = [int(row[header.index("additional")]) for row in rows]
    new = [s.stratum for s in state.samples if s.iteration == 1]
    assert np.bincount(new, minlength=state.strata.n_strata).tolist() == additional


def test_campaign_run_dirs_byte_identical(tmp_path):
    cfg = small_config()
    run_campaign(cfg, tmp_path / "a")
    run_campaign(cfg, tmp_path / "b")
    cmp = filecmp.dircmp(tmp_path / "a", tmp_path / "b", ignore=["run.log"])
    assert not _tree_differs(cmp)


def _tree_differs(cmp):
    if cmp.diff_files or cmp.left_only or cmp.right_only or cmp.funny_files:
        return True
    return any(_tree_differs(sub) for sub in cmp.subdirs.values())


def test_interrupted_campaign_resumes_exactly(tmp_path):
    cfg = small_config()
    run_campaign(cfg, tmp_path / "full")

    # simulate an interrupt: run only the preliminary batch plus iteration 1
    state = run_preliminary(cfg, tmp_path / "resumed")
    run_iteration(state, cfg.iteration_budgets[0])
    del state

    resumed = load_state(tmp_path / "resumed")
    assert resumed.iteration == 1
    assert len(resumed.estimates) == 1
    for budget in cfg.iteration_budgets[resumed.iteration:]:
        run_iteration(resumed, budget)
    write_report(resumed)
    cmp = filecmp.dircmp(tmp_path / "full", tmp_path / "resumed", ignore=["run.log"])
    assert not _tree_differs(cmp)


def test_run_campaign_resumes_via_run_dir(tmp_path):
    cfg = small_config()
    state = run_preliminary(cfg, tmp_path / "r")
    run_iteration(state, cfg.iteration_budgets[0])
    del state
    finished = run_campaign(cfg, tmp_path / "r")
    assert finished.iteration == 2
    run_campaign(cfg, tmp_path / "other")
    cmp = filecmp.dircmp(tmp_path / "r", tmp_path / "other", ignore=["run.log"])
    assert not _tree_differs(cmp)


def test_preliminary_refuses_existing_run_dir(tmp_path):
    cfg = small_config()
    run_preliminary(cfg, tmp_path / "d")
    with pytest.raises(ConfigError, match="resume"):
        run_preliminary(cfg, tmp_path / "d")


def test_evaluator_failure_threshold_aborts_preliminary():
    cfg = small_config(
        evaluator={
            "type": "external",
            "command": [sys.executable, str(FIXTURES / "flaky_evaluator.py"), "garbage"],
        },
        preliminary_count=30,
        failure_abort_fraction=0.2,
    )
    with pytest.raises(EvaluationThresholdError):
        run_preliminary(cfg)


def test_final_report_contents():
    cfg = small_config()
    state = run_campaign(cfg)
    report = final_report(state)
    assert report["total_evaluations"] == 70
    assert report["iterations"] == 2
    if report["mc_equivalent"] is not None:
        assert report["efficiency_ratio"] == pytest.approx(report["mc_equivalent"] / 70)
    assert report["probability"] == pytest.approx(state.estimates[-1].probability)


def test_stop_rule_halts_early():
    cfg = small_config(iteration_budgets=(20, 10, 10), stop_unbiased_variance_below=1.0)
    state = run_campaign(cfg)
    assert state.iteration == 1  # threshold hit after the first iteration


def test_config_round_trip_through_dict():
    cfg = small_config()
    again = config_from_dict(cfg.to_dict())
    assert again == cfg
