import filecmp
import json
import re
import shutil
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from adastrat import campaign, persist
from adastrat.campaign import (
    final_report,
    load_state,
    run_campaign,
    run_iteration,
    run_preliminary,
    write_report,
)
from adastrat.config import RunConfig, config_from_dict
from adastrat.errors import AllocationError, ConfigError, EvaluationThresholdError, FitError
from adastrat.evaluators import BatchOutcome, EvaluationFailure
from adastrat.persist import read_table

FIXTURES = Path(__file__).resolve().parent / "fixtures"

SYNTH = {"type": "synthetic", "kind": "quadratic", "noise_scale": 0.025, "seed": 0}
EXTERNAL = {"type": "external", "command": [sys.executable, str(FIXTURES / "external_objective.py")]}


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
    j_tilde, j_true = state.observations()
    assert state.strata.bin_many(j_tilde).shape == j_true.shape == (100,)

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
        preliminary_count=8,
    )
    state = run_preliminary(cfg)
    assert state.model.sigma < 1e-12
    assert state.strata.n_strata == 2


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
    # the estimate bins every sample under the current model
    rebinned = state.strata.bin_many(state.model.predict_many(np.vstack([s.params for s in state.samples])))
    est, _, counts = campaign._estimate(state)
    assert est == state.estimates[-1]
    assert counts.tolist() == np.bincount(rebinned, minlength=state.strata.n_strata).tolist()
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
    _, rows = read_table(tmp_path / "r" / "iter_001" / "allocation.tsv",
                         ("stratum", "weight", "target", "existing", "additional"))
    additional = [int(row[4]) for row in rows]
    j_tilde, _ = state.observations()
    new = state.strata.bin_many(j_tilde)[[s.iteration == 1 for s in state.samples]]
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


def _bits(value):
    return (value.dtype.str, value.tobytes()) if isinstance(value, np.ndarray) else repr(value)


def _assert_loads_as_in_memory(run_dir, live):
    loaded = load_state(run_dir)
    m, n = loaded.model, live.model
    assert repr((m.intercept, m.sigma, m.training_count)) == repr((n.intercept, n.sigma, n.training_count))
    assert _bits(m.coefficients) == _bits(n.coefficients)
    a, b = loaded.strata, live.strata
    assert (_bits(a.edges), repr(a.sigma)) == (_bits(b.edges), repr(b.sigma))
    assert _bits(loaded.weights.p1) == _bits(live.weights.p1)
    assert len(loaded.estimates) == min(len(live.estimates), 1)
    if live.estimates:
        for f in fields(live.estimates[-1]):
            assert _bits(getattr(loaded.estimates[-1], f.name)) == _bits(getattr(live.estimates[-1], f.name)), f.name


@pytest.mark.parametrize("mode", ["single", "multi"])
def test_load_state_recomputes_the_in_memory_state(tmp_path, mode):
    # budget 0 does not refit, so the newest weights are an iteration behind
    cfg = small_config(mode=mode, iteration_budgets=(15, 0, 10))
    state = run_preliminary(cfg, tmp_path / "r")
    _assert_loads_as_in_memory(tmp_path / "r", state)
    for budget in cfg.iteration_budgets:
        run_iteration(state, budget)
        _assert_loads_as_in_memory(tmp_path / "r", state)


@pytest.mark.parametrize("mode", ["single", "multi"])
def test_samples_and_weights_alone_resume_exactly(tmp_path, mode):
    cfg = small_config(mode=mode)
    run_campaign(cfg, tmp_path / "intact")
    shutil.copytree(tmp_path / "intact", tmp_path / "bare")
    kept = {"config.json", "state.json", "samples.tsv", "weights.tsv"}
    for path in (tmp_path / "bare").rglob("*"):
        if path.is_file() and path.name not in kept:
            path.unlink()
    for name in ("intact", "bare"):
        state = load_state(tmp_path / name)
        run_iteration(state, 5)
        write_report(state)
    written = [p for p in (tmp_path / "bare").rglob("*") if p.is_file()]
    assert {p.name for p in written} - kept  # the new iteration's outputs
    for path in written:
        assert path.read_bytes() == (tmp_path / "intact" / path.relative_to(tmp_path / "bare")).read_bytes(), path


def test_exact_weights_are_recomputed_not_read(tmp_path):
    # a multi campaign on exact weights, interrupted after iteration 1; a copy of its run dir
    # without any weights.tsv resumes to the same files
    cfg = small_config(pool_size=None, iteration_budgets=(20, 10, 10))
    state = run_preliminary(cfg, tmp_path / "intact")
    run_iteration(state, 20)
    shutil.copytree(tmp_path / "intact", tmp_path / "bare")
    removed = list((tmp_path / "bare").glob("iter_*/weights.tsv"))
    assert len(removed) == 2
    for path in removed:
        path.unlink()
    for name in ("intact", "bare"):
        run_campaign(cfg, tmp_path / name)
    for path in (tmp_path / "bare").rglob("*"):
        if path.is_file() and path.name != "run.log":
            assert path.read_bytes() == (tmp_path / "intact" / path.relative_to(tmp_path / "bare")).read_bytes(), path
    # an exact weights.tsv keeps the pool's columns, with variance 0 and no # pool_size line
    _, rows = read_table(tmp_path / "intact" / "iter_003" / "weights.tsv", ("stratum", "lower", "upper", "p1", "variance"))
    assert {row[4] for row in rows} == {"0.0"}
    assert json.loads((tmp_path / "intact" / "config.json").read_text())["pool_size"] is None
    assert "p1 standard error    0 (exact weights)\n" in (tmp_path / "intact" / "report.txt").read_text()
    assert json.loads((tmp_path / "intact" / "report.json").read_text())["p1_standard_error"] is None


def test_pool_run_dir_still_reads_its_weights_tsv(tmp_path):
    # a run dir whose config.json names pool_size resumes on the weights its pool wrote
    cfg = small_config(pool_size=100_000)
    state = run_preliminary(cfg, tmp_path / "r")
    run_iteration(state, 20)
    weights = tmp_path / "r" / "iter_001" / "weights.tsv"
    assert weights.read_text().startswith("# pool_size\t100000\n")
    loaded = load_state(tmp_path / "r")
    assert loaded.weights.pool_size == 100_000 and _bits(loaded.weights.p1) == _bits(state.weights.p1)
    weights.rename(weights.with_suffix(".moved"))
    with pytest.raises(ConfigError, match="weights.tsv"):
        load_state(tmp_path / "r")
    weights.with_suffix(".moved").rename(weights)
    run_campaign(cfg, tmp_path / "r")
    run_campaign(cfg, tmp_path / "whole")
    assert not _tree_differs(filecmp.dircmp(tmp_path / "r", tmp_path / "whole", ignore=["run.log"]))


class _Crash(Exception):
    """The kill injected at one write point of a campaign."""


def _crashing_writers(monkeypatch, writers, crash_at=None):
    """Route persist's writers through a counter; the ``crash_at``-th write raises.

    A crashing sample append first leaves a torn, newline-less row behind, as
    a kill in the middle of the write would. Returns the list of written paths.
    """
    written = []

    def wrap(name, original):
        def write(path, *args, **kwargs):
            written.append(path)
            if len(written) == crash_at:
                if name == "append_samples":
                    with open(path, "a") as f:
                        f.write("999\t1\t0.5")
                raise _Crash(f"write {crash_at}: {name} {path}")
            return original(path, *args, **kwargs)

        return write

    for name, original in writers.items():
        monkeypatch.setattr(persist, name, wrap(name, original))
    return written


@pytest.mark.parametrize("mode, pool_size", [("single", 100_000), ("multi", 100_000), ("multi", None)],
                         ids=["single", "multi", "multi-exact"])
def test_crash_at_any_write_resumes_exactly(tmp_path, monkeypatch, mode, pool_size):
    cfg = small_config(mode=mode, preliminary_count=30, iteration_budgets=(15, 10), pool_size=pool_size)
    writers = {name: getattr(persist, name) for name in ("atomic_write_text", "append_samples")}
    with monkeypatch.context() as m:
        written = _crashing_writers(m, writers)
        run_campaign(cfg, tmp_path / "full")
    total = len(written)
    assert total > 10
    for n in range(1, total + 1):
        run_dir = tmp_path / f"crash{n}"
        with monkeypatch.context() as m:
            _crashing_writers(m, writers, crash_at=n)
            with pytest.raises(_Crash):
                run_campaign(cfg, run_dir)
        run_campaign(cfg, run_dir)
        cmp = filecmp.dircmp(tmp_path / "full", run_dir, ignore=["run.log"])
        assert not _tree_differs(cmp), f"crash at write {n}"


def test_refit_of_an_uncommitted_attempt_is_not_loaded(tmp_path, monkeypatch):
    # a first attempt at iteration 1 refits and writes iter_001/weights.tsv, then dies
    # before its commit; the retry's evaluations all fail, so it commits without a refit
    state = run_preliminary(small_config(), tmp_path / "r")
    with monkeypatch.context() as m:
        _crashing_writers(m, {"atomic_write_text": persist.atomic_write_text}, crash_at=7)  # state.json
        with pytest.raises(_Crash, match="state.json"):
            run_iteration(state, 20)
    state = load_state(tmp_path / "r")
    with monkeypatch.context() as m:
        m.setattr(campaign, "evaluate_batch", lambda evaluator, ids, ws: BatchOutcome(
            [], [EvaluationFailure(i, "solver crashed") for i in ids]))
        run_iteration(state, 20)
    assert not any((tmp_path / "r" / "iter_001" / name).exists() for name in ("model.json", "weights.tsv"))
    _assert_loads_as_in_memory(tmp_path / "r", state)


@pytest.mark.parametrize("mode", ["single", "multi"])
def test_retried_iteration_keeps_no_file_of_the_dead_attempt(tmp_path, monkeypatch, mode):
    # iteration 2 runs with budget 20 and dies at its commit; a retry with budget 0, as
    # `adastrat iterate --budget 0` makes, leaves what an uninterrupted budget-0 iteration
    # leaves: no conditional.tsv or allocation.tsv of the plan that never committed
    cfg = small_config(mode=mode, preliminary_count=20, iteration_budgets=(20, 20), band_halfwidth_sigmas=20.0, seed=4)
    for name in ("killed", "whole"):
        run_iteration(run_preliminary(cfg, tmp_path / name), 20)
    write = persist.atomic_write_text

    def dies_at_commit(path, text):
        if path.name == "state.json":
            raise _Crash(f"killed at {path}")
        write(path, text)

    state = load_state(tmp_path / "killed")
    with monkeypatch.context() as m:
        m.setattr(persist, "atomic_write_text", dies_at_commit)
        with pytest.raises(_Crash):
            run_iteration(state, 20)
    assert (tmp_path / "killed" / "iter_002" / "allocation.tsv").exists()
    for name in ("killed", "whole"):
        run_iteration(load_state(tmp_path / name), 0)
    assert not _tree_differs(filecmp.dircmp(tmp_path / "killed", tmp_path / "whole", ignore=["run.log"]))


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
    )
    with pytest.raises(EvaluationThresholdError):
        run_preliminary(cfg)


@pytest.mark.parametrize("pool_size", [None, 10_000], ids=["exact", "pool"])
def test_objective_too_large_to_fit_is_a_fit_error(pool_size):
    huge = {"type": "external", "command": [sys.executable, str(FIXTURES / "flaky_evaluator.py"), "huge"]}
    cfg = small_config(evaluator=huge, preliminary_count=20, pool_size=pool_size, mode="single")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is refused, not warned about
        with pytest.raises(FitError, match=r"row 3 has objective 1e\+300, too large to fit"):
            run_campaign(cfg)


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
    # noise-free objective: after iteration 1 no sampled stratum is mixed, so both
    # variances are exactly 0; that is no precision reached, and the campaign goes on
    noise_free = small_config(
        critical_value=0.93, evaluator={**SYNTH, "noise_scale": 0.0}, preliminary_count=20,
        iteration_budgets=(20,) * 5, band_halfwidth_sigmas=20.0, seed=0, stop_unbiased_variance_below=1e-30,
    )
    state = run_campaign(noise_free)
    assert state.estimates[0].unbiased_variance == state.estimates[0].biased_variance == 0.0
    assert state.iteration == 5


def test_config_round_trip_through_dict():
    cfg = small_config()
    again = config_from_dict(cfg.to_dict())
    assert again == cfg


def test_readme_configuration_names_exactly_the_config_fields():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.partition("A minimal configuration:")[2].partition("\n## ")[0]
    example = json.loads(section.partition("```json")[2].partition("```")[0])
    config_from_dict(example)
    named = set(example) | set(re.findall(r"`([a-z][a-z0-9_]*)`", section))
    assert named == {f.name for f in fields(RunConfig)}


@pytest.mark.parametrize("mode, budgets", [("single", (20,)), ("multi", (10, 10, 10))])
def test_campaign_starts_one_child_per_worker(spawned, tmp_path, mode, budgets):
    # one child per worker slot for the whole campaign, not 2 per batch
    cfg = small_config(evaluator=EXTERNAL, mode=mode, iteration_budgets=budgets, parallelism=2)
    state = run_campaign(cfg, tmp_path / "r")
    assert state.iteration == len(budgets) and len(state.samples) == 40 + sum(budgets)
    assert len(spawned) == 2 and all(p.poll() is not None for p in spawned)
    assert state.evaluator.run_dir == str(tmp_path / "r")  # what each child got as ADASTRAT_RUN_DIR


def test_campaign_ends_its_children_when_it_raises(spawned):
    flaky = [sys.executable, str(FIXTURES / "flaky_evaluator.py")]
    garbage = small_config(evaluator={"type": "external", "command": flaky + ["garbage"]},
                           preliminary_count=30, parallelism=2)
    with pytest.raises(EvaluationThresholdError) as raised:
        run_campaign(garbage)
    # ended by run_campaign itself: the traceback it raised with still holds its state
    assert raised.tb is not None and spawned and all(p.poll() is not None for p in spawned)
    # the solver replies the sum of the parameters: a perfect linear fit, every sample
    # below the critical value, so the allocation has no weight to spend
    linear = RunConfig(critical_value=100.0, evaluator={"type": "external", "command": flaky + ["none"]},
                       preliminary_count=10, iteration_budgets=(5,), pool_size=10_000, seed=1, parallelism=2)
    started = len(spawned)
    with pytest.raises(AllocationError) as raised:
        run_campaign(linear.validate())
    assert raised.tb is not None and len(spawned) == started + 2 and all(p.poll() is not None for p in spawned)
