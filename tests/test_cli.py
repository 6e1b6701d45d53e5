import fcntl
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from contextlib import contextmanager

from adastrat import cli
from adastrat.campaign import run_preliminary
from adastrat.cli import main
from adastrat.config import load_config

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SYNTH = {"type": "synthetic", "kind": "quadratic", "noise_scale": 0.025, "seed": 0}


@pytest.fixture()
def config_path(tmp_path) -> Path:
    doc = {
        "critical_value": 0.95,
        "evaluator": SYNTH,
        "preliminary_count": 30,
        "iteration_budgets": [15, 10],
        "inner_strata": 20,
        "pool_size": 50_000,
        "mode": "multi",
        "seed": 7,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_init_creates_run_dir(tmp_path, config_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["init", "--config", str(config_path), "--run-dir", str(run_dir)]) == 0
    assert (run_dir / "config.json").exists()
    assert "initialized" in capsys.readouterr().out


def test_run_and_report(tmp_path, config_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(config_path), "--run-dir", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "probability" in out
    assert (run_dir / "report.json").exists()
    assert (run_dir / "samples.tsv").exists()
    assert main(["report", "--run-dir", str(run_dir)]) == 0
    assert "naive-MC equivalent" in capsys.readouterr().out


def test_report_leaves_uncommitted_rows_alone(tmp_path, config_path, capsys):
    run_dir = tmp_path / "r"
    assert main(["run", "--config", str(config_path), "--run-dir", str(run_dir)]) == 0
    # rows of an iteration that has not committed yet, the last one half written
    with open(run_dir / "samples.tsv", "a") as f:
        f.write("998\t3\t0.5\t0.5\t0.5\t0.5\t0.5\t0.5\t0.25\n999\t3\t0.5")
    before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
    assert main(["report", "--run-dir", str(run_dir)]) == 0
    assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before
    # the next iteration writes its rows after the committed ones
    assert main(["iterate", "--run-dir", str(run_dir), "--budget", "5"]) == 0
    ids = [line.split("\t")[0] for line in (run_dir / "samples.tsv").read_text().splitlines()]
    assert "998" not in ids and "999" not in ids
    assert len(ids) == len(set(ids))


def _tree(run_dir):
    return {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}


def test_iterate_consumes_next_budget_then_requires_flag(tmp_path, config_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(config_path), "--run-dir", str(run_dir)]) == 0
    capsys.readouterr()
    before = _tree(run_dir)
    assert main(["iterate", "--run-dir", str(run_dir)]) == 2  # budgets exhausted
    assert main(["iterate", "--run-dir", str(run_dir), "--budget", "-1"]) == 2
    assert "budget must be >= 0" in capsys.readouterr().err
    assert _tree(run_dir) == before
    assert main(["iterate", "--run-dir", str(run_dir), "--budget", "5"]) == 0
    report = json.loads((run_dir / "report.json").read_text())
    assert report["total_evaluations"] == 30 + 15 + 10 + 5
    assert report["iterations"] == 3


def test_stopped_campaign_stays_stopped(tmp_path, config_path, capsys):
    stop = tmp_path / "stop.json"
    stop.write_text(json.dumps({
        **json.loads(config_path.read_text()), "evaluator": {**SYNTH, "noise_scale": 0.05},
        "iteration_budgets": [20, 10, 10], "seed": 1, "stop_unbiased_variance_below": 1.0,
    }))
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(stop), "--run-dir", str(run_dir)]) == 0
    assert json.loads((run_dir / "report.json").read_text())["iterations"] == 1  # stopped early
    before = {p: b for p, b in _tree(run_dir).items() if p.name != "run.log"}
    # neither a re-run nor `iterate` without --budget spends another budget
    assert main(["run", "--config", str(stop), "--run-dir", str(run_dir)]) == 0
    capsys.readouterr()
    assert main(["iterate", "--run-dir", str(run_dir)]) == 2
    assert "stop rule" in capsys.readouterr().err
    assert {p: b for p, b in _tree(run_dir).items() if p.name != "run.log"} == before
    assert (run_dir / "run.log").read_text().count("stopping after iteration") == 1


#: The keys of settings that are now fixed, at the values older config.json files hold.
RETIRED = {"n_confident": 10, "min_pool_hits": 10, "per_stratum_cap": 10_000_000,
           "evaluation_timeout": 3600.0, "failure_abort_fraction": 0.2, "sigma_dof_corrected": False}


def test_bad_config_is_exit_code_2(tmp_path, config_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mode": "sideways"}))
    assert main(["run", "--config", str(bad), "--run-dir", str(tmp_path / "x")]) == 2
    assert "configuration error" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    assert main(["run", "--config", str(missing), "--run-dir", str(tmp_path / "y")]) == 2
    # out-of-range numeric settings are refused before any evaluation is spent
    external = {"type": "external", "command": [sys.executable, str(FIXTURES / "external_objective.py")]}
    for k, change in enumerate([
        {"evaluation_timeout": 0},
        {"evaluation_timeout": -1.0},
        {"evaluator": {**external, "timeout": -1}},
        {"evaluator": external, "evaluation_timeout": -1},
        {"allocation_prune_share": 1.5},
        {"allocation_prune_share": 1.0},
        {"allocation_prune_share": -0.1},
        {"per_stratum_cap": 0},
        # the other retired keys, each at a value other than its fixed one
        {"n_confident": 5},
        {"min_pool_hits": 0},
        {"failure_abort_fraction": 0.5},
        {"sigma_dof_corrected": True},
        {"sigma_dof_corrected": 0},
        # wrongly typed or non-finite settings too
        {"inner_strata": 20.5},
        {"preliminary_count": True},
        {"iteration_budgets": [15, 10.5]},
        {"critical_value": float("nan")},
        {"band_halfwidth_sigmas": float("inf")},
        {"evaluator": {**SYNTH, "noise_scale": "abc"}},
        {"evaluator": {**SYNTH, "seed": 1.5}},
        {"evaluator": {**external, "timeout": "abc"}},
        # unknown evaluator keys, like unknown top-level ones
        {"evaluator": {"type": "synthetic", "noise": 0.3}},
        # product designs whose counts multiply to preliminary_count but are no design
        {"preliminary_count": 10, "preliminary_design": {"type": "product", "counts": {"geom": 2, "flow": 5}}},
        {"preliminary_count": 10, "preliminary_design": {"type": "product",
                                                         "counts": {"geometry": -2, "freestream": -5}}},
        # preliminary designs the surrogate cannot be fitted on with a residual left over
        {"preliminary_count": 7},
        {"preliminary_count": 10, "preliminary_design": {"type": "product", "counts": {"geometry": 2, "freestream": 5}}},
    ]):
        bad.write_text(json.dumps({**json.loads(config_path.read_text()), **change}))
        run_dir = tmp_path / f"numeric{k}"
        assert main(["init", "--config", str(bad), "--run-dir", str(run_dir)]) == 2, change
        assert "configuration error" in capsys.readouterr().err
        assert not (run_dir / "config.json").exists()
        assert main(["run", "--config", str(bad), "--run-dir", str(run_dir)]) == 2, change
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert all(key in err for key in change if key in RETIRED), err
        if "evaluation_timeout" in change:
            assert "evaluator block's timeout" in err
        assert not (run_dir / "samples.tsv").exists()


def test_retired_keys_resume_at_their_fixed_values(tmp_path, config_path):
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps({**json.loads(config_path.read_text()), **RETIRED}))
    assert main(["run", "--config", str(legacy), "--run-dir", str(tmp_path / "full")]) == 0
    # a run dir as older code left it, stopped after its first commit
    stopped = tmp_path / "stopped"
    run_preliminary(load_config(config_path), stopped)
    (stopped / "config.json").write_text(json.dumps({**json.loads((stopped / "config.json").read_text()), **RETIRED}))
    assert main(["run", "--config", str(legacy), "--run-dir", str(stopped)]) == 0
    skip = {"config.json", "run.log"}
    full = {p.relative_to(tmp_path / "full"): b for p, b in _tree(tmp_path / "full").items() if p.name not in skip}
    assert {p.relative_to(stopped): b for p, b in _tree(stopped).items() if p.name not in skip} == full


def test_unloadable_run_dir_is_exit_code_2(tmp_path, config_path, capsys):
    assert main(["init", "--config", str(config_path), "--run-dir", str(tmp_path / "init")]) == 0
    older = tmp_path / "older"
    assert main(["run", "--config", str(config_path), "--run-dir", str(older)]) == 0
    # finished runs that lost a file load_state reads, or hold one it cannot parse
    for name in ("no-config", "bad-state", "no-counts", "text-count", "negative-count", "no-samples",
                 "no-weights"):
        shutil.copytree(older, tmp_path / name)
    (tmp_path / "no-config" / "config.json").unlink()
    (tmp_path / "bad-state" / "state.json").write_text('{"format": 2, "iterat')
    (tmp_path / "no-counts" / "state.json").write_text('{"format": 2}')
    state = json.loads((older / "state.json").read_text())
    (tmp_path / "text-count" / "state.json").write_text(json.dumps({**state, "iterations_completed": "x"}))
    (tmp_path / "negative-count" / "state.json").write_text(json.dumps({**state, "samples": -5}))
    (tmp_path / "no-samples" / "samples.tsv").unlink()
    for path in (tmp_path / "no-weights").glob("iter_*/weights.tsv"):
        path.unlink()
    del state["format"]
    (older / "state.json").write_text(json.dumps(state))
    capsys.readouterr()
    for name, why in (("missing", "does not exist"), ("init", "no committed"), ("older", "format"),
                      ("no-config", "config.json"), ("bad-state", "state.json"),
                      ("no-counts", "state.json holds no non-negative integer 'iterations_completed'"),
                      ("text-count", "state.json holds no non-negative integer 'iterations_completed'"),
                      ("negative-count", "state.json holds no non-negative integer 'samples'"),
                      ("no-samples", "samples.tsv"), ("no-weights", "weights.tsv")):
        for command in ("iterate", "report"):
            assert main([command, "--run-dir", str(tmp_path / name)]) == 2, (name, command)
            assert why in capsys.readouterr().err


def test_resume_with_another_config_is_exit_code_2(tmp_path, config_path, capsys):
    run_dir = tmp_path / "r"
    run_preliminary(load_config(config_path), run_dir)  # a campaign stopped after its first commit
    before = _tree(run_dir)
    for flags in (["--seed", "99"], ["--mode", "single"], ["--seed", "99", "--mode", "single"]):
        assert main(["run", "--config", str(config_path), "--run-dir", str(run_dir), *flags]) == 2, flags
        assert "stored config" in capsys.readouterr().err
        assert _tree(run_dir) == before
    assert main(["run", "--config", str(config_path), "--run-dir", str(run_dir)]) == 0
    assert json.loads((run_dir / "report.json").read_text())["iterations"] == 2


def test_second_writer_is_exit_code_2(tmp_path, config_path, capsys):
    run_dir = tmp_path / "r"
    assert main(["run", "--config", str(config_path), "--run-dir", str(run_dir)]) == 0
    capsys.readouterr()
    before = _tree(run_dir)
    fd = os.open(run_dir, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)  # the first writer, still at work
        for argv in (
            ["iterate", "--run-dir", str(run_dir), "--budget", "5"],
            ["run", "--config", str(config_path), "--run-dir", str(run_dir)],
            ["init", "--config", str(config_path), "--run-dir", str(run_dir)],
        ):
            assert main(argv) == 2, argv[0]
            assert f"run directory {run_dir} is being written" in capsys.readouterr().err
        assert main(["report", "--run-dir", str(run_dir)]) == 0  # readers take no lock
        assert _tree(run_dir) == before
    finally:
        os.close(fd)
    assert main(["iterate", "--run-dir", str(run_dir), "--budget", "5"]) == 0


def test_compare_mc_baseline(config_path, capsys):
    assert main(["compare-mc", "--config", str(config_path), "--n", "400"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["estimator"] == "naive-mc"
    assert doc["n"] == 400
    assert 0.0 <= doc["probability"] <= 1.0


def test_oracle_subcommand(config_path, capsys):
    assert main(["oracle", "--config", str(config_path), "--n", "20000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["critical_value"] == 0.95
    assert 0.0 <= doc["probability"] <= 1.0


def test_evaluator_failure_threshold_is_exit_code_3(tmp_path, capsys):
    import sys
    from pathlib import Path

    fixtures = Path(__file__).resolve().parent / "fixtures"
    doc = {
        "critical_value": 0.95,
        "evaluator": {
            "type": "external",
            "command": [sys.executable, str(fixtures / "flaky_evaluator.py"), "garbage"],
        },
        "preliminary_count": 30,
        "iteration_budgets": [5],
        "pool_size": 10_000,
        "seed": 1,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg), "--run-dir", str(tmp_path / "r")]) == 3
    assert "evaluator failure" in capsys.readouterr().err


def test_allocation_infeasible_is_exit_code_4(tmp_path, capsys):
    # a perfect linear fit collapses the band; with hard 0/1 conditionals
    # every stratum carries zero weight and the budget has nowhere to go
    doc = {
        "critical_value": 0.95,
        "evaluator": {"type": "synthetic", "kind": "linear", "noise_scale": 0.0, "seed": 0},
        "preliminary_count": 10,
        "iteration_budgets": [5],
        "pool_size": 10_000,
        "seed": 1,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg), "--run-dir", str(tmp_path / "r")]) == 4
    assert "allocation infeasible" in capsys.readouterr().err


def test_mode_and_evaluator_overrides(tmp_path, config_path):
    run_dir = tmp_path / "single"
    assert main([
        "run", "--config", str(config_path), "--run-dir", str(run_dir),
        "--mode", "single", "--seed", "9", "--evaluator", "quadratic",
    ]) == 0
    stored = json.loads((run_dir / "config.json").read_text())
    assert stored["mode"] == "single"
    assert stored["seed"] == 9


def test_commands_end_their_children_inside_the_lock(tmp_path, monkeypatch, spawned, capsys):
    doc = {
        "critical_value": 0.95,
        "evaluator": {"type": "external", "command": [sys.executable, str(FIXTURES / "external_objective.py")]},
        "preliminary_count": 30,
        "iteration_budgets": [10],
        "inner_strata": 20,
        "pool_size": 20_000,
        "parallelism": 2,
        "seed": 3,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    running_at_release = []
    sole_writer = cli._sole_writer

    @contextmanager
    def checked(run_dir, create):
        with sole_writer(run_dir, create):
            try:
                yield
            finally:
                running_at_release.append(sum(p.poll() is None for p in spawned))

    monkeypatch.setattr(cli, "_sole_writer", checked)
    run_dir = str(tmp_path / "r")
    for argv in (
        ["run", "--config", str(cfg), "--run-dir", run_dir],
        ["iterate", "--run-dir", run_dir, "--budget", "5"],
        ["compare-mc", "--config", str(cfg), "--n", "20"],
    ):
        started = len(spawned)
        assert main(argv) == 0, argv[0]
        assert len(spawned) == started + 2, argv[0]
        assert all(p.poll() is not None for p in spawned), argv[0]
    assert running_at_release == [0, 0]
    assert json.loads((tmp_path / "r" / "report.json").read_text())["total_evaluations"] == 45
