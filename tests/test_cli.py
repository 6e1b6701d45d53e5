import json
import sys
from pathlib import Path

import pytest

from adastrat.cli import main

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


def test_iterate_consumes_next_budget_then_requires_flag(tmp_path, config_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(config_path), "--run-dir", str(run_dir)]) == 0
    capsys.readouterr()
    assert main(["iterate", "--run-dir", str(run_dir)]) == 2  # budgets exhausted
    assert main(["iterate", "--run-dir", str(run_dir), "--budget", "5"]) == 0
    report = json.loads((run_dir / "report.json").read_text())
    assert report["total_evaluations"] == 30 + 15 + 10 + 5
    assert report["iterations"] == 3


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
    ]):
        bad.write_text(json.dumps({**json.loads(config_path.read_text()), **change}))
        run_dir = tmp_path / f"numeric{k}"
        assert main(["run", "--config", str(bad), "--run-dir", str(run_dir)]) == 2, change
        assert "configuration error" in capsys.readouterr().err
        assert not (run_dir / "samples.tsv").exists()


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
