import argparse
import fcntl
import json
import os
import re
import shutil
import sys
import tracemalloc
from pathlib import Path

import pytest

from contextlib import contextmanager

from adastrat import cli, errors, evaluators
from adastrat.campaign import run_preliminary
from adastrat.cli import main
from adastrat.config import build_evaluator, load_config
from adastrat.errors import AdastratError
from adastrat.estimator import confidence_interval, stratified_variance
from adastrat.evaluators import oracle_probability
from adastrat.rng import substream
from adastrat.space import DEFAULT_SPACE, sample_uniform

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SYNTH = {"type": "synthetic", "kind": "quadratic", "noise_scale": 0.025, "seed": 0}
#: Nesting depth of a JSON document too deep for ``json.loads`` to parse.
DEEP = 200_000


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


def test_readme_names_exactly_the_common_flags():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sentence = readme.partition("Common flags")[2].partition("Exit codes")[0]
    parser = argparse.ArgumentParser(add_help=False)
    cli._add_common(parser)
    assert set(re.findall(r"`(--[a-z-]+)", sentence)) == {a.option_strings[0] for a in parser._actions}


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
    # a config file that is missing, not JSON or not a JSON object is refused by name
    (tmp_path / "truncated.json").write_text('{"seed": ')
    (tmp_path / "list.json").write_text("[]")
    (tmp_path / "deep.json").write_text("[" * DEEP + "]" * DEEP)
    for name in ("missing.json", "truncated.json", "list.json", "deep.json"):
        assert main(["run", "--config", str(tmp_path / name), "--run-dir", str(tmp_path / "y")]) == 2
        assert f"cannot read config file {tmp_path / name}: " in capsys.readouterr().err
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
    # settings a campaign would otherwise ignore are refused by name
    space = DEFAULT_SPACE.to_list()
    product = {"type": "product", "counts": {"geometry": 5, "freestream": 6}}
    for k, (change, named) in enumerate([
        ({"preliminary_design": {"type": "random", "count": 5}}, "['count']"),
        ({"preliminary_design": {**product, "order": "F"}}, "['order']"),
        ({"space": [{**space[0], "unit": "m"}, *space[1:]]}, "['unit']"),
        ({"stop_unbiased_variance_below": 0}, "stop_unbiased_variance_below"),
        ({"stop_unbiased_variance_below": -1e-9}, "stop_unbiased_variance_below"),
    ]):
        bad.write_text(json.dumps({**json.loads(config_path.read_text()), **change}))
        run_dir = tmp_path / f"ignored{k}"
        for command in ("init", "run"):
            assert main([command, "--config", str(bad), "--run-dir", str(run_dir)]) == 2, change
            assert named in capsys.readouterr().err, change
        assert not (run_dir / "config.json").exists()


@pytest.mark.parametrize("pool_size", [None, 100_000], ids=["exact", "pool"])
def test_band_too_wide_for_floats_is_refused_after_the_preliminary_fit(tmp_path, config_path, capsys, pool_size):
    # the config is valid; only the preliminary fit's residual scale shows the edges overflow
    doc = {**json.loads(config_path.read_text()), "band_halfwidth_sigmas": 1e308, "pool_size": pool_size}
    config_path.write_text(json.dumps(doc))
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(config_path), "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "band_halfwidth_sigmas" in err and "residual scale" in err
    assert "Traceback" not in err
    assert not (run_dir / "state.json").exists() and not (run_dir / "samples.tsv").exists()


def test_exact_weights_stop_at_twelve_dimensions(tmp_path, config_path, capsys):
    # pool_size unset means exact weights, which take 2**d subset sums per edge
    external = {"type": "external", "command": [sys.executable, str(FIXTURES / "external_objective.py")]}
    doc = {**json.loads(config_path.read_text()), "preliminary_count": 40, "evaluator": external}
    doc.pop("pool_size")
    for d, code in ((12, 0), (13, 2)):
        path = tmp_path / f"d{d}.json"
        path.write_text(json.dumps({**doc, "space": [{"name": f"x{i}", "min": 0.0, "max": 1.0} for i in range(d)]}))
        assert main(["init", "--config", str(path), "--run-dir", str(tmp_path / f"d{d}")]) == code
        if code:
            assert "set pool_size for this 13-dimensional space" in capsys.readouterr().err
    # with a pool, more dimensions are fine
    path.write_text(json.dumps({**json.loads(path.read_text()), "pool_size": 10_000}))
    assert main(["init", "--config", str(path), "--run-dir", str(tmp_path / "pool13")]) == 0


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


def _edit_cell(path, line, column, value):
    """Set one cell of a tab-separated table; the column one past a row's last cell appends one."""
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[line].rstrip("\n").split("\t")
    cells[column : column + 1] = [value]
    lines[line] = "\t".join(cells) + "\n"
    path.write_text("".join(lines))


def test_unloadable_run_dir_is_exit_code_2(tmp_path, config_path, capsys):
    assert main(["init", "--config", str(config_path), "--run-dir", str(tmp_path / "init")]) == 0
    older = tmp_path / "older"
    assert main(["run", "--config", str(config_path), "--run-dir", str(older)]) == 0
    # finished runs that lost a file load_state reads, or hold one it cannot parse
    for name in ("no-config", "bad-state", "no-counts", "text-count", "negative-count", "no-samples",
                 "no-weights", "other-weights", "short-weights", "bad-p1", "list-state", "list-config",
                 "pairs-config", "text-seed", "nan-objective", "inf-param", "outside-param", "extra-cell",
                 "negative-iteration", "lower-iteration", "later-iteration", "renamed-p1", "extra-weights-cell",
                 "deep-config", "deep-state"):
        shutil.copytree(older, tmp_path / name)
    (tmp_path / "no-config" / "config.json").unlink()
    (tmp_path / "bad-state" / "state.json").write_text('{"format": 2, "iterat')
    (tmp_path / "list-state" / "state.json").write_text("[]")
    (tmp_path / "list-config" / "config.json").write_text("[]")
    (tmp_path / "pairs-config" / "config.json").write_text('[["seed", 7]]')
    for name in ("deep-config", "deep-state"):
        (tmp_path / name / f"{name.removeprefix('deep-')}.json").write_text("[" * DEEP + "]" * DEEP)
    # the last refit's weights.tsv holds another refit's strata, or only some of its rows
    shutil.copy(older / "iter_001" / "weights.tsv", tmp_path / "other-weights" / "iter_002" / "weights.tsv")
    short = tmp_path / "short-weights" / "iter_002" / "weights.tsv"
    short.write_text("".join(short.read_text().splitlines(keepends=True)[:5]))
    # the last refit's weights.tsv edited: one p1 cell to 0.9, the p1 header renamed, a cell past a row's last
    for name, line, column, value in (("bad-p1", 3, 3, "0.9"), ("renamed-p1", 1, 3, "p_1"),
                                      ("extra-weights-cell", 3, 5, "0.5")):
        _edit_cell(tmp_path / name / "iter_002" / "weights.tsv", line, column, value)
    # one committed samples.tsv cell edited: j_true to nan, a parameter to inf or outside its box, a cell
    # past j_true, an iteration-1 cell to -3, the last row's iteration (2) down to 1 or past the commit to 3
    for name, line, column, value in (("nan-objective", 40, 8, "nan"), ("inf-param", 40, 2, "inf"),
                                      ("outside-param", 40, 3, "99.5"), ("extra-cell", 40, 9, "0.5"),
                                      ("negative-iteration", 40, 1, "-3"), ("lower-iteration", 55, 1, "1"),
                                      ("later-iteration", 55, 1, "3")):
        _edit_cell(tmp_path / name / "samples.tsv", line, column, value)
    text_seed = tmp_path / "text-seed" / "config.json"
    text_seed.write_text(json.dumps({**json.loads(text_seed.read_text()), "seed": "x"}))
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
                      ("no-samples", "samples.tsv"), ("no-weights", "weights.tsv"),
                      ("other-weights", "iter_002/weights.tsv: its lower/upper edges differ from the strata recomputed"),
                      ("short-weights", "iter_002/weights.tsv: holds 3 strata, not the 22 recomputed"),
                      ("bad-p1", "iter_002/weights.tsv: its p1 column is not stratum counts divided by its pool_size"),
                      ("list-state", "state.json: must hold a JSON object"),
                      ("list-config", "config.json: must hold a JSON object"),
                      ("pairs-config", "config.json: must hold a JSON object"),
                      ("text-seed", "config.json: seed must be an integer, got 'x'"),
                      ("nan-objective", "samples.tsv: row 39 has no finite j_true"),
                      ("inf-param", "samples.tsv: parameter 'aspect_ratio': value inf outside"),
                      ("outside-param", "samples.tsv: parameter 'sweep': value 99.5 outside"),
                      ("extra-cell", "samples.tsv: row 39 has 10 cells, not 9"),
                      ("negative-iteration", "samples.tsv: its iteration column does not run from 0 up to at most 2"),
                      ("lower-iteration", "samples.tsv: its iteration column does not run from 0 up to at most 2"),
                      ("later-iteration", "samples.tsv: its iteration column does not run from 0 up to at most 2"),
                      ("renamed-p1", "iter_002/weights.tsv: its header is not ['stratum', 'lower', 'upper', 'p1',"),
                      ("extra-weights-cell", "iter_002/weights.tsv: row 1 has 6 cells, not 5"),
                      ("deep-config", "config.json: it is nested too deeply to parse"),
                      ("deep-state", "state.json: it is nested too deeply to parse")):
        for command in ("iterate", "report"):
            assert main([command, "--run-dir", str(tmp_path / name)]) == 2, (name, command)
            assert why in capsys.readouterr().err
        if name in ("nan-objective", "inf-param", "outside-param"):  # a resumed run is refused alike
            assert main(["run", "--config", str(config_path), "--run-dir", str(tmp_path / name)]) == 2
            assert why in capsys.readouterr().err



def test_line_break_in_a_parameter_name_is_exit_code_2(tmp_path, config_path, capsys):
    space = DEFAULT_SPACE.to_list()
    for k, name in enumerate(("alpha\nx", "alpha\rx", "alpha\u2028x")):
        bad = tmp_path / f"bad{k}.json"
        bad.write_text(json.dumps({**json.loads(config_path.read_text()), "space": [{**space[0], "name": name}, *space[1:]]}))
        run_dir = tmp_path / f"r{k}"
        for command in ("init", "run"):
            assert main([command, "--config", str(bad), "--run-dir", str(run_dir)]) == 2, (name, command)
            assert repr(name) in capsys.readouterr().err
        assert not run_dir.exists()


def test_a_span_that_is_not_finite_is_exit_code_2(tmp_path, config_path, capsys):
    space = DEFAULT_SPACE.to_list()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**json.loads(config_path.read_text()),
                               "space": [{"name": "a", "min": -1e308, "max": 1e308}, *space[1:]]}))
    run_dir = tmp_path / "r"
    for argv in (["init", "--run-dir", str(run_dir)], ["run", "--run-dir", str(run_dir)], ["oracle", "--n", "10"]):
        assert main([*argv, "--config", str(bad)]) == 2, argv[0]
        assert "parameter 'a': max - min must be finite" in capsys.readouterr().err
    assert not run_dir.exists()


def test_sample_ids_that_repeat_or_reach_next_id_are_refused(tmp_path, config_path, capsys):
    full, stopped = tmp_path / "full", tmp_path / "stopped"
    assert main(["run", "--config", str(config_path), "--run-dir", str(full)]) == 0
    run_preliminary(load_config(config_path), stopped)  # 30 rows, next_id 30
    # one committed id edited: to the id of the row before it, to next_id, past it, below 0
    edits = {"repeat": (2, "0"), "next-id": (30, "30"), "past-next-id": (30, "35"), "negative": (1, "-1")}
    for name, (line, value) in edits.items():
        shutil.copytree(stopped, tmp_path / name)
        _edit_cell(tmp_path / name / "samples.tsv", line, 0, value)
        before = _tree(tmp_path / name)
        capsys.readouterr()
        for argv in (["iterate", "--run-dir", str(tmp_path / name)], ["report", "--run-dir", str(tmp_path / name)],
                     ["run", "--config", str(config_path), "--run-dir", str(tmp_path / name)]):
            assert main(argv) == 2, (name, argv[0])
            assert "samples.tsv: its id column repeats an id or holds one outside [0, 30)" in capsys.readouterr().err
        assert _tree(tmp_path / name) == before
    # the untouched copy resumes to what the uninterrupted campaign wrote
    assert main(["run", "--config", str(config_path), "--run-dir", str(stopped)]) == 0
    skip = {"run.log"}
    assert ({p.relative_to(stopped): b for p, b in _tree(stopped).items() if p.name not in skip}
            == {p.relative_to(full): b for p, b in _tree(full).items() if p.name not in skip})


def test_pool_size_is_read_from_config_json_alone(tmp_path, config_path, capsys):
    full, stopped = tmp_path / "full", tmp_path / "stopped"
    assert main(["run", "--config", str(config_path), "--run-dir", str(full)]) == 0
    run_preliminary(load_config(config_path), stopped)
    assert main(["iterate", "--run-dir", str(stopped)]) == 0  # stopped after iteration 1's refit
    # the last refit's weights.tsv names twice the configured pool size; its p1 column is still whole counts
    doubled = tmp_path / "doubled"
    shutil.copytree(stopped, doubled)
    weights, pool_size = doubled / "iter_001" / "weights.tsv", load_config(config_path).pool_size
    first, rest = weights.read_text().split("\n", 1)
    assert first == f"# pool_size\t{pool_size}"
    weights.write_text(f"# pool_size\t{2 * pool_size}\n{rest}")
    before = _tree(doubled)
    capsys.readouterr()
    for argv in (["report", "--run-dir", str(doubled)], ["iterate", "--run-dir", str(doubled)],
                 ["run", "--config", str(config_path), "--run-dir", str(doubled)]):
        assert main(argv) == 2, argv[0]
        assert f"{weights}: its first line does not name the pool_size {pool_size} of config.json" in (
            capsys.readouterr().err)
    assert _tree(doubled) == before
    # the untouched copy resumes to what the uninterrupted campaign wrote
    assert main(["run", "--config", str(config_path), "--run-dir", str(stopped)]) == 0
    skip = {"run.log"}
    assert ({p.relative_to(stopped): b for p, b in _tree(stopped).items() if p.name not in skip}
            == {p.relative_to(full): b for p, b in _tree(full).items() if p.name not in skip})


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


def test_run_after_init_runs_only_under_the_stored_config(tmp_path, config_path, capsys):
    run_dir = tmp_path / "r"
    assert main(["init", "--config", str(config_path), "--run-dir", str(run_dir)]) == 0
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**json.loads(config_path.read_text()), "seed": 99}))
    capsys.readouterr()
    before = _tree(run_dir)
    for argv in (["--config", str(other)], ["--config", str(config_path), "--seed", "99"]):
        for command in ("run", "init"):
            assert main([command, *argv, "--run-dir", str(run_dir)]) == 2, (command, argv)
            assert "stores a config with other seed" in capsys.readouterr().err
            assert _tree(run_dir) == before
    assert main(["run", "--config", str(config_path), "--run-dir", str(run_dir)]) == 0
    assert json.loads((run_dir / "report.json").read_text())["iterations"] == 2
    assert (run_dir / "config.json").read_bytes() == before[run_dir / "config.json"]


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


@pytest.mark.parametrize("command", ["run", "init", "iterate", "report"])
def test_run_dir_that_is_a_file_is_exit_code_2(tmp_path, config_path, capsys, command):
    # a file where the run directory goes, or on its path, is refused by name, and nothing is written
    afile = tmp_path / "afile"
    afile.write_text("not a run directory")
    cases = [(afile, "is not a directory")]
    if command in ("run", "init"):
        cases.append((afile / "sub", "cannot be made: Not a directory"))
    before = sorted(tmp_path.rglob("*"))
    for run_dir, problem in cases:
        flags = ["--config", str(config_path)] if command in ("run", "init") else []
        assert main([command, "--run-dir", str(run_dir), *flags]) == 2, run_dir
        assert capsys.readouterr().err == f"configuration error: run directory {run_dir} {problem}\n"
    assert sorted(tmp_path.rglob("*")) == before and afile.read_text() == "not a run directory"


def test_compare_mc_baseline(config_path, capsys):
    assert main(["compare-mc", "--config", str(config_path), "--n", "400"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["estimator"] == "naive-mc"
    assert doc["n"] == 400
    assert 0.0 <= doc["probability"] <= 1.0


def test_compare_mc_batches_print_the_one_shot_result(config_path, capsys):
    n = cli.MC_BATCH + 17  # the last batch holds 17 draws
    assert main(["compare-mc", "--config", str(config_path), "--n", str(n), "--seed", "5"]) == 0
    printed = capsys.readouterr().out
    config = load_config(config_path)
    values = build_evaluator(config).evaluate_many(sample_uniform(config.space, substream(5, "compare-mc"), n))
    p = float((values > config.critical_value).mean())
    var, unbiased = (stratified_variance([1.0], [p], [n], ddof) for ddof in (0, 1))
    expected = {"estimator": "naive-mc", "n": n, "failures": 0, "probability": p, "biased_variance": var,
                "ci95": list(confidence_interval(p, unbiased))}
    assert printed == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_compare_mc_counts_what_the_oracle_counts_on_its_substream(config_path, capsys):
    n = cli.MC_BATCH + 4_465  # past one batch, and a multiple of neither the batch nor the slice
    assert main(["compare-mc", "--config", str(config_path), "--n", str(n), "--seed", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    config = load_config(config_path)
    p, _ = oracle_probability(build_evaluator(config), config.critical_value, n, substream(5, "compare-mc"))
    assert (doc["n"], doc["failures"], doc["probability"]) == (n, 0, p)


def test_compare_mc_numbers_its_requests_across_batches(tmp_path, monkeypatch, capsys):
    # the garbage solver fails ids divisible by 3: of ids 0..9, four fail, wherever the batches and slices split
    doc = {
        "critical_value": 0.95,
        "evaluator": {"type": "external", "command": [sys.executable, str(FIXTURES / "flaky_evaluator.py"), "garbage"]},
        "preliminary_count": 10,
        "iteration_budgets": [5],
        "seed": 1,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "MC_BATCH", 4)
    monkeypatch.setattr(evaluators, "_MC_SLICE", 3)
    assert main(["compare-mc", "--config", str(cfg), "--n", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["n"], out["failures"]) == (6, 4)
    assert out["probability"] == 1.0  # every parameter sum exceeds 0.95


def test_compare_mc_holds_one_batch_at_a_time(config_path, capsys):
    tracemalloc.start()
    try:
        assert main(["compare-mc", "--config", str(config_path), "--n", str(2 * cli.MC_BATCH + 1)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * cli.MC_BATCH * DEFAULT_SPACE.dim * 8  # the one 3 MiB buffer of draws


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


def test_objective_too_large_to_fit_is_exit_code_3(tmp_path, capsys):
    doc = {
        "critical_value": 0.95,
        "evaluator": {"type": "external", "command": [sys.executable, str(FIXTURES / "flaky_evaluator.py"), "huge"]},
        "preliminary_count": 20,
        "iteration_budgets": [5],
        "seed": 1,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    run_dir = tmp_path / "r"
    assert main(["run", "--config", str(cfg), "--run-dir", str(run_dir)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("evaluator failure: sample row 3 has objective 1e+300, too large to fit")
    assert "Warning" not in err
    assert [p.name for p in run_dir.iterdir()] == ["config.json"]


def test_the_package_raises_only_the_error_types_of_the_exit_code_table():
    defined = {t for t in vars(errors).values() if isinstance(t, type) and issubclass(t, AdastratError)}
    assert defined - {AdastratError} == {kind for kind, _, _ in cli.EXIT_CODES}


@pytest.mark.parametrize("kind, code, label", cli.EXIT_CODES, ids=[k.__name__ for k, _, _ in cli.EXIT_CODES])
def test_exit_codes_table(monkeypatch, capsys, kind, code, label):
    def raises(error):
        def command(args):
            raise error

        return command

    monkeypatch.setitem(cli._COMMANDS, "report", raises(kind("the message")))
    assert main(["report", "--run-dir", "unused"]) == code
    assert capsys.readouterr().err == f"{label}: the message\n"
    # an error the table does not list is no exit code: it propagates
    monkeypatch.setitem(cli._COMMANDS, "report", raises(AdastratError("a broken contract")))
    with pytest.raises(AdastratError, match="a broken contract"):
        main(["report", "--run-dir", "unused"])


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


def test_mode_and_evaluator_overrides(tmp_path, config_path, capsys):
    run_dir = tmp_path / "single"
    assert main([
        "run", "--config", str(config_path), "--run-dir", str(run_dir), "--mode", "single", "--seed", "9",
    ]) == 0
    stored = json.loads((run_dir / "config.json").read_text())
    assert stored["mode"] == "single"
    assert stored["seed"] == 9
    # the objective kind is the config's alone: there is no flag to switch it
    capsys.readouterr()
    with pytest.raises(SystemExit) as usage:
        main(["run", "--config", str(config_path), "--run-dir", str(tmp_path / "other"), "--evaluator", "quadratic"])
    assert usage.value.code == 2
    assert "unrecognized arguments: --evaluator" in capsys.readouterr().err
    assert not (tmp_path / "other").exists()


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
