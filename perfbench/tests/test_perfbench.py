"""Tests of the benchmark itself: output checks catch tampering, metric names match BENCHMARK.json.

Run from the repository root: python3 -m pytest perfbench/tests -q
Workloads are shrunk (smaller pool, three replicates) so the suite stays short.
"""
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from adastrat import campaign  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

# Brute-force truth of the noise-free objective at 0.93 (10^7 draws); only the
# statistical block uses it, and these tests check names, not values.
EXTERNAL_ORACLE = 0.0047444


def small(name: str) -> workloads.Workload:
    w = workloads.setup(name)
    oracle = EXTERNAL_ORACLE if w.oracle is None else w.oracle
    return replace(w, config=replace(w.config, pool_size=50_000), replicates=3, oracle=oracle)


@pytest.fixture(scope="module")
def reference_state():
    w = small("single-reference")
    return w, campaign.run_campaign(replace(w.config, seed=5))


def _tampered_states(state):
    dup = replace(state, samples=state.samples + [state.samples[0]])
    short = replace(state, samples=state.samples[:-1])
    est = state.estimates[-1]
    outside = replace(est, probability=est.ci95[1] + 1.0)
    bad_ci = replace(state, estimates=state.estimates[:-1] + [outside])
    bad_p1 = replace(state, weights=replace(state.weights, p1=state.weights.p1 * 1.01))
    return {"duplicate id": dup, "missing evaluation": short, "ci": bad_ci, "p1 sum": bad_p1}


def test_clean_campaign_passes(reference_state):
    w, state = reference_state
    assert workloads.check(w, state) == []
    outcome = workloads.run_campaign(w, seed=5)
    assert outcome.problems == [] and outcome.seconds > 0
    assert outcome.estimate.probability == state.estimates[-1].probability


def test_each_tampered_output_is_flagged(reference_state):
    w, state = reference_state
    for label, tampered in _tampered_states(state).items():
        assert workloads.check(w, tampered), label


def test_reloaded_estimate_mismatch_is_flagged(tmp_path):
    w = small("multi-iterate")
    w = replace(w, config=replace(w.config, iteration_budgets=(20, 20)))
    assert workloads.run_campaign(w, seed=3).problems == []
    state = workloads._drive(replace(w.config, seed=3), tmp_path / "run")
    assert workloads.check(w, state, reloaded=campaign.load_state(tmp_path / "run")) == []
    est = state.estimates[-1]
    moved = replace(state, estimates=state.estimates[:-1] + [replace(est, probability=est.probability * 1.5)])
    assert workloads.check(w, state, reloaded=state) == []
    assert any("reloaded" in p for p in workloads.check(w, state, reloaded=moved))


def test_twin_mismatch_is_flagged():
    w = small("external-p2")
    assert workloads.run_campaign(w, seed=4).problems == []
    state = campaign.run_campaign(replace(w.config, seed=4))
    twin = campaign.run_campaign(workloads.twin_config(replace(w.config, seed=4)))
    assert workloads.check(w, state, twin=twin) == []
    twin.samples[7].j_true += 1e-9
    assert any("j_true" in p for p in workloads.check(w, state, twin=twin))


def test_tampered_campaigns_are_counted_failed(monkeypatch):
    w = small("single-reference")
    original = campaign.run_campaign

    def tampering(config, run_dir=None):
        state = original(config, run_dir)
        if config.seed % 2:
            state.samples.append(state.samples[0])
        return state

    monkeypatch.setattr(campaign, "run_campaign", tampering)
    outcomes, metrics, _ = run.run_untraced(w, seed=0, seconds=0)
    result = run.summarize(outcomes, metrics)
    odd = sum(1 for o in outcomes if o.seed % 2)
    assert odd > 0
    assert result["failed"] == odd
    assert result["correct"] is False
    assert metrics["success_frac"]["value"] == pytest.approx(1 - odd / len(outcomes))


def test_raising_campaign_is_counted_failed(monkeypatch):
    w = small("single-reference")

    def broken(config, run_dir=None):
        raise RuntimeError("solver crashed")

    monkeypatch.setattr(campaign, "run_campaign", broken)
    outcome = workloads.run_campaign(w, seed=1)
    assert outcome.estimate is None
    assert outcome.problems == ["raised RuntimeError: solver crashed"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_metric_names_match_benchmark_json(name):
    w = small(name)
    _, untraced, _ = run.run_untraced(w, seed=0, seconds=0)
    _, traced, detail, spans = run.run_traced(w, seed=0, seconds=0)
    for emitted, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in emitted.items()} == declared
        assert all(np.isfinite(v["value"]) for v in emitted.values())
    assert spans and detail["traced_campaigns"] >= run.MIN_TRACED


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES) == list(run.WORKLOADS)


def test_tracing_leaves_results_unchanged():
    from tracing import Tracer, reduce

    w = small("multi-iterate")
    w = replace(w, config=replace(w.config, iteration_budgets=(20, 20)))
    original = campaign.estimate_weights
    plain = workloads.run_campaign(w, seed=8)
    tracer = Tracer()
    traced = workloads.run_campaign(w, seed=8, tracer=tracer, campaign_id="c")
    assert traced.problems == []
    assert workloads._estimate_fields(traced.estimate) == workloads._estimate_fields(plain.estimate)
    assert campaign.estimate_weights is original  # wrappers removed after the campaign
    t = reduce(tracer.spans)["c"]
    assert sum(t.layer_self.values()) == pytest.approx(t.wall)
    assert t.persist_top["write"][0] > 0 and t.persist_top["read"][0] > 0
    draws = sum(a["draws"] for a in t.attrs["strata.estimate_weights"])
    assert draws == 3 * w.config.pool_size  # preliminary fit plus one refit per iteration


def test_tail_percentile():
    value, pct = run.tail([float(i) for i in range(1, 51)])
    assert value == 40.0 and pct == 80.0
