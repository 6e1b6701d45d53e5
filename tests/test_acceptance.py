"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single summary line on success (run with ``-s`` to see
them stream); the pytest verdict itself is the pass/fail record. The
replicate campaigns share module-scoped fixtures so the whole suite stays
inside its runtime budgets.
"""
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from adastrat.allocation import allocate, optimal_weights
from adastrat.campaign import load_state, run_campaign, run_iteration, run_preliminary, write_report
from adastrat.conditional import laplace_exceedance
from adastrat.config import RunConfig
from adastrat.estimator import confidence_interval, naive_mc_equivalent
from adastrat.evaluators import SyntheticObjective
from adastrat.rng import substream
from adastrat.space import DEFAULT_SPACE, sample_uniform
from adastrat.strata import build_strata

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _single_config(calibration, seed):
    return RunConfig(
        critical_value=calibration["critical_value"],
        evaluator=calibration["evaluator"],
        preliminary_count=100,
        iteration_budgets=(99,),
        inner_strata=100,
        pool_size=2_000_000,
        mode="single",
        seed=seed,
        allocation_prune_share=0.005,
    )


def _multi_config(calibration, seed):
    return RunConfig(
        critical_value=calibration["critical_value"],
        evaluator=calibration["evaluator"],
        preliminary_count=10,
        iteration_budgets=(30, 21),
        inner_strata=20,
        pool_size=500_000,
        mode="multi",
        seed=seed,
        band_halfwidth_sigmas=20.0,
    )


@pytest.fixture(scope="module")
def single_replicates(calibration):
    """100 seeded single-iteration campaigns (criteria 4 and 5 share them)."""
    t0 = time.time()
    estimates = []
    for seed in range(100):
        state = run_campaign(_single_config(calibration, seed))
        estimates.append(state.estimates[-1])
    return {"estimates": estimates, "elapsed": time.time() - t0}


def test_criterion_1_reference_number_reconstruction():
    cases = [
        (0.00213, 6.847554e-08, 0.00160, 0.00265),
        (0.00198, 1.110937e-07, 0.00131, 0.00265),
        (0.00220, 3.449311e-08, 0.00183, 0.00257),
    ]
    for mu, var, lo, hi in cases:
        got_lo, got_hi = confidence_interval(mu, var)
        assert abs(got_lo - lo) <= 1e-5, (mu, var)
        assert abs(got_hi - hi) <= 1e-5, (mu, var)
    n = naive_mc_equivalent(0.00213, 5.191024e-08)
    assert abs(n - 40_852) / 40_852 <= 0.005
    ratio = n / 199
    assert ratio > 200
    print(f"\n[criterion 1] PASS - intervals reconstructed, mc-equivalent {n} ({ratio:.0f}x over 199 runs)")


def _laplace_tail_quadrature(lo, b):
    """Oracle integral of the Laplace density over (lo, inf), split at its kink."""
    density = lambda x: math.exp(-abs(x) / b) / (2 * b)
    if lo < 0.0:
        left, _ = integrate.quad(density, lo, 0.0, epsabs=1e-14, epsrel=1e-13)
        right, _ = integrate.quad(density, 0.0, np.inf, epsabs=1e-14, epsrel=1e-13)
        return left + right
    return integrate.quad(density, lo, np.inf, epsabs=1e-14, epsrel=1e-13)[0]


def test_criterion_2_laplace_closed_forms_vs_quadrature():
    worst = 0.0
    for c, sigma in ((0.9, 0.01), (0.0, 0.37), (-1.5, 0.002)):
        b = sigma / math.sqrt(2.0)
        for a in np.linspace(c - 12 * sigma, c + 12 * sigma, 101):
            closed = laplace_exceedance(float(a), c, sigma)
            oracle = _laplace_tail_quadrature(c - float(a), b)
            worst = max(worst, abs(closed - oracle))
            assert abs(closed - oracle) <= 1e-10
            mirror = laplace_exceedance(c - (float(a) - c), c, sigma)
            assert abs(closed + mirror - 1.0) <= 1e-12
    print(f"\n[criterion 2] PASS - closed form within {worst:.2e} of quadrature on all grids")


def _variance_objective(p1, p2, counts):
    active = (p2 > 0) & (p2 < 1)
    if (active & (counts == 0)).any():
        return np.inf
    terms = np.where(active, p1**2 * p2 * (1 - p2) / np.maximum(counts, 1), 0.0)
    return float(terms.sum())


def test_criterion_3_allocation_near_optimality_and_fuzz():
    t0 = time.time()
    rng = substream(20260808, "acceptance-allocation")
    worst_ratio = 1.0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        budget = int(rng.integers(2, 13))
        p1 = rng.dirichlet(np.ones(n))
        p2 = rng.random(n)
        counts = allocate(optimal_weights(p1, p2), budget)
        achieved = _variance_objective(p1, p2, counts)
        best = np.inf
        for cut in itertools.combinations(range(budget + n - 1), n - 1):
            comp = np.diff([-1, *cut, budget + n - 1]) - 1
            best = min(best, _variance_objective(p1, p2, np.array(comp)))
        if np.isinf(best):
            assert np.isinf(achieved)
        else:
            assert achieved <= 1.05 * best
            worst_ratio = max(worst_ratio, achieved / best)
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        budget = int(rng.integers(0, 60))
        w = rng.random(n) * (rng.random(n) > 0.2)
        if not (w > 0).any():
            continue
        counts = allocate(w, budget)
        assert counts.sum() == budget
        for i, j in itertools.combinations(range(n), 2):
            if w[i] > w[j]:
                assert counts[i] >= counts[j]
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"\n[criterion 3] PASS - worst objective ratio {worst_ratio:.4f}, fuzz clean in {elapsed:.1f}s")


def test_criterion_4_estimator_vs_oracle(calibration, single_replicates):
    p_star = calibration["oracle_truth"]
    assert calibration["oracle_standard_error"] <= 1.5e-5
    estimates = single_replicates["estimates"]
    within_4s = 0
    covered = 0
    for est in estimates:
        s = math.sqrt(est.unbiased_variance)
        within_4s += abs(est.probability - p_star) <= 4 * s
        covered += est.ci95[0] <= p_star <= est.ci95[1]
    assert within_4s >= 90, f"only {within_4s}/100 within 4s"
    assert covered >= 85, f"only {covered}/100 intervals covered the truth"
    assert single_replicates["elapsed"] < 300.0
    print(
        f"\n[criterion 4] PASS - |err|<=4s in {within_4s}/100, CI covered {covered}/100, "
        f"{single_replicates['elapsed']:.0f}s for 100 campaigns"
    )


def test_criterion_5_efficiency_over_naive_mc(calibration, single_replicates):
    spec = calibration["evaluator"]
    objective = SyntheticObjective(kind=spec["kind"], noise_scale=spec["noise_scale"], seed=spec["seed"])
    naive = []
    for seed in range(100):
        ws = sample_uniform(DEFAULT_SPACE, substream(seed, "acceptance-naive"), 199)
        naive.append(float((objective.evaluate_many(ws) > calibration["critical_value"]).mean()))
    adaptive_var = float(np.var([e.probability for e in single_replicates["estimates"]]))
    naive_var = float(np.var(naive))
    ratio = naive_var / adaptive_var
    assert ratio >= 50.0, f"empirical variance ratio {ratio:.1f} < 50"
    print(f"\n[criterion 5] PASS - variance ratio {ratio:.0f}x (adaptive {adaptive_var:.2e} vs naive {naive_var:.2e})")


def test_criterion_6_multi_iteration_improvement(calibration):
    wins = 0
    for seed in range(50):
        state = run_campaign(_multi_config(calibration, seed))
        assert state.total_evaluations() == 61
        v1, v2 = state.estimates[0].unbiased_variance, state.estimates[1].unbiased_variance
        wins += v2 < v1
    assert wins >= 40, f"iteration-2 variance improved in only {wins}/50 replicates"
    assert 61 < 199
    print(f"\n[criterion 6] PASS - iteration-2 variance lower in {wins}/50 replicates at 61 evaluations")


def _tree_differs(cmp):
    if cmp.diff_files or cmp.left_only or cmp.right_only or cmp.funny_files:
        return True
    return any(_tree_differs(sub) for sub in cmp.subdirs.values())


def test_criterion_7_determinism_and_resume(calibration, tmp_path):
    import filecmp

    cfg = RunConfig(
        critical_value=calibration["critical_value"],
        evaluator=calibration["evaluator"],
        preliminary_count=40,
        iteration_budgets=(20, 10),
        inner_strata=20,
        pool_size=100_000,
        mode="multi",
        seed=13,
    )
    run_campaign(cfg, tmp_path / "a")
    run_campaign(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "samples.tsv").read_bytes() == (tmp_path / "b" / "samples.tsv").read_bytes()
    assert not _tree_differs(filecmp.dircmp(tmp_path / "a", tmp_path / "b", ignore=["run.log"]))

    state = run_preliminary(cfg, tmp_path / "resumed")
    run_iteration(state, cfg.iteration_budgets[0])
    del state  # the interrupt: everything below rebuilds from disk
    resumed = load_state(tmp_path / "resumed")
    for budget in cfg.iteration_budgets[resumed.iteration:]:
        run_iteration(resumed, budget)
    write_report(resumed)
    assert not _tree_differs(filecmp.dircmp(tmp_path / "a", tmp_path / "resumed", ignore=["run.log"]))
    print("\n[criterion 7] PASS - reruns byte-identical, interrupted run resumes exactly")


def test_criterion_8_external_protocol_parity(calibration, tmp_path):
    import sys

    base = dict(
        critical_value=0.93,
        preliminary_count=40,
        iteration_budgets=(20,),
        inner_strata=20,
        pool_size=100_000,
        mode="single",
        seed=29,
    )
    synthetic = RunConfig(
        evaluator={"type": "synthetic", "kind": "quadratic", "noise_scale": 0.0, "seed": 0}, **base
    )
    command = [sys.executable, str(FIXTURES / "external_objective.py")]
    results = {}
    results["synthetic"] = run_campaign(synthetic, tmp_path / "synthetic")
    for par in (1, 8):
        cfg = RunConfig(
            evaluator={"type": "external", "command": command, "timeout": 60.0},
            parallelism=par,
            **base,
        )
        results[f"external{par}"] = run_campaign(cfg, tmp_path / f"external{par}")
    reference = np.array([s.j_true for s in results["synthetic"].samples])
    for key in ("external1", "external8"):
        got = np.array([s.j_true for s in results[key].samples])
        np.testing.assert_allclose(got, reference, rtol=0, atol=1e-12)
        assert results[key].estimates[-1].probability == pytest.approx(
            results["synthetic"].estimates[-1].probability, abs=1e-12
        )
    print("\n[criterion 8] PASS - external protocol campaigns match in-process ones at parallelism 1 and 8")
