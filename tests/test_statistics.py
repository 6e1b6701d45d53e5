"""Fresh-seed replicate checks of whole campaigns against the calibration truth.

Each bound is met by the current code with a clear margin; a fix that moves
the random streams or the math must keep meeting it over seeds it was not
tuned on.
"""
import json
import time
from pathlib import Path

import numpy as np

from adastrat.config import RunConfig
from adastrat.estimator import build_estimate
from adastrat.strata import StratumWeights
from replicates import replicate_statistics, summarise

CALIBRATION = json.loads((Path(__file__).resolve().parent / "fixtures" / "calibration.json").read_text())
TRUTH = CALIBRATION["oracle_truth"]


def test_single_reference_shape_at_a_small_pool():
    """The benchmark's ``single-reference`` campaign (100 + 99 evaluations, 102 strata, prune
    share 0.005) at a 10^5 pool, over 300 fresh master seeds.

    Its estimate is biased low by about 4% (t about -4 over these seeds). The bias
    comes from ``allocation.MIN_POOL_HITS``: strata whose occupancy rests on fewer
    than 10 pool hits get no samples, and with a cut at 1 the bias is gone. The
    default, exact stratum weights, cuts at p1 >= 10^-6 instead and shows no such
    bias (``test_default_config_is_unbiased``); a pool is now asked for by name, so
    the pool's bias is named here and not asserted.
    """
    config = RunConfig(
        critical_value=CALIBRATION["critical_value"], evaluator=CALIBRATION["evaluator"],
        preliminary_count=100, iteration_budgets=(99,), inner_strata=100, pool_size=100_000,
        allocation_prune_share=0.005, mode="single",
    )
    start = time.perf_counter()
    stats = replicate_statistics(config, TRUTH, range(7_000_000, 7_000_300))
    seconds = time.perf_counter() - start
    print(f"\nsingle-reference at a 10^5 pool: {stats} in {seconds:.1f} s")
    assert stats.exits == {0: 300}, stats.errors[:3]
    assert stats.coverage >= 0.85
    assert stats.z_sd <= 1.40


def _default(**overrides):
    """The calibration objective under every other default: 100 + 99 evaluations, 102 strata,
    single mode and exact stratum weights."""
    return RunConfig(critical_value=CALIBRATION["critical_value"], evaluator=CALIBRATION["evaluator"], **overrides)


def test_default_config_is_unbiased():
    """The default config at the benchmark's prune share 0.005, over 300 fresh master seeds."""
    start = time.perf_counter()
    stats = replicate_statistics(_default(allocation_prune_share=0.005), TRUTH, range(7_200_000, 7_200_300))
    print(f"\ndefault config at prune share 0.005: {stats} in {time.perf_counter() - start:.1f} s")
    assert stats.exits == {0: 300}, stats.errors[:3]
    assert abs(stats.bias_t) <= 3
    assert stats.coverage >= 0.90
    assert stats.z_sd <= 1.3


def test_default_config_completes_without_pruning():
    """The default config at prune share 0 (the default), over 100 fresh master seeds. Exact
    weights give a few strata a p1 as small as 10^-14, where the candidate search would give
    up (exit 4); the planning floor of p1 >= 10^-6 keeps the plan out of them."""
    start = time.perf_counter()
    stats = replicate_statistics(_default(), TRUTH, range(7_300_000, 7_300_100))
    print(f"\ndefault config at prune share 0: {stats} in {time.perf_counter() - start:.1f} s")
    assert stats.exits == {0: 100}, stats.errors[:3]


def test_summary_of_campaigns_without_spread():
    """100 equal-weight strata at a budget of 99: every sampled stratum holds one sample, so the
    unbiased variance, which skips strata of fewer than two, is 0 in every campaign, and on a
    deterministic objective each campaign reads the same estimate. The undefined statistics are
    None, and stay None for the sd of z when one campaign, with two samples in a mixed stratum,
    gives the only z value."""
    weights = StratumWeights(p1=np.full(100, 0.01))
    one_each = np.r_[np.ones(99, dtype=int), 0]
    p2 = (np.arange(100) >= 97).astype(float)  # the empty stratum 99 is extrapolated to 1

    def report(p2, counts):
        return {**build_estimate(weights, p2, counts).summary(), "total_evaluations": 199, "iterations": 1,
                "efficiency_ratio": None}

    rows = [(0, report(p2, one_each), None)] * 5 + [(4, None, "UnfillableStratumError: ...")]
    stats = summarise(rows, list(range(6)), 0.025)
    assert (stats.z_count, stats.z_sd, stats.bias_t, stats.variance_ratio) == (0, None, None, None)
    assert stats.exits == {0: 5, 4: 1} and stats.errors == [(5, "UnfillableStratumError: ...")]
    assert abs(stats.bias - 0.2) < 1e-12 and stats.coverage == 0.0

    mixed = one_each.copy()
    mixed[[95, 96]] = [0, 2]
    rows[1] = (0, report(np.where(np.arange(100) == 96, 0.5, p2), mixed), None)
    stats = summarise(rows, list(range(6)), 0.025)
    assert stats.z_count == 1 and stats.z_sd is None
    assert stats.bias_t is not None and stats.variance_ratio is not None
