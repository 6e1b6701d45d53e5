"""Fresh-seed replicate checks of whole campaigns against the calibration truth.

Each bound is met by the current code with a clear margin; a fix that moves
the random streams or the math must keep meeting it over seeds it was not
tuned on.
"""
import json
import time
from pathlib import Path

from adastrat.config import RunConfig
from replicates import replicate_statistics

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
