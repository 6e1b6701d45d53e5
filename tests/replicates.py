"""Fresh-seed replicate statistics of one campaign shape against its true probability.

    stats = replicate_statistics(config, truth, range(7_000_000, 7_000_300))

runs ``replace(config, seed=s)`` for every master seed ``s`` of the range, with
no run directory, in two worker processes, and summarises the final estimates
against ``truth``. A campaign that raises is counted under the exit code the
command line would give it (1 for an exception the command line does not
expect) and left out of every other statistic.
"""
from __future__ import annotations

import math
import multiprocessing
import statistics
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from adastrat.campaign import final_report, run_campaign
from adastrat.config import RunConfig
from adastrat.errors import AllocationError, ConfigError, EvaluationThresholdError

WORKERS = 2
_EXIT_CODES = ((ConfigError, 2), (EvaluationThresholdError, 3), (AllocationError, 4))


@dataclass(frozen=True)
class ReplicateStatistics:
    replicates: int
    exits: Counter
    """Campaigns per exit code; 0 is a campaign that completed."""
    errors: list
    """(seed, message) of each campaign that raised."""
    bias: float
    """Mean estimate over the truth, minus 1."""
    bias_t: float
    """t-statistic of the mean estimate against the truth."""
    coverage: float
    """Share of 95% intervals that hold the truth."""
    z_sd: float
    """Sample sd of z = (estimate - truth) / sqrt(unbiased variance), over nonzero variances."""
    rmse: float
    """Root mean squared error over the truth."""
    variance_ratio: float
    """Naive Monte Carlo variance at the same evaluation count over the replicate variance."""
    median_efficiency: Optional[float]
    """Median of the report's efficiency_ratio, over the campaigns that report one."""


def _one(config: RunConfig) -> tuple:
    """(exit code, probability, unbiased variance, ci95, efficiency ratio, evaluations, error)."""
    try:
        report = final_report(run_campaign(config))
    except Exception as exc:
        code = next((code for kind, code in _EXIT_CODES if isinstance(exc, kind)), 1)
        return code, None, None, None, None, None, f"{type(exc).__name__}: {exc}"
    return (0, report["probability"], report["unbiased_variance"], report["ci95"], report["efficiency_ratio"],
            report["total_evaluations"], None)


def replicate_statistics(config: RunConfig, truth: float, seeds: Iterable[int]) -> ReplicateStatistics:
    seeds = list(seeds)
    configs = [replace(config, seed=s) for s in seeds]
    with ProcessPoolExecutor(WORKERS, mp_context=multiprocessing.get_context("spawn")) as pool:
        rows = list(pool.map(_one, configs, chunksize=max(1, len(configs) // (4 * WORKERS))))
    done = [r for r in rows if r[0] == 0]
    if len(done) < 2:
        raise RuntimeError(f"only {len(done)} of {len(rows)} campaigns completed")
    p = [r[1] for r in done]
    sd = statistics.stdev(p)
    zs = [(r[1] - truth) / math.sqrt(r[2]) for r in done if r[2] > 0]
    ratios = [r[4] for r in done if r[4] is not None]
    evaluations = statistics.fmean(r[5] for r in done)
    return ReplicateStatistics(
        replicates=len(rows),
        exits=Counter(r[0] for r in rows),
        errors=[(s, r[6]) for s, r in zip(seeds, rows) if r[0] != 0],
        bias=statistics.fmean(p) / truth - 1.0,
        bias_t=(statistics.fmean(p) - truth) / (sd / math.sqrt(len(p))),
        coverage=sum(r[3][0] <= truth <= r[3][1] for r in done) / len(done),
        z_sd=statistics.stdev(zs),
        rmse=math.sqrt(statistics.fmean((x - truth) ** 2 for x in p)) / truth,
        variance_ratio=truth * (1.0 - truth) / evaluations / sd**2,
        median_efficiency=statistics.median(ratios) if ratios else None,
    )
