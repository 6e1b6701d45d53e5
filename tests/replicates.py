"""Fresh-seed replicate statistics of one campaign shape against its true probability.

    stats = replicate_statistics(config, truth, range(7_000_000, 7_000_300))

runs ``replace(config, seed=s)`` for every master seed ``s`` of the range, with
no run directory, in two worker processes, and summarises the final estimates
against ``truth``. A campaign that raises is counted under the exit code the
command line would give it (1 for an exception the command line does not
expect) and left out of every other statistic. A statistic the completed
campaigns leave undefined is None: the sd of z with fewer than two nonzero
variances, and the t-statistic and variance ratio when every estimate is equal.
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
from adastrat.cli import EXIT_CODES
from adastrat.config import RunConfig

WORKERS = 2


@dataclass(frozen=True)
class ReplicateStatistics:
    replicates: int
    exits: Counter
    """Campaigns per exit code; 0 is a campaign that completed."""
    errors: list
    """(seed, message) of each campaign that raised."""
    bias: float
    """Mean estimate over the truth, minus 1."""
    bias_t: Optional[float]
    """t-statistic of the mean estimate against the truth; None when every estimate is equal."""
    coverage: float
    """Share of 95% intervals that hold the truth."""
    z_count: int
    """Campaigns with a nonzero unbiased variance, the ones that give a z value."""
    z_sd: Optional[float]
    """Sample sd of z = (estimate - truth) / sqrt(unbiased variance); None for fewer than two z values."""
    rmse: float
    """Root mean squared error over the truth."""
    variance_ratio: Optional[float]
    """Naive Monte Carlo variance at the same evaluation count over the replicate variance; None
    when every estimate is equal."""
    median_efficiency: Optional[float]
    """Median of the report's efficiency_ratio, over the campaigns that report one."""


def _one(config: RunConfig) -> tuple:
    """(exit code, final report or None, error message or None) of one campaign."""
    try:
        return 0, final_report(run_campaign(config)), None
    except Exception as exc:
        code = next((code for kind, code, _ in EXIT_CODES if isinstance(exc, kind)), 1)
        return code, None, f"{type(exc).__name__}: {exc}"


def replicate_statistics(config: RunConfig, truth: float, seeds: Iterable[int]) -> ReplicateStatistics:
    seeds = list(seeds)
    configs = [replace(config, seed=s) for s in seeds]
    with ProcessPoolExecutor(WORKERS, mp_context=multiprocessing.get_context("spawn")) as pool:
        rows = list(pool.map(_one, configs, chunksize=max(1, len(configs) // (4 * WORKERS))))
    return summarise(rows, seeds, truth)


def summarise(rows: list, seeds: list, truth: float) -> ReplicateStatistics:
    """The statistics of ``_one``'s rows, one per master seed of ``seeds``, against ``truth``."""
    done = [report for code, report, _ in rows if code == 0]
    if len(done) < 2:
        raise RuntimeError(f"only {len(done)} of {len(rows)} campaigns completed")
    p = [r["probability"] for r in done]
    sd = statistics.stdev(p)
    zs = [(r["probability"] - truth) / math.sqrt(r["unbiased_variance"]) for r in done if r["unbiased_variance"] > 0]
    ratios = [r["efficiency_ratio"] for r in done if r["efficiency_ratio"] is not None]
    evaluations = statistics.fmean(r["total_evaluations"] for r in done)
    return ReplicateStatistics(
        replicates=len(rows),
        exits=Counter(code for code, _, _ in rows),
        errors=[(s, error) for s, (code, _, error) in zip(seeds, rows) if code != 0],
        bias=statistics.fmean(p) / truth - 1.0,
        bias_t=(statistics.fmean(p) - truth) / (sd / math.sqrt(len(p))) if sd > 0 else None,
        coverage=sum(r["ci95"][0] <= truth <= r["ci95"][1] for r in done) / len(done),
        z_count=len(zs),
        z_sd=statistics.stdev(zs) if len(zs) >= 2 else None,
        rmse=math.sqrt(statistics.fmean((x - truth) ** 2 for x in p)) / truth,
        variance_ratio=truth * (1.0 - truth) / evaluations / sd**2 if sd > 0 else None,
        median_efficiency=statistics.median(ratios) if ratios else None,
    )
