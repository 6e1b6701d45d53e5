"""Rare-event probability, variances, confidence interval, and cost parity.

The stratum weights are treated as known constants: they are exact by
default, and a configured pool behind them is large. All reported variance
comes from the per-stratum conditional probabilities, through
``stratified_variance``, the one variance path. A pool's separate Monte
Carlo error is surfaced as ``p1_standard_error`` so the assumption stays
inspectable; exact weights have none, and report it as None.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .strata import StratumSet, StratumWeights

_SUM_TOL = 1e-9


def estimate(p1: np.ndarray, p2: np.ndarray) -> float:
    """Total exceedance probability sum(p1_i * p2_i)."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape:
        raise ValueError(f"p1 and p2 must have equal length, got {p1.shape} and {p2.shape}")
    if ((p1 < 0) | (p1 > 1) | (p2 < 0) | (p2 > 1)).any():
        raise ValueError("p1 and p2 entries must lie in [0, 1]")
    total = float(p1.sum())
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"stratum weights sum to {total!r}, not 1")
    return float(p1 @ p2)


def stratified_variance(p1: np.ndarray, p2: np.ndarray, counts: np.ndarray, ddof: int = 0) -> float:
    """sum over strata of p1_i^2 * p2_i * (1 - p2_i) / (N_i - ddof).

    ``ddof`` 0 gives the biased variance, 1 the unbiased one, which skips
    strata with N_i < 2; naive Monte Carlo is the one stratum ``p1 = [1]``.
    Strata with p2 at exactly 0 or 1 contribute nothing regardless of their
    counts (hard-extrapolated strata are legal zero-variance contributors);
    a stratum with spread but no samples is a contract violation.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    counts = np.asarray(counts)
    active = (p2 > 0.0) & (p2 < 1.0)
    starved = active & (counts < 1)
    if starved.any():
        raise ValueError(
            f"stratum {int(np.flatnonzero(starved)[0])} has conditional probability "
            f"strictly between 0 and 1 but no samples"
        )
    ok = active & (counts > ddof)
    if not ok.any():
        return 0.0
    return float(np.sum(p1[ok] ** 2 * p2[ok] * (1.0 - p2[ok]) / (counts[ok] - ddof)))


def confidence_interval(probability: float, unbiased_var: float) -> tuple[float, float]:
    """95% interval mu +- 2s with s the unbiased standard deviation."""
    if unbiased_var < 0.0:
        raise ValueError(f"variance must be >= 0, got {unbiased_var!r}")
    s = math.sqrt(unbiased_var)
    return probability - 2.0 * s, probability + 2.0 * s


def naive_mc_equivalent(probability: float, target_variance: float) -> int:
    """Direct Monte Carlo sample count matching ``target_variance``: ceil(P(1-P)/Var)."""
    if not (0.0 < probability < 1.0):
        raise ValueError(f"probability must be strictly inside (0, 1), got {probability!r}")
    if target_variance <= 0.0:
        raise ValueError(f"target variance must be positive, got {target_variance!r}")
    return math.ceil(probability * (1.0 - probability) / target_variance)


def hard_tail_p2(strata: StratumSet, counts: np.ndarray, p2_obs: np.ndarray) -> np.ndarray:
    """Observed exceedance rates with hard 0/1 extrapolation for empty strata.

    ``p2_obs`` is the observed rate of ``observe_p2``. An unsampled stratum
    inherits 0 when its midpoint sits below the critical value and 1
    otherwise — the limit behavior of a perfectly trusted surrogate, and the
    convention the final single-shot estimate rests on.
    """
    hard = np.where(strata.midpoints() < strata.critical_value, 0.0, 1.0)
    return np.where(np.asarray(counts) > 0, p2_obs, hard)


@dataclass(frozen=True)
class RareEventEstimate:
    """Estimate with its uncertainty and the cost of matching it naively: the scalars of
    ``estimate.json``, which, with ``estimate.tsv``'s columns, is rendered from the samples, not kept."""

    probability: float
    biased_variance: float
    unbiased_variance: float
    ci95: tuple[float, float]
    mc_equivalent: Optional[int]
    p1_standard_error: Optional[float]
    """Standard error that pool weights add to the probability; None for exact weights."""

    def summary(self) -> dict:
        """The scalar fields, as ``estimate.json`` holds them."""
        return {**vars(self), "ci95": list(self.ci95)}


def build_estimate(weights: StratumWeights, p2: np.ndarray, counts: np.ndarray) -> RareEventEstimate:
    """The estimate from stratum weights and each stratum's ``hard_tail_p2`` rate and sample count."""
    p1 = weights.p1
    prob = estimate(p1, p2)
    bvar = stratified_variance(p1, p2, counts)
    uvar = stratified_variance(p1, p2, counts, ddof=1)
    ci = confidence_interval(prob, uvar)
    mc = naive_mc_equivalent(prob, bvar) if 0.0 < prob < 1.0 and bvar > 0.0 else None
    p1_se = None if weights.pool_size is None else float(np.sqrt(np.sum(p2**2 * weights.variance)))
    return RareEventEstimate(
        probability=prob,
        biased_variance=bvar,
        unbiased_variance=uvar,
        ci95=ci,
        mc_equivalent=mc,
        p1_standard_error=p1_se,
    )
