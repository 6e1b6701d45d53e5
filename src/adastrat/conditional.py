"""Per-stratum conditional exceedance probabilities, three ways.

Prediction treats the surrogate error as Laplace(0, sigma/sqrt(2)) — the
scale that makes the model variance match sigma^2 — and integrates its tail
past the critical value from each stratum midpoint. Observation counts
exceedances among evaluated samples. The hybrid mixes the two, trusting
observation in proportion to how many samples a stratum has.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .strata import StratumSet

_SQRT2 = math.sqrt(2.0)

#: Samples at which the hybrid trusts a stratum's observations fully.
N_CONFIDENT = 10


def laplace_exceedance(a: np.ndarray, critical_value: float, sigma: float) -> np.ndarray:
    """P(true objective > critical) for points whose surrogate values are ``a``.

    Closed-form Laplace tail: 0.5*exp((a-c)/b) below the critical value,
    1 - 0.5*exp((c-a)/b) above it, with b = sigma/sqrt(2); exactly 0.5 at the
    critical value itself.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    a = np.asarray(a, dtype=float)
    b = sigma / _SQRT2
    c = critical_value
    below = 0.5 * np.exp(np.minimum(a - c, 0.0) / b)
    above = 1.0 - 0.5 * np.exp(np.minimum(c - a, 0.0) / b)
    return np.where(a < c, below, np.where(a > c, above, 0.5))


def predict_p2(strata: StratumSet) -> np.ndarray:
    """Laplace-model conditional probability per stratum.

    Inner strata use their midpoint; the tails are pinned to hard 0 and 1
    (the formula is only meaningful for finite strata, and by construction
    the tails sit many sigma away from the critical value). The two-stratum
    split of a perfect fit is therefore the hard 0/1 split.
    """
    out = np.empty(strata.n_strata)
    out[0], out[-1] = 0.0, 1.0
    if strata.n_strata > 2:
        out[1:-1] = laplace_exceedance(strata.midpoints()[1:-1], strata.critical_value, strata.sigma)
    return out


def observe_p2(
    strata: StratumSet,
    j_tilde: np.ndarray,
    j_true: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Empirical exceedance per stratum from the samples' surrogate and true values.

    Returns (counts, exceed_counts, p2_obs); strata without samples carry NaN
    in ``p2_obs``. Exceedance is strict (j_true > strata.critical_value).
    """
    j_true = np.asarray(j_true, dtype=float)
    missing = np.flatnonzero(np.isnan(j_true))
    if missing.size:
        raise ValueError(f"sample row {int(missing[0])} has no objective value")
    idx = strata.bin_many(j_tilde)
    n = strata.n_strata
    counts = np.bincount(idx, minlength=n)
    exceed = np.bincount(idx[j_true > strata.critical_value], minlength=n)
    p2 = np.full(n, np.nan)
    seen = counts > 0
    p2[seen] = exceed[seen] / counts[seen]
    return counts, exceed, p2


def mix_p2(p2_obs: np.ndarray, p2_pred: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Convex mix of observation and prediction, weighted by sample counts.

    A stratum with at least ``N_CONFIDENT`` samples is trusted fully on its
    observations; in between the weight is counts/N_CONFIDENT, so an empty
    one (weight 0, NaN observation) gets exactly the prediction.
    """
    r = np.minimum(1.0, np.asarray(counts) / float(N_CONFIDENT))
    return r * np.nan_to_num(np.asarray(p2_obs, dtype=float)) + (1.0 - r) * np.asarray(p2_pred, dtype=float)


@dataclass(frozen=True)
class ConditionalTable:
    """Snapshot of all three conditional-probability views for one iteration."""

    p2_pred: np.ndarray
    p2_obs: np.ndarray
    counts: np.ndarray
    exceed_counts: np.ndarray
    p2_mix: np.ndarray


def build_conditional_table(
    strata: StratumSet,
    j_tilde: np.ndarray,
    j_true: np.ndarray,
) -> ConditionalTable:
    pred = predict_p2(strata)
    counts, exceed, obs = observe_p2(strata, j_tilde, j_true)
    mix = mix_p2(obs, pred, counts)
    return ConditionalTable(
        p2_pred=pred,
        p2_obs=obs,
        counts=counts,
        exceed_counts=exceed,
        p2_mix=mix,
    )
