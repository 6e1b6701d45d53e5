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
from typing import Sequence

import numpy as np

from .errors import ContractError, DegenerateModelError
from .space import SampleRecord
from .strata import StratumSet

_SQRT2 = math.sqrt(2.0)


def laplace_exceedance(a: np.ndarray, critical_value: float, sigma: float) -> np.ndarray:
    """P(true objective > critical) for points whose surrogate values are ``a``.

    Closed-form Laplace tail: 0.5*exp((a-c)/b) below the critical value,
    1 - 0.5*exp((c-a)/b) above it, with b = sigma/sqrt(2); exactly 0.5 at the
    critical value itself.
    """
    if sigma <= 0.0:
        raise DegenerateModelError(f"sigma must be positive, got {sigma!r}")
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
    samples: Sequence[SampleRecord],
    critical_value: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Empirical exceedance per stratum from evaluated samples.

    Returns (counts, exceed_counts, p2_obs); strata without samples carry NaN
    in ``p2_obs``. Exceedance is strict (j_true > critical_value).
    """
    j_true = np.array([s.j_true for s in samples], dtype=float)
    j_tilde = np.array([s.j_tilde for s in samples], dtype=float)
    for values, what in ((j_true, "objective"), (j_tilde, "surrogate")):
        missing = np.flatnonzero(np.isnan(values))
        if missing.size:
            raise ContractError(f"sample {samples[missing[0]].id} has no {what} value")
    idx = strata.bin_many(j_tilde)
    n = strata.n_strata
    counts = np.bincount(idx, minlength=n)
    exceed = np.bincount(idx[j_true > critical_value], minlength=n)
    p2 = np.full(n, np.nan)
    seen = counts > 0
    p2[seen] = exceed[seen] / counts[seen]
    return counts, exceed, p2


def mix_p2(
    p2_obs: np.ndarray,
    p2_pred: np.ndarray,
    counts: np.ndarray,
    n_confident: int,
) -> np.ndarray:
    """Convex mix of observation and prediction, weighted by sample counts.

    A stratum with at least ``n_confident`` samples is trusted fully on its
    observations; an empty one falls back to the prediction; in between the
    weight is counts/n_confident.
    """
    if n_confident < 1:
        raise ValueError(f"n_confident must be >= 1, got {n_confident}")
    counts = np.asarray(counts)
    r = np.minimum(1.0, counts / float(n_confident))
    obs = np.where(counts > 0, np.nan_to_num(np.asarray(p2_obs, dtype=float)), 0.0)
    return np.where(counts > 0, r * obs + (1.0 - r) * np.asarray(p2_pred, dtype=float),
                    np.asarray(p2_pred, dtype=float))


def p2_variance(p2: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Biased and unbiased binomial variances of per-stratum probabilities.

    Biased uses divisor N_i (0 by convention where N_i = 0); unbiased uses
    N_i - 1 and is NaN (absent) wherever N_i <= 1.
    """
    p2 = np.asarray(p2, dtype=float)
    counts = np.asarray(counts)
    spread = p2 * (1.0 - p2)
    biased = np.where(counts >= 1, spread / np.maximum(counts, 1), 0.0)
    unbiased = np.full(p2.shape, np.nan)
    ok = counts >= 2
    unbiased[ok] = spread[ok] / (counts[ok] - 1)
    return biased, unbiased


@dataclass(frozen=True)
class ConditionalTable:
    """Snapshot of all three conditional-probability views for one iteration."""

    p2_pred: np.ndarray
    p2_obs: np.ndarray
    counts: np.ndarray
    exceed_counts: np.ndarray
    p2_mix: np.ndarray
    n_confident: int


def build_conditional_table(
    strata: StratumSet,
    samples: Sequence[SampleRecord],
    critical_value: float,
    n_confident: int,
) -> ConditionalTable:
    pred = predict_p2(strata)
    counts, exceed, obs = observe_p2(strata, samples, critical_value)
    mix = mix_p2(obs, pred, counts, n_confident)
    return ConditionalTable(
        p2_pred=pred,
        p2_obs=obs,
        counts=counts,
        exceed_counts=exceed,
        p2_mix=mix,
        n_confident=n_confident,
    )
