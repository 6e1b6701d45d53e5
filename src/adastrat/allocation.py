"""Variance-minimizing integer allocation of the next evaluation budget.

The continuous optimum puts samples proportional to p1 * sqrt(p2 * (1 - p2))
per stratum. Integerization is largest-remainder (Hamilton) apportionment,
followed by a coverage repair: whenever the budget is large enough to give
every positively-weighted stratum at least one sample, strata that rounding
starved are topped up from the donors whose variance objective suffers
least. Without the repair a starved stratum would leave the stratified
variance undefined.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AllocationError, UnfillableStratumError
from .strata import StratumSet
from .surrogate import SurrogateModel

_SEARCH_BATCH = 1 << 16


def optimal_weights(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Unnormalized allocation weights w_i = p1_i * sqrt(p2_i * (1 - p2_i)).

    Strata with p2 at exactly 0 or 1 contribute no variance and get zero
    weight; the budget never flows there.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape:
        raise ValueError(f"p1 and p2 must have equal length, got {p1.shape} and {p2.shape}")
    if ((p1 < 0) | (p1 > 1) | (p2 < 0) | (p2 > 1)).any():
        raise ValueError("p1 and p2 entries must lie in [0, 1]")
    return p1 * np.sqrt(p2 * (1.0 - p2))


def _hamilton(weights: np.ndarray, budget: int) -> np.ndarray:
    """Largest-remainder apportionment of ``budget`` proportional to ``weights``.

    Remainder ties break toward the larger weight, then the lower index.
    """
    quota = budget * weights / weights.sum()
    base = np.floor(quota).astype(np.int64)
    remainder = budget - int(base.sum())
    if remainder > 0:
        frac = quota - base
        candidates = np.flatnonzero(weights > 0)
        order = candidates[np.lexsort((candidates, -weights[candidates], -frac[candidates]))]
        for t in range(remainder):  # cycling is unreachable in exact arithmetic
            base[order[t % order.size]] += 1
    return base


def _repair_coverage(weights: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Give every positively-weighted stratum at least one sample.

    Each starved stratum (largest weight first) takes one unit from the
    donor whose objective sum(w_i^2 / N_i) grows least when it loses one;
    ties prefer the smaller-weight donor, then the higher index, mirroring
    the apportionment tie rule.
    """
    counts = counts.copy()
    starved = np.flatnonzero((weights > 0) & (counts == 0))
    for i in sorted(starved, key=lambda k: (-weights[k], k)):
        donors = np.flatnonzero(counts >= 2)
        if donors.size == 0:  # cannot happen when budget >= positive strata
            raise AllocationError("coverage repair ran out of donor strata")
        cost = weights[donors] ** 2 * (1.0 / (counts[donors] - 1) - 1.0 / counts[donors])
        best = donors[np.lexsort((-donors, weights[donors], cost))[0]]
        counts[best] -= 1
        counts[i] += 1
    return counts


def allocate(weights: np.ndarray, budget: int) -> np.ndarray:
    """Integer allocation of ``budget`` proportional to ``weights``.

    Always sums to the budget exactly, never allocates to zero-weight
    strata, and — when the budget allows — covers every positively-weighted
    stratum with at least one sample.
    """
    weights = np.asarray(weights, dtype=float)
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if (weights < 0).any() or not np.isfinite(weights).all():
        raise ValueError("weights must be finite and non-negative")
    counts = np.zeros(weights.size, dtype=np.int64)
    if budget == 0:
        return counts
    n_positive = int((weights > 0).sum())
    if n_positive == 0:
        raise AllocationError(
            "all allocation weights are zero; widen the strata or use the hybrid "
            "conditional model so near-tail strata regain weight"
        )
    counts = _hamilton(weights, budget)
    if budget >= n_positive:
        counts = _repair_coverage(weights, counts)
    return counts


def subtract_existing(
    target: np.ndarray,
    existing: np.ndarray,
    budget: int,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """New evaluations per stratum after crediting already-evaluated samples.

    Start from max(0, target - existing); any shortfall against the budget is
    re-apportioned over the non-saturated strata (existing < target),
    proportional to ``weights`` (the targets themselves when no weights are
    given). A surplus — possible only if the targets exceed the budget — is
    removed the same way.
    """
    target = np.asarray(target, dtype=np.int64)
    existing = np.asarray(existing, dtype=np.int64)
    if target.shape != existing.shape:
        raise ValueError("target and existing must have equal length")
    w = np.asarray(weights, dtype=float) if weights is not None else target.astype(float)
    additional = np.maximum(0, target - existing)
    deficit = budget - int(additional.sum())
    if deficit > 0:
        open_w = np.where((w > 0) & (existing < target), w, 0.0)
        if not open_w.any():
            raise AllocationError(
                "every positively-weighted stratum already holds its target sample "
                "count; nothing left to allocate the remaining budget to"
            )
        additional += _hamilton(open_w, deficit)
    elif deficit < 0:
        surplus = -deficit
        reducible = np.where(additional > 0, np.maximum(w, 1e-300), 0.0)
        while surplus > 0:
            cut = np.minimum(_hamilton(reducible, surplus), additional)
            additional -= cut
            surplus -= int(cut.sum())
            reducible = np.where(additional > 0, reducible, 0.0)
    return additional


@dataclass(frozen=True)
class AllocationPlan:
    """Allocation record for one iteration: weights, targets, and the delta."""

    weights: np.ndarray
    target: np.ndarray
    existing: np.ndarray
    additional: np.ndarray


def plan_allocation(
    p1: np.ndarray,
    pool_hits: np.ndarray,
    p2: np.ndarray,
    existing: np.ndarray,
    budget: int,
    *,
    min_pool_hits: int = 10,
    prune_share: float = 0.0,
) -> AllocationPlan:
    """Full planning step: weights, pruning, apportionment, existing-credit.

    The target is the ideal allocation of the whole campaign so far plus the
    new budget; already-evaluated samples are then credited per stratum and
    the remainder trimmed back onto the budget. Computing targets against
    the total is what makes the credit meaningful: a stratum dense in
    earlier samples yields its share to under-sampled ones instead of the
    other way around.

    Strata whose occupancy estimate rests on fewer than ``min_pool_hits``
    pool draws are dropped from the plan (their weight is unreliable and a
    candidate search there may never terminate), as are strata holding less
    than ``prune_share`` of the total weight.
    """
    weights = optimal_weights(p1, p2)
    weights[np.asarray(pool_hits) < min_pool_hits] = 0.0
    if prune_share > 0.0 and weights.any():
        weights[weights < prune_share * weights.sum()] = 0.0
    existing = np.asarray(existing, dtype=np.int64)
    # samples sitting in zero-weight strata are sunk cost, not part of the plan
    plannable = budget + int(existing[weights > 0].sum())
    target = allocate(weights, plannable)
    additional = subtract_existing(target, existing, budget, weights=weights)
    return AllocationPlan(
        weights=weights,
        target=target,
        existing=existing,
        additional=additional,
    )


def select_candidates(
    strata: StratumSet,
    model: SurrogateModel,
    additional: np.ndarray,
    rng: np.random.Generator,
    per_stratum_cap: int = 10_000_000,
) -> list[tuple[int, np.ndarray]]:
    """Rejection-sample parameter vectors until each stratum quota is filled.

    Uniform draws are pushed through the surrogate and binned; the first
    ``additional[i]`` hits per stratum are kept, so the output is
    deterministic for a given generator state. Results are ordered by
    (stratum index, draw order). A stratum still unfilled after
    ``per_stratum_cap * additional[i]`` total draws raises
    UnfillableStratumError.

    Candidates are binned from their natural-unit representation through
    ``model.predict_many``, the path that re-bins every campaign sample, so
    re-binning a persisted candidate always reproduces its claimed stratum.
    """
    additional = np.asarray(additional, dtype=np.int64)
    need = additional.copy()
    space = model.space
    kept: dict[int, list[np.ndarray]] = {int(i): [] for i in np.flatnonzero(additional > 0)}
    hits = np.zeros(strata.n_strata, dtype=np.int64)
    drawn = 0
    while need.any():
        us = rng.random((_SEARCH_BATCH, space.dim))
        ws = space.denormalize_many(us)
        idx = strata.bin_many(model.predict_many(ws))
        drawn += _SEARCH_BATCH
        hits += np.bincount(idx, minlength=strata.n_strata)
        for i in np.flatnonzero(need > 0):
            rows = np.flatnonzero(idx == i)[: need[i]]
            kept[int(i)].extend(ws[rows])
            need[i] -= rows.size
        for i in np.flatnonzero(need > 0):
            if drawn >= per_stratum_cap * additional[i]:
                raise UnfillableStratumError(
                    stratum=int(i),
                    requested=int(additional[i]),
                    found=int(additional[i] - need[i]),
                    estimated_weight=float(hits[i] / drawn),
                )
    out: list[tuple[int, np.ndarray]] = []
    for i in sorted(kept):
        out.extend((i, w) for w in kept[i])
    return out
