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

from .errors import AllocationError
from .strata import StratumSet
from .surrogate import SurrogateModel

# Rows of the first candidate-search draw, and the fewest of any later one. Per row, a
# batch costs the draw, one normalized-coordinate product and a band test; the few
# rows in the band and the bookkeeping cost about the same per batch whatever its
# size. So a search still far from its quotas draws larger batches, sized from its
# hit rates (see ``select_candidates``), while one that fills them in its first
# batch draws little past its last kept row. The per-stratum cap is checked once
# per batch.
_SEARCH_BATCH = 1 << 12

# Rows of the largest draw, and of the one draw buffer: 384 KiB at d = 6.
_SEARCH_BATCH_CAP = 1 << 13

#: Hits a stratum needs before the plan gives it samples: in its pool, or for exact
#: weights in expectation over a search of ``PER_STRATUM_CAP`` draws (p1 >= 10**-6).
MIN_POOL_HITS = 10

#: Search draws per requested sample after which an unfilled stratum is given up.
PER_STRATUM_CAP = 10_000_000


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
    target: np.ndarray, existing: np.ndarray, budget: int, weights: np.ndarray
) -> np.ndarray:
    """New evaluations per stratum after crediting already-evaluated samples.

    Start from max(0, target - existing). ``plan_allocation``'s targets sum to
    the budget plus the existing samples in weighted strata, so this is never
    short of the budget; any surplus (strata holding more than their target)
    is removed from the strata still due samples, in proportion to ``weights``.
    """
    target = np.asarray(target, dtype=np.int64)
    existing = np.asarray(existing, dtype=np.int64)
    if target.shape != existing.shape:
        raise ValueError("target and existing must have equal length")
    additional = np.maximum(0, target - existing)
    surplus = int(additional.sum()) - budget
    reducible = np.where(additional > 0, np.maximum(np.asarray(weights, dtype=float), 1e-300), 0.0)
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
    pool_hits: Optional[np.ndarray],
    p2: np.ndarray,
    existing: np.ndarray,
    budget: int,
    *,
    prune_share: float = 0.0,
) -> AllocationPlan:
    """Full planning step: weights, pruning, apportionment, existing-credit.

    The target is the ideal allocation of the whole campaign so far plus the
    new budget; already-evaluated samples are then credited per stratum and
    the remainder trimmed back onto the budget. Computing targets against
    the total is what makes the credit meaningful: a stratum dense in
    earlier samples yields its share to under-sampled ones instead of the
    other way around.

    Strata with fewer than ``MIN_POOL_HITS`` hits are dropped from the plan
    (their weight is unreliable and a candidate search there may never
    terminate): ``pool_hits`` counts them in the pool, and for exact weights
    (``pool_hits`` None) a stratum has p1 * ``PER_STRATUM_CAP`` of them, the
    same cut a pool of that size makes in expectation. So are strata holding
    less than ``prune_share`` of the total weight, except the largest one: a
    share above 1/n of n near-equal strata would otherwise prune them all.
    """
    weights = optimal_weights(p1, p2)
    hits = np.asarray(p1) * PER_STRATUM_CAP if pool_hits is None else np.asarray(pool_hits)
    weights[hits < MIN_POOL_HITS] = 0.0
    if prune_share > 0.0 and weights.any():
        pruned = weights < prune_share * weights.sum()
        pruned[np.argmax(weights)] = False
        weights[pruned] = 0.0
    existing = np.asarray(existing, dtype=np.int64)
    # samples sitting in zero-weight strata are sunk cost, not part of the plan
    plannable = budget + int(existing[weights > 0].sum())
    target = allocate(weights, plannable)
    additional = subtract_existing(target, existing, budget, weights)
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
) -> np.ndarray:
    """Rejection-sample parameter vectors until each stratum quota is filled.

    Uniform draws are pushed through the surrogate and binned; the first
    ``additional[i]`` hits per stratum are kept, so the output is
    deterministic for a given generator state. The picks come back as one
    ``(additional.sum(), d)`` array in natural units, ordered by (stratum
    index, draw order). A stratum still unfilled after
    ``PER_STRATUM_CAP * additional[i]`` total draws raises
    AllocationError; the cap is checked after each batch, so it is met
    to within one batch.

    Every batch is drawn by ``rng.random(out=...)`` into one buffer of
    ``_SEARCH_BATCH_CAP`` rows. The first batch has ``_SEARCH_BATCH`` rows;
    each later one has half the rows the slowest open quota still needs at
    its hit rate so far, 0.5 * max_i need[i] * drawn / max(hits[i], 1), held
    within [``_SEARCH_BATCH``, ``_SEARCH_BATCH_CAP``]. Consecutive ``random``
    calls return the same rows as one large call, so the picks do not depend
    on the batch sizes; only how many rows are drawn past the last kept one
    does, and that is under one batch, of at most ``_SEARCH_BATCH_CAP`` = 2**13
    rows.

    A hit is binned from its natural-unit representation through
    ``model.predict_many``, the path that re-bins every campaign sample, so
    re-binning a persisted candidate always reproduces its claimed stratum.
    That path costs several draws per row, so the search squeezes it: each
    batch is first binned from its normalized coordinates by
    ``model.predict_normalized``, and only the rows within ``_search_reach``
    strata of an open quota take the natural-unit path. A row's two bins are
    never further apart than that, so the picks are those of binning every
    row in natural units. The error's estimated weight counts the
    normalized-coordinate bins.
    """
    additional = np.asarray(additional, dtype=np.int64)
    need = additional.copy()
    space, n = model.space, strata.n_strata
    reach = _search_reach(strata, model)
    lower, upper = np.clip(np.arange(n) - reach, 0, n), np.clip(np.arange(n) + reach + 1, 0, n)
    bounds = np.concatenate(([-np.inf], strata.edges, [np.nan]))  # x >= NaN is never true
    hits = np.zeros(n, dtype=np.int64)
    picks, picked = [np.empty((0, space.dim))], [np.empty(0, dtype=np.intp)]
    buffer = np.empty((_SEARCH_BATCH_CAP, space.dim))
    drawn, size = 0, _SEARCH_BATCH
    near = None  # the strata within reach of an open quota, recomputed when a quota fills
    while need.any():
        us = rng.random(out=buffer[:size])
        drawn += len(us)
        if near is None:
            open_below = np.concatenate(([0], np.cumsum(need > 0)))
            near = open_below[upper] > open_below[lower]
            first, last = np.flatnonzero(near)[[0, -1]]
        x = model.predict_normalized(us)
        # the rows that bin into strata first..last; a NaN row stays, and bin_many raises on it
        rows = np.flatnonzero(~(x < bounds[first]) & ~(x >= bounds[last + 1]))
        if rows.size:
            rough = strata.bin_many(x[rows])
            hits += np.bincount(rough, minlength=n)
            ws = space.denormalize_many(us[rows[near[rough]]])
            idx = strata.bin_many(model.predict_many(ws))
            # keep the first need[i] rows of each stratum i: rank the rows within their stratum in draw order
            order = np.argsort(idx, kind="stable")
            counts = np.bincount(idx, minlength=n)
            rank = np.arange(idx.size) - (np.cumsum(counts) - counts)[idx[order]]
            keep = order[rank < need[idx[order]]]
            picks.append(ws[keep])
            picked.append(idx[keep])
            need -= np.bincount(idx[keep], minlength=n)
            if not need[idx[keep]].all():
                near = None
        short = np.flatnonzero((need > 0) & (drawn >= PER_STRATUM_CAP * additional))
        if short.size:
            i = short[0]
            raise AllocationError(
                f"stratum {i}: found only {additional[i] - need[i]} of {additional[i]} candidates within the "
                f"draw cap (estimated stratum weight {hits[i] / drawn:.3e}); raise allocation_prune_share to "
                f"leave thin strata out of the plan, or widen the band (band_halfwidth_sigmas) or use fewer "
                f"strata (inner_strata)"
            )
        slowest = (need * drawn / np.maximum(hits, 1)).max()  # a filled quota's need is 0
        size = int(min(max(slowest / 2, _SEARCH_BATCH), _SEARCH_BATCH_CAP))
    return np.concatenate(picks)[np.argsort(np.concatenate(picked), kind="stable")]


def _search_reach(strata: StratumSet, model: SurrogateModel) -> int:
    """How many strata apart a row's two bins in ``select_candidates`` can be: that of
    ``model.predict_many(space.denormalize_many(u))`` and that of ``model.predict_normalized(u)``,
    for any u in [0, 1)^d.

    Per coordinate with low l and span s (the floats ``ParameterSpace`` stores), the
    natural-unit path rounds four times: w = fl(l + fl(u s)), then u' = fl(fl(w - l) / s).
    With each rounding a factor (1 + δ), |δ| <= ε = 2**-53,
    u' = (u (1 + δ1) + (l + fl(u s)) δ2 / s)(1 + δ3)(1 + δ4), and as |l + fl(u s)| <= |l| + s (1 + ε),
    |u' - u| <= ε (5 + |l| / s) up to terms in ε². Both paths then form b + sum c_j v_j in
    floats, for v = u and v = u', which errs by at most (d + 1) ε (|b| + sum |c_j v_j|)(1 + dε)
    in any order of summation (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
    §3.1). The three errors add up to less than half of
    slack = 4 (d + 4) ε (|b| + sum |c_j| (1 + |l_j| / s_j)); the other half covers the terms in
    ε². ``bin_many`` counts the edges <= x, and an interval of length ``slack`` holds at most
    floor(slack / g) + 1 edges when g is the smallest gap between two: that is the reach. A
    slack that is not finite reaches every stratum.
    """
    space = model.space
    terms = 1.0 + np.abs(space.lows()) / space.spans()
    slack = 4 * (space.dim + 4) * 2.0**-53 * (abs(model.intercept) + np.abs(model.coefficients) @ terms)
    gap = np.diff(strata.edges).min() if strata.edges.size > 1 else np.inf
    return int(slack // gap) + 1 if slack < gap * strata.n_strata else strata.n_strata
