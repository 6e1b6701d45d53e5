import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adastrat import allocation
from adastrat.allocation import (
    allocate,
    optimal_weights,
    plan_allocation,
    select_candidates,
    subtract_existing,
)
from adastrat.errors import AllocationError
from adastrat.rng import substream
from adastrat.space import ParameterDef, ParameterSpace
from adastrat.strata import build_strata, degenerate_split
from adastrat.surrogate import SurrogateModel

UNIT = ParameterSpace((ParameterDef("u", 0.0, 1.0),))
IDENTITY = SurrogateModel(space=UNIT, intercept=0.0, coefficients=np.array([1.0]), sigma=0.05, training_count=10)

# A 2-D search: j~ = 0.75 u_a + 0.25 u_b lies in [0, 1], so both tails of a
# band of +-0.1 around 0.5 hold about 0.4 of the mass and each of its ten
# inner strata about 0.027.
PLANE = ParameterSpace((ParameterDef("a", 0.0, 2.0), ParameterDef("b", -1.0, 1.0)))
TILTED = SurrogateModel(space=PLANE, intercept=0.0, coefficients=np.array([0.75, 0.25]), sigma=0.01, training_count=10)
BAND = build_strata(0.5, 0.01, 10)
QUOTAS = np.zeros(BAND.n_strata, dtype=np.int64)
QUOTAS[[0, 3, 5, BAND.n_strata - 1]] = [3, 4, 150, 2]  # 150 hits at 0.027 need about 5,600 rows


def brute_force_minimum(p1, p2, budget):
    """Oracle: enumerate every composition of the budget and minimize the
    variance objective; compositions starving a mixed stratum are infeasible."""
    n = len(p1)
    best = np.inf
    for cut in itertools.combinations(range(budget + n - 1), n - 1):
        counts = np.diff([-1, *cut, budget + n - 1]) - 1
        best = min(best, variance_objective(p1, p2, np.array(counts)))
    return best


def variance_objective(p1, p2, counts):
    active = (np.asarray(p2) > 0) & (np.asarray(p2) < 1)
    if (active & (np.asarray(counts) == 0)).any():
        return np.inf
    terms = np.where(active, np.asarray(p1) ** 2 * p2 * (1 - np.asarray(p2)) / np.maximum(counts, 1), 0.0)
    return float(terms.sum())


def test_optimal_weights_formula_and_tails():
    w = optimal_weights(np.array([0.5, 0.3, 0.2]), np.array([0.0, 0.5, 1.0]))
    assert w[0] == 0.0 and w[2] == 0.0
    assert w[1] == pytest.approx(0.15)
    sym = optimal_weights(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    assert sym[0] == sym[1]


def test_allocate_examples():
    np.testing.assert_array_equal(allocate(np.array([1.0, 1.0]), 10), [5, 5])
    np.testing.assert_array_equal(allocate(np.array([0.2, 0.1, 0.1]), 8), [4, 2, 2])
    np.testing.assert_array_equal(allocate(np.array([1.0, 1.0, 1.0]), 10), [4, 3, 3])


def test_allocate_zero_budget_and_zero_weights():
    np.testing.assert_array_equal(allocate(np.array([1.0, 2.0]), 0), [0, 0])
    with pytest.raises(AllocationError, match="widen the strata"):
        allocate(np.zeros(3), 5)


def test_allocate_covers_every_weighted_stratum_when_budget_allows():
    counts = allocate(np.array([0.9, 0.05, 0.03, 0.02]), 6)
    assert counts.sum() == 6
    assert (counts[np.array([True, True, True, True])] >= 1).all()
    # and never gives anything to zero-weight strata
    counts = allocate(np.array([0.9, 0.0, 0.1]), 7)
    assert counts[1] == 0


@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    st.integers(0, 40),
)
def test_allocate_budget_exactness_and_monotonicity(weights, budget):
    w = np.asarray(weights)
    if not (w > 0).any():
        return
    counts = allocate(w, budget)
    assert counts.sum() == budget
    assert (counts >= 0).all()
    for i in range(len(w)):
        for j in range(len(w)):
            if w[i] > w[j]:
                assert counts[i] >= counts[j]


@given(st.integers(-30, 30), st.integers(1, 30))
def test_allocate_scale_invariance(log2_scale, budget):
    # power-of-two scales keep the scaled weights exactly representable;
    # arbitrary scales already perturb the inputs before the call
    w = np.array([0.4, 0.3, 0.2, 0.1])
    np.testing.assert_array_equal(allocate(w, budget), allocate(2.0**log2_scale * w, budget))


def test_allocation_near_optimal_against_brute_force():
    rng = substream(20260808, "near-opt")
    for _ in range(60):
        n = int(rng.integers(2, 5))
        budget = int(rng.integers(2, 13))
        p1 = rng.dirichlet(np.ones(n))
        p2 = rng.random(n)
        counts = allocate(optimal_weights(p1, p2), budget)
        achieved = variance_objective(p1, p2, counts)
        best = brute_force_minimum(p1, p2, budget)
        if np.isinf(best):
            assert np.isinf(achieved)
        else:
            assert achieved <= 1.05 * best


def test_subtract_existing_examples():
    # targets as plan_allocation draws them: over the budget plus the existing
    # samples in weighted strata
    weights = np.array([1.0, 1.0, 1.0])
    np.testing.assert_array_equal(
        subtract_existing(allocate(weights, 10), np.zeros(3, dtype=int), 10, weights), [4, 3, 3]
    )
    weights = np.array([1.0, 1.0])
    target = allocate(weights, 10 + 5)
    np.testing.assert_array_equal(target, [8, 7])
    np.testing.assert_array_equal(subtract_existing(target, np.array([5, 0]), 10, weights), [3, 7])
    # a stratum already past its target yields its credit to the others
    target = allocate(weights, 4 + 9)
    np.testing.assert_array_equal(subtract_existing(target, np.array([9, 0]), 4, weights), [0, 4])


@given(
    st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 20)), min_size=1, max_size=8),
    st.integers(0, 40),
    st.sampled_from([0.0, 0.05, 0.3]),
)
def test_plan_allocation_spends_exactly_the_budget(strata, budget, prune_share):
    p1, p2, existing = (np.array(column) for column in zip(*strata))
    if p1.sum() == 0:
        return
    p1 = p1 / p1.sum()
    hits = np.rint(p1 * 1e6).astype(int)
    try:
        plan = plan_allocation(p1, hits, p2, existing, budget, prune_share=prune_share)
    except AllocationError as exc:  # pruning left no weighted stratum
        assert budget > 0 and "weights are zero" in str(exc)
        return
    assert (plan.additional >= 0).all()
    assert plan.additional.sum() == budget


def test_pruning_keeps_the_largest_stratum():
    # a share above 1/n of n equal strata prunes every one of them but the largest
    hits, existing = np.full(4, 250_000), np.zeros(4, int)
    plan = plan_allocation(np.full(4, 0.25), hits, np.full(4, 0.5), existing, 1, prune_share=0.3)
    assert plan.additional.sum() == 1
    np.testing.assert_array_equal(plan.weights > 0, [True, False, False, False])
    # where the share alone leaves strata standing, it decides
    p1 = np.array([0.1, 0.2, 0.3, 0.4])
    plan = plan_allocation(p1, hits, np.full(4, 0.5), existing, 10, prune_share=0.25)
    np.testing.assert_array_equal(plan.weights > 0, [False, False, True, True])


def test_subtract_existing_trims_overshoot():
    # targets drawn for the whole campaign exceed the fresh budget once
    # existing samples are credited; the result still sums to the budget
    target = np.array([10, 6, 4])
    existing = np.array([0, 1, 0])
    add = subtract_existing(target, existing, 12, weights=np.array([0.5, 0.3, 0.2]))
    assert add.sum() == 12
    assert (add >= 0).all()
    assert add[0] >= add[1] >= add[2]


def test_plan_allocation_prunes_thin_pool_strata():
    p1 = np.array([0.5, 0.3, 0.199999, 1e-6])
    hits = (p1 * 1_000_000).astype(int)
    p2 = np.array([0.5, 0.5, 0.5, 0.5])
    plan = plan_allocation(p1, hits, p2, np.zeros(4, dtype=int), 10)
    assert plan.weights[3] == 0.0
    assert plan.additional[3] == 0
    assert plan.additional.sum() == 10


def test_plan_allocation_floor_for_exact_weights():
    # no pool counts: a stratum is planned when a search of PER_STRATUM_CAP draws expects
    # MIN_POOL_HITS hits in it, p1 >= 10^-6
    p1 = np.array([0.6, 0.4 - 2e-6, 0.99e-6, 1.01e-6])
    plan = plan_allocation(p1, None, np.full(4, 0.5), np.zeros(4, dtype=int), 10)
    np.testing.assert_array_equal(plan.weights > 0, [True, True, False, True])
    assert plan.additional.sum() == 10


def test_select_candidates_empty_and_single_stratum():
    strata = build_strata(0.5, 100.0, 1)  # the middle stratum swallows everything
    rng = substream(5, "sel")
    assert select_candidates(strata, IDENTITY, np.zeros(3, dtype=int), rng).shape == (0, 1)
    rng = substream(5, "sel")
    picks = select_candidates(strata, IDENTITY, np.array([0, 3, 0]), rng)
    # the first three stream draws are kept verbatim
    expected = substream(5, "sel").random((1 << 16, 1))[:3, 0]
    np.testing.assert_allclose(picks[:, 0], expected, rtol=0, atol=1e-12)
    assert strata.bin_many(IDENTITY.predict_many(picks)).tolist() == [1, 1, 1]


def test_select_candidates_rebin_consistency():
    strata = build_strata(0.5, 0.05, 10)
    additional = np.zeros(strata.n_strata, dtype=int)
    additional[4] = 5
    additional[7] = 3
    picks = select_candidates(strata, IDENTITY, additional, substream(6, "rebin"))
    assert picks.shape == (8, 1)
    rebinned = strata.bin_many(IDENTITY.predict_many(picks))
    assert rebinned.tolist() == [4] * 5 + [7] * 3


def test_select_candidates_unfillable_stratum(monkeypatch):
    monkeypatch.setattr(allocation, "PER_STRATUM_CAP", 70_000)
    strata = build_strata(0.5, 0.05, 10)
    additional = np.zeros(strata.n_strata, dtype=int)
    additional[-1] = 2  # the upper tail is unreachable for the identity surrogate on [0, 1]
    last = strata.n_strata - 1
    with pytest.raises(AllocationError, match=rf"^stratum {last}: found only 0 of 2 candidates .* weight 0\.000e\+00\)"):
        select_candidates(strata, IDENTITY, additional, substream(7, "unfill"))


def test_select_candidates_deterministic():
    strata = build_strata(0.5, 0.05, 10)
    additional = np.zeros(strata.n_strata, dtype=int)
    additional[5] = 4
    a = select_candidates(strata, IDENTITY, additional, substream(8, "det"))
    b = select_candidates(strata, IDENTITY, additional, substream(8, "det"))
    np.testing.assert_array_equal(a, b)


def first_hits(seed, additional, strata=BAND, model=TILTED, rows=1 << 16):
    """Reference search: one draw of ``rows`` rows, binned in natural units, then the
    first hits per stratum.

    Returns the picks in (stratum, draw order) and the stream index of the
    last kept row.
    """
    ws = model.space.denormalize_many(substream(seed, "batch").random((rows, model.space.dim)))
    idx = strata.bin_many(model.predict_many(ws))
    picks, last = [], -1
    for i in np.flatnonzero(additional > 0):
        at = np.flatnonzero(idx == i)[: additional[i]]
        assert at.size == additional[i], "reference draw too short for the quota"
        picks.extend((int(i), ws[r]) for r in at)
        last = max(last, int(at[-1]))
    return picks, last


@pytest.mark.parametrize("batch, cap", [(1, 1), (7, 7), (4096, 8192), (65536, 65536)], ids=["1", "7", "4096", "65536"])
def test_select_candidates_independent_of_batch_size(monkeypatch, batch, cap):
    expected, _ = first_hits(9, QUOTAS)
    monkeypatch.setattr(allocation, "_SEARCH_BATCH", batch)
    monkeypatch.setattr(allocation, "_SEARCH_BATCH_CAP", cap)
    picks = select_candidates(BAND, TILTED, QUOTAS, substream(9, "batch"))
    np.testing.assert_array_equal(picks, np.array([w for _, w in expected]))


class CountingGenerator:
    """Generator stand-in that records the rows of each batch the search draws."""

    def __init__(self, rng):
        self.rng = rng
        self.batches = []

    @property
    def rows(self):
        return sum(self.batches)

    def random(self, size=None, out=None):
        us = self.rng.random(size, out=out)
        self.batches.append(len(us))
        return us


def test_select_candidates_stops_within_one_batch_of_last_kept_row():
    _, last = first_hits(10, QUOTAS)
    rng = CountingGenerator(substream(10, "batch"))
    select_candidates(BAND, TILTED, QUOTAS, rng)
    assert last + 1 <= rng.rows < last + 1 + rng.batches[-1]
    assert rng.batches[0] == allocation._SEARCH_BATCH
    assert max(rng.batches) <= allocation._SEARCH_BATCH_CAP


def test_select_candidates_grows_its_batches_for_a_rare_stratum():
    """A quota of 5 in a stratum of p1 = 10**-4 needs about 50,000 rows: after the first
    batch the search draws at the cap, and still keeps the reference search's picks."""
    strata = build_strata(0.5, 5e-5, 10)  # inner strata 10**-4 wide under the identity surrogate
    additional = quotas(strata, {5: 5})
    expected, last = first_hits(12, additional, strata, IDENTITY, rows=1 << 18)
    rng = CountingGenerator(substream(12, "batch"))
    picks = select_candidates(strata, IDENTITY, additional, rng)
    assert picks.tobytes() == np.array([w for _, w in expected]).tobytes()
    assert rng.batches[0] == allocation._SEARCH_BATCH
    assert rng.batches[1] == max(rng.batches) == allocation._SEARCH_BATCH_CAP
    assert last + 1 <= rng.rows < last + 1 + rng.batches[-1]


def far_box(low, span):
    """TILTED's coefficients on a box far from the origin with spans ``span`` and 2 ``span``,
    where rounding in ``denormalize_many`` and ``normalize_many`` moves j~ by up to about
    2**-53 * low / span, so the natural-unit bin of a row can differ from its normalized one."""
    space = ParameterSpace((ParameterDef("a", low, low + span), ParameterDef("b", -low / 3 - 2 * span, -low / 3)))
    return SurrogateModel(space=space, intercept=0.0, coefficients=TILTED.coefficients, sigma=0.01, training_count=10)


def quotas(strata, at):
    """Zero quotas over ``strata`` but for ``at``, a {stratum: quota} dict."""
    out = np.zeros(strata.n_strata, dtype=np.int64)
    out[list(at)] = list(at.values())
    return out


WIDE = build_strata(0.5, 0.02, 40)
SEARCH_CASES = {
    # bins differ between the two paths on about 4% of the rows
    "far-box-tiny-spans": (BAND, far_box(1e8, 1e-6), QUOTAS),
    # the slack bound spans several of the 0.01-wide bins, so the prefilter reaches r >= 2 strata out
    "reach-beyond-one-stratum": (WIDE, far_box(3e9, 1e-4), quotas(WIDE, {3: 20, 20: 30, 21: 5, 33: 10})),
    "both-tails-only": (BAND, TILTED, quotas(BAND, {0: 40, BAND.n_strata - 1: 40})),
    "single-inner-stratum": (build_strata(0.5, 100.0, 1), IDENTITY, np.array([0, 25, 0])),
    "single-edge": (degenerate_split(0.3), IDENTITY, np.array([7, 9])),
}


@pytest.mark.parametrize("case", SEARCH_CASES)
def test_select_candidates_matches_first_hits(case):
    strata, model, additional = SEARCH_CASES[case]
    expected, _ = first_hits(11, additional, strata, model)
    picks = select_candidates(strata, model, additional, substream(11, "batch"))
    assert picks.shape == (additional.sum(), model.space.dim)
    assert picks.tobytes() == np.array([w for _, w in expected]).tobytes()
    if case == "reach-beyond-one-stratum":
        assert allocation._search_reach(strata, model) >= 2


def test_select_candidates_bins_in_natural_units_only_near_open_quotas(monkeypatch):
    """Only the rows whose normalized-coordinate stratum lies within one stratum of a quota
    still open at the start of their batch reach ``model.predict_many``."""
    predict_many = SurrogateModel.predict_many
    natural = []
    monkeypatch.setattr(SurrogateModel, "predict_many", lambda self, ws: natural.append(len(ws)) or predict_many(self, ws))
    rng = CountingGenerator(substream(10, "batch"))
    select_candidates(BAND, TILTED, QUOTAS, rng)
    us = substream(10, "batch").random((rng.rows, PLANE.dim))
    exact = BAND.bin_many(predict_many(TILTED, PLANE.denormalize_many(us)))
    rough = BAND.bin_many(TILTED.predict_normalized(us))
    expected = 0
    for start, size in zip(np.cumsum([0] + rng.batches[:-1]), rng.batches):
        open_quotas = np.flatnonzero(QUOTAS > np.bincount(exact[:start], minlength=BAND.n_strata))
        near = np.abs(rough[start : start + size, None] - open_quotas).min(axis=1) <= 1
        expected += int(near.sum())
    assert sum(natural) == expected < rng.rows
