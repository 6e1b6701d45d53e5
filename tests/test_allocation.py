import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adastrat.allocation import (
    allocate,
    optimal_weights,
    plan_allocation,
    select_candidates,
    subtract_existing,
)
from adastrat.errors import AllocationError, UnfillableStratumError
from adastrat.rng import substream
from adastrat.space import ParameterDef, ParameterSpace
from adastrat.strata import build_strata
from adastrat.surrogate import SurrogateModel

UNIT = ParameterSpace((ParameterDef("u", 0.0, 1.0),))
IDENTITY = SurrogateModel(space=UNIT, intercept=0.0, coefficients=np.array([1.0]), sigma=0.05, training_count=10)


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
    np.testing.assert_array_equal(
        subtract_existing(np.array([4, 3, 3]), np.zeros(3, dtype=int), 10), [4, 3, 3]
    )
    np.testing.assert_array_equal(
        subtract_existing(np.array([5, 5]), np.array([5, 0]), 10, weights=np.array([1.0, 1.0])),
        [0, 10],
    )


def test_subtract_existing_saturation_error():
    with pytest.raises(AllocationError, match="target"):
        subtract_existing(np.array([5, 5]), np.array([6, 7]), 4, weights=np.array([1.0, 1.0]))


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
    plan = plan_allocation(p1, hits, p2, np.zeros(4, dtype=int), 10, min_pool_hits=10)
    assert plan.weights[3] == 0.0
    assert plan.additional[3] == 0
    assert plan.additional.sum() == 10


def test_select_candidates_empty_and_single_stratum():
    strata = build_strata(0.5, 100.0, 1)  # the middle stratum swallows everything
    rng = substream(5, "sel")
    assert select_candidates(strata, IDENTITY, np.zeros(3, dtype=int), rng) == []
    rng = substream(5, "sel")
    picks = select_candidates(strata, IDENTITY, np.array([0, 3, 0]), rng)
    # the first three stream draws are kept verbatim
    expected = substream(5, "sel").random((1 << 16, 1))[:3, 0]
    np.testing.assert_allclose([w[0] for _, w in picks], expected, rtol=0, atol=1e-12)
    assert [i for i, _ in picks] == [1, 1, 1]


def test_select_candidates_rebin_consistency():
    strata = build_strata(0.5, 0.05, 10)
    additional = np.zeros(strata.n_strata, dtype=int)
    additional[4] = 5
    additional[7] = 3
    picks = select_candidates(strata, IDENTITY, additional, substream(6, "rebin"))
    assert len(picks) == 8
    rebinned = strata.bin_many(IDENTITY.predict_many(np.vstack([w for _, w in picks])))
    assert rebinned.tolist() == [stratum for stratum, _ in picks]


def test_select_candidates_unfillable_stratum():
    strata = build_strata(0.5, 0.05, 10)
    additional = np.zeros(strata.n_strata, dtype=int)
    additional[-1] = 2  # the upper tail is unreachable for the identity surrogate on [0, 1]
    with pytest.raises(UnfillableStratumError) as err:
        select_candidates(strata, IDENTITY, additional, substream(7, "unfill"), per_stratum_cap=70_000)
    assert err.value.stratum == strata.n_strata - 1
    assert err.value.estimated_weight == 0.0


def test_select_candidates_deterministic():
    strata = build_strata(0.5, 0.05, 10)
    additional = np.zeros(strata.n_strata, dtype=int)
    additional[5] = 4
    a = select_candidates(strata, IDENTITY, additional, substream(8, "det"))
    b = select_candidates(strata, IDENTITY, additional, substream(8, "det"))
    np.testing.assert_array_equal(np.array([w for _, w in a]), np.array([w for _, w in b]))
