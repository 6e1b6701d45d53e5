import itertools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adastrat import strata as strata_module
from adastrat.campaign import run_preliminary
from adastrat.config import RunConfig
from adastrat.errors import ConfigError
from adastrat.rng import substream
from adastrat.space import ParameterDef, ParameterSpace
from adastrat.strata import StratumSet, build_strata, degenerate_split, estimate_weights, exact_weights
from adastrat.surrogate import SurrogateModel

UNIT = ParameterSpace((ParameterDef("u", 0.0, 1.0),))
IDENTITY = SurrogateModel(space=UNIT, intercept=0.0, coefficients=np.array([1.0]), sigma=0.05, training_count=10)
CUBE6 = ParameterSpace(tuple(ParameterDef(f"x{i}", 0.0, 1.0) for i in range(6)))
AFFINE6 = SurrogateModel(
    space=CUBE6,
    intercept=0.1,
    coefficients=np.array([0.3, 0.2, 0.1, 0.15, 0.05, 0.12]),
    sigma=0.01,
    training_count=100,
)


def test_reference_layout_102_strata():
    s = build_strata(0.9, 0.01, 100)
    assert s.n_strata == 102
    assert s.edges[0] == pytest.approx(0.8, rel=1e-12)
    assert s.edges[-1] == pytest.approx(1.0, rel=1e-12)
    widths = np.diff(s.edges)
    np.testing.assert_allclose(widths, 0.002, rtol=1e-9)


def test_small_layout_22_strata():
    assert build_strata(0.9, 0.01, 20).n_strata == 22


def test_single_inner_stratum_layout():
    s = build_strata(0.9, 0.01, 1)
    assert s.n_strata == 3
    np.testing.assert_allclose(s.bounds(), [-np.inf, 0.8, 1.0, np.inf])
    np.testing.assert_allclose(s.midpoints(), [-np.inf, 0.9, np.inf])


def _assert_is_split(s, critical):
    split = degenerate_split(critical)
    np.testing.assert_array_equal(s.edges, split.edges)
    assert (s.critical_value, s.sigma) == (split.critical_value, 0.0)


def test_build_rejects_degenerate_sigma():
    _assert_is_split(build_strata(0.9, 0.0, 100), 0.9)
    with pytest.raises(ValueError):
        build_strata(0.9, 0.01, 0)


@pytest.mark.parametrize(
    "sigma, halfwidth, inner",
    [(0.05, 1e308, 100), (1e308, 10.0, 100), (0.05, 1e308, 1), (1e300, 1e10, 2)],
    ids=["halfwidth", "sigma", "one-bin", "product"],
)
def test_build_refuses_a_band_too_wide_for_floats(sigma, halfwidth, inner):
    # edges of +-inf and NaN would crash the weights or the binning after the preliminary batch
    with pytest.raises(ConfigError, match=r"band_halfwidth_sigmas .* residual scale"):
        build_strata(0.95, sigma, inner, halfwidth)


def test_build_lays_out_a_band_near_the_float_range():
    s = build_strata(0.95, 1.0, 100, 4e307)
    assert np.isfinite(s.edges).all() and np.isfinite(s.edges[-1] - s.edges[0])
    assert s.bin_many([-np.inf, 0.95, np.inf]).tolist() == [0, 51, 101]


def test_degenerate_split_two_strata():
    s = degenerate_split(0.9)
    assert s.n_strata == 2
    assert s.bin_many([0.8999999, 0.9]).tolist() == [0, 1]


def test_bin_rules():
    s = build_strata(0.9, 0.01, 100)
    # the critical value is an interior edge of the even layout: ties go up
    assert s.bin_many([-5.0, 5.0, 0.9, s.edges[3]]).tolist() == [0, 101, 51, 4]
    with pytest.raises(ValueError):
        s.bin_many([0.9, float("nan")])


def test_bin_partition_property():
    s = build_strata(0.9, 0.01, 100)
    xs = substream(1, "partition").normal(0.9, 0.05, size=100_000)
    idx = s.bin_many(xs)
    assert idx.min() >= 0 and idx.max() < s.n_strata
    # interval membership check for every point
    bounds = s.bounds()
    assert (xs >= bounds[idx]).all()
    assert (xs < bounds[idx + 1]).all()


@given(st.floats(-2, 2), st.floats(0.001, 0.2), st.integers(1, 50))
def test_bin_total_and_single_valued(c, sigma, inner):
    s = build_strata(c, sigma, inner)
    xs = (c, c - 20 * sigma, c + 20 * sigma, c + 0.123 * sigma)
    bounds = s.bounds()
    for x, i in zip(xs, s.bin_many(xs)):
        assert bounds[i] <= x < bounds[i + 1]


FAR = np.array([-np.inf, -1.7e308, -1e300, -1e30, -1.0, -0.0, 0.0, 5e-324, 1.0, 1e30, 1e300, 1.7e308, np.inf])


def _assert_bins_like_searchsorted(s):
    # the oracle: every edge, one ulp either side of it, a sweep across the band, far tails
    e = s.edges
    width = e[-1] - e[0] if e.size > 1 else 1.0
    xs = np.concatenate([
        e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf),
        np.linspace(e[0] - width, e[-1] + width, 1001), e[0] + FAR, FAR,
    ])
    np.testing.assert_array_equal(s.bin_many(xs), np.searchsorted(e, xs, side="right"))


@given(st.floats(-1e9, 1e9), st.floats(-14.0, 4.0), st.floats(1e-3, 1e3), st.integers(1, 300))
def test_bin_many_equals_searchsorted(critical, log_sigma, halfwidth, inner):
    _assert_bins_like_searchsorted(build_strata(critical, 10.0**log_sigma, inner, halfwidth_sigmas=halfwidth))


@given(st.floats(-1e300, 1e300))
def test_degenerate_split_bins_like_searchsorted(critical):
    _assert_bins_like_searchsorted(degenerate_split(critical))


def _band(critical, inner, width):
    # halfwidth inner/256 sigma keeps sigma = 128 * width clear of the residual-scale split
    halfwidth = inner / 256
    return build_strata(critical, width * inner / (2 * halfwidth), inner, halfwidth_sigmas=halfwidth)


@pytest.mark.parametrize("critical", [1.0, -3e5, 0.9, 1e-300])
@pytest.mark.parametrize("inner", [1, 2, 3, 299, 300])
def test_narrowest_accepted_band_bins_exactly(critical, inner):
    # bins twice the split threshold of 2**-44 of the largest edge
    _assert_bins_like_searchsorted(_band(critical, inner, 2.0**-43 * max(abs(critical), 1.0)))
    if abs(critical) >= 0.5:
        _assert_is_split(_band(critical, inner, 2.0**-46 * abs(critical)), critical)


def test_estimate_weights_everything_in_middle_for_huge_sigma():
    s = build_strata(0.5, 100.0, 1)
    w = estimate_weights(s, IDENTITY, 10_000, substream(2, "mid"))
    np.testing.assert_array_equal(w.p1, [0.0, 1.0, 0.0])


def test_estimate_weights_decile_uniform():
    # J~(u) = u with strata = deciles of (0, 1); binomial oracle bound
    s = build_strata(0.5, 0.05, 10)
    pool = 1_000_000
    w = estimate_weights(s, IDENTITY, pool, substream(3, "deciles"))
    se = np.sqrt(0.1 * 0.9 / pool)
    np.testing.assert_allclose(w.p1[1:-1], 0.1, atol=4 * se)
    assert w.p1[0] == 0.0 and w.p1[-1] == 0.0
    assert abs(w.p1.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(w.variance, w.p1 * (1 - w.p1) / pool, rtol=1e-12)
    np.testing.assert_array_equal(w.hits(), (w.p1 * pool).round().astype(np.int64))


def test_estimate_weights_deterministic_and_consistent():
    s = build_strata(0.5, 0.05, 10)
    a = estimate_weights(s, IDENTITY, 50_000, substream(4, "rep"))
    b = estimate_weights(s, IDENTITY, 50_000, substream(4, "rep"))
    np.testing.assert_array_equal(a.p1, b.p1)
    # doubling the pool with a fresh seed moves each weight < 6 binomial SEs
    failures = 0
    for trial in range(50):
        small = estimate_weights(s, IDENTITY, 20_000, substream(trial, "c1"))
        big = estimate_weights(s, IDENTITY, 40_000, substream(trial, "c2"))
        se = np.sqrt(np.maximum(small.p1 * (1 - small.p1), 1e-12) / 20_000)
        if (np.abs(big.p1 - small.p1) > 6 * se + 1e-12).any():
            failures += 1
    assert failures <= 1


def test_weight_variance_formula_matches_empirical():
    s = build_strata(0.5, 0.05, 10)
    pool = 2_000
    runs = np.array([estimate_weights(s, IDENTITY, pool, substream(t, "vf")).p1 for t in range(200)])
    empirical = runs.var(axis=0, ddof=1)
    formula = runs.mean(axis=0) * (1 - runs.mean(axis=0)) / pool
    inner = slice(1, -1)
    ratio = empirical[inner] / formula[inner]
    assert (ratio > 1 / 1.5).all() and (ratio < 1.5).all()


def _serial_pool_counts(strata, model, pool_size, rng, batch=1 << 20):
    """Reference pool: draw a batch, bin it by searchsorted, count it, on one thread."""
    counts = np.zeros(strata.n_strata, dtype=np.int64)
    for start in range(0, pool_size, batch):
        us = rng.random((min(batch, pool_size - start), model.space.dim))
        idx = np.searchsorted(strata.edges, model.predict_normalized(us), side="right")
        counts += np.bincount(idx, minlength=strata.n_strata)
    return counts


BATCH = strata_module._POOL_BATCH
CUTOFF = 1 << 20  # the size above which pools once took a second thread


# the reference loop draws in 2**20-row batches, not the pool's BATCH rows, so each case also
# checks that the doubles a pool counts do not depend on how its draws are batched
REFERENCE_BATCH = pytest.mark.parametrize("reference_batch", [CUTOFF], ids=["cutoff"])


@REFERENCE_BATCH
@pytest.mark.parametrize(
    "pool_size",
    [
        1, 1000, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 100_000, 3 * (1 << 16) + 17, 2_000_000,
        2 * BATCH + 17,  # three batches
        3 * BATCH + 17,  # four batches, the last one partial
        CUTOFF - BATCH, CUTOFF, CUTOFF + BATCH,  # either side of the old two-thread cutoff
        2 * (1 << 15) + 17, 3 * (1 << 15) + 17, CUTOFF - (1 << 15), CUTOFF + (1 << 15),  # the same for 2**15 rows
    ],
)
def test_pool_matches_serial_loop(pool_size, reference_batch):
    s = build_strata(0.6, 0.01, 100)
    rng = substream(5, "pool", 0)
    reference_rng = substream(5, "pool", 0)
    w = estimate_weights(s, AFFINE6, pool_size, rng)
    expected = _serial_pool_counts(s, AFFINE6, pool_size, reference_rng, batch=reference_batch)
    np.testing.assert_array_equal(w.p1, expected / pool_size)


BAND = build_strata(0.6, 0.01, 100)
FLAT6 = replace(AFFINE6, coefficients=np.zeros(6))


@REFERENCE_BATCH
@pytest.mark.parametrize(
    "strata, model, only",
    [
        (BAND, replace(FLAT6, intercept=BAND.edges[0]), 1),  # an edge belongs to the higher stratum
        (BAND, replace(FLAT6, intercept=np.nextafter(BAND.edges[0], -np.inf)), 0),
        (build_strata(-1.0, 0.01, 100), AFFINE6, 101),
        (degenerate_split(0.6), AFFINE6, None),
    ],
    ids=["on-first-edge", "below-first-edge", "above-band", "degenerate-split"],
)
def test_below_band_count_matches_serial_loop(strata, model, only, reference_batch):
    pool_size = 3 * BATCH + 17
    w = estimate_weights(strata, model, pool_size, substream(8, "pool", 0))
    expected = _serial_pool_counts(strata, model, pool_size, substream(8, "pool", 0), batch=reference_batch)
    np.testing.assert_array_equal(w.hits(), expected)
    if only is None:
        assert (expected > 0).all()
    else:
        assert expected[only] == pool_size


def test_pool_holds_one_batch_of_buffers():
    # 2**13 rows of draws; the surrogate values, the below-band flags and the binned rest are
    # each a fraction of that, as most rows fall below the band, as in a campaign
    buffer = (1 << 13) * AFFINE6.space.dim * 8  # 384 KiB
    strata, rng = build_strata(0.9, 0.01, 100), substream(5, "pool", 0)
    tracemalloc.start()
    try:
        estimate_weights(strata, AFFINE6, 100_000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * buffer


def test_pool_keeps_a_buffered_half_output():
    # a 32-bit draw leaves half a PCG64 output buffered; doubles never use it, so the pool
    # still counts what the reference loop does
    rng, reference_rng = substream(7, "pool", 0), substream(7, "pool", 0)
    for g in (rng, reference_rng):
        g.integers(0, 10, dtype=np.int32)
    assert rng.bit_generator.state["has_uint32"] == 1
    s = build_strata(0.6, 0.01, 100)
    w = estimate_weights(s, AFFINE6, 3 * BATCH + 5, rng)
    np.testing.assert_array_equal(w.hits(), _serial_pool_counts(s, AFFINE6, 3 * BATCH + 5, reference_rng))


def test_pool_under_fast_thread_switching_and_concurrent_callers():
    s = build_strata(0.6, 0.01, 100)
    pool_size = 5 * BATCH + 3
    expected = [_serial_pool_counts(s, AFFINE6, pool_size, substream(k, "pool", 0)) for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=3) as callers:
            futures = [callers.submit(estimate_weights, s, AFFINE6, pool_size, substream(k, "pool", 0)) for k in range(3)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for w, counts in zip(results, expected):
        np.testing.assert_array_equal(w.p1, counts / pool_size)


def test_pool_binning_error_reaches_caller_and_joins_helper():
    # NaN in every batch raises on the caller's thread and leaves no thread behind
    nan_model = replace(AFFINE6, coefficients=np.array([0.3, np.nan, 0.1, 0.15, 0.05, 0.12]))
    before = threading.active_count()
    with pytest.raises(ValueError):
        estimate_weights(build_strata(0.6, 0.01, 100), nan_model, CUTOFF + 3 * BATCH, substream(6, "pool", 0))
    assert threading.active_count() == before


MIXED6 = replace(AFFINE6, intercept=0.35, coefficients=np.array([0.3, -0.2, 0.1, -0.15, 0.05, 0.12]))
EXACT_LAYOUTS = [build_strata(0.5, 0.01, 100), build_strata(0.46, 0.046, 24)]  # a band; the whole range
# the linear part of the calibration objective, whose float inclusion-exclusion cancels near the midpoint
CALIBRATION6 = replace(AFFINE6, intercept=0.3, coefficients=np.array([0.55, 0.15, -0.06, 0.03, 0.04, -0.02]))
# one coefficient of 10^-5 beside five of order 0.1: 4.4e-10 off in floats at a mid-range band
TINY6 = replace(AFFINE6, coefficients=np.array([0.3, 0.2, 0.1, 0.15, 1e-5, 0.12]))
REFERENCE_OBJECTIVE = {"type": "synthetic", "kind": "quadratic", "noise_scale": 0.025, "seed": 0}
TOLERANCE = 2.0**-41  # the bound exact_weights promises on every p1


def _rational_p1(model, strata):
    """The exact occupancy of each stratum, P(lower <= J~ < upper), in ``Fraction``s: the CDF is
    inclusion-exclusion over the subset sums of the reflected coefficients."""
    a = [Fraction(x) for x in model.coefficients.tolist()]
    c = [abs(x) for x in a if x]
    scale = math.factorial(len(c)) * math.prod(c)

    def below(bound):
        if math.isinf(bound):
            return Fraction(int(bound > 0))
        t = Fraction(bound) - Fraction(model.intercept) - sum(x for x in a if x < 0)
        if not c:  # a constant surrogate
            return Fraction(int(t > 0))
        return sum((-1) ** sum(k) * max(t - sum(ci for ci, ki in zip(c, k) if ki), 0) ** len(c)
                   for k in itertools.product((0, 1), repeat=len(c))) / scale

    cdf = [below(b) for b in strata.bounds().tolist()]
    return [hi - lo for lo, hi in zip(cdf[:-1], cdf[1:])]


def _assert_exact(model, strata, tolerance=TOLERANCE):
    p1 = exact_weights(strata, model).p1
    error = max(abs(Fraction(x) - r) for x, r in zip(p1.tolist(), _rational_p1(model, strata)))
    assert error <= tolerance, float(error)
    assert (p1 >= 0).all() and abs(p1.sum() - 1.0) <= 1e-12
    return p1


@pytest.mark.parametrize("strata", EXACT_LAYOUTS, ids=["band", "whole-range"])
def test_affine_occupancy_matches_exact_rationals_at_each_edge(strata):
    # balanced coefficients: the float path alone is good to a few ulps
    _assert_exact(MIXED6, strata, tolerance=Fraction(1, 10**15))


@pytest.mark.parametrize("strata", EXACT_LAYOUTS, ids=["band", "whole-range"])
def test_pool_lies_within_five_standard_errors_of_the_exact_occupancy(strata):
    pool_size = 2_000_000
    p1 = exact_weights(strata, MIXED6).p1
    w = estimate_weights(strata, MIXED6, pool_size, substream(11, "exact"))
    assert (np.abs(w.p1 - p1) <= 5 * np.sqrt(p1 * (1 - p1) / pool_size)).all()


@pytest.mark.parametrize("model, strata, float_alone_fails", [
    (CALIBRATION6, build_strata(0.645, 0.425 / 13, 24, halfwidth_sigmas=13.0), False),  # 26 strata over the range
    (TINY6, build_strata(0.4, 0.01, 20), True),  # a band at the middle of the range
    (TINY6, build_strata(0.1, 0.01, 20), False),  # and near its lower end
], ids=["calibration", "tiny-middle", "tiny-low"])
def test_unbalanced_coefficients_stay_exact(monkeypatch, model, strata, float_alone_fails):
    _assert_exact(model, strata)
    monkeypatch.setattr(strata_module, "_EDGE_TOLERANCE", np.inf)  # no edge redone in rationals
    if float_alone_fails:  # where the terms cancel, the rationals are what keeps the promise
        with pytest.raises(AssertionError):
            _assert_exact(model, strata)
    else:
        _assert_exact(model, strata)


def test_reference_models_take_the_float_path(monkeypatch):
    # the preliminary fits of the benchmark's reference campaign, seeds 0-4: no edge needs rationals
    monkeypatch.setattr(strata_module, "_rational_value", None)
    for seed in range(5):
        state = run_preliminary(RunConfig(critical_value=0.95, evaluator=REFERENCE_OBJECTIVE, seed=seed))
        assert state.strata.n_strata == 102 and state.weights.pool_size is None


@pytest.mark.parametrize("strata", [build_strata(0.2, 0.01, 20), degenerate_split(0.3)], ids=["band", "split"])
@pytest.mark.parametrize("coefficients", [
    [0.3, 0.0, -0.1, 0.0, 0.2, 0.0],  # zero coefficients drop out
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # a constant surrogate: all weight where it sits
    [0.0, 0.0, -0.4, 0.0, 0.0, 0.0],  # one uniform: equal weight per unit of range
], ids=["zeros", "constant", "one"])
def test_exact_weights_of_degenerate_models(strata, coefficients):
    model = replace(AFFINE6, intercept=0.3, coefficients=np.array(coefficients))
    p1 = _assert_exact(model, strata)
    if not any(coefficients):
        assert p1.tolist().count(1.0) == 1 and p1.sum() == 1.0
        assert p1[strata.bin_many([0.3])[0]] == 1.0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([-1, 0, 1]), st.floats(-9, 0)), min_size=1, max_size=6),
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-6, 0), st.integers(1, 30),
)
def test_exact_weights_match_rationals_for_any_model(signs_and_scales, intercept, critical, log_sigma, inner):
    coefficients = np.array([sign * 10.0**scale for sign, scale in signs_and_scales])
    model = SurrogateModel(space=ParameterSpace(tuple(ParameterDef(f"x{i}", 0.0, 1.0) for i in range(coefficients.size))),
                           intercept=intercept, coefficients=coefficients, sigma=1.0, training_count=10)
    _assert_exact(model, build_strata(critical, 10.0**log_sigma, inner))


def test_exact_weights_refuse_what_they_cannot_weigh():
    with pytest.raises(ValueError):
        exact_weights(BAND, replace(AFFINE6, coefficients=np.array([0.3, np.nan, 0.1, 0.15, 0.05, 0.12])))
    big = SurrogateModel(space=ParameterSpace(tuple(ParameterDef(f"x{i}", 0.0, 1.0) for i in range(13))),
                         intercept=0.0, coefficients=np.full(13, 0.1), sigma=1.0, training_count=20)
    with pytest.raises(ValueError, match="2\\*\\*13 subset sums"):
        exact_weights(BAND, big)
