import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adastrat import strata as strata_module
from adastrat.errors import BoundsError, DegenerateModelError
from adastrat.rng import substream
from adastrat.space import ParameterDef, ParameterSpace
from adastrat.strata import StratumSet, build_strata, degenerate_split, estimate_weights
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
    assert s.lower(1) == pytest.approx(0.8)
    assert s.upper(1) == pytest.approx(1.0)
    assert s.midpoint(1) == pytest.approx(0.9)


def test_build_rejects_degenerate_sigma():
    with pytest.raises(DegenerateModelError):
        build_strata(0.9, 0.0, 100)
    with pytest.raises(ValueError):
        build_strata(0.9, 0.01, 0)


def test_degenerate_split_two_strata():
    s = degenerate_split(0.9)
    assert s.n_strata == 2
    assert s.bin(0.8999999) == 0
    assert s.bin(0.9) == 1


def test_bin_rules():
    s = build_strata(0.9, 0.01, 100)
    assert s.bin(-5.0) == 0
    assert s.bin(5.0) == 101
    # the critical value is an interior edge of the even layout: ties go up
    assert s.bin(0.9) == 51
    assert s.bin(float(s.edges[3])) == 4
    with pytest.raises(BoundsError):
        s.bin(float("nan"))


def test_bin_partition_property():
    s = build_strata(0.9, 0.01, 100)
    xs = substream(1, "partition").normal(0.9, 0.05, size=100_000)
    idx = s.bin_many(xs)
    assert idx.min() >= 0 and idx.max() < s.n_strata
    # interval membership check for every point
    lowers = np.array([s.lower(i) for i in range(s.n_strata)])
    uppers = np.array([s.upper(i) for i in range(s.n_strata)])
    assert ((xs >= lowers[idx]) | (idx == 0)).all()
    assert (xs < uppers[idx]).all()


@given(st.floats(-2, 2), st.floats(0.001, 0.2), st.integers(1, 50))
def test_bin_total_and_single_valued(c, sigma, inner):
    s = build_strata(c, sigma, inner)
    for x in (c, c - 20 * sigma, c + 20 * sigma, c + 0.123 * sigma):
        i = s.bin(x)
        assert s.lower(i) <= x < s.upper(i) or (i == 0 and x < s.upper(0))


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
    """Reference pool: draw a batch, bin it, count it, on one thread."""
    counts = np.zeros(strata.n_strata, dtype=np.int64)
    for start in range(0, pool_size, batch):
        us = rng.random((min(batch, pool_size - start), model.space.dim))
        counts += np.bincount(strata.bin_many(model.predict_normalized(us)), minlength=strata.n_strata)
    return counts


@pytest.mark.parametrize("serial_batches", [None, 0], ids=["cutoff", "helper-always"])
@pytest.mark.parametrize(
    "pool_size", [1, 1000, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 100_000, 3 * (1 << 16) + 17, 2_000_000]
)
def test_pool_matches_serial_loop(monkeypatch, pool_size, serial_batches):
    if serial_batches is not None:
        monkeypatch.setattr(strata_module, "_SERIAL_BATCHES", serial_batches)
    s = build_strata(0.6, 0.01, 100)
    rng = substream(5, "pool", 0)
    reference_rng = substream(5, "pool", 0)
    w = estimate_weights(s, AFFINE6, pool_size, rng)
    expected = _serial_pool_counts(s, AFFINE6, pool_size, reference_rng)
    np.testing.assert_array_equal(w.p1, expected / pool_size)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_pool_under_fast_thread_switching_and_concurrent_callers(monkeypatch):
    monkeypatch.setattr(strata_module, "_SERIAL_BATCHES", 0)
    s = build_strata(0.6, 0.01, 100)
    pool_size = 5 * (1 << 16) + 3
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
    nan_model = replace(AFFINE6, coefficients=np.array([0.3, np.nan, 0.1, 0.15, 0.05, 0.12]))
    pool_size = (strata_module._SERIAL_BATCHES + 3) * strata_module._POOL_BATCH
    before = threading.active_count()
    with pytest.raises(BoundsError):
        estimate_weights(build_strata(0.6, 0.01, 100), nan_model, pool_size, substream(6, "pool", 0))
    assert threading.active_count() == before
