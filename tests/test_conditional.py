import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from adastrat.conditional import (
    N_CONFIDENT,
    build_conditional_table,
    laplace_exceedance,
    mix_p2,
    observe_p2,
    predict_p2,
)
from adastrat.rng import substream
from adastrat.space import DEFAULT_SPACE, sample_uniform
from adastrat.strata import build_strata, degenerate_split
from adastrat.surrogate import fit


def quad_exceedance(a, c, sigma):
    """Independent oracle: adaptive quadrature of the Laplace density past c - a."""
    b = sigma / math.sqrt(2.0)
    density = lambda x: math.exp(-abs(x) / b) / (2 * b)
    lo = c - a
    if lo < 0.0:
        left, _ = integrate.quad(density, lo, 0.0, epsabs=1e-14, epsrel=1e-13)
        right, _ = integrate.quad(density, 0.0, np.inf, epsabs=1e-14, epsrel=1e-13)
        return left + right
    return integrate.quad(density, lo, np.inf, epsabs=1e-14, epsrel=1e-13)[0]


def test_laplace_exceedance_at_critical_value():
    assert laplace_exceedance(0.9, 0.9, 0.01) == 0.5


def test_laplace_exceedance_one_scale_below_and_above():
    sigma = 0.01
    b = sigma / math.sqrt(2.0)
    below = laplace_exceedance(0.9 - b, 0.9, sigma)
    above = laplace_exceedance(0.9 + b, 0.9, sigma)
    assert below == pytest.approx(0.5 * math.exp(-1), abs=1e-12)
    assert above == pytest.approx(1 - 0.5 * math.exp(-1), abs=1e-12)
    assert below == pytest.approx(quad_exceedance(0.9 - b, 0.9, sigma), abs=1e-10)
    assert above == pytest.approx(quad_exceedance(0.9 + b, 0.9, sigma), abs=1e-10)


def test_laplace_exceedance_rejects_bad_sigma():
    with pytest.raises(ValueError):
        laplace_exceedance(0.5, 0.9, 0.0)


@given(st.floats(0, 10), st.floats(1e-4, 1.0), st.floats(-3, 3))
def test_laplace_symmetry_identity(d, sigma, c):
    total = laplace_exceedance(c - d * sigma, c, sigma) + laplace_exceedance(c + d * sigma, c, sigma)
    assert total == pytest.approx(1.0, abs=1e-12)


@given(st.floats(-3, 3), st.floats(1e-4, 1.0))
def test_laplace_monotone_in_midpoint(c, sigma):
    grid = np.linspace(c - 12 * sigma, c + 12 * sigma, 41)
    values = laplace_exceedance(grid, c, sigma)
    assert (np.diff(values) >= 0).all()
    assert values[0] >= 0.0 and values[-1] <= 1.0


def test_predict_p2_reference_layout():
    sigma = 0.01
    strata = build_strata(0.9, sigma, 100)
    p2 = predict_p2(strata)
    assert p2[0] == 0.0 and p2[-1] == 1.0
    assert (np.diff(p2) >= 0).all()
    # first inner stratum: midpoint sits 9.9 sigma below the critical value
    expected = 0.5 * math.exp(-9.9 * math.sqrt(2.0))
    assert p2[1] == pytest.approx(expected, rel=1e-12)
    mids = strata.midpoints()
    assert p2[1] == pytest.approx(quad_exceedance(mids[1], 0.9, sigma), rel=1e-6, abs=1e-10)
    assert p2[51] == pytest.approx(laplace_exceedance(mids[51], 0.9, sigma), abs=1e-15)


def test_predict_p2_single_inner_stratum_is_half():
    p2 = predict_p2(build_strata(0.9, 0.01, 1))
    np.testing.assert_allclose(p2, [0.0, 0.5, 1.0])
    # the two-stratum split of a perfect fit is the hard 0/1 split
    np.testing.assert_array_equal(predict_p2(degenerate_split(0.9)), [0.0, 1.0])


def test_observe_p2_single_stratum_fraction():
    strata = degenerate_split(0.9)
    j_tilde = np.array([1.0, 1.0, 1.1, 0.99])
    j_true = np.array([0.95, 0.85, 0.89, 0.80])
    counts, exceed, p2 = observe_p2(strata, j_tilde, j_true)
    assert counts.tolist() == [0, 4]
    assert exceed.tolist() == [0, 1]
    assert np.isnan(p2[0]) and p2[1] == 0.25


def test_observe_p2_no_samples():
    counts, exceed, p2 = observe_p2(build_strata(0.9, 0.01, 10), np.array([]), np.array([]))
    assert counts.sum() == 0 and exceed.sum() == 0
    assert np.isnan(p2).all()


def test_observe_p2_contract_errors():
    strata = degenerate_split(0.9)
    with pytest.raises(ValueError, match="objective"):
        observe_p2(strata, np.array([1.0]), np.array([np.nan]))
    with pytest.raises(ValueError, match="surrogate"):
        observe_p2(strata, np.array([np.nan]), np.array([1.0]))


def test_observe_p2_against_rejection_oracle(calibration):
    # per-stratum exceedance rates from a large rejection-sampled oracle
    from adastrat.evaluators import SyntheticObjective

    spec = calibration["evaluator"]
    obj = SyntheticObjective(kind=spec["kind"], noise_scale=spec["noise_scale"], seed=spec["seed"])
    c = calibration["critical_value"]
    rng = substream(99, "fit")
    ws = sample_uniform(DEFAULT_SPACE, rng, 300)
    model = fit(DEFAULT_SPACE, ws, obj.evaluate_many(ws))
    strata = build_strata(c, model.sigma, 30)

    pool = sample_uniform(DEFAULT_SPACE, substream(100, "pool"), 400_000)
    j_tilde = model.predict_many(pool)
    j_true = obj.evaluate_many(pool)
    idx = strata.bin_many(j_tilde)
    exceeds = j_true > c
    campaign, oracle = {}, {}
    for i in range(strata.n_strata):
        rows = np.flatnonzero(idx == i)
        if rows.size >= 2_000:
            oracle[i] = exceeds[rows].mean()
            campaign[i] = rows[:40]
    assert campaign, "oracle found no well-populated strata"
    rows = np.concatenate(list(campaign.values()))
    counts, exceed, p2 = observe_p2(strata, j_tilde[rows], j_true[rows])
    # the vectorised tally equals a per-sample loop
    tally = np.zeros((2, strata.n_strata), dtype=np.int64)
    for r in rows:
        i = np.searchsorted(strata.edges, j_tilde[r], side="right")
        tally[:, i] += (1, j_true[r] > c)
    np.testing.assert_array_equal(tally, [counts, exceed])
    for i, truth in oracle.items():
        assert counts[i] >= 25
        tol = 4 * math.sqrt(max(truth * (1 - truth), 1e-6) / counts[i])
        assert abs(p2[i] - truth) <= tol + 0.02


def test_mix_p2_trivials():
    assert N_CONFIDENT == 10
    pred = np.array([0.2])
    assert mix_p2(np.array([np.nan]), pred, np.array([0]))[0] == 0.2
    assert mix_p2(np.array([0.7]), pred, np.array([10]))[0] == 0.7
    assert mix_p2(np.array([0.7]), pred, np.array([25]))[0] == 0.7
    assert mix_p2(np.array([0.4]), pred, np.array([5]))[0] == pytest.approx(0.3)


@given(st.floats(0, 1), st.floats(0, 1), st.integers(0, 30))
def test_mix_p2_is_convex_combination(obs, pred, count):
    m = mix_p2(np.array([obs]), np.array([pred]), np.array([count]))[0]
    if count == 0:
        assert m == pred
        # an empty stratum's observation is NaN; it too gets exactly the prediction
        assert mix_p2(np.array([np.nan]), np.array([pred]), np.array([count]))[0] == pred
    else:
        assert min(obs, pred) - 1e-12 <= m <= max(obs, pred) + 1e-12
        if count >= N_CONFIDENT:
            assert m == pytest.approx(obs, abs=1e-12)


def test_build_conditional_table_shapes():
    strata = build_strata(0.9, 0.01, 10)
    table = build_conditional_table(strata, np.array([0.9005, 0.9005]), np.array([0.95, 0.80]))
    assert table.counts.sum() == 2
    i = strata.bin_many(0.9005)
    assert table.exceed_counts[i] == 1
    assert table.p2_obs[i] == 0.5
    r = 2 / 10
    assert table.p2_mix[i] == pytest.approx(r * 0.5 + (1 - r) * table.p2_pred[i])
    assert (np.diff(table.p2_pred) >= 0).all()
