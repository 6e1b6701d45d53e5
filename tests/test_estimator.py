import numpy as np
import pytest
from hypothesis import given, strategies as st

from adastrat.estimator import (
    build_estimate,
    confidence_interval,
    estimate,
    hard_tail_p2,
    naive_mc_equivalent,
    stratified_variance,
)
from adastrat.rng import substream
from adastrat.strata import StratumWeights, build_strata, degenerate_split


def test_estimate_single_stratum_reduces_to_naive_mc():
    assert estimate(np.array([1.0]), np.array([3 / 16])) == pytest.approx(3 / 16)
    assert stratified_variance(np.array([1.0]), np.array([0.5]), np.array([100])) == pytest.approx(0.0025)


def test_estimate_trivials_and_weight_check():
    assert estimate(np.array([0.6, 0.4]), np.zeros(2)) == 0.0
    with pytest.raises(ValueError, match="sum"):
        estimate(np.array([0.6, 0.3]), np.zeros(2))
    with pytest.raises(ValueError):
        estimate(np.array([0.5, 0.5]), np.array([0.5, 1.5]))


def test_biased_variance_examples():
    # two strata: the hard-zero one contributes nothing
    v = stratified_variance(np.array([0.9, 0.1]), np.array([0.0, 0.5]), np.array([0, 25]))
    assert v == pytest.approx(0.1**2 * 0.25 / 25)
    assert stratified_variance(np.array([0.5, 0.5]), np.array([0.0, 1.0]), np.array([0, 0])) == 0.0


def test_biased_variance_contract_violation():
    with pytest.raises(ValueError, match="no samples"):
        stratified_variance(np.array([0.5, 0.5]), np.array([0.0, 0.5]), np.array([0, 0]))


def test_unbiased_variance_examples():
    assert stratified_variance(np.array([1.0]), np.array([0.5]), np.array([1]), ddof=1) == 0.0
    assert stratified_variance(np.array([1.0]), np.array([0.5]), np.array([2]), ddof=1) == pytest.approx(0.25)


@given(
    st.lists(st.tuples(st.floats(0.01, 0.99), st.integers(2, 40)), min_size=1, max_size=6)
)
def test_unbiased_at_least_biased(rows):
    p2 = np.array([p for p, _ in rows])
    counts = np.array([n for _, n in rows])
    p1 = np.full(len(rows), 1.0 / len(rows))
    assert stratified_variance(p1, p2, counts, ddof=1) >= stratified_variance(p1, p2, counts)


def test_confidence_interval_reference_values():
    # printed to five decimals in the source material; one print-unit tolerance
    cases = [
        (0.00213, 6.847554e-08, 0.00160, 0.00265),
        (0.00198, 1.110937e-07, 0.00131, 0.00265),
        (0.00220, 3.449311e-08, 0.00183, 0.00257),
    ]
    for mu, var, lo, hi in cases:
        got_lo, got_hi = confidence_interval(mu, var)
        assert abs(got_lo - lo) <= 1e-5
        assert abs(got_hi - hi) <= 1e-5


def test_confidence_interval_zero_variance():
    assert confidence_interval(0.1, 0.0) == (0.1, 0.1)
    with pytest.raises(ValueError):
        confidence_interval(0.1, -1e-9)


def test_naive_mc_equivalent_reference_value():
    n = naive_mc_equivalent(0.00213, 5.191024e-08)
    assert abs(n - 40_852) / 40_852 < 0.005
    assert n / 199 > 200


def test_naive_mc_equivalent_inverts_binomial_variance():
    assert naive_mc_equivalent(0.5, 0.0025) == 100
    # cross-check against the rearranged defining identity
    p, var = 0.00220, 3.165626e-08
    n = naive_mc_equivalent(p, var)
    assert n == int(np.ceil(p * (1 - p) / var))
    assert p * (1 - p) / n <= var
    assert n / 61 > 1000


def test_naive_mc_equivalent_domain_errors():
    with pytest.raises(ValueError):
        naive_mc_equivalent(0.0, 1e-8)
    with pytest.raises(ValueError):
        naive_mc_equivalent(1.0, 1e-8)
    with pytest.raises(ValueError):
        naive_mc_equivalent(0.5, 0.0)


def test_hard_tail_extrapolation_sides():
    strata = build_strata(0.9, 0.01, 10)
    counts = np.zeros(strata.n_strata, dtype=int)
    p2_obs = np.full(strata.n_strata, np.nan)
    counts[3], p2_obs[3] = 4, 0.25
    p2 = hard_tail_p2(strata, counts, p2_obs)
    assert p2[3] == 0.25
    assert p2[0] == 0.0 and p2[-1] == 1.0
    mids = strata.midpoints()
    for i in range(strata.n_strata):
        if counts[i] == 0:
            assert p2[i] == (0.0 if mids[i] < 0.9 else 1.0)


def test_build_estimate_fields_consistent():
    strata = degenerate_split(0.9)
    weights = StratumWeights(p1=np.array([0.998, 0.002]), pool_size=1_000_000)
    counts = np.array([50, 20])
    p2 = hard_tail_p2(strata, counts, np.array([0.0, 9 / 20]))
    est = build_estimate(weights, p2, counts)
    assert est.probability == pytest.approx(0.002 * 0.45)
    assert est.probability == pytest.approx(float(weights.p1 @ p2), abs=1e-12)
    assert est.ci95[0] == pytest.approx(est.probability - 2 * np.sqrt(est.unbiased_variance))
    assert est.mc_equivalent == int(np.ceil(est.probability * (1 - est.probability) / est.biased_variance))
    # weight noise is reported separately, never folded into the variance
    assert est.p1_standard_error > 0
    assert est.biased_variance == pytest.approx(0.002**2 * 0.45 * 0.55 / 20)
    # exact weights carry no weight noise, and the same variance
    exact = build_estimate(StratumWeights(p1=weights.p1), p2, counts)
    assert exact.p1_standard_error is None
    assert exact.biased_variance == est.biased_variance
    assert list(est.summary()) == ["probability", "biased_variance", "unbiased_variance", "ci95", "mc_equivalent",
                                   "p1_standard_error"]


def test_single_stratum_campaign_matches_naive_mc_cost():
    # with all the weight in one stratum the whole machinery collapses to
    # naive Monte Carlo: the matching-cost sample count is the sample count
    strata = degenerate_split(0.9)
    weights = StratumWeights(p1=np.array([0.0, 1.0]), pool_size=10_000)
    counts = np.array([0, 50])
    est = build_estimate(weights, hard_tail_p2(strata, counts, np.array([np.nan, 0.5])), counts)
    assert est.probability == 0.5
    assert est.biased_variance == pytest.approx(0.5 * 0.5 / 50)
    assert est.mc_equivalent == 50


def test_biased_variance_matches_bootstrap():
    # fixed campaign: resample per-stratum outcomes and compare spreads
    p1 = np.array([0.95, 0.03, 0.015, 0.005])
    p2 = np.array([0.0, 0.1, 0.4, 0.9])
    counts = np.array([80, 40, 30, 20])
    formula = stratified_variance(p1, p2, counts)
    rng = substream(20260808, "bootstrap")
    draws = [
        float(p1 @ (rng.binomial(counts, p2) / counts))
        for _ in range(500)
    ]
    empirical = float(np.var(draws))
    assert formula / 1.5 <= empirical <= formula * 1.5
