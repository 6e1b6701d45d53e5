import sys
from pathlib import Path

import numpy as np
import pytest

from adastrat.errors import BoundsError, ConfigError
from adastrat.evaluators import (
    EvaluationRequest,
    ExternalEvaluator,
    SyntheticObjective,
    evaluate_batch,
    oracle_probability,
)
from adastrat.rng import substream
from adastrat.space import DEFAULT_SPACE, sample_uniform

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def corner(low=True):
    lows = DEFAULT_SPACE.lows()
    return lows if low else lows + DEFAULT_SPACE.spans()


def test_quadratic_closed_form_corners():
    obj = SyntheticObjective(kind="quadratic", noise_scale=0.0)
    low, high = obj.evaluate_many(np.vstack([corner(), corner(low=False)]))
    assert low == pytest.approx(0.12, abs=1e-15)
    assert high == pytest.approx(0.96, abs=1e-12)


def test_linear_variant_drops_interaction_terms():
    obj = SyntheticObjective(kind="linear", noise_scale=0.0)
    assert obj.evaluate_many(corner(low=False))[0] == pytest.approx(0.96 - 0.15, abs=1e-12)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        SyntheticObjective(kind="cubic")
    with pytest.raises(ConfigError):
        SyntheticObjective(noise_scale=-0.1)


def test_out_of_box_input_rejected():
    obj = SyntheticObjective()
    w = corner()
    w[0] -= 1.0
    with pytest.raises(BoundsError, match="aspect_ratio"):
        obj.evaluate_many(w)


def test_noise_is_bounded_deterministic_and_seed_keyed():
    ws = sample_uniform(DEFAULT_SPACE, substream(1, "noise"), 500)
    base = SyntheticObjective(noise_scale=0.0).evaluate_many(ws)
    noisy = SyntheticObjective(noise_scale=0.05, seed=3).evaluate_many(ws)
    again = SyntheticObjective(noise_scale=0.05, seed=3).evaluate_many(ws)
    other = SyntheticObjective(noise_scale=0.05, seed=4).evaluate_many(ws)
    np.testing.assert_array_equal(noisy, again)
    assert np.abs(noisy - base).max() <= 0.05 + 1e-15
    assert (noisy != other).any()
    # the batch interface and the vector closed form agree exactly
    reqs = [EvaluationRequest(id=i, params=w) for i, w in enumerate(ws)]
    out = evaluate_batch(SyntheticObjective(noise_scale=0.05, seed=3), reqs)
    assert [r.objective for r in out.results] == noisy.tolist()


def test_oracle_probability_extreme_critical_values():
    obj = SyntheticObjective(noise_scale=0.0)
    rng = substream(2, "oracle")
    p_low, se_low = oracle_probability(obj, 0.0, 5_000, rng)
    assert p_low == 1.0 and se_low == 0.0
    p_high, _ = oracle_probability(obj, 2.0, 5_000, substream(2, "oracle"))
    assert p_high == 0.0


def test_evaluate_batch_empty_and_parallel_determinism():
    obj = SyntheticObjective(noise_scale=0.02, seed=1)
    assert evaluate_batch(obj, [], parallelism=4).results == []
    ws = sample_uniform(DEFAULT_SPACE, substream(3, "batch"), 10)
    reqs = [EvaluationRequest(id=i, params=w) for i, w in enumerate(ws)]
    one = evaluate_batch(obj, reqs, parallelism=1)
    eight = evaluate_batch(obj, reqs, parallelism=8)
    assert [r.objective for r in one.results] == [r.objective for r in eight.results]
    assert [r.id for r in one.results] == list(range(10))


def _external(mode=None, timeout=20.0):
    cmd = [sys.executable, str(FIXTURES / "flaky_evaluator.py")]
    if mode:
        cmd.append(mode)
    return ExternalEvaluator(command=cmd, timeout=timeout)


def test_external_echo_script_matches_direct_computation():
    # the script replies with the plain sum of the parameter values
    ws = sample_uniform(DEFAULT_SPACE, substream(4, "echo"), 12)
    reqs = [EvaluationRequest(id=i, params=w) for i, w in enumerate(ws)]
    out = evaluate_batch(_external("none"), reqs, parallelism=3)
    assert not out.failures
    got = np.array([r.objective for r in out.results])
    np.testing.assert_allclose(got, ws.sum(axis=1), rtol=0, atol=1e-12)


def test_external_multiset_independent_of_parallelism():
    ws = sample_uniform(DEFAULT_SPACE, substream(5, "multi"), 9)
    reqs = [EvaluationRequest(id=i, params=w) for i, w in enumerate(ws)]
    seq = evaluate_batch(_external("none"), reqs, parallelism=1)
    par = evaluate_batch(_external("none"), reqs, parallelism=4)
    assert [(r.id, r.objective) for r in seq.results] == [(r.id, r.objective) for r in par.results]


def test_external_garbage_replies_fail_only_their_requests():
    ws = sample_uniform(DEFAULT_SPACE, substream(6, "garbage"), 9)
    reqs = [EvaluationRequest(id=i, params=w) for i, w in enumerate(ws)]
    out = evaluate_batch(_external("garbage"), reqs, parallelism=1)
    assert sorted(f.id for f in out.failures) == [0, 3, 6]
    assert sorted(r.id for r in out.results) == [1, 2, 4, 5, 7, 8]


def test_external_crash_restarts_and_continues():
    ws = sample_uniform(DEFAULT_SPACE, substream(7, "crash"), 6)
    reqs = [EvaluationRequest(id=i, params=w) for i, w in enumerate(ws)]
    out = evaluate_batch(_external("crash"), reqs, parallelism=1)
    assert len(out.failures) >= 1
    assert len(out.results) + len(out.failures) == 6


def test_external_timeout_reported_per_request():
    ws = sample_uniform(DEFAULT_SPACE, substream(8, "hang"), 3)
    reqs = [EvaluationRequest(id=i, params=w) for i, w in enumerate(ws)]
    out = evaluate_batch(_external("hang", timeout=1.0), reqs, parallelism=1)
    assert sorted(f.id for f in out.failures) == [0, 2]
    assert "Timeout" in out.failures[0].reason
    assert [r.id for r in out.results] == [1]


def test_external_wrong_id_detected():
    ws = sample_uniform(DEFAULT_SPACE, substream(9, "wrong"), 6)
    reqs = [EvaluationRequest(id=i, params=w) for i, w in enumerate(ws)]
    out = evaluate_batch(_external("wrong-id"), reqs, parallelism=1)
    assert sorted(f.id for f in out.failures) == [0, 5]
