import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from adastrat.errors import BoundsError, ConfigError
from adastrat.rng import substream
from adastrat.space import (
    DEFAULT_SPACE,
    ParameterDef,
    ParameterSpace,
    sample_product,
    sample_uniform,
)

UNIT = ParameterSpace((ParameterDef("u", 0.0, 1.0),))


def test_default_space_matches_reference_ranges():
    bounds = {d.name: (d.min, d.max) for d in DEFAULT_SPACE.dims}
    assert bounds == {
        "aspect_ratio": (5.0, 15.0),
        "sweep": (25.0, 45.0),
        "dihedral": (-5.0, 15.0),
        "alpha": (0.0, 8.0),
        "beta": (0.0, 5.0),
        "mach": (0.1, 0.3),
    }


def test_parameter_def_rejects_empty_or_inverted():
    with pytest.raises(ConfigError):
        ParameterDef("", 0.0, 1.0)
    with pytest.raises(ConfigError):
        ParameterDef("x", 1.0, 1.0)
    with pytest.raises(ConfigError):
        ParameterSpace((ParameterDef("x", 0, 1), ParameterDef("x", 0, 2)))
    with pytest.raises(ConfigError):
        ParameterSpace(())


def test_sample_uniform_deterministic_given_seed():
    a = sample_uniform(UNIT, substream(7, "draws"), 3)
    b = sample_uniform(UNIT, substream(7, "draws"), 3)
    assert a.shape == (3, 1)
    assert (a >= 0).all() and (a <= 1).all()
    np.testing.assert_array_equal(a, b)


def test_sample_uniform_single_point_in_default_box():
    w = sample_uniform(DEFAULT_SPACE, substream(3, "one"), 1)
    assert w.shape == (1, 6)
    DEFAULT_SPACE.validate_many(w)


def test_sample_uniform_rejects_zero_count():
    with pytest.raises(ValueError):
        sample_uniform(UNIT, substream(0, "n"), 0)


def test_sample_uniform_million_mean():
    # standard error is 1/sqrt(12e6) ~ 2.9e-4, so 0.002 is a ~7 sigma band
    w = sample_uniform(UNIT, substream(11, "mean"), 1_000_000)
    assert abs(w.mean() - 0.5) < 0.002


def test_sample_uniform_kolmogorov_smirnov_each_dimension():
    # fixed published seed: 13 (per-dimension p-values 0.26 .. 0.93)
    ws = sample_uniform(DEFAULT_SPACE, substream(13, "ks"), 100_000)
    us = DEFAULT_SPACE.normalize_many(ws)
    for j in range(DEFAULT_SPACE.dim):
        assert stats.kstest(us[:, j], "uniform").pvalue > 0.01


def test_normalize_trivials():
    lows = DEFAULT_SPACE.lows()
    highs = lows + DEFAULT_SPACE.spans()
    us = DEFAULT_SPACE.normalize_many(np.vstack([lows, highs, [10.0, 35.0, 5.0, 4.0, 2.5, 0.2]]))
    np.testing.assert_allclose(us[0], np.zeros(6))
    np.testing.assert_allclose(us[1], np.ones(6))
    assert us[2, 0] == pytest.approx(0.5)


def test_normalize_names_offending_dimension():
    w = np.array([4.0, 35.0, 5.0, 4.0, 2.5, 0.2])
    with pytest.raises(BoundsError, match="aspect_ratio"):
        DEFAULT_SPACE.normalize_many(w)
    bad = np.tile([10.0, 35.0, 5.0, 4.0, 2.5, 0.2], (3, 1))
    bad[2, 4] = 9.9
    with pytest.raises(BoundsError, match="beta"):
        DEFAULT_SPACE.normalize_many(bad)


@given(st.integers(0, 2**32 - 1))
def test_normalize_round_trip(seed):
    ws = sample_uniform(DEFAULT_SPACE, substream(seed, "round-trip"), 5)
    back = DEFAULT_SPACE.denormalize_many(DEFAULT_SPACE.normalize_many(ws))
    np.testing.assert_allclose(back, ws, rtol=1e-12, atol=0.0)


def test_sample_product_shape_and_bounds():
    ws = sample_product(DEFAULT_SPACE, substream(5, "prod"), {"geometry": 4, "freestream": 3})
    assert ws.shape == (12, 6)
    DEFAULT_SPACE.validate_many(ws)
    # the geometry block is held fixed while freestream conditions cycle
    np.testing.assert_array_equal(ws[0, :3], ws[1, :3])
    assert not np.array_equal(ws[0, 3:], ws[1, 3:])


def test_sample_product_requires_group_counts():
    with pytest.raises(ConfigError):
        sample_product(DEFAULT_SPACE, substream(5, "prod"), {"geometry": 4})
    with pytest.raises(ConfigError):
        sample_product(DEFAULT_SPACE, substream(5, "prod"), {"geometry": 0, "freestream": 3})
