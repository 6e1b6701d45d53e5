import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from adastrat.errors import ConfigError
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


@pytest.mark.parametrize("low, high", [(0.0, np.inf), (-np.inf, 0.0), (-1e308, 1e308)])
def test_parameter_def_refuses_a_span_that_is_not_finite(low, high):
    # every point of such a box would scale to inf, and no evaluation could accept it
    with pytest.raises(ConfigError, match="parameter 'a': max - min must be finite"):
        ParameterDef("a", low, high)
    assert ParameterDef("a", -1e307, 1e307).max == 1e307  # a finite span, however wide, is kept


def test_bounds_are_built_once_and_handed_out_as_copies():
    space = ParameterSpace((ParameterDef("a", 1.0, 3.0), ParameterDef("b", -2.0, 2.0)))
    lows, spans = space.lows(), space.spans()
    np.testing.assert_array_equal(lows, [1.0, -2.0])
    np.testing.assert_array_equal(spans, [2.0, 4.0])
    lows[0] = spans[0] = 99.0  # a caller's copy: the space is unchanged
    np.testing.assert_array_equal(space.lows(), [1.0, -2.0])
    np.testing.assert_array_equal(space.denormalize_many([[1.0, 1.0]]), [[3.0, 2.0]])
    assert space == ParameterSpace((ParameterDef("a", 1.0, 3.0), ParameterDef("b", -2.0, 2.0)))


def test_denormalize_into_a_given_array_is_the_same_formula():
    us = substream(17, "out").random((50, DEFAULT_SPACE.dim))
    expected = DEFAULT_SPACE.lows() + us * DEFAULT_SPACE.spans()  # fl(fl(u * span) + low)
    np.testing.assert_array_equal(DEFAULT_SPACE.denormalize_many(us), expected)
    buffer = us.copy()
    assert DEFAULT_SPACE.denormalize_many(buffer, out=buffer) is buffer
    np.testing.assert_array_equal(buffer, expected)



# every boundary str.splitlines splits on, which would break the samples.tsv header
LINE_BREAKS = {"lf": "\n", "cr": "\r", "crlf": "\r\n", "vt": "\v", "ff": "\f", "fs": "\x1c", "gs": "\x1d",
               "rs": "\x1e", "nel": "\x85", "ls": "\u2028", "ps": "\u2029"}


@pytest.mark.parametrize("line_break", LINE_BREAKS.values(), ids=LINE_BREAKS.keys())
def test_parameter_def_refuses_a_line_break_in_its_name(line_break):
    for name in (f"alpha{line_break}x", f"alpha{line_break}"):
        with pytest.raises(ConfigError, match=re.escape(repr(name))):
            ParameterDef(name, 0.0, 1.0)
    assert ParameterDef("alpha\tx", 0.0, 1.0).name == "alpha\tx"  # a tab round-trips through the table

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
    with pytest.raises(ValueError, match="aspect_ratio"):
        DEFAULT_SPACE.normalize_many(w)
    bad = np.tile([10.0, 35.0, 5.0, 4.0, 2.5, 0.2], (3, 1))
    bad[2, 4] = 9.9
    with pytest.raises(ValueError, match="beta"):
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
