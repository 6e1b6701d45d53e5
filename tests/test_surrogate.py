import numpy as np
import pytest

from adastrat.errors import FitError
from adastrat.rng import substream
from adastrat.space import DEFAULT_SPACE, ParameterDef, ParameterSpace, sample_uniform
from adastrat.surrogate import fit

UNIT = ParameterSpace((ParameterDef("u", 0.0, 1.0),))


def test_fit_exact_linear_one_dim():
    ws = sample_uniform(UNIT, substream(1, "lin"), 20)
    model = fit(UNIT, ws, 0.2 + 0.5 * ws[:, 0])
    assert model.intercept == pytest.approx(0.2, abs=1e-10)
    assert model.coefficients[0] == pytest.approx(0.5, abs=1e-10)
    assert model.sigma < 1e-10
    assert model.training_count == 20
    # predictions interpolate the training data
    np.testing.assert_allclose(model.predict_many(ws), 0.2 + 0.5 * ws[:, 0], atol=1e-10)
    assert model.predict_many(np.array([1.0]))[0] == pytest.approx(0.7, abs=1e-10)


def test_fit_constant_response():
    ws = sample_uniform(DEFAULT_SPACE, substream(2, "const"), 30)
    model = fit(DEFAULT_SPACE, ws, np.full(30, 0.3))
    assert model.intercept == pytest.approx(0.3, abs=1e-12)
    np.testing.assert_allclose(model.coefficients, 0.0, atol=1e-12)
    assert model.sigma == pytest.approx(0.0, abs=1e-12)


def test_fit_matches_normal_equations_oracle():
    # oracle: explicit Gram-matrix solve, written independently of the fit path
    rng = substream(3, "oracle")
    ws = sample_uniform(DEFAULT_SPACE, rng, 50)
    us = DEFAULT_SPACE.normalize_many(ws)
    y = 0.1 + us @ np.array([0.5, -0.2, 0.1, 0.7, -0.05, 0.3]) + 0.2 * us[:, 3] * us[:, 0]
    model = fit(DEFAULT_SPACE, ws, y)
    design = np.column_stack([np.ones(50), us])
    beta = np.linalg.solve(design.T @ design, design.T @ y)
    assert model.intercept == pytest.approx(beta[0], rel=1e-8)
    np.testing.assert_allclose(model.coefficients, beta[1:], rtol=1e-8)


def test_residuals_orthogonal_to_design_columns():
    ws = sample_uniform(DEFAULT_SPACE, substream(4, "orth"), 80)
    us = DEFAULT_SPACE.normalize_many(ws)
    y = 0.3 + us @ np.arange(1.0, 7.0) / 10 + 0.1 * np.sin(7 * us[:, 0])
    model = fit(DEFAULT_SPACE, ws, y)
    resid = y - model.predict_many(ws)
    design = np.column_stack([np.ones(80), us])
    for j in range(design.shape[1]):
        assert abs(resid @ design[:, j]) <= 1e-8 * 80


def test_sigma_equals_rms_of_residuals():
    ws = sample_uniform(DEFAULT_SPACE, substream(5, "rms"), 40)
    y = 0.2 + 0.4 * DEFAULT_SPACE.normalize_many(ws)[:, 3] ** 2
    model = fit(DEFAULT_SPACE, ws, y)
    resid = y - model.predict_many(ws)
    assert model.sigma == pytest.approx(float(np.sqrt(np.mean(resid**2))), abs=1e-12)


def test_refit_is_bit_identical():
    ws = sample_uniform(DEFAULT_SPACE, substream(7, "bit"), 25)
    y = 0.1 + DEFAULT_SPACE.normalize_many(ws)[:, 0]
    a = fit(DEFAULT_SPACE, ws, y)
    b = fit(DEFAULT_SPACE, ws, y)
    assert a.intercept == b.intercept and a.sigma == b.sigma
    np.testing.assert_array_equal(a.coefficients, b.coefficients)


def test_predict_into_a_buffer_is_bit_identical():
    ws = sample_uniform(DEFAULT_SPACE, substream(7, "bit"), 8192)
    model = fit(DEFAULT_SPACE, ws, 0.3 + DEFAULT_SPACE.normalize_many(ws) @ np.linspace(-0.2, 0.5, DEFAULT_SPACE.dim))
    us = DEFAULT_SPACE.normalize_many(ws)
    out = np.empty(len(us))
    assert model.predict_normalized(us, out=out) is out
    np.testing.assert_array_equal(out, model.predict_normalized(us))
    np.testing.assert_array_equal(out, model.intercept + us @ model.coefficients)


def test_rank_deficient_design_names_column():
    # sweep duplicates aspect_ratio exactly, up to the affine rescaling
    space = ParameterSpace((ParameterDef("a", 0.0, 1.0), ParameterDef("b", 0.0, 2.0)))
    rng = substream(8, "rank")
    a = rng.random(20)
    ws = np.column_stack([a, 2 * a])
    with pytest.raises(FitError, match="b"):
        fit(space, ws, a)


def test_insufficient_samples_error():
    ws = sample_uniform(DEFAULT_SPACE, substream(9, "few"), 6)
    with pytest.raises(FitError, match="at least 7"):
        fit(DEFAULT_SPACE, ws, ws[:, 0])


def test_sample_without_objective_rejected():
    ws = sample_uniform(UNIT, substream(10, "none"), 5)
    y = ws[:, 0].copy()
    y[2] = np.nan
    with pytest.raises(FitError, match="row 2 has no finite objective"):
        fit(UNIT, ws, y)
