"""Linear surrogate of the expensive objective and its residual scale.

The fit runs on normalized coordinates for conditioning (raw units span two
orders of magnitude across dimensions); that choice moves the coefficients
but leaves predictions, the residual scale and everything downstream
unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FitError
from .space import ParameterSpace, SampleRecord

# Pivot threshold for rank detection, relative to the largest pivot seen.
_PIVOT_RTOL = 1e-10


@dataclass(frozen=True)
class SurrogateModel:
    """Affine model ``j ≈ intercept + coefficients · normalize(w)``.

    ``sigma`` is the plain root-mean-square residual over the training set
    (divisor n), unless the fit was asked for the degrees-of-freedom
    corrected variant.
    """

    space: ParameterSpace
    intercept: float
    coefficients: np.ndarray
    sigma: float
    training_count: int

    def predict_many(self, ws: np.ndarray) -> np.ndarray:
        """Surrogate values for rows in natural units."""
        return self.predict_normalized(self.space.normalize_many(ws))

    def predict_normalized(self, us: np.ndarray) -> np.ndarray:
        """Surrogate values for rows already in normalized coordinates."""
        return self.intercept + np.asarray(us, dtype=float) @ self.coefficients


def fit(
    space: ParameterSpace,
    samples: Sequence[SampleRecord],
    *,
    dof_corrected: bool = False,
) -> SurrogateModel:
    """Least-squares fit of the affine surrogate to evaluated samples.

    Args:
        space: the parameter box the samples live in.
        samples: records whose ``j_true`` is present.
        dof_corrected: divide the residual sum of squares by (n - dim - 1)
            instead of n when forming ``sigma``.

    Raises:
        FitError: fewer than dim+1 samples, a sample without an objective
            value, or a rank-deficient design.
    """
    d = space.dim
    if len(samples) < d + 1:
        raise FitError(f"need at least {d + 1} evaluated samples to fit, got {len(samples)}")
    for s in samples:
        if s.j_true is None:
            raise FitError(f"sample {s.id} has no objective value")
    ws = np.vstack([s.params for s in samples])
    y = np.array([s.j_true for s in samples], dtype=float)
    us = space.normalize_many(ws)
    n = len(samples)
    design = np.column_stack([np.ones(n), us])
    names = ["intercept"] + space.names
    q, r = np.linalg.qr(design)
    # QR on the design, not Cholesky on design^T design, so the conditioning is
    # not squared; R_jj^2 is the pivot that Cholesky would meet at column j, and
    # a small one marks the column as dependent on its predecessors
    pivots = np.diag(r) ** 2
    largest = np.maximum.accumulate(pivots)
    dependent = np.flatnonzero(pivots <= _PIVOT_RTOL * largest)
    if dependent.size:
        j = dependent[0]
        raise FitError(
            f"design matrix is rank deficient at column {names[j]!r} "
            f"(pivot {pivots[j]:.3e} vs largest {largest[j]:.3e})"
        )
    beta = np.linalg.solve(r, q.T @ y)
    residuals = y - design @ beta
    if dof_corrected:
        dof = n - d - 1
        if dof < 1:
            raise FitError(f"degrees-of-freedom corrected sigma needs more than {d + 1} samples")
        sigma = float(np.sqrt(residuals @ residuals / dof))
    else:
        sigma = float(np.sqrt(residuals @ residuals / n))
    return SurrogateModel(
        space=space,
        intercept=float(beta[0]),
        coefficients=beta[1:].copy(),
        sigma=sigma,
        training_count=n,
    )


def training_residuals(model: SurrogateModel, samples: Sequence[SampleRecord]) -> np.ndarray:
    """Residuals j_true - prediction, in sample order (for inspection)."""
    ws = np.vstack([s.params for s in samples])
    y = np.array([s.j_true for s in samples], dtype=float)
    return y - model.predict_many(ws)
