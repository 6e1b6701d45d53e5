"""Linear surrogate of the expensive objective and its residual scale.

The fit runs on normalized coordinates for conditioning (raw units span two
orders of magnitude across dimensions); that choice moves the coefficients
but leaves predictions, the residual scale and everything downstream
unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FitError
from .space import ParameterSpace

# Pivot threshold for rank detection, relative to the largest pivot seen.
_PIVOT_RTOL = 1e-10


@dataclass(frozen=True)
class SurrogateModel:
    """Affine model ``j ≈ intercept + coefficients · normalize(w)``.

    ``sigma`` is the plain root-mean-square residual over the training set
    (divisor n).
    """

    space: ParameterSpace
    intercept: float
    coefficients: np.ndarray
    sigma: float
    training_count: int

    def predict_many(self, ws: np.ndarray) -> np.ndarray:
        """Surrogate values for rows in natural units."""
        return self.predict_normalized(self.space.normalize_many(ws))

    def predict_normalized(self, us: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Surrogate values for rows already in normalized coordinates, into ``out`` (contiguous,
        one float per row) if given: the floats ``intercept + us @ coefficients`` gives."""
        y = np.matmul(np.asarray(us, dtype=float), self.coefficients, out=out)
        y += self.intercept
        return y


def fit(space: ParameterSpace, ws: np.ndarray, y: np.ndarray) -> SurrogateModel:
    """Least-squares fit of the affine surrogate to evaluated points.

    Args:
        space: the parameter box the points live in.
        ws: the points in natural units, one per row.
        y: their objective values.

    Raises:
        FitError: fewer than dim+1 points, an objective value that is not
            finite, a rank-deficient design, or an objective so large that
            the residual scale or a coefficient is not finite.
    """
    y = np.asarray(y, dtype=float)
    n, d = y.size, space.dim
    if n < d + 1:
        raise FitError(f"need at least {d + 1} evaluated samples to fit, got {n}")
    if not np.isfinite(y).all():
        raise FitError(f"sample row {np.flatnonzero(~np.isfinite(y))[0]} has no finite objective value")
    us = space.normalize_many(ws)
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
    with np.errstate(over="ignore", invalid="ignore"):  # a huge objective overflows; it is refused below
        beta = np.linalg.solve(r, q.T @ y)
        residuals = y - design @ beta
        sigma = float(np.sqrt(residuals @ residuals / n))
    if not np.isfinite([*beta, sigma]).all():
        i = int(np.argmax(np.abs(y)))
        raise FitError(f"sample row {i} has objective {float(y[i])!r}, too large to fit: the residual scale or a "
                       "coefficient is not finite")
    return SurrogateModel(
        space=space,
        intercept=float(beta[0]),
        coefficients=beta[1:].copy(),
        sigma=sigma,
        training_count=n,
    )
