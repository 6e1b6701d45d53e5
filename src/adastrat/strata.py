"""Partition of the surrogate range into strata and their occupancy weights.

The working layout is a band of equal-width bins centered on the critical
value (halfwidth a fixed multiple of the surrogate residual scale), plus two
unbounded tail strata. Interior bins are left-closed/right-open; a value
exactly on an edge belongs to the higher bin.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, DegenerateModelError
from .surrogate import SurrogateModel

# Rows per pool batch (3 MiB at d = 6). At d = 6 this keeps the batch matmul
# under OpenBLAS's threading threshold (between 420 000 and 480 000 elements
# with numpy 2.4's OpenBLAS 0.3.31): above it, a BLAS worker spins on another
# core for about 0.1 s after each call, which on a 2-core host takes the core
# from the helper thread, and from the evaluations that follow the pool.
_POOL_BATCH = 1 << 16
# Pools of at most this many batches are drawn and binned on the caller's
# thread: below about 2**20 rows, waking a helper thread costs more than it
# overlaps. Larger pools draw the next batch on a helper thread.
_SERIAL_BATCHES = 16


@dataclass(frozen=True)
class StratumSet:
    """Strata (-inf, e0), [e0, e1), ..., [e_last, +inf) over surrogate values."""

    edges: np.ndarray
    critical_value: float
    sigma: float
    inner_count: int

    @property
    def n_strata(self) -> int:
        return self.edges.size + 1

    def bin(self, j_tilde: float) -> int:
        """Index of the unique stratum containing ``j_tilde``."""
        if np.isnan(j_tilde):
            raise BoundsError("cannot bin a NaN surrogate value")
        return int(np.searchsorted(self.edges, j_tilde, side="right"))

    def bin_many(self, j_tildes: np.ndarray) -> np.ndarray:
        j_tildes = np.asarray(j_tildes, dtype=float)
        if np.isnan(j_tildes).any():
            raise BoundsError("cannot bin NaN surrogate values")
        return np.searchsorted(self.edges, j_tildes, side="right")

    def lower(self, i: int) -> float:
        return -np.inf if i == 0 else float(self.edges[i - 1])

    def upper(self, i: int) -> float:
        return np.inf if i == self.n_strata - 1 else float(self.edges[i])

    def midpoint(self, i: int) -> float:
        """Arithmetic center of a finite stratum; +-inf for the tails."""
        if i == 0:
            return -np.inf
        if i == self.n_strata - 1:
            return np.inf
        return float(0.5 * (self.edges[i - 1] + self.edges[i]))

    def midpoints(self) -> np.ndarray:
        out = np.empty(self.n_strata)
        out[0], out[-1] = -np.inf, np.inf
        if self.edges.size > 1:
            out[1:-1] = 0.5 * (self.edges[:-1] + self.edges[1:])
        return out


def build_strata(
    critical_value: float,
    sigma: float,
    inner_count: int,
    halfwidth_sigmas: float = 10.0,
) -> StratumSet:
    """Equal-width band of ``inner_count`` bins spanning critical +- halfwidth*sigma.

    Edges are generated symmetrically about the critical value so that, for an
    even bin count, the critical value is itself an edge (exactly, not to
    rounding). Total strata = inner_count + 2 once the tails are added.
    """
    if sigma <= 1e-12 * max(1.0, abs(critical_value)):
        raise DegenerateModelError(
            f"residual scale {sigma!r} is zero or too small to carry a stratum band "
            f"around {critical_value!r}"
        )
    if inner_count < 1:
        raise ValueError(f"inner_count must be >= 1, got {inner_count}")
    if halfwidth_sigmas <= 0.0:
        raise ValueError(f"halfwidth_sigmas must be positive, got {halfwidth_sigmas}")
    width = 2.0 * halfwidth_sigmas * sigma / inner_count
    offsets = np.arange(inner_count + 1) - inner_count / 2.0
    return StratumSet(
        edges=critical_value + offsets * width,
        critical_value=critical_value,
        sigma=sigma,
        inner_count=inner_count,
    )


def degenerate_split(critical_value: float) -> StratumSet:
    """Two-stratum fallback for a perfect surrogate fit (sigma = 0)."""
    return StratumSet(
        edges=np.array([critical_value], dtype=float),
        critical_value=critical_value,
        sigma=0.0,
        inner_count=0,
    )


@dataclass(frozen=True)
class StratumWeights:
    """Occupancy probabilities of each stratum under the surrogate.

    ``variance`` is the per-stratum binomial variance p(1-p)/pool_size of the
    estimates; it is reported for transparency but treated as negligible by
    the estimator (the pool is huge).
    """

    p1: np.ndarray
    pool_size: int
    variance: np.ndarray

    def hits(self) -> np.ndarray:
        """Integer pool counts recovered from p1 (exact for pools < 2**53)."""
        return np.rint(self.p1 * self.pool_size).astype(np.int64)


def estimate_weights(
    strata: StratumSet,
    model: SurrogateModel,
    pool_size: int,
    rng: np.random.Generator,
) -> StratumWeights:
    """Estimate stratum weights from a streamed pool of cheap surrogate draws.

    The pool is drawn into at most two batch buffers that are allocated once
    and overwritten, so memory stays at two batches (6 MiB at d = 6) whatever
    the pool size. In pools of more than ``_SERIAL_BATCHES`` batches one helper
    thread draws the next batch while the caller's thread bins the current
    one. Only one thread draws from ``rng``, batch after batch, so the counts
    are exact integers, identical to a serial loop for a given generator
    state, and ``rng`` ends as it would after ``rng.random((pool_size, d))``.
    """
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    counts = np.zeros(strata.n_strata, dtype=np.int64)
    n_batches = -(-pool_size // _POOL_BATCH)
    rows = min(_POOL_BATCH, pool_size)
    serial = n_batches <= _SERIAL_BATCHES
    buffers = [np.empty((rows, model.space.dim)) for _ in range(1 if serial else 2)]

    def draw(k: int) -> np.ndarray:
        m = min(_POOL_BATCH, pool_size - k * _POOL_BATCH)
        return rng.random(out=buffers[k % len(buffers)][:m])

    def binned(us: np.ndarray) -> np.ndarray:
        return np.bincount(strata.bin_many(model.predict_normalized(us)), minlength=strata.n_strata)

    if serial:
        for k in range(n_batches):
            counts += binned(draw(k))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as helper:
            pending = helper.submit(draw, 0)
            for k in range(n_batches):
                us = pending.result()
                if k + 1 < n_batches:
                    pending = helper.submit(draw, k + 1)
                counts += binned(us)
    p1 = counts / pool_size
    return StratumWeights(p1=p1, pool_size=pool_size, variance=p1 * (1.0 - p1) / pool_size)
