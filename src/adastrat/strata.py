"""Partition of the surrogate range into strata and their occupancy weights.

The working layout is a band of equal-width bins centered on the critical
value (halfwidth a fixed multiple of the surrogate residual scale), plus two
unbounded tail strata. Interior bins are left-closed/right-open; a value
exactly on an edge belongs to the higher bin. Only ``build_strata`` and
``degenerate_split`` construct a ``StratumSet``, so its edges are always
equal-width to within a small fraction of a bin, the invariant
``StratumSet.bin_many`` relies on.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, DegenerateModelError
from .surrogate import SurrogateModel

# Rows per pool batch: 1.5 MiB at d = 6, which stays in a 2 MiB L2 cache and
# keeps the batch matmul under OpenBLAS's threading threshold (between 420 000
# and 480 000 elements with OpenBLAS 0.3.31), above which a BLAS worker spins
# on the other core for about 0.1 s after each call. On a 10**7 pool over 102
# strata (2 cores, three alternating rounds of 9), 2**16 ran within 3% of
# 2**15 but raised peak RSS by about 5 MB, and 2**14 ran about 10% slower.
_POOL_BATCH = 1 << 15
# Pools of at most this many batches (2**20 rows) are drawn and binned on the
# caller's thread through ``rng`` itself: below that, a helper thread costs
# more than it overlaps.
_SERIAL_BATCHES = 32


@dataclass(frozen=True)
class StratumSet:
    """Strata (-inf, e0), [e0, e1), ..., [e_last, +inf) over surrogate values."""

    edges: np.ndarray
    critical_value: float
    sigma: float

    @property
    def n_strata(self) -> int:
        return self.edges.size + 1

    def bin_many(self, j_tildes: np.ndarray) -> np.ndarray:
        """Index of the unique stratum containing each surrogate value.

        Equal to ``np.searchsorted(self.edges, j_tildes, side="right")``, by the
        guess-and-correct scheme ``numpy.histogram`` uses for uniform bins: the
        bin is guessed from the equal-width layout, which is off by at most
        one bin, then corrected by one step against the stored edges. -inf
        maps to stratum 0 and +inf to the last one; NaN raises ``BoundsError``.
        """
        x = np.asarray(j_tildes, dtype=float)
        if np.isnan(x).any():
            raise BoundsError("cannot bin NaN surrogate values")
        edges, n = self.edges, self.edges.size
        scale = (n - 1) / (edges[-1] - edges[0]) if n > 1 else 1.0
        with np.errstate(over="ignore"):  # a far-tail value may overflow; it is clipped
            idx = np.clip(np.floor((x - edges[0]) * scale + 1.0), 0, n).astype(np.intp)
        # bounds[i] is the lower bound of stratum i; x >= NaN is never true, so
        # nothing moves past the last stratum, +inf included
        bounds = np.concatenate(([-np.inf], edges, [np.nan]))
        return idx - (x < bounds[idx]) + (x >= bounds[1:][idx])

    def bounds(self) -> np.ndarray:
        """-inf, the edges, +inf: stratum i is [bounds[i], bounds[i + 1])."""
        return np.concatenate(([-np.inf], self.edges, [np.inf]))

    def midpoints(self) -> np.ndarray:
        """Arithmetic center of each finite stratum; +-inf for the tails."""
        out = np.empty(self.n_strata)
        out[0], out[-1] = -np.inf, np.inf
        if self.edges.size > 1:
            out[1:-1] = 0.5 * (self.edges[:-1] + self.edges[1:])
        return out


def build_strata(
    critical_value: float,
    sigma: float,
    inner_strata: int,
    halfwidth_sigmas: float = 10.0,
) -> StratumSet:
    """Equal-width band of ``inner_strata`` bins spanning critical +- halfwidth*sigma.

    Edges are generated symmetrically about the critical value so that, for an
    even bin count, the critical value is itself an edge (exactly, not to
    rounding). Total strata = inner_strata + 2 once the tails are added. Bins
    of at most 2**-44 of the largest edge (256 ulps) are refused: the edges'
    rounding then stays well under a bin, so ``bin_many``'s guess is exact
    to within one bin.
    """
    if sigma <= 1e-12 * max(1.0, abs(critical_value)):
        raise DegenerateModelError(
            f"residual scale {sigma!r} is zero or too small to carry a stratum band "
            f"around {critical_value!r}"
        )
    if inner_strata < 1:
        raise ValueError(f"inner_strata must be >= 1, got {inner_strata}")
    if halfwidth_sigmas <= 0.0:
        raise ValueError(f"halfwidth_sigmas must be positive, got {halfwidth_sigmas}")
    width = 2.0 * halfwidth_sigmas * sigma / inner_strata
    edges = critical_value + (np.arange(inner_strata + 1) - inner_strata / 2.0) * width
    if width <= 2.0**-44 * np.abs(edges).max():
        raise DegenerateModelError(f"bins of width {width!r} around {critical_value!r} are too narrow for floats")
    return StratumSet(edges=edges, critical_value=critical_value, sigma=sigma)


def degenerate_split(critical_value: float) -> StratumSet:
    """Two-stratum fallback for a perfect surrogate fit (sigma = 0)."""
    return StratumSet(
        edges=np.array([critical_value], dtype=float),
        critical_value=critical_value,
        sigma=0.0,
    )


@dataclass(frozen=True)
class StratumWeights:
    """Occupancy probabilities of each stratum, estimated from a pool of ``pool_size`` draws.

    ``variance`` is derived from the two fields: the per-stratum binomial
    variance p1(1-p1)/pool_size of the estimates. It is reported for
    transparency but treated as negligible by the estimator (the pool is huge).
    """

    p1: np.ndarray
    pool_size: int

    @property
    def variance(self) -> np.ndarray:
        return self.p1 * (1.0 - self.p1) / self.pool_size

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

    The pool is the rows of ``rng.random((pool_size, d))``, drawn and binned
    in ``_POOL_BATCH``-row batches into one reused buffer per thread. A pool
    of more than ``_SERIAL_BATCHES`` batches is cut into two runs of whole
    batches, so both the draw and the binning run on two cores: the caller
    draws the first run through ``rng``, and one helper thread draws the
    second from a PCG64 copy advanced past the first. Each double takes
    exactly one PCG64 output and integer counts add in any order, so the
    counts equal a serial loop's; where ``rng`` ends is left unspecified.
    Smaller pools and other bit generators (the split needs PCG64's
    ``advance``) are drawn through ``rng`` on the caller's thread.

    Most rows fall below the band, so each batch counts its rows with
    ``x < edges[0]`` into stratum 0 and bins only the others. That is exact:
    under ``bin_many``'s rules (an edge belongs to the higher stratum, -inf
    to stratum 0) stratum 0 is exactly ``x < edges[0]``, and a NaN row fails
    that test, so it still reaches ``bin_many`` and raises ``BoundsError``.
    """
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    n_batches = -(-pool_size // _POOL_BATCH)
    dim = model.space.dim

    def count(generator: np.random.Generator, rows: int) -> np.ndarray:
        counts = np.zeros(strata.n_strata, dtype=np.int64)
        buffer = np.empty((min(_POOL_BATCH, rows), dim))
        for start in range(0, rows, _POOL_BATCH):
            x = model.predict_normalized(generator.random(out=buffer[: rows - start]))
            rest = np.compress(~(x < strata.edges[0]), x)
            counts[0] += x.size - rest.size
            counts += np.bincount(strata.bin_many(rest), minlength=strata.n_strata)
        return counts

    bits = rng.bit_generator
    if n_batches <= _SERIAL_BATCHES or type(bits) is not np.random.PCG64:
        counts = count(rng, pool_size)
    else:
        from concurrent.futures import ThreadPoolExecutor

        first = n_batches // 2 * _POOL_BATCH
        second = np.random.Generator(copy.deepcopy(bits).advance(first * dim))
        with ThreadPoolExecutor(max_workers=1) as helper:
            pending = helper.submit(count, second, pool_size - first)
            counts = count(rng, first) + pending.result()
    return StratumWeights(p1=counts / pool_size, pool_size=pool_size)
