"""Partition of the surrogate range into strata and their occupancy weights.

Weights are exact by default (``exact_weights``): the surrogate is affine in
independent uniforms, so each occupancy has a closed form. A configured
``pool_size`` estimates them instead from a Monte Carlo pool binned on the
caller's thread (``estimate_weights``), which run dirs that name one resume on.

The working layout is a band of equal-width bins centered on the critical
value (halfwidth a fixed multiple of the surrogate residual scale), plus two
unbounded tail strata. Interior bins are left-closed/right-open; a value
exactly on an edge belongs to the higher bin. Only ``build_strata`` and
``degenerate_split`` construct a ``StratumSet``, so its edges are always
equal-width to within a small fraction of a bin, the invariant
``StratumSet.bin_many`` relies on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .surrogate import SurrogateModel

# Rows per pool batch: 384 KiB of draws at d = 6, the size of the candidate search's
# buffer. Freeing a block above glibc's mmap threshold raises that threshold, after which
# every later pool's buffers stay on the heap: at 2**15 rows (1.5 MiB) multi-iterate's
# peak RSS read 44.2 MB, at 2**13 42.4 MB (2-core host). The price is per-batch overhead:
# a 10**5 pool takes 13 batches instead of 4 and runs about 4% slower.
_POOL_BATCH = 1 << 13

#: Most nonzero coefficients ``exact_weights`` is asked to handle: 2**12 subset sums per edge.
EXACT_MAX_DIM = 12
# A float edge value whose error bound exceeds this is recomputed in exact rationals. Two
# edges bound a stratum, so every exact p1 lies within 2**-41 (4.5e-13) of its true value.
_EDGE_TOLERANCE = 2.0**-42
_UNIT_ROUNDOFF = 2.0**-53


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
        maps to stratum 0 and +inf to the last one; NaN raises ``ValueError``.
        """
        x = np.asarray(j_tildes, dtype=float)
        if np.isnan(x).any():
            raise ValueError("cannot bin NaN surrogate values")
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
    rounding). Total strata = inner_strata + 2 once the tails are added. A
    ``sigma`` too small to carry a band, as of a perfect fit, gives
    ``degenerate_split`` instead, and so do bins of at most 2**-44 of the
    largest edge (256 ulps): in every band the edges' rounding stays well
    under a bin, so ``bin_many``'s guess is exact to within one bin.

    Raises:
        ConfigError: the band is too wide for floats: an edge, or the span
            between the outer two, is not finite.
    """
    if inner_strata < 1:
        raise ValueError(f"inner_strata must be >= 1, got {inner_strata}")
    if halfwidth_sigmas <= 0.0:
        raise ValueError(f"halfwidth_sigmas must be positive, got {halfwidth_sigmas}")
    if sigma <= 1e-12 * max(1.0, abs(critical_value)):
        return degenerate_split(critical_value)
    width = 2.0 * halfwidth_sigmas * sigma / inner_strata
    with np.errstate(over="ignore", invalid="ignore"):  # a band too wide for floats is refused below
        edges = critical_value + (np.arange(inner_strata + 1) - inner_strata / 2.0) * width
        span = edges[-1] - edges[0]
    if not (np.isfinite(edges).all() and np.isfinite(span)):
        raise ConfigError(f"band_halfwidth_sigmas {halfwidth_sigmas!r} times the residual scale {sigma!r} "
                          "lays out strata whose edges are not finite; lower band_halfwidth_sigmas")
    if width <= 2.0**-44 * np.abs(edges).max():
        return degenerate_split(critical_value)
    return StratumSet(edges=edges, critical_value=critical_value, sigma=sigma)


def degenerate_split(critical_value: float) -> StratumSet:
    """Two strata split at the critical value, with sigma = 0: the layout of a band too narrow to lay out."""
    return StratumSet(
        edges=np.array([critical_value], dtype=float),
        critical_value=critical_value,
        sigma=0.0,
    )


@dataclass(frozen=True)
class StratumWeights:
    """Occupancy probabilities of each stratum: exact (``pool_size`` None) or estimated
    from a pool of ``pool_size`` draws.

    ``variance`` is derived from the two fields: the per-stratum binomial
    variance p1(1-p1)/pool_size of pool estimates, and 0 for exact weights. It is
    reported for transparency but treated as negligible by the estimator.
    """

    p1: np.ndarray
    pool_size: Optional[int] = None

    @property
    def variance(self) -> np.ndarray:
        if self.pool_size is None:
            return np.zeros_like(self.p1)
        return self.p1 * (1.0 - self.p1) / self.pool_size

    def hits(self) -> Optional[np.ndarray]:
        """Integer pool counts recovered from p1 (exact for pools < 2**53); None for exact weights."""
        return None if self.pool_size is None else np.rint(self.p1 * self.pool_size).astype(np.int64)


def exact_weights(strata: StratumSet, model: SurrogateModel) -> StratumWeights:
    """The exact occupancy of each stratum under the affine surrogate on uniform coordinates.

    A negative coefficient is reflected (a u = a + |a| (1 - u)) and a zero one dropped, so
    J~ = base + S with S = sum of c_i v_i over the m nonzero coefficients, every c_i > 0 and
    v_i uniform. The CDF of S is inclusion-exclusion over the 2^m subset sums s_K
    (Sadooghi-Alvandi, Nematollahi & Habibi, Statistical Papers 50, 2009):
    P(S < t) = sum_K (-1)^|K| (t - s_K)_+^m / (m! prod c). An edge above the midpoint of the
    range is taken on the reflected side, P(S > t) = P(S < sum c - t), and each weight is a
    difference of two values on one side (or 1 minus one value of each side), so small
    weights keep their digits. All values are first scaled by the power of two that brings
    the largest coefficient into [0.5, 1), which is exact and keeps the powers in range.

    Each float edge value comes with an a priori bound on its rounding error
    (``_edge_values``); an edge whose bound exceeds ``_EDGE_TOLERANCE``, as where
    unbalanced coefficients cancel, is recomputed in exact rationals (``_rational_value``).
    So every p1 is within 2**-41 of the exact occupancy of the model's float coefficients
    and the float edges, the p1 are >= 0 and sum to 1 up to rounding. No random numbers are
    drawn; a constant surrogate puts all weight in the stratum of its value.
    """
    a = np.asarray(model.coefficients, dtype=float)
    if not (np.isfinite(a).all() and math.isfinite(model.intercept)):
        raise ValueError("cannot weigh strata under a surrogate with non-finite coefficients")
    a = a[a != 0]
    if a.size > EXACT_MAX_DIM:
        raise ValueError(f"exact weights of {a.size} nonzero coefficients need 2**{a.size} subset sums per edge; "
                         f"the most supported is {EXACT_MAX_DIM}")
    if a.size == 0:
        p1 = np.zeros(strata.n_strata)
        p1[strata.bin_many([model.intercept])[0]] = 1.0
        return StratumWeights(p1=p1)
    shift = -np.frexp(np.abs(a).max())[1]
    with np.errstate(all="ignore"):  # an extreme scale overflows; its bound is then inf and it is redone exactly
        c, scaled = np.ldexp(np.abs(a), shift), np.ldexp(a, shift)
        intercept, edges = np.ldexp(model.intercept, shift), np.ldexp(strata.edges, shift)
        t = edges - (intercept + scaled[scaled < 0].sum())
        total = c.sum()
        upper = t > total / 2
        # 2m + 1 roundings at most, each of a magnitude below |edge| + |intercept| + 2 sum c
        x_error = (2 * c.size + 2) * _UNIT_ROUNDOFF * (np.abs(edges) + abs(intercept) + 2 * total)
        value, bound = _edge_values(c, np.where(upper, total - t, t), x_error)
    for i in np.flatnonzero(~(bound <= _EDGE_TOLERANCE)):
        value[i] = _rational_value(model, float(strata.edges[i]), bool(upper[i]))
    # the lower bound of stratum 0 is -inf, on the lower side; the upper bound of the last is +inf
    lo, lo_upper = np.concatenate(([0.0], value)), np.concatenate(([False], upper))
    hi, hi_upper = np.concatenate((value, [0.0])), np.concatenate((upper, [True]))
    p1 = np.where(~hi_upper, hi - lo, np.where(lo_upper, lo - hi, 1.0 - lo - hi))
    return StratumWeights(p1=np.maximum(p1, 0.0))


def _edge_values(c: np.ndarray, x: np.ndarray, x_error: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(S < x) for S = sum of c_i v_i at each entry of ``x``, and a bound on its float error.

    ``x_error`` bounds the error ``x`` already carries. The density of S is at most
    1 / max c, so that error moves P by at most x_error / max c. The rest is the
    evaluation's: the subset sum s_K has |K| - 1 roundings and y = (x - s_K)_+ one more,
    which move y^m by m (y + d)^(m-1) d; the power, the sum of the n nonzero terms in
    any order and the division add (n + 2m + 1) roundings of sum y^m / (m! prod c).
    """
    m = c.size
    subsets = (np.arange(2**m)[:, None] >> np.arange(m)) & 1
    sizes = subsets.sum(axis=1)
    sums = subsets @ c
    y = np.maximum(x[:, None] - sums, 0.0)
    terms = y**m
    scale = math.factorial(m) * np.prod(c)
    value = terms @ np.where(sizes % 2, -1.0, 1.0) / scale
    d = 1.01 * _UNIT_ROUNDOFF * (np.maximum(sizes - 1, 0) * sums + y)
    rounding = (np.count_nonzero(y, axis=1) + 2 * m + 1) * _UNIT_ROUNDOFF * terms.sum(axis=1)
    bound = x_error / c.max() + (rounding + m * ((y + d) ** (m - 1) * d).sum(axis=1)) / scale
    return value, bound


def _rational_value(model: SurrogateModel, edge: float, upper: bool) -> float:
    """``exact_weights``' value at one edge, P(J~ < edge) or with ``upper`` P(J~ > edge), in
    exact rationals, rounded once. Every float is an integer over a power of two, so all are
    put over the largest denominator and the sum runs on integers; Python's integer division
    rounds correctly."""
    ratios = [float(v).as_integer_ratio() for v in (edge, model.intercept, *model.coefficients.tolist())]
    denominator = max(d for _, d in ratios)
    e, b, *a = (n * (denominator // d) for n, d in ratios)
    c = [abs(v) for v in a if v]
    t = e - b - sum(v for v in a if v < 0)
    x = sum(c) - t if upper else t
    sums, signs = [0], [1]
    for ci in c:
        sums += [s + ci for s in sums]
        signs += [-g for g in signs]
    total = sum(g * max(x - s, 0) ** len(c) for g, s in zip(signs, sums))
    return total / (math.factorial(len(c)) * math.prod(c))


def estimate_weights(
    strata: StratumSet,
    model: SurrogateModel,
    pool_size: int,
    rng: np.random.Generator,
) -> StratumWeights:
    """Estimate stratum weights from a streamed pool of cheap surrogate draws.

    The pool is the rows of ``rng.random((pool_size, d))``, drawn through
    ``rng`` and binned in ``_POOL_BATCH``-row batches on the caller's thread;
    where ``rng`` ends is left unspecified. The draws, their surrogate values
    and the below-band test each get one buffer per call, reused by every
    batch; consecutive ``random`` calls return the doubles one call would.

    Most rows fall below the band, so each batch counts its rows with
    ``x < edges[0]`` into stratum 0 and bins only the others. That is exact:
    under ``bin_many``'s rules (an edge belongs to the higher stratum, -inf
    to stratum 0) stratum 0 is exactly ``x < edges[0]``, and a NaN row fails
    that test, so it still reaches ``bin_many`` and raises ``ValueError``.
    """
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    counts = np.zeros(strata.n_strata, dtype=np.int64)
    rows = min(_POOL_BATCH, pool_size)
    draws, values, flags = np.empty((rows, model.space.dim)), np.empty(rows), np.empty(rows, dtype=bool)
    for start in range(0, pool_size, _POOL_BATCH):
        n = min(_POOL_BATCH, pool_size - start)
        x = model.predict_normalized(rng.random(out=draws[:n]), out=values[:n])
        below = np.less(x, strata.edges[0], out=flags[:n])
        rest = np.compress(np.invert(below, out=below), x)
        counts[0] += n - rest.size
        counts += np.bincount(strata.bin_many(rest), minlength=strata.n_strata)
    return StratumWeights(p1=counts / pool_size, pool_size=pool_size)
