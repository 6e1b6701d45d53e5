"""Stochastic parameter domain: bounds, uniform sampling, affine scaling.

A parameter vector is a plain 1-D float array in natural units. All
regression and stratification math runs on [0, 1]-normalized coordinates;
natural units appear only in persistence and the evaluator protocol.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class ParameterDef:
    """One uniform input dimension with inclusive bounds in natural units."""

    name: str
    min: float
    max: float
    group: str = ""

    def __post_init__(self):
        if not self.name:
            raise ConfigError("parameter name must be non-empty")
        if self.name.splitlines() != [self.name]:  # it heads a column of samples.tsv, read by lines
            raise ConfigError(f"parameter {self.name!r}: a name must not hold a line break")
        if not (self.min < self.max):
            raise ConfigError(f"parameter {self.name!r}: min must be strictly below max")
        if not math.isfinite(self.max - self.min):  # every point of the box would scale to inf
            raise ConfigError(f"parameter {self.name!r}: max - min must be finite, got {self.max!r} - {self.min!r}")


@dataclass(frozen=True)
class ParameterSpace:
    """Ordered box of independent uniform parameters."""

    dims: tuple[ParameterDef, ...]

    def __post_init__(self):
        if len(self.dims) == 0:
            raise ConfigError("a parameter space needs at least one dimension")
        names = [d.name for d in self.dims]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate parameter names: {sorted(names)}")
        # built once and read-only: the methods below read them, lows() and spans() hand out copies
        lows = np.array([d.min for d in self.dims], dtype=float)
        spans = np.array([d.max - d.min for d in self.dims], dtype=float)
        for name, array in (("_lows", lows), ("_spans", spans), ("_highs", lows + spans)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)  # the dataclass is frozen

    @property
    def dim(self) -> int:
        return len(self.dims)

    @property
    def names(self) -> list[str]:
        return [d.name for d in self.dims]

    def lows(self) -> np.ndarray:
        return self._lows.copy()

    def spans(self) -> np.ndarray:
        return self._spans.copy()

    def validate_many(self, ws: np.ndarray) -> np.ndarray:
        ws = np.atleast_2d(np.asarray(ws, dtype=float))
        if ws.shape[1] != self.dim:
            raise ValueError(f"expected {self.dim} columns, got {ws.shape[1]}")
        bad = ~((ws >= self._lows) & (ws <= self._highs) & np.isfinite(ws))
        if bad.any():
            row, col = np.argwhere(bad)[0]
            d = self.dims[col]
            raise ValueError(
                f"parameter {d.name!r}: value {float(ws[row, col])!r} outside [{d.min}, {d.max}] "
                f"(row {row})"
            )
        return ws

    def normalize_many(self, ws: np.ndarray) -> np.ndarray:
        """Map rows in natural units onto [0, 1] per coordinate."""
        ws = self.validate_many(ws)
        return (ws - self._lows) / self._spans

    def denormalize_many(self, us: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Map rows of [0, 1] coordinates onto the box: fl(fl(u * span) + low) per coordinate.

        With ``out`` (which may be ``us`` itself) the rows are written into it in place.
        """
        out = np.multiply(np.atleast_2d(np.asarray(us, dtype=float)), self._spans, out=out)
        return np.add(out, self._lows, out=out)

    def to_list(self) -> list[dict]:
        """The dimensions as ``config.json`` and ``model.json`` record them."""
        return [{"name": d.name, "min": d.min, "max": d.max, "group": d.group} for d in self.dims]

    def groups(self) -> dict[str, list[int]]:
        """Column indices per group label, in first-appearance order."""
        out: dict[str, list[int]] = {}
        for j, d in enumerate(self.dims):
            out.setdefault(d.group, []).append(j)
        return out


#: The default 6-D box: wing geometry (aspect ratio, sweep, dihedral) plus
#: freestream conditions (angle of attack, side-slip, Mach number).
DEFAULT_SPACE = ParameterSpace(
    (
        ParameterDef("aspect_ratio", 5.0, 15.0, group="geometry"),
        ParameterDef("sweep", 25.0, 45.0, group="geometry"),
        ParameterDef("dihedral", -5.0, 15.0, group="geometry"),
        ParameterDef("alpha", 0.0, 8.0, group="freestream"),
        ParameterDef("beta", 0.0, 5.0, group="freestream"),
        ParameterDef("mach", 0.1, 0.3, group="freestream"),
    )
)


def sample_uniform(space: ParameterSpace, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` independent uniform points, returned in natural units (n, dim).

    Deterministic for a given generator state; every point is inside the box
    by construction.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    u = rng.random((n, space.dim))
    return space.denormalize_many(u)


def product_rows(space: ParameterSpace, group_counts: Mapping[str, int]) -> int:
    """Rows of the product design: the product of the counts, one integer >= 1 per group of ``space``."""
    groups = space.groups()
    if set(group_counts) != set(groups):
        raise ConfigError(f"product design needs one count per group {sorted(groups)}, got {sorted(group_counts)}")
    for name, count in group_counts.items():
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ConfigError(f"product design count of group {name!r} must be an integer >= 1, got {count!r}")
    return math.prod(group_counts.values())


def sample_product(
    space: ParameterSpace,
    rng: np.random.Generator,
    group_counts: Mapping[str, int],
) -> np.ndarray:
    """Cartesian-product design: draw per-group blocks, combine all tuples.

    Mirrors a campaign that first fixes a handful of geometries and then runs
    each one under a shared set of operating conditions. Groups are combined
    in the order they first appear in the space; the first group varies
    slowest. Total rows = ``product_rows(space, group_counts)``.
    """
    product_rows(space, group_counts)
    groups = space.groups()
    blocks = [rng.random((group_counts[name], len(cols))) for name, cols in groups.items()]
    rows = [np.concatenate(combo) for combo in itertools.product(*blocks)]
    col_order = list(itertools.chain.from_iterable(groups.values()))
    u = np.asarray(rows)[:, np.argsort(col_order)]
    return space.denormalize_many(u)


@dataclass
class SampleRecord:
    """One expensive evaluation: where it ran, in which iteration, and what it returned.

    Only measured facts are kept. Surrogate values and strata depend on the
    current model, so the campaign derives them from ``params`` when it needs
    them instead of caching them here.
    """

    id: int
    params: np.ndarray
    j_true: float
    iteration: int = 0
