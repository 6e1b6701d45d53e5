"""Stochastic parameter domain: bounds, uniform sampling, affine scaling.

A parameter vector is a plain 1-D float array in natural units. All
regression and stratification math runs on [0, 1]-normalized coordinates;
natural units appear only in persistence and the evaluator protocol.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from .errors import BoundsError, ConfigError


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
        if not (self.min < self.max):
            raise ConfigError(f"parameter {self.name!r}: min must be strictly below max")


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

    @property
    def dim(self) -> int:
        return len(self.dims)

    @property
    def names(self) -> list[str]:
        return [d.name for d in self.dims]

    def lows(self) -> np.ndarray:
        return np.array([d.min for d in self.dims], dtype=float)

    def spans(self) -> np.ndarray:
        return np.array([d.max - d.min for d in self.dims], dtype=float)

    def validate_many(self, ws: np.ndarray) -> np.ndarray:
        ws = np.atleast_2d(np.asarray(ws, dtype=float))
        if ws.shape[1] != self.dim:
            raise BoundsError(f"expected {self.dim} columns, got {ws.shape[1]}")
        lows, highs = self.lows(), self.lows() + self.spans()
        bad = ~((ws >= lows) & (ws <= highs) & np.isfinite(ws))
        if bad.any():
            row, col = np.argwhere(bad)[0]
            d = self.dims[col]
            raise BoundsError(
                f"parameter {d.name!r}: value {ws[row, col]!r} outside [{d.min}, {d.max}] "
                f"(row {row})"
            )
        return ws

    def normalize_many(self, ws: np.ndarray) -> np.ndarray:
        """Map rows in natural units onto [0, 1] per coordinate."""
        ws = self.validate_many(ws)
        return (ws - self.lows()) / self.spans()

    def denormalize_many(self, us: np.ndarray) -> np.ndarray:
        return self.lows() + np.atleast_2d(np.asarray(us, dtype=float)) * self.spans()

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


def sample_product(
    space: ParameterSpace,
    rng: np.random.Generator,
    group_counts: Mapping[str, int],
) -> np.ndarray:
    """Cartesian-product design: draw per-group blocks, combine all tuples.

    Mirrors a campaign that first fixes a handful of geometries and then runs
    each one under a shared set of operating conditions. Groups are combined
    in the order they first appear in the space; the first group varies
    slowest. Total rows = product of the group counts.
    """
    groups = space.groups()
    if set(group_counts) != set(groups):
        raise ConfigError(
            f"product design needs one count per group {sorted(groups)}, "
            f"got {sorted(group_counts)}"
        )
    blocks: list[np.ndarray] = []
    for name, cols in groups.items():
        count = int(group_counts[name])
        if count < 1:
            raise ConfigError(f"group {name!r}: count must be >= 1")
        blocks.append(rng.random((count, len(cols))))
    rows = []
    col_order = list(itertools.chain.from_iterable(groups.values()))
    for combo in itertools.product(*blocks):
        rows.append(np.concatenate(combo))
    u = np.asarray(rows)[:, np.argsort(col_order)]
    return space.denormalize_many(u)


@dataclass
class SampleRecord:
    """One evaluated (or pending) point of the campaign.

    ``j_true`` is present once the expensive evaluator has returned;
    ``j_tilde`` and ``stratum`` always refer to the current surrogate model
    and are refreshed whenever the model is refit.
    """

    id: int
    params: np.ndarray
    iteration: int = 0
    j_true: Optional[float] = None
    j_tilde: Optional[float] = None
    stratum: Optional[int] = None


def evaluated(samples: Iterable[SampleRecord]) -> list[SampleRecord]:
    """The subset of records whose expensive objective is known."""
    return [s for s in samples if s.j_true is not None]
