"""Run configuration: the campaign's one source of truth.

A config is a plain JSON document; numeric defaults follow the reference
campaign (100 preliminary cases, one 99-case adaptive iteration, a 100-bin
band of halfwidth 10 sigma). ``pool_size`` defaults to None, exact stratum
weights, for spaces of up to ``EXACT_MAX_DIM`` dimensions; a number asks for
weights estimated from a pool of that many draws instead. Settings no
campaign varies are plain constants of the module that uses them; ``_RETIRED``
maps each retired key to that value, the only one it still loads at. A
preliminary design must leave the fit a residual: ``validate`` wants d + 2
points and, per product group, its number of dimensions + 1 draws.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Optional

from . import persist
from .allocation import MIN_POOL_HITS, PER_STRATUM_CAP
from .conditional import N_CONFIDENT
from .errors import ConfigError
from .evaluators import DEFAULT_TIMEOUT, FAILURE_ABORT_FRACTION, ExternalEvaluator, SyntheticObjective
from .space import DEFAULT_SPACE, ParameterDef, ParameterSpace, product_rows
from .strata import EXACT_MAX_DIM

MODES = ("single", "multi")
_INT_FIELDS = ("preliminary_count", "inner_strata", "seed", "parallelism")
_FLOAT_FIELDS = ("critical_value", "band_halfwidth_sigmas", "allocation_prune_share")


def _int(name: str, value: Any) -> int:
    """``value`` if it is an int (and not a bool); ConfigError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _finite(name: str, value: Any) -> float:
    """``value`` if it is a finite int or float (and not a bool); ConfigError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return value


def _default_evaluator() -> dict:
    return {"type": "synthetic", "kind": "quadratic", "noise_scale": 0.0, "seed": 0}


def _default_design() -> dict:
    return {"type": "random"}


@dataclass(frozen=True)
class RunConfig:
    space: ParameterSpace = DEFAULT_SPACE
    critical_value: float = 0.9
    evaluator: dict = field(default_factory=_default_evaluator)
    preliminary_count: int = 100
    preliminary_design: dict = field(default_factory=_default_design)
    iteration_budgets: tuple[int, ...] = (99,)
    inner_strata: int = 100
    band_halfwidth_sigmas: float = 10.0
    pool_size: Optional[int] = None
    mode: str = "single"
    seed: int = 0
    parallelism: int = 1
    allocation_prune_share: float = 0.0
    stop_unbiased_variance_below: Optional[float] = None

    def validate(self) -> "RunConfig":
        for name in _INT_FIELDS:
            _int(name, getattr(self, name))
        for name in _FLOAT_FIELDS:
            _finite(name, getattr(self, name))
        for b in self.iteration_budgets:
            _int("iteration budget", b)
        stop = self.stop_unbiased_variance_below
        # the rule stops at 0 < variance < threshold, which no threshold <= 0 meets
        if stop is not None and _finite("stop_unbiased_variance_below", stop) <= 0:
            raise ConfigError(f"stop_unbiased_variance_below must be positive, got {stop!r}")
        for name in ("evaluator", "preliminary_design"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name} must be a JSON object, got {getattr(self, name)!r}")
        if self.preliminary_count < self.space.dim + 2:
            raise ConfigError(
                f"preliminary_count must be at least dim+2 = {self.space.dim + 2}, "
                f"got {self.preliminary_count}"
            )
        if len(self.iteration_budgets) == 0:
            raise ConfigError("iteration_budgets must be non-empty")
        if any(b < 0 for b in self.iteration_budgets):
            raise ConfigError(f"iteration budgets must be >= 0, got {self.iteration_budgets}")
        if self.pool_size is None:
            if self.space.dim > EXACT_MAX_DIM:
                raise ConfigError(f"exact stratum weights take 2**d subset sums per edge and stop at d = "
                                  f"{EXACT_MAX_DIM}; set pool_size for this {self.space.dim}-dimensional space")
        elif _int("pool_size", self.pool_size) < 1_000:
            raise ConfigError(f"pool_size must be >= 1000, got {self.pool_size}")
        if self.inner_strata < 1:
            raise ConfigError(f"inner_strata must be >= 1, got {self.inner_strata}")
        if self.band_halfwidth_sigmas <= 0:
            raise ConfigError("band_halfwidth_sigmas must be positive")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1, got {self.parallelism}")
        if not (0.0 <= self.allocation_prune_share < 1.0):
            raise ConfigError(f"allocation_prune_share must lie in [0, 1), got {self.allocation_prune_share!r}")
        design = self.preliminary_design.get("type")
        if design not in ("random", "product"):
            raise ConfigError(f"preliminary_design type must be 'random' or 'product', got {design!r}")
        extra = set(self.preliminary_design) - ({"type", "counts"} if design == "product" else {"type"})
        if extra:
            raise ConfigError(f"unknown {design} preliminary_design keys: {sorted(extra)}")
        if design == "product":
            counts = self.preliminary_design.get("counts")
            if not isinstance(counts, dict):
                raise ConfigError("product design needs a 'counts' mapping of group -> draws")
            total = product_rows(self.space, counts)
            thin = [g for g, cols in self.space.groups().items() if counts[g] < len(cols) + 1]
            if thin:
                raise ConfigError(f"product design groups {thin} need at least their number of dimensions + 1 draws")
            if total != self.preliminary_count:
                raise ConfigError(
                    f"product design counts multiply to {total}, "
                    f"but preliminary_count is {self.preliminary_count}"
                )
        build_evaluator(self)  # raises ConfigError on a bad evaluator block
        return self

    def to_dict(self) -> dict[str, Any]:
        doc = asdict(self)
        doc["space"] = self.space.to_list()
        doc["iteration_budgets"] = list(self.iteration_budgets)
        return doc


#: Keys of settings that are now fixed, each with the one value it may still hold.
_RETIRED = {
    "n_confident": N_CONFIDENT,
    "min_pool_hits": MIN_POOL_HITS,
    "per_stratum_cap": PER_STRATUM_CAP,
    "failure_abort_fraction": FAILURE_ABORT_FRACTION,
    "evaluation_timeout": DEFAULT_TIMEOUT,
    "sigma_dof_corrected": False,
}


def config_from_dict(doc: dict[str, Any]) -> RunConfig:
    doc = dict(doc)
    for key, fixed in _RETIRED.items():
        value = doc.pop(key, fixed)
        if value != fixed or isinstance(value, bool) != isinstance(fixed, bool):
            where = "; set the evaluator block's timeout instead" if key == "evaluation_timeout" else ""
            raise ConfigError(f"{key} is retired and fixed at {fixed!r}, got {value!r}{where}")
    if "space" in doc:
        specs = doc["space"]
        if not isinstance(specs, list) or not all(isinstance(d, dict) and "name" in d for d in specs):
            raise ConfigError("space must be a list of {name, min, max[, group]} objects")
        for d in specs:
            extra = set(d) - {"name", "min", "max", "group"}
            if extra:
                raise ConfigError(f"unknown keys of space entry {d['name']!r}: {sorted(extra)}")
        dims = tuple(
            ParameterDef(
                name=str(d["name"]),
                min=float(_finite(f"space {d['name']!r} min", d.get("min"))),
                max=float(_finite(f"space {d['name']!r} max", d.get("max"))),
                group=str(d.get("group", "")),
            )
            for d in specs
        )
        doc["space"] = ParameterSpace(dims)
    if "iteration_budgets" in doc:
        if not isinstance(doc["iteration_budgets"], list):
            raise ConfigError(f"iteration_budgets must be a list, got {doc['iteration_budgets']!r}")
        doc["iteration_budgets"] = tuple(doc["iteration_budgets"])
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    try:
        return RunConfig(**doc).validate()
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> RunConfig:
    """The config in the JSON file ``path``, ``--config`` or a run dir's ``config.json``; a refusal names it."""
    try:
        return config_from_dict(persist.read_doc(Path(path)))
    except (OSError, ValueError, ConfigError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None


def build_evaluator(config: RunConfig, run_dir: Optional[Path] = None):
    """Construct the evaluator the config asks for, for a campaign in ``run_dir`` (if any)."""
    spec = dict(config.evaluator)
    kind = spec.pop("type", None)
    if kind == "synthetic":
        evaluator = SyntheticObjective(
            kind=spec.pop("kind", "quadratic"),
            noise_scale=float(_finite("evaluator noise_scale", spec.pop("noise_scale", 0.0))),
            seed=_int("evaluator seed", spec.pop("seed", 0)),
            space=config.space,
        )
    elif kind == "external":
        command = spec.pop("command", None)
        if not command or not isinstance(command, list):
            raise ConfigError("external evaluator config needs a 'command' list")
        evaluator = ExternalEvaluator(
            command=[str(c) for c in command],
            timeout=float(_finite("evaluator timeout", spec.pop("timeout", DEFAULT_TIMEOUT))),
            space=config.space,
            parallelism=config.parallelism,
            run_dir=run_dir,
        )
    else:
        raise ConfigError(f"evaluator type must be 'synthetic' or 'external', got {kind!r}")
    if spec:
        raise ConfigError(f"unknown {kind} evaluator keys: {sorted(spec)}")
    return evaluator

