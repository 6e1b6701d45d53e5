"""Run configuration: the campaign's one source of truth.

A config is a plain JSON document; numeric defaults follow the reference
campaign (100 preliminary cases, one 99-case adaptive iteration, a 100-bin
band of halfwidth 10 sigma, a ten-million-draw occupancy pool).
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Optional

from .errors import ConfigError
from .evaluators import ExternalEvaluator, SyntheticObjective
from .space import DEFAULT_SPACE, ParameterDef, ParameterSpace

MODES = ("single", "multi")


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
    pool_size: int = 10_000_000
    n_confident: int = 10
    mode: str = "single"
    seed: int = 0
    parallelism: int = 1
    sigma_dof_corrected: bool = False
    min_pool_hits: int = 10
    allocation_prune_share: float = 0.0
    per_stratum_cap: int = 10_000_000
    evaluation_timeout: float = 3600.0
    failure_abort_fraction: float = 0.2
    stop_unbiased_variance_below: Optional[float] = None

    def validate(self) -> "RunConfig":
        if self.preliminary_count < self.space.dim + 1:
            raise ConfigError(
                f"preliminary_count must be at least dim+1 = {self.space.dim + 1}, "
                f"got {self.preliminary_count}"
            )
        if len(self.iteration_budgets) == 0:
            raise ConfigError("iteration_budgets must be non-empty")
        if any(b < 0 for b in self.iteration_budgets):
            raise ConfigError(f"iteration budgets must be >= 0, got {self.iteration_budgets}")
        if self.pool_size < 1_000:
            raise ConfigError(f"pool_size must be >= 1000, got {self.pool_size}")
        if self.inner_strata < 1:
            raise ConfigError(f"inner_strata must be >= 1, got {self.inner_strata}")
        if self.band_halfwidth_sigmas <= 0:
            raise ConfigError("band_halfwidth_sigmas must be positive")
        if self.n_confident < 1:
            raise ConfigError(f"n_confident must be >= 1, got {self.n_confident}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1, got {self.parallelism}")
        if not (0.0 <= self.failure_abort_fraction <= 1.0):
            raise ConfigError("failure_abort_fraction must lie in [0, 1]")
        if not (0.0 <= self.allocation_prune_share < 1.0):
            raise ConfigError(f"allocation_prune_share must lie in [0, 1), got {self.allocation_prune_share!r}")
        if not self.evaluation_timeout > 0:
            raise ConfigError(f"evaluation_timeout must be positive, got {self.evaluation_timeout!r}")
        design = self.preliminary_design.get("type")
        if design not in ("random", "product"):
            raise ConfigError(f"preliminary_design type must be 'random' or 'product', got {design!r}")
        if design == "product":
            counts = self.preliminary_design.get("counts")
            if not isinstance(counts, dict) or not counts:
                raise ConfigError("product design needs a 'counts' mapping of group -> draws")
            total = 1
            for v in counts.values():
                total *= int(v)
            if total != self.preliminary_count:
                raise ConfigError(
                    f"product design counts multiply to {total}, "
                    f"but preliminary_count is {self.preliminary_count}"
                )
        build_evaluator(self)  # raises ConfigError on a bad evaluator block
        return self

    def to_dict(self) -> dict[str, Any]:
        doc = asdict(self)
        doc["space"] = [
            {"name": d.name, "min": d.min, "max": d.max, "group": d.group}
            for d in self.space.dims
        ]
        doc["iteration_budgets"] = list(self.iteration_budgets)
        return doc


def config_from_dict(doc: dict[str, Any]) -> RunConfig:
    doc = dict(doc)
    if "space" in doc:
        dims = tuple(
            ParameterDef(
                name=str(d["name"]),
                min=float(d["min"]),
                max=float(d["max"]),
                group=str(d.get("group", "")),
            )
            for d in doc["space"]
        )
        doc["space"] = ParameterSpace(dims)
    if "iteration_budgets" in doc:
        doc["iteration_budgets"] = tuple(int(b) for b in doc["iteration_budgets"])
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    try:
        return RunConfig(**doc).validate()
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return config_from_dict(doc)


def build_evaluator(config: RunConfig):
    """Construct the evaluator the config asks for."""
    spec = dict(config.evaluator)
    kind = spec.pop("type", None)
    if kind == "synthetic":
        return SyntheticObjective(
            kind=spec.pop("kind", "quadratic"),
            noise_scale=float(spec.pop("noise_scale", 0.0)),
            seed=int(spec.pop("seed", 0)),
            space=config.space,
        )
    if kind == "external":
        command = spec.pop("command", None)
        if not command:
            raise ConfigError("external evaluator config needs a 'command' list")
        return ExternalEvaluator(
            command=[str(c) for c in command],
            timeout=float(spec.pop("timeout", config.evaluation_timeout)),
            space=config.space,
        )
    raise ConfigError(f"evaluator type must be 'synthetic' or 'external', got {kind!r}")


def with_overrides(
    config: RunConfig,
    *,
    seed: Optional[int] = None,
    parallelism: Optional[int] = None,
    mode: Optional[str] = None,
    evaluator_kind: Optional[str] = None,
) -> RunConfig:
    """CLI-flag overrides applied on top of the loaded config."""
    updates: dict[str, Any] = {}
    if seed is not None:
        updates["seed"] = seed
    if parallelism is not None:
        updates["parallelism"] = parallelism
    if mode is not None:
        updates["mode"] = mode
    if evaluator_kind is not None:
        ev = dict(config.evaluator)
        if ev.get("type") != "synthetic":
            raise ConfigError("--evaluator can only switch synthetic objective kinds")
        ev["kind"] = evaluator_kind
        updates["evaluator"] = ev
    if not updates:
        return config
    return replace(config, **updates).validate()
