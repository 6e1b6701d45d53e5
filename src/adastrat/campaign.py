"""Campaign orchestration: preliminary batch, adaptive iterations, reporting.

Two explicit modes, never mixed silently:

* ``single``: the preliminary surrogate and its strata are frozen; the one
  adaptive allocation uses the residual-model predictions, and the final
  estimate re-derives per-stratum conditionals from all pooled observations
  with hard 0/1 extrapolation for unsampled strata.
* ``multi``: each iteration allocates from the hybrid
  observation/prediction mix, then refits the surrogate on every sample so
  far, rebuilds the strata for the new residual scale, re-weighs them, and
  re-bins everything.

One call, ``_design``, makes the model, strata and stratum weights of every
refit and load. Weights are exact unless the config names a ``pool_size``; then
each refit draws its own pool, and a load reads its weights back at that size.

Randomness is drawn from substreams named (purpose, iteration), so resuming
a persisted run between iterations reproduces the uninterrupted run exactly.
"""
from __future__ import annotations

import shutil
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import persist
from .allocation import AllocationPlan, plan_allocation, select_candidates
from .conditional import ConditionalTable, build_conditional_table, observe_p2
from .config import RunConfig, build_evaluator, load_config
from .errors import ConfigError, EvaluationThresholdError
from .estimator import RareEventEstimate, build_estimate, hard_tail_p2
from .evaluators import FAILURE_ABORT_FRACTION, evaluate_batch
from .rng import substream
from .space import SampleRecord, sample_product, sample_uniform
from .strata import StratumSet, StratumWeights, build_strata, estimate_weights, exact_weights
from .surrogate import SurrogateModel, fit

#: Version of the run-directory layout that ``state.json`` commits.
STATE_FORMAT = 2


@dataclass
class RunState:
    """Everything the campaign knows between iterations.

    ``load_state`` recomputes only the last of ``estimates``. The one evaluator,
    built for ``run_dir``, keeps its children until ``evaluator.close()``.
    """

    config: RunConfig
    run_dir: Optional[Path]
    samples: list[SampleRecord] = field(default_factory=list)
    model: Optional[SurrogateModel] = None
    strata: Optional[StratumSet] = None
    weights: Optional[StratumWeights] = None
    iteration: int = 0
    next_id: int = 0
    estimates: list[RareEventEstimate] = field(default_factory=list)
    evaluator: object = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.evaluator = build_evaluator(self.config, self.run_dir)

    def total_evaluations(self) -> int:
        return len(self.samples)

    def observations(self) -> tuple[np.ndarray, np.ndarray]:
        """(surrogate value under the current model, true objective) of every sample."""
        ws, y = _arrays(self.samples)
        return self.model.predict_many(ws), y


def _arrays(samples: list[SampleRecord]) -> tuple[np.ndarray, np.ndarray]:
    """The points of ``samples`` as rows, and their true objectives."""
    return np.vstack([s.params for s in samples]), np.array([s.j_true for s in samples])


def _last_refit(state: RunState) -> int:
    """The iteration whose fit, strata and weights are in force: in multi mode the newest one
    that added samples, in single mode the preliminary one."""
    return max((s.iteration for s in state.samples), default=0) if state.config.mode == "multi" else 0


def _design(
    config: RunConfig, samples: list[SampleRecord], k: int, committed: Optional[Path] = None
) -> tuple[SurrogateModel, StratumSet, StratumWeights]:
    """The design of iteration ``k``'s refit: the surrogate fitted on the samples of iterations up
    to ``k``, the strata laid out around the critical value, and their weights. These are exact
    with no pool configured; else a load passes ``committed``, the refit's ``weights.tsv``, and
    they are read back, because a large pool is costly to redraw (the last refit's file, not a
    newer one an uncommitted attempt left); else they are drawn from the ("pool", k) substream."""
    model = fit(config.space, *_arrays([s for s in samples if s.iteration <= k]))
    strata = build_strata(config.critical_value, model.sigma, config.inner_strata, config.band_halfwidth_sigmas)
    if config.pool_size is None:
        weights = exact_weights(strata, model)
    elif committed is not None:
        weights = _read(persist.read_weights, committed, strata, config.pool_size)
    else:
        weights = estimate_weights(strata, model, config.pool_size, substream(config.seed, "pool", k))
    return model, strata, weights


def _estimate(state: RunState) -> tuple[RareEventEstimate, np.ndarray, np.ndarray]:
    """The stratified estimate from every sample, binned under the current model, with the
    hard-tail p2 and the counts per stratum it was built from."""
    counts, _, p2_obs = observe_p2(state.strata, *state.observations())
    p2 = hard_tail_p2(state.strata, counts, p2_obs)
    return build_estimate(state.weights, p2, counts), p2, counts


def _evaluate_new(state: RunState, params: np.ndarray, iteration: int) -> None:
    """Run the expensive evaluator on the rows of ``params`` and append the survivors."""
    first = state.next_id
    state.next_id += len(params)
    outcome = evaluate_batch(state.evaluator, range(first, state.next_id), params)
    if state.run_dir is not None:
        for f in outcome.failures:
            persist.append_log(state.run_dir, f"evaluation {f.id} failed: {f.reason}")
    if iteration == 0 and len(outcome.failures) > FAILURE_ABORT_FRACTION * len(params):
        raise EvaluationThresholdError(
            f"{len(outcome.failures)} of {len(params)} evaluations failed (threshold {FAILURE_ABORT_FRACTION:.0%})"
        )
    state.samples.extend(
        SampleRecord(id=res.id, params=params[res.id - first], iteration=iteration, j_true=res.objective)
        for res in outcome.results
    )


def _persist_iteration(
    state: RunState,
    table: Optional[ConditionalTable] = None,
    plan: Optional[AllocationPlan] = None,
    observed: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> None:
    """Write iteration ``state.iteration``'s directory afresh, emptying what an attempt that died
    before its commit left there, then commit; ``observed`` is the hard-tail p2 and the counts
    behind the newest estimate, for an iteration that made one."""
    if state.run_dir is None:
        return
    run_dir, iteration = state.run_dir, state.iteration
    d = persist.iter_dir(run_dir, iteration)
    if d.exists():
        shutil.rmtree(d)
    d.mkdir()
    if _last_refit(state) == iteration:
        persist.write_refit(d, state.model, state.strata, state.weights)
    if table is not None:
        persist.write_conditional(d / "conditional.tsv", table)
    if plan is not None:
        persist.write_allocation(d / "allocation.tsv", plan)
    if observed is not None:
        persist.write_estimate(d, state.strata, state.estimates[-1], state.weights.p1, *observed)
    new = [s for s in state.samples if s.iteration == iteration]
    committed = len(state.samples) - len(new)
    persist.append_samples(run_dir / "samples.tsv", state.config.space.names, new, committed)
    # the commit: a resume continues from exactly these counts
    persist.write_doc(run_dir / "state.json", {
        "format": STATE_FORMAT, "iterations_completed": state.iteration,
        "next_id": state.next_id, "samples": len(state.samples),
    })


def _check_stored(config: RunConfig, run_dir: Path) -> None:
    """Refuse ``config`` for a ``run_dir`` whose ``config.json`` holds another config."""
    if (run_dir / "config.json").exists():
        stored = load_config(run_dir / "config.json").to_dict()
        changed = sorted(k for k, v in config.to_dict().items() if v != stored[k])
        if changed:
            raise ConfigError(f"run directory {run_dir} stores a config with other {', '.join(changed)}; "
                              "run it under its stored config")


def init_run_dir(config: RunConfig, run_dir: Path) -> None:
    """Create ``run_dir`` holding only the config; refuse one that holds a campaign or another config."""
    if (run_dir / "state.json").exists():
        raise ConfigError(f"run directory {run_dir} already holds a campaign; resume it with `run`")
    _check_stored(config, run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    persist.write_doc(run_dir / "config.json", config.to_dict())


def _new_state(config: RunConfig, run_dir: Optional[Path]) -> RunState:
    config.validate()
    if run_dir is not None:
        run_dir = Path(run_dir)
        init_run_dir(config, run_dir)
    return RunState(config=config, run_dir=run_dir)


def run_preliminary(config: RunConfig, run_dir: Optional[Path] = None) -> RunState:
    """Draw, evaluate and model the preliminary batch; estimate stratum weights."""
    return _preliminary(_new_state(config, run_dir))


def _preliminary(state: RunState) -> RunState:
    config = state.config
    rng = substream(config.seed, "preliminary")
    if config.preliminary_design.get("type") == "product":
        params = sample_product(config.space, rng, config.preliminary_design["counts"])
    else:
        params = sample_uniform(config.space, rng, config.preliminary_count)
    _evaluate_new(state, params, iteration=0)
    state.model, state.strata, state.weights = _design(config, state.samples, 0)
    _persist_iteration(state)
    return state


def run_iteration(state: RunState, budget: int) -> RunState:
    """One adaptive iteration: allocate, evaluate, (multi) refit, estimate."""
    if state.model is None or state.weights is None:
        raise ConfigError("run_preliminary must complete before iterating")
    if budget < 0:
        raise ConfigError(f"budget must be >= 0, got {budget}")
    cfg = state.config
    k = state.iteration + 1
    table: Optional[ConditionalTable] = None
    plan: Optional[AllocationPlan] = None
    if budget > 0:
        table = build_conditional_table(state.strata, *state.observations())
        p2_for_allocation = table.p2_pred if cfg.mode == "single" else table.p2_mix
        plan = plan_allocation(
            state.weights.p1, state.weights.hits(), p2_for_allocation, table.counts, budget,
            prune_share=cfg.allocation_prune_share,
        )
        candidates = select_candidates(state.strata, state.model, plan.additional, substream(cfg.seed, "candidates", k))
        _evaluate_new(state, candidates, iteration=k)
        if _last_refit(state) == k:
            state.model, state.strata, state.weights = _design(cfg, state.samples, k)
    state.iteration = k
    est, p2, counts = _estimate(state)
    state.estimates.append(est)
    _persist_iteration(state, table, plan, (p2, counts))
    return state


def _stop_rule_met(state: RunState) -> bool:
    threshold = state.config.stop_unbiased_variance_below
    # exactly 0 means no sampled stratum is mixed (say, a noise-free objective), not precision
    return threshold is not None and bool(state.estimates) and 0 < state.estimates[-1].unbiased_variance < threshold


def next_budget(state: RunState) -> Optional[int]:
    """The next configured budget; none once they are spent or the last estimate meets the stop rule."""
    budgets = state.config.iteration_budgets
    if state.iteration >= len(budgets) or _stop_rule_met(state):
        return None
    return budgets[state.iteration]


def run_campaign(config: RunConfig, run_dir: Optional[Path] = None) -> RunState:
    """Preliminary batch plus every configured budget; a run dir that stores a config runs under it only."""
    resume = run_dir is not None and (Path(run_dir) / "state.json").exists()
    if resume:
        _check_stored(config, Path(run_dir))
    state = load_state(Path(run_dir)) if resume else _new_state(config, run_dir)
    with closing(state.evaluator):
        if not resume:
            _preliminary(state)
        while (budget := next_budget(state)) is not None:
            run_iteration(state, budget)
            if run_dir is not None and _stop_rule_met(state):
                persist.append_log(Path(run_dir), f"stopping after iteration {state.iteration}: unbiased variance "
                                   f"{state.estimates[-1].unbiased_variance!r} below threshold "
                                   f"{state.config.stop_unbiased_variance_below!r}")
        if run_dir is not None:
            write_report(state)
    return state


def _read(reader, path: Path, *args):
    """``reader(path, *args)``; a missing, unparseable or refused file is a ConfigError that names it."""
    try:
        return reader(path, *args)
    except (OSError, ValueError, IndexError, ConfigError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def load_state(run_dir: Path) -> RunState:
    """Rebuild a RunState from the last commit of a persisted run directory."""
    run_dir = Path(run_dir)
    if not (run_dir / "state.json").exists():
        problem = ("holds no committed campaign; start it with `run`" if run_dir.is_dir()
                   else "is not a directory" if run_dir.exists() else "does not exist")
        raise ConfigError(f"run directory {run_dir} {problem}")
    doc = _read(persist.read_doc, run_dir / "state.json")
    if doc.get("format") != STATE_FORMAT:
        raise ConfigError(f"run directory {run_dir} has state format {doc.get('format', 1)}, "
                          f"not {STATE_FORMAT}")
    for key in ("iterations_completed", "next_id", "samples"):
        if type(doc.get(key)) is not int or doc[key] < 0:
            raise ConfigError(f"{run_dir / 'state.json'} holds no non-negative integer {key!r}")
    config = load_config(run_dir / "config.json")
    state = RunState(config=config, run_dir=run_dir)
    state.iteration, state.next_id = doc["iterations_completed"], doc["next_id"]
    state.samples = _read(persist.read_samples, run_dir / "samples.tsv", config.space, doc["samples"], state.iteration,
                          state.next_id)
    k = _last_refit(state)
    committed = persist.iter_dir(run_dir, k) / "weights.tsv"
    state.model, state.strata, state.weights = _design(config, state.samples, k, committed)
    if state.iteration > 0:
        state.estimates.append(_estimate(state)[0])
    return state


def final_report(state: RunState) -> dict:
    """Latest estimate plus the cost comparison against direct Monte Carlo."""
    if not state.estimates:
        raise ConfigError("no completed iteration to report on")
    est = state.estimates[-1]
    total = state.total_evaluations()
    ratio = None if est.mc_equivalent is None else est.mc_equivalent / total
    return {**est.summary(), "total_evaluations": total, "iterations": state.iteration, "efficiency_ratio": ratio}


def render_report(report: dict) -> str:
    se = report["p1_standard_error"]
    lines = [
        "rare-event estimate",
        f"  probability          {report['probability']:.6g}",
        f"  95% interval         ({report['ci95'][0]:.6g}, {report['ci95'][1]:.6g})",
        f"  biased variance      {report['biased_variance']:.6e}",
        f"  unbiased variance    {report['unbiased_variance']:.6e}",
        f"  p1 standard error    {'0 (exact weights)' if se is None else f'{se:.3e}'}",
        f"  evaluations          {report['total_evaluations']}"
        f" over {report['iterations']} adaptive iteration(s)",
    ]
    if report["mc_equivalent"] is None:
        lines.append("  naive-MC equivalent  n/a (degenerate variance)")
    else:
        lines.append(f"  naive-MC equivalent  {report['mc_equivalent']}")
        lines.append(f"  efficiency ratio     {report['efficiency_ratio']:.1f}x")
    return "\n".join(lines) + "\n"


def write_report(state: RunState) -> dict:
    report = final_report(state)
    persist.write_doc(state.run_dir / "report.json", report)
    persist.atomic_write_text(state.run_dir / "report.txt", render_report(report))
    return report
