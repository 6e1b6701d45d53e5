"""Campaign orchestration: preliminary batch, adaptive iterations, reporting.

Two explicit modes, never mixed silently:

* ``single``: the preliminary surrogate and its strata are frozen; the one
  adaptive allocation uses the residual-model predictions, and the final
  estimate re-derives per-stratum conditionals from all pooled observations
  with hard 0/1 extrapolation for unsampled strata.
* ``multi``: each iteration allocates from the hybrid
  observation/prediction mix, then refits the surrogate on every sample so
  far, rebuilds the strata for the new residual scale, re-estimates the
  occupancy weights, and re-bins everything.

Randomness is drawn from substreams named (purpose, iteration), so resuming
a persisted run between iterations reproduces the uninterrupted run exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import persist
from .allocation import AllocationPlan, plan_allocation, select_candidates
from .conditional import ConditionalTable, build_conditional_table, observe_p2
from .config import RunConfig, build_evaluator, config_from_dict
from .errors import ConfigError, DegenerateModelError, EvaluationThresholdError
from .estimator import RareEventEstimate, build_estimate
from .evaluators import EvaluationRequest, evaluate_batch
from .rng import substream
from .space import SampleRecord, evaluated, sample_product, sample_uniform
from .strata import StratumSet, StratumWeights, build_strata, degenerate_split, estimate_weights
from .surrogate import SurrogateModel, fit, training_residuals


@dataclass
class RunState:
    """Everything the campaign knows between iterations."""

    config: RunConfig
    run_dir: Optional[Path]
    samples: list[SampleRecord] = field(default_factory=list)
    model: Optional[SurrogateModel] = None
    strata: Optional[StratumSet] = None
    weights: Optional[StratumWeights] = None
    iteration: int = 0
    next_id: int = 0
    estimates: list[RareEventEstimate] = field(default_factory=list)

    def total_evaluations(self) -> int:
        return len(evaluated(self.samples))


def _rebin_samples(state: RunState) -> None:
    """Refresh every record's surrogate value and stratum under the current model."""
    j_tilde = state.model.predict_many(np.vstack([s.params for s in state.samples]))
    for s, value, i in zip(state.samples, j_tilde, state.strata.bin_many(j_tilde)):
        s.j_tilde, s.stratum = float(value), int(i)


def _fit_and_stratify(state: RunState) -> None:
    cfg = state.config
    state.model = fit(cfg.space, evaluated(state.samples), dof_corrected=cfg.sigma_dof_corrected)
    try:
        state.strata = build_strata(
            cfg.critical_value,
            state.model.sigma,
            cfg.inner_strata,
            halfwidth_sigmas=cfg.band_halfwidth_sigmas,
        )
    except DegenerateModelError:
        # perfect fit: the band collapses, split once at the critical value
        state.strata = degenerate_split(cfg.critical_value)
    state.weights = estimate_weights(
        state.strata,
        state.model,
        cfg.pool_size,
        substream(cfg.seed, "pool", state.iteration),
    )
    _rebin_samples(state)


def _evaluate_new(
    state: RunState,
    params: np.ndarray | list[np.ndarray],
    iteration: int,
    abort_fraction: Optional[float] = None,
) -> list[SampleRecord]:
    """Run the expensive evaluator on new points and append the survivors."""
    cfg = state.config
    requests = []
    for w in params:
        requests.append(EvaluationRequest(id=state.next_id, params=np.asarray(w, dtype=float)))
        state.next_id += 1
    outcome = evaluate_batch(
        build_evaluator(cfg),
        requests,
        parallelism=cfg.parallelism,
        run_dir=None if state.run_dir is None else str(state.run_dir),
    )
    if outcome.failures and state.run_dir is not None:
        for f in outcome.failures:
            persist.append_log(state.run_dir, f"evaluation {f.id} failed: {f.reason}")
    if abort_fraction is not None and len(requests) > 0:
        if len(outcome.failures) > abort_fraction * len(requests):
            raise EvaluationThresholdError(
                f"{len(outcome.failures)} of {len(requests)} evaluations failed "
                f"(threshold {abort_fraction:.0%})"
            )
    by_id = {r.id: r for r in requests}
    new_records = []
    for res in outcome.results:
        rec = SampleRecord(
            id=res.id,
            params=by_id[res.id].params,
            iteration=iteration,
            j_true=res.objective,
        )
        state.samples.append(rec)
        new_records.append(rec)
    return new_records


def _persist_iteration(
    state: RunState,
    iteration: int,
    new_records: list[SampleRecord],
    table: Optional[ConditionalTable],
    plan: Optional[AllocationPlan],
    estimate: Optional[RareEventEstimate],
    write_model: bool,
) -> None:
    if state.run_dir is None:
        return
    run_dir = state.run_dir
    d = persist.iter_dir(run_dir, iteration)
    d.mkdir(parents=True, exist_ok=True)
    names = state.config.space.names
    if write_model:
        residuals = training_residuals(state.model, evaluated(state.samples))
        persist.write_model(d / "model.json", state.model, residuals)
        persist.write_strata(d / "strata.json", state.strata)
        persist.write_weights(d / "weights.tsv", state.strata, state.weights)
    if table is not None:
        persist.write_conditional(d / "conditional.tsv", table)
    if plan is not None:
        persist.write_allocation(d / "allocation.tsv", plan)
    if estimate is not None:
        persist.write_estimate(d, state.strata, estimate)
    persist.write_samples(d / "new_samples.tsv", names, new_records)
    persist.write_samples(run_dir / "samples.tsv", names, state.samples)
    persist.write_doc(
        run_dir / "state.json",
        {"iterations_completed": state.iteration, "next_id": state.next_id},
    )


def run_preliminary(config: RunConfig, run_dir: Optional[Path] = None) -> RunState:
    """Draw, evaluate and model the preliminary batch; estimate stratum weights."""
    config.validate()
    if run_dir is not None:
        run_dir = Path(run_dir)
        if (run_dir / "state.json").exists():
            raise ConfigError(f"run directory {run_dir} already holds a campaign; use resume")
        run_dir.mkdir(parents=True, exist_ok=True)
        persist.write_doc(run_dir / "config.json", config.to_dict())
    state = RunState(config=config, run_dir=run_dir)
    rng = substream(config.seed, "preliminary")
    if config.preliminary_design.get("type") == "product":
        counts = {k: int(v) for k, v in config.preliminary_design["counts"].items()}
        params = sample_product(config.space, rng, counts)
    else:
        params = sample_uniform(config.space, rng, config.preliminary_count)
    _evaluate_new(state, params, iteration=0, abort_fraction=config.failure_abort_fraction)
    _fit_and_stratify(state)
    _persist_iteration(state, 0, state.samples[:], None, None, None, write_model=True)
    return state


def run_iteration(state: RunState, budget: int) -> RunState:
    """One adaptive iteration: allocate, evaluate, (multi) refit, estimate."""
    if state.model is None or state.weights is None:
        raise ConfigError("run_preliminary must complete before iterating")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    cfg = state.config
    k = state.iteration + 1
    table: Optional[ConditionalTable] = None
    plan: Optional[AllocationPlan] = None
    new_records: list[SampleRecord] = []
    refit_happened = False
    if budget > 0:
        table = build_conditional_table(
            state.strata, evaluated(state.samples), cfg.critical_value, cfg.n_confident
        )
        p2_for_allocation = table.p2_pred if cfg.mode == "single" else table.p2_mix
        plan = plan_allocation(
            state.weights.p1,
            state.weights.hits(),
            p2_for_allocation,
            table.counts,
            budget,
            min_pool_hits=cfg.min_pool_hits,
            prune_share=cfg.allocation_prune_share,
        )
        candidates = select_candidates(
            state.strata,
            state.model,
            plan.additional,
            substream(cfg.seed, "candidates", k),
            per_stratum_cap=cfg.per_stratum_cap,
        )
        new_records = _evaluate_new(state, [w for _, w in candidates], iteration=k)
        if cfg.mode == "multi" and new_records:
            state.iteration = k  # the pool substream is named after the refit index
            _fit_and_stratify(state)
            refit_happened = True
        else:
            _rebin_samples(state)
    state.iteration = k
    counts, exceed, _ = observe_p2(state.strata, evaluated(state.samples), cfg.critical_value)
    est = build_estimate(state.weights, state.strata, counts, exceed)
    state.estimates.append(est)
    _persist_iteration(state, k, new_records, table, plan, est, write_model=refit_happened)
    return state


def run_campaign(config: RunConfig, run_dir: Optional[Path] = None) -> RunState:
    """Full campaign: preliminary batch plus every configured iteration budget."""
    if run_dir is not None and (Path(run_dir) / "state.json").exists():
        state = load_state(Path(run_dir))
    else:
        state = run_preliminary(config, run_dir)
    for budget in config.iteration_budgets[state.iteration :]:
        run_iteration(state, budget)
        threshold = config.stop_unbiased_variance_below
        if threshold is not None and state.estimates[-1].unbiased_variance < threshold:
            if run_dir is not None:
                persist.append_log(
                    Path(run_dir),
                    f"stopping after iteration {state.iteration}: unbiased variance "
                    f"{state.estimates[-1].unbiased_variance!r} below threshold {threshold!r}",
                )
            break
    if run_dir is not None:
        write_report(state)
    return state


def load_state(run_dir: Path) -> RunState:
    """Rebuild a RunState from a persisted run directory."""
    run_dir = Path(run_dir)
    config = config_from_dict(persist.read_doc(run_dir / "config.json"))
    doc = persist.read_doc(run_dir / "state.json")
    state = RunState(config=config, run_dir=run_dir)
    state.iteration = int(doc["iterations_completed"])
    state.next_id = int(doc["next_id"])
    state.samples = persist.read_samples(run_dir / "samples.tsv", config.space.names)
    # the latest model/strata/weights live in the newest iteration dir that has them
    for k in range(state.iteration, -1, -1):
        d = persist.iter_dir(run_dir, k)
        if (d / "model.json").exists():
            state.model = persist.read_model(d / "model.json", config.space)
            state.strata = persist.read_strata(d / "strata.json")
            state.weights = persist.read_weights(d / "weights.tsv")
            break
    for k in range(1, state.iteration + 1):
        d = persist.iter_dir(run_dir, k)
        if (d / "estimate.json").exists():
            state.estimates.append(persist.read_estimate(d))
    return state


def final_report(state: RunState) -> dict:
    """Latest estimate plus the cost comparison against direct Monte Carlo."""
    if not state.estimates:
        raise ConfigError("no completed iteration to report on")
    est = state.estimates[-1]
    total = state.total_evaluations()
    ratio = None if est.mc_equivalent is None else est.mc_equivalent / total
    return {
        "probability": est.probability,
        "biased_variance": est.biased_variance,
        "unbiased_variance": est.unbiased_variance,
        "ci95": [est.ci95[0], est.ci95[1]],
        "mc_equivalent": est.mc_equivalent,
        "p1_standard_error": est.p1_standard_error,
        "total_evaluations": total,
        "iterations": state.iteration,
        "efficiency_ratio": ratio,
    }


def render_report(report: dict) -> str:
    lines = [
        "rare-event estimate",
        f"  probability          {report['probability']:.6g}",
        f"  95% interval         ({report['ci95'][0]:.6g}, {report['ci95'][1]:.6g})",
        f"  biased variance      {report['biased_variance']:.6e}",
        f"  unbiased variance    {report['unbiased_variance']:.6e}",
        f"  p1 standard error    {report['p1_standard_error']:.3e}",
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
