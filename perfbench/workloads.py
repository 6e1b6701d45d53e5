"""The benchmark's campaign workloads, their inputs and their output checks.

Each workload is one campaign shape driven through adastrat's public API.
``setup`` builds and validates the configuration the way a user's process
would (imports, calibration load, config validation); ``run_campaign`` runs,
times and checks one campaign of that shape under a given master seed.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CALIBRATION = ROOT / "tests" / "fixtures" / "calibration.json"
EXTERNAL_OBJECTIVE = ROOT / "tests" / "fixtures" / "external_objective.py"
OUT = BENCH_DIR / "out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from adastrat import campaign  # noqa: E402
from adastrat.config import RunConfig  # noqa: E402
from adastrat.estimator import RareEventEstimate  # noqa: E402
from adastrat.evaluators import SyntheticObjective, oracle_probability  # noqa: E402
from adastrat.rng import substream  # noqa: E402

NAMES = ("single-reference", "multi-iterate", "external-p2")

# Master seeds of the statistical block. The block is the same list in every
# run, so coverage, z spread and variance ratio are exact for a given commit
# and move only when the code changes its random streams or its math.
STAT_SEED_BASE = 1_000_000

# Brute-force oracle for the noise-free objective, which has no frozen fixture.
ORACLE_DRAWS = 10_000_000
ORACLE_SEED = 20260808

P1_TOLERANCE = 1e-9
TWIN_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    config: RunConfig
    replicates: int
    """Campaigns in the fixed-seed statistical block of an untraced run."""
    oracle: Optional[float] = None
    """True exceedance probability; None means compute it by brute force."""
    via_run_dir: bool = False
    """Persist to a run dir and re-enter every iteration through load_state."""
    synthetic_twin: bool = False
    """Compare every campaign with an in-process synthetic campaign."""

    def evaluations(self) -> int:
        return self.config.preliminary_count + sum(self.config.iteration_budgets)


def setup(name: str) -> Workload:
    """Build and validate one workload's configuration."""
    calibration = json.loads(CALIBRATION.read_text())
    reference = dict(
        critical_value=calibration["critical_value"],
        evaluator=calibration["evaluator"],
    )
    if name == "single-reference":
        config = RunConfig(
            **reference,
            preliminary_count=100,
            iteration_budgets=(99,),
            inner_strata=100,
            allocation_prune_share=0.005,
            mode="single",
        )
        return Workload(name, config.validate(), 30, oracle=calibration["oracle_truth"])
    if name == "multi-iterate":
        config = RunConfig(
            **reference,
            preliminary_count=20,
            iteration_budgets=(20,) * 10,
            inner_strata=20,
            band_halfwidth_sigmas=20.0,
            pool_size=100_000,
            mode="multi",
        )
        return Workload(
            name, config.validate(), 60, oracle=calibration["oracle_truth"], via_run_dir=True
        )
    if name == "external-p2":
        config = RunConfig(
            critical_value=0.93,
            evaluator={
                "type": "external",
                "command": [sys.executable, str(EXTERNAL_OBJECTIVE)],
                "timeout": 60.0,
            },
            preliminary_count=100,
            iteration_budgets=(99,),
            inner_strata=100,
            pool_size=100_000,
            mode="single",
            parallelism=2,
        )
        return Workload(name, config.validate(), 60, synthetic_twin=True)
    raise ValueError(f"unknown workload {name!r}; pick from {NAMES}")


def twin_config(config: RunConfig) -> RunConfig:
    """The same campaign with the external solver replaced by the in-process objective."""
    return replace(
        config,
        evaluator={"type": "synthetic", "kind": "quadratic", "noise_scale": 0.0, "seed": 0},
        parallelism=1,
    )


def brute_force_oracle(config: RunConfig) -> float:
    """Exceedance probability of the noise-free objective from ORACLE_DRAWS draws."""
    objective = SyntheticObjective(kind="quadratic", noise_scale=0.0, space=config.space)
    p, _ = oracle_probability(
        objective,
        config.critical_value,
        ORACLE_DRAWS,
        substream(ORACLE_SEED, "perfbench-oracle"),
        batch=1 << 16,  # small batches keep the oracle out of peak_rss_mb
    )
    return p


def campaign_seed(workload_seed: int, index: int) -> int:
    """Master seed of the index-th timed campaign after the statistical block."""
    return int(np.random.SeedSequence([workload_seed, index]).generate_state(1, np.uint64)[0] >> 1)


def stat_seed(index: int) -> int:
    return STAT_SEED_BASE + index


@dataclass
class Outcome:
    seed: int
    seconds: float
    """Wall time of the program calls alone; the checks after them are not timed."""
    problems: list[str]
    estimate: Optional[RareEventEstimate] = None
    """Final estimate; None when the campaign raised. The rest of the state is
    dropped, because keeping it makes Python's collector slower campaign by campaign."""


def run_campaign(workload: Workload, seed: int, tracer=None, campaign_id: str = "") -> Outcome:
    """Run, time and check one campaign. Exceptions become problems, not crashes."""
    config = replace(workload.config, seed=seed)
    run_dir = None
    if workload.via_run_dir:
        OUT.mkdir(parents=True, exist_ok=True)
        run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT)) / "run"
    scope = nullcontext() if tracer is None else tracer.campaign(campaign_id)
    seconds = 0.0
    try:
        started = time.perf_counter()
        with scope:
            state = _drive(config, run_dir)
        seconds = time.perf_counter() - started
        reloaded = None if run_dir is None else campaign.load_state(run_dir)
        twin = campaign.run_campaign(twin_config(config)) if workload.synthetic_twin else None
        problems = check(workload, state, reloaded=reloaded, twin=twin)
        return Outcome(seed, seconds, problems, state.estimates[-1] if state.estimates else None)
    except Exception as exc:  # a failed campaign is counted, and the run goes on
        return Outcome(seed, seconds, [f"raised {type(exc).__name__}: {exc}"])
    finally:
        if run_dir is not None:
            shutil.rmtree(run_dir.parent, ignore_errors=True)


def _drive(config: RunConfig, run_dir: Optional[Path]) -> campaign.RunState:
    if run_dir is None:
        return campaign.run_campaign(config)
    # the `adastrat iterate` path: every iteration starts from the persisted state
    state = campaign.run_preliminary(config, run_dir)
    for budget in config.iteration_budgets:
        state = campaign.load_state(run_dir)
        campaign.run_iteration(state, budget)
        campaign.write_report(state)
    return state


def check(
    workload: Workload,
    state: campaign.RunState,
    reloaded: Optional[campaign.RunState] = None,
    twin: Optional[campaign.RunState] = None,
) -> list[str]:
    """Problems found in one campaign's outputs; empty when every check passes."""
    problems = []
    if state.total_evaluations() != workload.evaluations():
        problems.append(
            f"{state.total_evaluations()} evaluations, configured budget {workload.evaluations()}"
        )
    ids = [s.id for s in state.samples]
    if len(set(ids)) != len(ids):
        problems.append(f"{len(ids) - len(set(ids))} duplicate sample ids")
    p1_sum = float(np.sum(state.weights.p1))
    if abs(p1_sum - 1.0) > P1_TOLERANCE:
        problems.append(f"p1 sums to {p1_sum!r}")
    if not state.estimates:
        return problems + ["no estimate"]
    est = state.estimates[-1]
    if not est.ci95[0] <= est.probability <= est.ci95[1]:
        problems.append(f"ci95 {est.ci95} does not bracket {est.probability!r}")
    if workload.via_run_dir:
        if reloaded is None or not reloaded.estimates:
            problems.append("run dir holds no estimate")
        elif _estimate_fields(reloaded.estimates[-1]) != _estimate_fields(est):
            problems.append("estimate reloaded from the run dir differs from the in-memory one")
    if workload.synthetic_twin:
        problems.extend(_twin_problems(state, twin))
    return problems


def _estimate_fields(est) -> tuple:
    return (est.probability, est.biased_variance, est.unbiased_variance, tuple(est.ci95))


def _twin_problems(state: campaign.RunState, twin: Optional[campaign.RunState]) -> list[str]:
    if twin is None or not twin.estimates:
        return ["no synthetic twin to compare with"]
    got = sorted((s.id, s.j_true) for s in state.samples)
    want = sorted((s.id, s.j_true) for s in twin.samples)
    if [i for i, _ in got] != [i for i, _ in want]:
        return ["sample ids differ from the synthetic twin"]
    problems = []
    gap = max(abs(a - b) for (_, a), (_, b) in zip(got, want))
    if gap > TWIN_TOLERANCE:
        problems.append(f"j_true differs from the synthetic twin by {gap!r}")
    gap = abs(state.estimates[-1].probability - twin.estimates[-1].probability)
    if gap > TWIN_TOLERANCE:
        problems.append(f"probability differs from the synthetic twin by {gap!r}")
    return problems
