"""Command-line interface.

Subcommands: ``init`` (validate a config and create the run directory),
``run`` (full campaign, resume-aware), ``iterate`` (one more iteration on an
existing run), ``report`` (recompute and print the estimate), ``compare-mc``
(naive Monte Carlo baseline on the same evaluator), ``oracle`` (brute-force
truth for synthetic evaluators).

Exit codes: 0 success, 2 configuration error, 3 evaluator failure threshold,
4 allocation infeasible.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .campaign import (
    final_report,
    load_state,
    render_report,
    run_campaign,
    run_iteration,
    write_report,
)
from .config import build_evaluator, load_config, with_overrides
from .errors import AllocationError, ConfigError, EvaluationThresholdError
from .estimator import confidence_interval
from .evaluators import EvaluationRequest, evaluate_batch, oracle_probability
from .rng import substream
from .space import sample_uniform

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EVALUATOR = 3
EXIT_ALLOCATION = 4


def _add_common(p: argparse.ArgumentParser, *, config_required: bool) -> None:
    p.add_argument("--config", type=Path, required=config_required, help="path to the JSON run configuration")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--parallelism", type=int, default=None, help="override evaluator parallelism")
    p.add_argument("--mode", choices=("single", "multi"), default=None, help="override the campaign mode")
    p.add_argument("--evaluator", default=None, metavar="KIND", help="override the synthetic objective kind")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adastrat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="validate a config and create a fresh run directory")
    _add_common(p, config_required=True)
    p.add_argument("--run-dir", type=Path, required=True)

    p = sub.add_parser("run", help="run the full campaign (resumes an interrupted one)")
    _add_common(p, config_required=True)
    p.add_argument("--run-dir", type=Path, required=True)

    p = sub.add_parser("iterate", help="run one more adaptive iteration on an existing run")
    p.add_argument("--run-dir", type=Path, required=True)
    p.add_argument("--budget", type=int, default=None, help="evaluations for this iteration (default: next configured budget)")

    p = sub.add_parser("report", help="recompute and print the estimate for an existing run")
    p.add_argument("--run-dir", type=Path, required=True)

    p = sub.add_parser("compare-mc", help="naive Monte Carlo baseline on the configured evaluator")
    _add_common(p, config_required=True)
    p.add_argument("--n", type=int, required=True, help="number of direct evaluations")

    p = sub.add_parser("oracle", help="brute-force exceedance probability (synthetic evaluators only)")
    _add_common(p, config_required=True)
    p.add_argument("--n", type=int, required=True, help="number of oracle draws")
    return parser


def _load(args) -> "RunConfig":
    config = load_config(args.config)
    return with_overrides(
        config,
        seed=args.seed,
        parallelism=args.parallelism,
        mode=args.mode,
        evaluator_kind=args.evaluator,
    )


def _cmd_init(args) -> int:
    config = _load(args)
    run_dir = Path(args.run_dir)
    if (run_dir / "state.json").exists():
        raise ConfigError(f"run directory {run_dir} already holds a campaign")
    run_dir.mkdir(parents=True, exist_ok=True)
    from . import persist

    persist.write_doc(run_dir / "config.json", config.to_dict())
    print(f"initialized run directory {run_dir}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _load(args)
    state = run_campaign(config, Path(args.run_dir))
    sys.stdout.write(render_report(final_report(state)))
    return EXIT_OK


def _cmd_iterate(args) -> int:
    state = load_state(Path(args.run_dir))
    if args.budget is not None:
        budget = args.budget
    else:
        budgets = state.config.iteration_budgets
        if state.iteration >= len(budgets):
            raise ConfigError(
                f"all {len(budgets)} configured budgets are consumed; pass --budget explicitly"
            )
        budget = budgets[state.iteration]
    run_iteration(state, budget)
    report = write_report(state)
    sys.stdout.write(render_report(report))
    return EXIT_OK


def _cmd_report(args) -> int:
    state = load_state(Path(args.run_dir))
    report = final_report(state)
    sys.stdout.write(render_report(report))
    return EXIT_OK


def _cmd_compare_mc(args) -> int:
    config = _load(args)
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    evaluator = build_evaluator(config)
    rng = substream(config.seed, "compare-mc")
    params = sample_uniform(config.space, rng, args.n)
    requests = [EvaluationRequest(id=i, params=w) for i, w in enumerate(params)]
    outcome = evaluate_batch(evaluator, requests, parallelism=config.parallelism)
    values = np.array([r.objective for r in outcome.results])
    n = values.size
    if n == 0:
        raise EvaluationThresholdError("every baseline evaluation failed")
    p = float((values > config.critical_value).mean())
    var = p * (1.0 - p) / n
    lo, hi = confidence_interval(p, p * (1.0 - p) / max(n - 1, 1))
    print(
        json.dumps(
            {
                "estimator": "naive-mc",
                "n": n,
                "failures": len(outcome.failures),
                "probability": p,
                "biased_variance": var,
                "ci95": [lo, hi],
            },
            indent=2,
            sort_keys=True,
        )
    )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    config = _load(args)
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    if config.evaluator.get("type") != "synthetic":
        raise ConfigError("the oracle needs a synthetic evaluator (external ones are too expensive)")
    p, se = oracle_probability(
        build_evaluator(config), config.critical_value, args.n, substream(config.seed, "oracle")
    )
    print(
        json.dumps(
            {"critical_value": config.critical_value, "n": args.n, "probability": p, "standard_error": se},
            indent=2,
            sort_keys=True,
        )
    )
    return EXIT_OK


_COMMANDS = {
    "init": _cmd_init,
    "run": _cmd_run,
    "iterate": _cmd_iterate,
    "report": _cmd_report,
    "compare-mc": _cmd_compare_mc,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EvaluationThresholdError as exc:
        print(f"evaluator failure: {exc}", file=sys.stderr)
        return EXIT_EVALUATOR
    except AllocationError as exc:
        print(f"allocation infeasible: {exc}", file=sys.stderr)
        return EXIT_ALLOCATION


if __name__ == "__main__":
    sys.exit(main())
