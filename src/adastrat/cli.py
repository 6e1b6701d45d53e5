"""Command-line interface.

Subcommands: ``init`` (validate a config and create the run directory),
``run`` (full campaign, resume-aware), ``iterate`` (one more iteration on an
existing run), ``report`` (recompute and print the estimate; ``--tables OUT``
first renders the run's ``iter_k/`` tables into OUT), ``compare-mc`` (naive
Monte Carlo baseline on the same evaluator), ``oracle`` (brute-force truth
for synthetic evaluators). ``init``, ``run`` and ``iterate`` hold a lock on
the run directory, so a second writer is refused; ``report`` only reads and
takes none. ``run`` and ``iterate`` build their evaluator for the run
directory, ``compare-mc`` without one; each ends its children before it
returns (and before the lock is released).

Exit codes: 0 success, and for each error the command line expects, the
code ``EXIT_CODES`` gives it; any other error propagates.
"""
from __future__ import annotations

import argparse
import fcntl
import json
import os
import sys
from contextlib import closing, contextmanager
from dataclasses import replace
from pathlib import Path

from .campaign import (
    final_report,
    init_run_dir,
    load_state,
    next_budget,
    render_report,
    render_tables,
    run_campaign,
    run_iteration,
    write_report,
)
from .config import MODES, build_evaluator, load_config
from .errors import AdastratError, AllocationError, ConfigError, EvaluationThresholdError, FitError
from .estimator import confidence_interval, stratified_variance
from .evaluators import MC_BATCH, count_exceedances, oracle_probability
from .rng import substream

EXIT_OK = 0
#: (error type, exit code, message label) of each error the command line expects. A fit fails
#: only on what the evaluator returned, such as an objective too large to fit.
EXIT_CODES = (
    (ConfigError, 2, "configuration error"),
    (EvaluationThresholdError, 3, "evaluator failure"),
    (FitError, 3, "evaluator failure"),
    (AllocationError, 4, "allocation infeasible"),
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, required=True, help="path to the JSON run configuration")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--parallelism", type=int, default=None, help="override evaluator parallelism")
    p.add_argument("--mode", choices=MODES, default=None, help="override the campaign mode")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adastrat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="validate a config and create a fresh run directory")
    _add_common(p)
    p.add_argument("--run-dir", type=Path, required=True)

    p = sub.add_parser("run", help="run the full campaign (resumes an interrupted one)")
    _add_common(p)
    p.add_argument("--run-dir", type=Path, required=True)

    p = sub.add_parser("iterate", help="run one more adaptive iteration on an existing run")
    p.add_argument("--run-dir", type=Path, required=True)
    p.add_argument("--budget", type=int, default=None, help="evaluations for this iteration (default: next configured budget)")

    p = sub.add_parser("report", help="recompute and print the estimate for an existing run")
    p.add_argument("--run-dir", type=Path, required=True)
    p.add_argument("--tables", type=Path, metavar="OUT", help="first render every iter_k/ table into the new directory OUT")

    p = sub.add_parser("compare-mc", help="naive Monte Carlo baseline on the configured evaluator")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="number of direct evaluations")

    p = sub.add_parser("oracle", help="brute-force exceedance probability (synthetic evaluators only)")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="number of oracle draws")
    return parser


def _load(args) -> "RunConfig":
    """The ``--config`` file's config, with each of ``--seed``, ``--parallelism`` and ``--mode`` that is given."""
    flags = {k: getattr(args, k) for k in ("seed", "parallelism", "mode") if getattr(args, k) is not None}
    return replace(load_config(args.config), **flags).validate()


@contextmanager
def _sole_writer(run_dir: Path, create: bool):
    """Lock the run directory itself (no lock file enters it); a second writer is refused, and so
    is a run directory that cannot be made (with ``create``) or does not exist (without)."""
    try:
        if create:
            run_dir.mkdir(parents=True, exist_ok=True)
        fd = os.open(run_dir, os.O_RDONLY | os.O_DIRECTORY)
    except OSError as exc:
        problem = ("is not a directory" if run_dir.exists() else "does not exist" if not create
                   else f"cannot be made: {exc.strerror}")
        raise ConfigError(f"run directory {run_dir} {problem}") from None
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigError(f"run directory {run_dir} is being written by another process") from None
        yield
    finally:
        os.close(fd)  # releases the lock


def _cmd_init(args) -> int:
    config = _load(args)
    with _sole_writer(args.run_dir, create=True):
        init_run_dir(config, args.run_dir)
    print(f"initialized run directory {args.run_dir}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _load(args)
    with _sole_writer(args.run_dir, create=True):
        state = run_campaign(config, args.run_dir)
    sys.stdout.write(render_report(final_report(state)))
    return EXIT_OK


def _cmd_iterate(args) -> int:
    with _sole_writer(args.run_dir, create=False):
        state = load_state(args.run_dir)
        budget = args.budget if args.budget is not None else next_budget(state)
        if budget is None:
            raise ConfigError("no configured budget is left (spent, or the stop rule is met); pass --budget explicitly")
        with closing(state.evaluator):  # its children end before the lock is released
            run_iteration(state, budget)
        sys.stdout.write(render_report(write_report(state)))
        return EXIT_OK


def _cmd_report(args) -> int:
    if args.tables is not None:
        render_tables(args.run_dir, args.tables)
    sys.stdout.write(render_report(final_report(load_state(args.run_dir))))
    return EXIT_OK


def _cmd_compare_mc(args) -> int:
    config = _load(args)
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    rng = substream(config.seed, "compare-mc")
    with closing(build_evaluator(config)) as evaluator:
        exceed, failures = count_exceedances(evaluator, config.critical_value, args.n, rng, MC_BATCH)
    n = args.n - failures
    if n == 0:
        raise EvaluationThresholdError("every baseline evaluation failed")
    p = exceed / n
    var, unbiased = (stratified_variance([1.0], [p], [n], ddof) for ddof in (0, 1))  # naive MC: one stratum
    lo, hi = confidence_interval(p, unbiased)
    print(
        json.dumps(
            {
                "estimator": "naive-mc",
                "n": n,
                "failures": failures,
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
    except AdastratError as exc:
        for kind, code, label in EXIT_CODES:
            if isinstance(exc, kind):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
