#!/usr/bin/env python3
"""Write eleven fixed run directories, three brute-force outputs and four reports to compare two checkouts byte for byte.

    python scripts/rundir_cases.py --out DIR

writes DIR/crit7, DIR/reference, DIR/ensemble, DIR/multi-iterate, DIR/external,
DIR/product, DIR/stopped, DIR/gap, DIR/exact, DIR/default and DIR/linear:

- ``crit7``: the acceptance criterion-7 config (multi, 40 + 20 + 10
  evaluations, 10^5 pool) at seed 13;
- ``reference``: the reference single campaign (100 + 99 evaluations,
  102 strata) at seed 0 with a 2*10^6 pool, the only case whose pool exceeds
  2^20 rows and so the one that ran the two-thread pool of earlier versions;
- ``ensemble``: the small multi ensemble (10 + 30 + 21 evaluations) at seed 0;
- ``multi-iterate``: ten 20-evaluation iterations at seed 5, each re-entered
  through ``load_state``, as ``adastrat iterate`` does;
- ``external``: the benchmark's ``external-p2`` shape (single, 100 + 99
  evaluations, 10^5 pool) at seed 3, through two children of
  ``tests/fixtures/external_objective.py``. The command names the solver by
  its path from the repo root, the working directory of the run, so
  ``config.json`` does not depend on where the checkout lives;
- ``product``: a 4 x 4 product preliminary design (multi, 16 + 20 + 10
  evaluations) at seed 2;
- ``stopped``: a multi campaign (30 + 20 + 10 + 10 evaluations, noise 0.05)
  whose stop rule ends it after its first iteration, at seed 1; the campaign
  is run twice on the same directory, and the second run must change nothing;
- ``gap``: a multi campaign (20 + 20 + 0 + 10 evaluations, 10^5 pool) at
  seed 4 whose zero-budget iteration 2 commits without a refit, so
  ``iter_002`` holds no ``model.json`` or ``weights.tsv`` and iteration 3
  allocates under iteration 1's refit; like ``multi-iterate``, each
  iteration is re-entered through ``load_state``;
- ``exact``: a multi campaign (20 + 20 + 20 + 20 evaluations, 20σ band) at
  seed 6 with ``pool_size`` unset, so on exact stratum weights; each
  iteration is re-entered through ``load_state``, which recomputes them;
- ``default``: the default config on the calibration objective (single,
  100 + 99 evaluations, 102 strata, exact weights, prune share 0) at seed 7,
  whose candidate search draws the longest streams of all the cases;
- ``linear``: the noise-free linear objective at critical value 0.6 (single,
  20 + 0 evaluations, exact weights) at seed 3, whose perfect fit leaves no
  residual scale, so its strata are the two-stratum split at 0.6.

The other eight name a ``pool_size`` and run on the occupancy pool. Then it
writes the stdout of three ``adastrat`` commands, which draw through the
brute-force loop, each at a fixed ``--n`` and seed:

- ``compare-mc-default.json``: ``compare-mc`` on ``default``'s config
  (the calibration objective), 70,001 draws at seed 5, past one batch and a
  multiple of neither the batch nor the slice;
- ``compare-mc-external.json``: ``compare-mc`` on ``external``'s config,
  3,000 draws at seed 2 through two children of the fixture solver;
- ``oracle-default.json``: ``oracle`` on ``default``'s config, 3*10^6
  draws at seed 7.

Last it writes the stdout of ``adastrat report`` on four of the run
directories, each of which a load rebuilds differently; the script checks
that each equals that directory's ``report.txt``:

- ``report-gap.txt``: ``gap``, whose committed pool is read back across the
  zero-budget iteration;
- ``report-multi-iterate.txt``: ``multi-iterate``, whose committed pool is
  read back;
- ``report-exact.txt``: ``exact``, whose exact weights are recomputed;
- ``report-linear.txt``: ``linear``, whose split is laid out again.

The timing-free files of equal code and equal seeds must not differ. To
compare this checkout with a git revision REV, run

    python scripts/rundir_cases.py --out DIR --against REV

It writes the cases twice with this script and these fixtures: into DIR/here
under this checkout's ``src/``, and into DIR/against under REV's ``src/``,
which ``git archive`` extracts into DIR/rev beside copies of this script
and of ``tests/fixtures``. Then it prints ``diff -r -x run.log`` of the two
trees and exits 1 if they differ.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from adastrat.campaign import load_state, run_campaign, run_iteration, run_preliminary, write_report
from adastrat.cli import main as adastrat
from adastrat.config import RunConfig

CALIBRATION = json.loads((ROOT / "tests" / "fixtures" / "calibration.json").read_text())
REFERENCE = dict(critical_value=CALIBRATION["critical_value"], evaluator=CALIBRATION["evaluator"])

CASES = {
    "crit7": RunConfig(
        **REFERENCE, preliminary_count=40, iteration_budgets=(20, 10), inner_strata=20,
        pool_size=100_000, mode="multi", seed=13,
    ),
    "reference": RunConfig(
        **REFERENCE, preliminary_count=100, iteration_budgets=(99,), inner_strata=100,
        pool_size=2_000_000, mode="single", seed=0, allocation_prune_share=0.005,
    ),
    "ensemble": RunConfig(
        **REFERENCE, preliminary_count=10, iteration_budgets=(30, 21), inner_strata=20,
        pool_size=1_000_000, mode="multi", seed=0, band_halfwidth_sigmas=20.0,
    ),
    "multi-iterate": RunConfig(
        **REFERENCE, preliminary_count=20, iteration_budgets=(20,) * 10, inner_strata=20,
        band_halfwidth_sigmas=20.0, pool_size=100_000, mode="multi", seed=5,
    ),
    "external": RunConfig(
        critical_value=0.93, preliminary_count=100, iteration_budgets=(99,), inner_strata=100,
        pool_size=100_000, mode="single", seed=3, parallelism=2,
        evaluator={"type": "external", "command": [sys.executable, "tests/fixtures/external_objective.py"],
                   "timeout": 60.0},
    ),
    "product": RunConfig(
        **REFERENCE, preliminary_count=16, iteration_budgets=(20, 10), inner_strata=20,
        preliminary_design={"type": "product", "counts": {"geometry": 4, "freestream": 4}},
        pool_size=100_000, mode="multi", seed=2,
    ),
    "stopped": RunConfig(
        critical_value=REFERENCE["critical_value"], evaluator={**REFERENCE["evaluator"], "noise_scale": 0.05},
        preliminary_count=30, iteration_budgets=(20, 10, 10), inner_strata=20, pool_size=100_000,
        mode="multi", seed=1, stop_unbiased_variance_below=1.0,
    ),
    "gap": RunConfig(
        **REFERENCE, preliminary_count=20, iteration_budgets=(20, 0, 10), inner_strata=20,
        pool_size=100_000, mode="multi", seed=4,
    ),
    "exact": RunConfig(
        **REFERENCE, preliminary_count=20, iteration_budgets=(20, 20, 20), inner_strata=20,
        band_halfwidth_sigmas=20.0, mode="multi", seed=6,
    ),
    "default": RunConfig(**REFERENCE, seed=7),
    "linear": RunConfig(
        critical_value=0.6, evaluator={**REFERENCE["evaluator"], "kind": "linear", "noise_scale": 0.0},
        preliminary_count=20, iteration_budgets=(0,), mode="single", seed=3,
    ),
}

#: File in DIR -> the ``adastrat`` command whose stdout it holds; ``--config`` and ``--run-dir`` are relative to DIR.
CLI_OUTPUTS = {
    "compare-mc-default.json": ["compare-mc", "--config", "default/config.json", "--n", "70001", "--seed", "5"],
    "compare-mc-external.json": ["compare-mc", "--config", "external/config.json", "--n", "3000", "--seed", "2"],
    "oracle-default.json": ["oracle", "--config", "default/config.json", "--n", "3000000", "--seed", "7"],
    **{f"report-{name}.txt": ["report", "--run-dir", name] for name in ("gap", "multi-iterate", "exact", "linear")},
}


def against(parser: argparse.ArgumentParser, out: Path, rev: str) -> int:
    """Write the cases under this checkout's ``src/`` and under ``rev``'s, then diff the two trees."""
    if out.exists():
        parser.error(f"{out} already exists")
    (out / "rev").mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True)
    if archive.returncode != 0:
        parser.error(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(out / "rev")], input=archive.stdout, check=True)
    shutil.copytree(ROOT / "scripts", out / "rev" / "scripts")
    shutil.copytree(ROOT / "tests" / "fixtures", out / "rev" / "tests" / "fixtures")
    for name, root in (("here", ROOT), ("against", out / "rev")):
        if subprocess.run([sys.executable, str(root / "scripts" / "rundir_cases.py"), "--out", str(out / name)]).returncode:
            parser.error(f"writing the cases under {root / 'src'} failed")
    diff = subprocess.run(["diff", "-r", "-x", "run.log", str(out / "against"), str(out / "here")])
    print(f"{'no difference' if diff.returncode == 0 else 'the trees differ'} from {rev}")
    return 0 if diff.returncode == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="directory to create the run dirs in")
    parser.add_argument("--against", metavar="REV", help="write the cases here and under REV's src/ and diff them")
    args = parser.parse_args()
    args.out = args.out.resolve()
    if args.against is not None:
        return against(parser, args.out, args.against)
    os.chdir(ROOT)  # the external case's solver path is relative to the repo root
    for name, config in CASES.items():
        run_dir = args.out / name
        if run_dir.exists():
            parser.error(f"{run_dir} already exists")
        if name in ("multi-iterate", "gap", "exact"):  # every iteration starts from the persisted state
            run_preliminary(config, run_dir)
            for budget in config.iteration_budgets:
                state = load_state(run_dir)
                run_iteration(state, budget)
                write_report(state)
        else:
            run_campaign(config, run_dir)
            if name == "stopped":  # a re-run of a stopped campaign
                run_campaign(config, run_dir)
        print(f"wrote {run_dir}")
    for name, argv in CLI_OUTPUTS.items():
        argv = [str(args.out / a) if flag in ("--config", "--run-dir") else a for flag, a in zip(["", *argv], argv)]
        with open(args.out / name, "x") as out, redirect_stdout(out):
            status = adastrat(argv)
        if status != 0:
            parser.error(f"adastrat {' '.join(argv)} exited {status}")
        if argv[0] == "report" and (args.out / name).read_text() != Path(argv[2], "report.txt").read_text():
            parser.error(f"{args.out / name} differs from the report.txt of {argv[2]}")
        print(f"wrote {args.out / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
