#!/usr/bin/env python3
"""Multi-iteration experiment: 10 preliminary + 30 + 21 cases on 22 strata.

Shows the hybrid observation/prediction conditionals refining the model from
iteration to iteration: 61 total evaluations, with the variance after the
second iteration typically beating the first.
"""
import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from adastrat.campaign import final_report, render_report, run_campaign
from adastrat.config import RunConfig

CALIBRATION = json.loads(
    (Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "calibration.json").read_text()
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pool-size", type=int, default=1_000_000)
    parser.add_argument("--run-dir", type=Path, default=None)
    args = parser.parse_args()

    config = RunConfig(
        critical_value=CALIBRATION["critical_value"],
        evaluator=CALIBRATION["evaluator"],
        preliminary_count=10,
        iteration_budgets=(30, 21),
        inner_strata=20,
        pool_size=args.pool_size,
        mode="multi",
        seed=args.seed,
        band_halfwidth_sigmas=20.0,
    )
    state = run_campaign(config, args.run_dir)
    print("per-iteration estimates:")
    for k, est in enumerate(state.estimates, start=1):
        print(
            f"  iteration {k}: p={est.probability:.6g}  biased={est.biased_variance:.3e}  "
            f"unbiased={est.unbiased_variance:.3e}  ci=({est.ci95[0]:.5f}, {est.ci95[1]:.5f})"
        )
    print()
    print(render_report(final_report(state)))
    print(f"oracle truth         {CALIBRATION['oracle_truth']:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
