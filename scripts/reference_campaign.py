#!/usr/bin/env python3
"""Single-iteration reference experiment: 100 preliminary + 99 adaptive cases.

Reproduces the headline campaign shape — 102 strata around the critical
value, one optimally-allocated batch — on the synthetic objective, then
compares the result against the brute-force truth and a naive Monte Carlo
baseline of the same size, both counted by the one brute-force loop.
"""
import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from adastrat.campaign import final_report, render_report, run_campaign
from adastrat.config import RunConfig
from adastrat.evaluators import SyntheticObjective, oracle_probability
from adastrat.rng import substream

CALIBRATION = json.loads(
    (Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "calibration.json").read_text()
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pool-size", type=int, default=None,
                        help="estimate the stratum weights from a pool of this many draws (default: exact weights)")
    parser.add_argument("--run-dir", type=Path, default=None)
    args = parser.parse_args()

    config = RunConfig(
        critical_value=CALIBRATION["critical_value"],
        evaluator=CALIBRATION["evaluator"],
        preliminary_count=100,
        iteration_budgets=(99,),
        inner_strata=100,
        pool_size=args.pool_size,
        mode="single",
        seed=args.seed,
        allocation_prune_share=0.005,
    )
    state = run_campaign(config, args.run_dir)
    report = final_report(state)
    print(render_report(report))

    truth = CALIBRATION["oracle_truth"]
    err = report["probability"] - truth
    s = np.sqrt(report["unbiased_variance"])
    print(f"oracle truth         {truth:.6g}")
    print(f"estimate error       {err:+.3g} ({abs(err) / s:.2f} s)" if s else "")

    spec = CALIBRATION["evaluator"]
    objective = SyntheticObjective(kind=spec["kind"], noise_scale=spec["noise_scale"], seed=spec["seed"])
    naive, _ = oracle_probability(objective, config.critical_value, 199, substream(args.seed, "baseline"))
    print(f"naive MC (199 runs)  {naive:.6g}")

    p_check, se = oracle_probability(
        objective, config.critical_value, 1_000_000, substream(args.seed, "spot-oracle")
    )
    print(f"spot oracle (1e6)    {p_check:.6g} +- {se:.2g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
