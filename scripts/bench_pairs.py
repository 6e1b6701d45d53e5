#!/usr/bin/env python3
"""Run the benchmark in alternating pairs of a git revision and this checkout, and compare them.

    python scripts/bench_pairs.py --against REV [--workload W ...] [--pairs 10] [--seconds 30] [--seed 1]

Builds REV's tree in ``.bench_build/rev``: REV's ``src/`` beside copies of this
checkout's ``perfbench/`` and ``tests/fixtures/``, so both sides run identical
benchmark code. For each workload (all of ``BENCHMARK.json``'s by default) it
runs ``perfbench/run.py --trace 0`` once per side and pair, with one seed per
pair (``--seed`` + the pair's index) on both sides, and alternates which side
runs first. Then, for every end-to-end metric of ``BENCHMARK.json``, it prints
each side's median and quartiles, the pairs each side won by the metric's
``better`` (ties count for neither) and whether a gain may be claimed: the
change wins at least nine tenths of the pairs, and its median is better than
REV's by more than the distance between REV's quartiles. Every run's metrics
go to ``.bench_build/pairs.json``. Exits 1 if any run fails.
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over aligned pairs: each side's quartiles, the pairs each side won, and the gain rule."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "wins": wins,
        "losses": losses,
        "ties": len(parent) - wins - losses,
        "gain": wins >= WIN_SHARE * len(parent) and sign * (cm - pm) > p3 - p1,
    }


def build(rev: str) -> Path:
    """REV's ``src/`` with this checkout's ``perfbench/`` and ``tests/fixtures/``, in a fresh directory."""
    tree = BUILD / "rev"
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True)
    if archive.returncode != 0:
        sys.exit(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
    shutil.copytree(ROOT / "perfbench", tree / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(ROOT / "tests" / "fixtures", tree / "tests" / "fixtures",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def run(root: Path, workload: str, seed: int, seconds: float):
    """The metrics of one untraced benchmark run under ``root``, or None if it failed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=10 * seconds + 600)
    except subprocess.TimeoutExpired:
        print(f"  {root.name}: timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        print(f"  {root.name}: failed (exit {proc.returncode})\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def report(workload: str, parent: list[dict], change: list[dict]) -> None:
    print(f"\n{workload}: {len(parent)} pairs")
    print(f"{'metric':<16} {'better':<7} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} "
          f"{'wins change/parent/tie':<23} gain rule")
    for spec in SPEC["end_to_end"]:
        name = spec["name"]
        c = compare([r[name] for r in parent], [r[name] for r in change], spec["better"])
        sides = [f"{m:.6g} [{q1:.6g}, {q3:.6g}]" for q1, m, q3 in (c["parent"], c["change"])]
        wins = f"{c['wins']}/{c['losses']}/{c['ties']}"
        print(f"{name:<16} {spec['better']:<7} {sides[0]:<34} {sides[1]:<34} {wins:<23} "
              f"{'holds' if c['gain'] else 'does not hold'}")


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", required=True, help="the git revision to compare with")
    parser.add_argument("--workload", action="append", choices=names, help="a workload to run (repeatable)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"], help="run length of every run")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    sides = {"parent": build(args.against), "change": ROOT}
    runs, failed = {}, 0
    for workload in args.workload or names:
        results = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("change", "parent") if i % 2 == 0 else ("parent", "change")
            print(f"{workload} pair {i + 1}/{args.pairs}: {order[0]} first", file=sys.stderr)
            pair = {side: run(sides[side], workload, args.seed + i, args.seconds) for side in order}
            if None in pair.values():
                failed += 1
                continue
            for side, metrics in pair.items():
                results[side].append(metrics)
        runs[workload] = results
        if results["parent"]:
            report(workload, results["parent"], results["change"])
    (BUILD / "pairs.json").write_text(json.dumps({"against": args.against, "seconds": args.seconds,
                                                  "seed": args.seed, "runs": runs}, indent=1) + "\n")
    if failed:
        print(f"\n{failed} pair(s) had a failed run and are left out", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
