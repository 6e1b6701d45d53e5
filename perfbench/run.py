#!/usr/bin/env python3
"""adastrat benchmark: whole campaigns through the public API, one process, closed loop.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Campaigns run back to back on one thread (external-p2 adds its own two
evaluator children and two worker threads). ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs each campaign once
untraced and once traced, and reports the per-layer metrics. The last line
of standard output is the result object; the line before it and
``perfbench/out/`` carry the details, including the machine.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REQUIRED = (
    ROOT / "src" / "adastrat" / "__init__.py",
    ROOT / "tests" / "fixtures" / "calibration.json",
    ROOT / "tests" / "fixtures" / "external_objective.py",
)
# workloads.NAMES, repeated so arguments parse before adastrat is importable
WORKLOADS = ("single-reference", "multi-iterate", "external-p2")

# The tail is the highest percentile with ten campaigns beyond it.
TAIL_BEYOND = 10
MIN_CAMPAIGNS = TAIL_BEYOND + 1
MIN_TRACED = 5
SETUP_PROBES = 5


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values above it."""
    xs = sorted(values)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def machine() -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    import numpy

    model = next(
        (line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read(f"{index}/level").strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = read(f"{index}/size").strip()
    mem_kb = next(
        (int(line.split()[1]) for line in read("/proc/meminfo").splitlines() if line.startswith("MemTotal")),
        None,
    )
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache": caches,
        "mem_total_mb": None if mem_kb is None else mem_kb / 1024,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
    }


def measure_setup(name: str) -> list[float]:
    """Seconds from spawning a fresh process to its workload being ready, SETUP_PROBES times."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name],
            cwd=ROOT,
            stdout=subprocess.PIPE,
        )
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - started)
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe for {name} failed with exit code {proc.returncode}")
    return samples


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def statistical_block(estimates: list, oracle: float, evaluations: int) -> tuple[dict, dict]:
    """Coverage, z spread and variance ratio of the replicate estimates against the oracle."""
    if len(estimates) < 2:
        raise RuntimeError(f"only {len(estimates)} replicate campaigns completed")
    covered = sum(e.ci95[0] <= oracle <= e.ci95[1] for e in estimates)
    zs = [(e.probability - oracle) / e.unbiased_variance**0.5 for e in estimates if e.unbiased_variance > 0]
    spread = statistics.variance([e.probability for e in estimates])
    metrics = {
        "coverage95": metric(covered / len(estimates), "ratio"),
        "z_sd_excess": metric(abs(statistics.stdev(zs) - 1.0), "ratio"),
        "variance_ratio": metric(oracle * (1.0 - oracle) / evaluations / spread, "ratio"),
    }
    detail = {
        "replicates": len(estimates),
        "covered": covered,
        "z_count": len(zs),
        "z_mean": statistics.fmean(zs),
        "z_sd": statistics.stdev(zs),
        "oracle": oracle,
        "evaluations_per_campaign": evaluations,
    }
    return metrics, detail


def run_untraced(workload, seed: int, seconds: float) -> tuple[list, dict, dict]:
    from workloads import brute_force_oracle, campaign_seed, run_campaign, stat_seed

    setup_samples = measure_setup(workload.name)
    oracle = workload.oracle if workload.oracle is not None else brute_force_oracle(workload.config)
    outcomes = []
    started = time.perf_counter()
    while (
        len(outcomes) < max(workload.replicates, MIN_CAMPAIGNS)
        or time.perf_counter() - started < seconds
    ):
        i = len(outcomes)
        s = stat_seed(i) if i < workload.replicates else campaign_seed(seed, i - workload.replicates)
        outcomes.append(run_campaign(workload, s))
    times = [o.seconds for o in outcomes if o.estimate is not None]
    if not times:
        raise RuntimeError("no campaign completed")
    tail_value, tail_pct = tail(times)
    metrics = {
        "campaign_s": metric(statistics.median(times), "s"),
        "campaign_s.tail": metric(tail_value, "s"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_frac": metric(sum(not o.problems for o in outcomes) / len(outcomes), "ratio"),
    }
    estimates = [o.estimate for o in outcomes[: workload.replicates] if o.estimate is not None]
    stats, stats_detail = statistical_block(estimates, oracle, workload.evaluations())
    metrics.update(stats)
    detail = {
        "campaigns": len(outcomes),
        "timed_campaigns": len(times),
        "campaign_s.tail_percentile": tail_pct,
        "measured_s": time.perf_counter() - started,
        "setup_s.samples": setup_samples,
        "statistics": stats_detail,
    }
    return outcomes, metrics, detail


def run_traced(workload, seed: int, seconds: float) -> tuple[list, dict, dict, list]:
    from tracing import LAYERS, Tracer, reduce
    from workloads import campaign_seed, run_campaign

    tracer = Tracer()
    single_worker = None
    if workload.config.parallelism != 1:
        single_worker = replace(workload, config=replace(workload.config, parallelism=1))
    untraced, traced, baseline = [], [], []
    started = time.perf_counter()
    while len(traced) < MIN_TRACED or time.perf_counter() - started < seconds:
        k = len(traced)
        s = campaign_seed(seed, k)
        untraced.append(run_campaign(workload, s))
        traced.append(run_campaign(workload, s, tracer, f"traced-{k}"))
        if single_worker is not None:
            baseline.append(run_campaign(single_worker, s, tracer, f"p1-{k}"))
    traces = reduce(tracer.spans)
    main = [traces[f"traced-{k}"] for k, o in enumerate(traced) if o.estimate is not None]
    p1 = [traces[f"p1-{k}"] for k, o in enumerate(baseline) if o.estimate is not None] if baseline else main
    if not main or not p1:
        raise RuntimeError("no traced campaign completed")

    def attr_sum(t, name: str, key: str) -> float:
        return sum(a.get(key, 0) for a in t.attrs.get(name, []))

    def per_campaign(t) -> dict:
        return {
            "strata.estimate_weights_s": t.inclusive.get("strata.estimate_weights", 0.0),
            "strata.pool_draws": attr_sum(t, "strata.estimate_weights", "draws"),
            "strata.bytes_computed": 8 * attr_sum(t, "strata.estimate_weights", "values"),
            "allocation.select_candidates_s": t.inclusive.get("allocation.select_candidates", 0.0),
            "allocation.search_draws": attr_sum(t, "allocation.select_candidates", "draws"),
            "allocation.plan_allocation_s": t.inclusive.get("allocation.plan_allocation", 0.0),
            "persist.write_s": t.persist_top["write"][1],
            "persist.write_calls": t.persist_top["write"][0],
            "persist.bytes_written": sum(
                attr_sum(t, name, "bytes") for name in t.attrs if name.startswith("persist.")
            ),
            "persist.read_s": t.persist_top["read"][1],
            "persist.read_calls": t.persist_top["read"][0],
            "campaign.load_state_s": t.inclusive.get("campaign.load_state", 0.0),
            "campaign.self_s": t.layer_self["campaign"],
            "surrogate.fit_s": t.inclusive.get("surrogate.fit", 0.0),
            "conditional.build_conditional_table_s": t.inclusive.get(
                "conditional.build_conditional_table", 0.0
            ),
            "estimator.build_estimate_s": t.inclusive.get("estimator.build_estimate", 0.0),
            "evaluators.evaluate_batch_s": t.inclusive.get("evaluators.evaluate_batch", 0.0),
            "evaluators.requests": attr_sum(t, "evaluators.evaluate_batch", "requests"),
            "evaluators.failed": attr_sum(t, "evaluators.evaluate_batch", "failed"),
        }

    rows = [per_campaign(t) for t in main]
    metrics = {}
    for name in rows[0]:
        unit = "s" if name.endswith("_s") else "B" if ".bytes_" in name else "count"
        metrics[name] = metric(statistics.median(r[name] for r in rows), unit)
    draws = sum(r["strata.pool_draws"] for r in rows)
    weights_s = sum(r["strata.estimate_weights_s"] for r in rows)
    metrics["strata.draws_per_s"] = metric(draws / weights_s if weights_s else 0.0, "1/s")
    search = sum(r["allocation.search_draws"] for r in rows)
    kept = sum(attr_sum(t, "allocation.select_candidates", "kept") for t in main)
    metrics["allocation.accept_ratio"] = metric(kept / search if search else 0.0, "ratio")
    requests = [x for t in main for a in t.attrs.get("evaluators.evaluate_batch", []) for x in a["request_s"]]
    request_tail, request_pct = tail(requests)
    metrics["evaluators.request_s.p50"] = metric(statistics.median(requests), "s")
    metrics["evaluators.request_s.tail"] = metric(request_tail, "s")
    metrics["evaluators.evaluate_batch_s.p1"] = metric(
        statistics.median(t.inclusive.get("evaluators.evaluate_batch", 0.0) for t in p1), "s"
    )
    untraced_s = [o.seconds for o in untraced if o.estimate is not None]
    traced_s = [o.seconds for o in traced if o.estimate is not None]
    metrics["trace.overhead_s"] = metric(statistics.median(traced_s) - statistics.median(untraced_s), "s")
    wall = sum(t.wall for t in main)
    detail = {
        "traced_campaigns": len(main),
        "untraced_campaigns": len(untraced_s),
        "single_worker_campaigns": len(baseline),
        "requests": len(requests),
        "evaluators.request_s.tail_percentile": request_pct,
        "layer_self_share": {layer: sum(t.layer_self.get(layer, 0.0) for t in main) / wall for layer in LAYERS},
        "measured_s": time.perf_counter() - started,
    }
    return untraced + traced + baseline, metrics, detail, tracer.dump()


def summarize(outcomes: list, metrics: dict) -> dict:
    """The result line: a campaign that raised or failed an output check counts as failed."""
    failed = sum(1 for o in outcomes if o.problems)
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"cannot benchmark: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    from workloads import OUT, setup

    workload = setup(args.workload)
    spans = None
    if args.trace:
        outcomes, metrics, detail, spans = run_traced(workload, args.seed, args.seconds)
    else:
        outcomes, metrics, detail = run_untraced(workload, args.seed, args.seconds)
    result = summarize(outcomes, metrics)
    failures = [o.problems for o in outcomes if o.problems]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        **detail,
        "first_failures": failures[:5],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    seconds = [o.seconds for o in outcomes]
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"detail": detail, "campaign_seconds": seconds, "result": result}, indent=2) + "\n"
    )
    if spans is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
