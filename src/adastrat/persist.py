"""Run-directory persistence.

Everything a resumed process needs is written at iteration boundaries,
atomically (write to a temp file, then rename). Tables are tab-separated
text; documents are JSON. Floats are serialized with shortest round-trip
precision, so a reloaded run is bit-identical to the run that wrote it.
Wall-clock timings never enter these files; ``run.log`` gets only failure
notes and the early-stop line.
"""
from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .allocation import AllocationPlan
from .conditional import ConditionalTable
from .errors import ConfigError
from .estimator import RareEventEstimate
from .space import SampleRecord
from .strata import StratumSet, StratumWeights
from .surrogate import SurrogateModel


def _fmt(x) -> str:
    """Exact round-trip text for one cell."""
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return ""
    return repr(x)


def _parse_float(cell: str) -> Optional[float]:
    return None if cell == "" else float(cell)


def atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_table(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(_fmt(cell) for cell in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    header = lines[0].split("\t")
    return header, [line.split("\t") for line in lines[1:]]


def write_doc(path: Path, doc: dict) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_doc(path: Path) -> dict:
    return json.loads(path.read_text())


def iter_dir(run_dir: Path, iteration: int) -> Path:
    return run_dir / f"iter_{iteration:03d}"


# -- samples ---------------------------------------------------------------

def write_samples(path: Path, names: Sequence[str], samples: Sequence[SampleRecord]) -> None:
    header = ["id", "iteration", *names, "j_true", "j_tilde", "stratum"]
    rows = [
        [s.id, s.iteration, *s.params, s.j_true, s.j_tilde, s.stratum]
        for s in samples
    ]
    write_table(path, header, rows)


def read_samples(path: Path, names: Sequence[str]) -> list[SampleRecord]:
    header, rows = read_table(path)
    expected = ["id", "iteration", *names, "j_true", "j_tilde", "stratum"]
    if header != expected:
        raise ConfigError(f"sample table {path} has columns {header}, expected {expected}")
    d = len(names)
    out = []
    for row in rows:
        stratum = row[4 + d]
        out.append(
            SampleRecord(
                id=int(row[0]),
                iteration=int(row[1]),
                params=np.array([float(c) for c in row[2 : 2 + d]]),
                j_true=_parse_float(row[2 + d]),
                j_tilde=_parse_float(row[3 + d]),
                stratum=None if stratum == "" else int(stratum),
            )
        )
    return out


# -- model / strata / weights ----------------------------------------------

def write_model(path: Path, model: SurrogateModel, residuals: np.ndarray) -> None:
    write_doc(
        path,
        {
            "dims": [
                {"name": d.name, "min": d.min, "max": d.max, "group": d.group}
                for d in model.space.dims
            ],
            "intercept": model.intercept,
            "coefficients": [float(c) for c in model.coefficients],
            "sigma": model.sigma,
            "training_count": model.training_count,
            "residuals": [float(r) for r in residuals],
        },
    )


def read_model(path: Path, space) -> SurrogateModel:
    doc = read_doc(path)
    return SurrogateModel(
        space=space,
        intercept=float(doc["intercept"]),
        coefficients=np.array([float(c) for c in doc["coefficients"]]),
        sigma=float(doc["sigma"]),
        training_count=int(doc["training_count"]),
    )


def write_strata(path: Path, strata: StratumSet) -> None:
    write_doc(
        path,
        {
            "edges": [float(e) for e in strata.edges],
            "critical_value": strata.critical_value,
            "sigma": strata.sigma,
            "inner_count": strata.inner_count,
        },
    )


def read_strata(path: Path) -> StratumSet:
    doc = read_doc(path)
    return StratumSet(
        edges=np.array([float(e) for e in doc["edges"]]),
        critical_value=float(doc["critical_value"]),
        sigma=float(doc["sigma"]),
        inner_count=int(doc["inner_count"]),
    )


def write_weights(path: Path, strata: StratumSet, weights: StratumWeights) -> None:
    header = ["stratum", "lower", "upper", "p1", "variance"]
    rows = [
        [i, strata.lower(i), strata.upper(i), weights.p1[i], weights.variance[i]]
        for i in range(strata.n_strata)
    ]
    lines = [f"# pool_size\t{weights.pool_size}", "\t".join(header)]
    for row in rows:
        lines.append("\t".join(_fmt(c) for c in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_weights(path: Path) -> StratumWeights:
    lines = path.read_text().splitlines()
    pool_size = int(lines[0].split("\t")[1])
    p1 = []
    var = []
    for line in lines[2:]:
        cells = line.split("\t")
        p1.append(float(cells[3]))
        var.append(float(cells[4]))
    return StratumWeights(p1=np.array(p1), pool_size=pool_size, variance=np.array(var))


# -- per-iteration tables ----------------------------------------------------

def write_conditional(path: Path, table: ConditionalTable) -> None:
    header = ["stratum", "count", "exceed", "p2_pred", "p2_obs", "p2_mix"]
    rows = [
        [i, table.counts[i], table.exceed_counts[i], table.p2_pred[i], table.p2_obs[i], table.p2_mix[i]]
        for i in range(len(table.counts))
    ]
    write_table(path, header, rows)


def write_allocation(path: Path, plan: AllocationPlan) -> None:
    header = ["stratum", "weight", "target", "existing", "additional"]
    rows = [
        [i, plan.weights[i], plan.target[i], plan.existing[i], plan.additional[i]]
        for i in range(len(plan.weights))
    ]
    write_table(path, header, rows)


def write_estimate(dir_path: Path, strata: StratumSet, est: RareEventEstimate) -> None:
    write_doc(
        dir_path / "estimate.json",
        {
            "probability": est.probability,
            "biased_variance": est.biased_variance,
            "unbiased_variance": est.unbiased_variance,
            "ci95": [est.ci95[0], est.ci95[1]],
            "mc_equivalent": est.mc_equivalent,
            "p1_standard_error": est.p1_standard_error,
        },
    )
    header = ["stratum", "lower", "upper", "p1", "p2", "count", "contribution"]
    rows = [
        [i, strata.lower(i), strata.upper(i), est.p1[i], est.p2[i], est.counts[i], est.contribution[i]]
        for i in range(strata.n_strata)
    ]
    write_table(dir_path / "estimate.tsv", header, rows)


def read_estimate(dir_path: Path) -> RareEventEstimate:
    doc = read_doc(dir_path / "estimate.json")
    _, rows = read_table(dir_path / "estimate.tsv")
    p1 = np.array([float(r[3]) for r in rows])
    p2 = np.array([float(r[4]) for r in rows])
    counts = np.array([int(r[5]) for r in rows], dtype=np.int64)
    return RareEventEstimate(
        probability=float(doc["probability"]),
        biased_variance=float(doc["biased_variance"]),
        unbiased_variance=float(doc["unbiased_variance"]),
        ci95=(float(doc["ci95"][0]), float(doc["ci95"][1])),
        mc_equivalent=None if doc["mc_equivalent"] is None else int(doc["mc_equivalent"]),
        p1_standard_error=float(doc["p1_standard_error"]),
        p1=p1,
        p2=p2,
        counts=counts,
        contribution=p1 * p2,
    )


def append_log(run_dir: Path, message: str) -> None:
    with open(run_dir / "run.log", "a") as f:
        f.write(message.rstrip("\n") + "\n")
