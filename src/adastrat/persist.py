"""Run-directory persistence.

``state.json`` is the commit record, written last at each iteration
boundary; it counts the committed rows of ``samples.tsv``, the append-only
table of measured samples. Into ``iter_k/`` a commit writes only what no other
file records: ``allocation.tsv``, the one record of a nonzero budget, and a
pool refit's ``weights.tsv`` (a large pool to redo). A load reads only
``config.json``, ``state.json``, the committed rows and the last pool refit's
``weights.tsv``, taken only if its ``# pool_size`` line names the config's
pool size, its ``lower``/``upper`` edges are exactly those of the recomputed
strata and its ``p1`` is whole counts over that size, and it recomputes the
rest. ``model.json``, ``conditional.tsv``, ``estimate.*`` and an exact
``weights.tsv`` (no ``# pool_size`` line, variance 0) are views, which
``adastrat report --tables`` renders by these writers. Loading writes nothing;
the next append cuts off any rows past the commit. Every other file is
replaced atomically (a uniquely named temp file, then a rename).
Tables are tab-separated text, the derived ones written column by column;
documents are JSON. Floats are serialized with shortest round-trip
precision, so a reloaded run is bit-identical to the run that wrote it
(and an edge read back compares equal). Wall-clock timings never enter
these files; ``run.log`` gets only failure notes and the early-stop line.
"""
from __future__ import annotations

import json
import math
import os
import uuid
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .allocation import AllocationPlan
from .conditional import ConditionalTable
from .estimator import RareEventEstimate
from .space import ParameterSpace, SampleRecord
from .strata import StratumSet, StratumWeights
from .surrogate import SurrogateModel


def _fmt(x) -> str:
    """Exact round-trip text for one cell."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return ""
    return repr(x)


def _line(cells: Sequence) -> str:
    return "\t".join(_fmt(cell) for cell in cells) + "\n"


def atomic_write_text(path: Path, text: str) -> None:
    """Replace ``path`` by way of a uniquely named temp file in the same directory."""
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_table(path: Path, columns: dict[str, Sequence], head: str = "") -> None:
    """A table given column by column, each under its header name, after the ``head`` lines."""
    atomic_write_text(path, head + "\t".join(columns) + "\n" + "".join(_line(row) for row in zip(*columns.values(), strict=True)))


def read_table(path: Path, columns: Sequence[str], head: int = 0, count: Optional[int] = None) -> tuple[list, list]:
    """The ``head`` lines and the rows, as cells, of a table ``write_table`` wrote; a header other
    than ``columns`` or a row of another number of cells is refused. With ``count``, only the
    first ``count`` rows are read, and the table must hold them."""
    lines = path.read_text().splitlines()
    if lines[head : head + 1] != ["\t".join(columns)]:
        raise ValueError(f"its header is not {list(columns)}")
    rows = [line.split("\t") for line in lines[head + 1 :][:count]]
    if count is not None and len(rows) < count:
        raise ValueError(f"holds {len(rows)} rows, not the {count} committed")
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            raise ValueError(f"row {i} has {len(row)} cells, not {len(columns)}")
    return lines[:head], rows


def write_doc(path: Path, doc: dict) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_doc(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except RecursionError:
        raise ValueError("it is nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ValueError("must hold a JSON object")
    return doc


def iter_dir(run_dir: Path, iteration: int) -> Path:
    return run_dir / f"iter_{iteration:03d}"


# -- samples ---------------------------------------------------------------

def _sample_header(names: Sequence[str]) -> list[str]:
    return ["id", "iteration", *names, "j_true"]


def append_samples(
    path: Path, names: Sequence[str], samples: Sequence[SampleRecord], committed: int
) -> None:
    """Write ``samples`` after the first ``committed`` rows of the table, cutting any rows past
    them; with none committed the table starts over with its header."""
    rows = "".join(_line([s.id, s.iteration, *s.params, s.j_true]) for s in samples)
    if committed == 0:
        atomic_write_text(path, "\t".join(_sample_header(names)) + "\n" + rows)
        return
    with open(path, "r+b") as f:
        rest = f.read().split(b"\n", committed + 1)[-1]  # what a crash left past the commit
        f.seek(-len(rest), os.SEEK_END)
        f.truncate()
        f.write(rows.encode())


def read_samples(path: Path, space: ParameterSpace, count: int, iterations: int, next_id: int) -> list[SampleRecord]:
    """The first ``count`` rows of the sample table; rows past them are not committed. A row
    whose point is outside ``space`` or whose ``j_true`` is not finite is refused, and so are
    ``iteration`` cells that do not run from 0 up to at most ``iterations`` without going down,
    and ids that repeat or lie outside [0, ``next_id``), which would hand one id to two points."""
    _, rows = read_table(path, _sample_header(space.names), count=count)
    ids = [int(r[0]) for r in rows]
    if len(set(ids)) < len(ids) or not all(0 <= i < next_id for i in ids):
        raise ValueError(f"its id column repeats an id or holds one outside [0, {next_id}), the next_id of state.json")
    d = space.dim
    params = space.validate_many(np.array([[float(c) for c in r[2 : 2 + d]] for r in rows]))
    j_true = np.array([float(r[2 + d]) for r in rows])
    if not np.isfinite(j_true).all():
        raise ValueError(f"row {np.flatnonzero(~np.isfinite(j_true))[0]} has no finite j_true")
    iteration = np.array([int(r[1]) for r in rows])
    if iteration[:1].any() or (np.diff(iteration, append=iterations) < 0).any():
        raise ValueError(f"its iteration column does not run from 0 up to at most {iterations} without going down")
    return [
        SampleRecord(id=i, iteration=int(k), params=w, j_true=float(j))
        for i, k, w, j in zip(ids, iteration, params, j_true, strict=True)
    ]


# -- model / weights -------------------------------------------------------

_WEIGHT_COLUMNS = ("stratum", "lower", "upper", "p1", "variance")


def write_model(path: Path, model: SurrogateModel) -> None:
    write_doc(path, {
        "dims": model.space.to_list(), "intercept": model.intercept, "sigma": model.sigma,
        "coefficients": [float(c) for c in model.coefficients], "training_count": model.training_count,
    })


def write_weights(path: Path, strata: StratumSet, weights: StratumWeights) -> None:
    """A refit's ``weights.tsv``, which a load reads back if it holds pool weights; exact weights
    have no ``# pool_size`` line."""
    bounds = strata.bounds()
    cells = (range(strata.n_strata), bounds[:-1], bounds[1:], weights.p1, weights.variance)
    head = "" if weights.pool_size is None else f"# pool_size\t{weights.pool_size}\n"
    write_table(path, dict(zip(_WEIGHT_COLUMNS, cells, strict=True)), head=head)


def read_weights(path: Path, strata: StratumSet, pool_size: int) -> StratumWeights:
    """The weights of ``strata`` from a pool of ``pool_size`` draws, the config's. A table whose
    first line names another pool size, whose ``lower``/``upper`` edges are not exactly those of
    ``strata``, or whose ``p1`` is not stratum counts divided by ``pool_size``, is refused. The
    ``variance`` column is for the reader."""
    head, cells = read_table(path, _WEIGHT_COLUMNS, head=1)
    if head != [f"# pool_size\t{pool_size}"]:
        raise ValueError(f"its first line does not name the pool_size {pool_size} of config.json")
    rows = np.array([[float(c) for c in row[1:4]] for row in cells]).reshape(-1, 3)
    bounds = strata.bounds()
    if rows.shape[0] != strata.n_strata:
        raise ValueError(f"holds {rows.shape[0]} strata, not the {strata.n_strata} recomputed from the samples")
    if (rows[:, 0] != bounds[:-1]).any() or (rows[:, 1] != bounds[1:]).any():
        raise ValueError("its lower/upper edges differ from the strata recomputed from the samples")
    # a contiguous p1, as the campaign's was: numpy sums a strided one in another order
    p1 = np.ascontiguousarray(rows[:, 2])
    hits = np.rint(p1 * pool_size)
    if (hits < 0).any() or hits.sum() != pool_size or (hits / pool_size != p1).any():
        raise ValueError(f"its p1 column is not stratum counts divided by its pool_size {pool_size}")
    return StratumWeights(p1=p1, pool_size=pool_size)


# -- per-iteration tables ----------------------------------------------------

def write_conditional(path: Path, table: ConditionalTable) -> None:
    write_table(path, {
        "stratum": range(len(table.counts)), "count": table.counts, "exceed": table.exceed_counts,
        "p2_pred": table.p2_pred, "p2_obs": table.p2_obs, "p2_mix": table.p2_mix,
    })


def write_allocation(path: Path, plan: AllocationPlan) -> None:
    write_table(path, {
        "stratum": range(len(plan.weights)), "weight": plan.weights, "target": plan.target,
        "existing": plan.existing, "additional": plan.additional,
    })


def write_estimate(
    dir_path: Path, strata: StratumSet, est: RareEventEstimate, p1: np.ndarray, p2: np.ndarray, counts: np.ndarray
) -> None:
    """``estimate.json``, the scalars of ``est``, and ``estimate.tsv``, the weights, hard-tail
    rates and sample counts it was built from, per stratum."""
    write_doc(dir_path / "estimate.json", est.summary())
    bounds = strata.bounds()
    write_table(dir_path / "estimate.tsv", {
        "stratum": range(strata.n_strata), "lower": bounds[:-1], "upper": bounds[1:],
        "p1": p1, "p2": p2, "count": counts, "contribution": p1 * p2,
    })


def append_log(run_dir: Path, message: str) -> None:
    with open(run_dir / "run.log", "a") as f:
        f.write(message.rstrip("\n") + "\n")
