"""Expensive-objective stand-ins and the external-process evaluation protocol.

The synthetic objectives replace the real simulation pipeline with closed
forms on the default 6-D box, cheap enough for brute-force ground truth yet
shaped to leave a linear surrogate a genuine residual. The external
evaluator wraps any command that speaks the line protocol: one JSON object
``{"id": ..., "params": {name: value, ...}}`` per request on stdin, one
``{"id": ..., "objective": ...}`` per reply on stdout. An evaluator is built
once per campaign with its parallelism and run dir; the caller's thread
serves all its children, and each child serves every batch until ``close``.

Every evaluator has one call, ``run_batch(ids, ws)``: row i of ``ws`` is request
``ids[i]``. It returns, in row order, one objective per row (NaN where the row
failed) and the seconds each row took, plus a failure reason per failed row,
keyed by row. ``count_exceedances`` is the one brute-force loop, for any evaluator.
"""
from __future__ import annotations

import json
import math
import os
import select
import subprocess
import tempfile
import time
import weakref
from dataclasses import dataclass
from typing import BinaryIO, Optional, Sequence

import numpy as np

from .errors import ConfigError
from .estimator import stratified_variance
from .space import DEFAULT_SPACE, ParameterSpace

RUN_DIR_ENV = "ADASTRAT_RUN_DIR"

#: Seconds an external evaluator waits for each reply, unless its config block sets ``timeout``.
DEFAULT_TIMEOUT = 3600.0

#: A campaign's preliminary batch aborts when more than this share of it fails.
FAILURE_ABORT_FRACTION = 0.2

SYNTHETIC_KINDS = ("quadratic", "linear")

#: Draws one brute-force batch holds: the rows of its one reused buffer.
MC_BATCH = 1 << 16

#: Rows the brute-force loop evaluates at once, so that a slice's column temporaries stay in cache:
#: of 2**10 to 2**16, 2**12 and 2**14 ran fastest (10**7 draws, 2-core x86 host), 2**12 in less memory.
_MC_SLICE = 1 << 12

#: What one external request can raise without endangering the others: it fails alone.
#: ``json.loads`` raises RecursionError on a reply nested too deeply.
_REQUEST_ERRORS = (TimeoutError, EOFError, OSError, ValueError, OverflowError, RecursionError)

#: Longest single wait for replies, in seconds; a longer timeout is met over several
#: waits. ``poll`` refuses waits past 2**31 ms (an evaluator timeout of 1e10 s).
_MAX_WAIT = 3600.0


@dataclass(frozen=True)
class EvaluationResult:
    id: int
    objective: float
    wall_time: float


@dataclass(frozen=True)
class EvaluationFailure:
    id: int
    reason: str


@dataclass(frozen=True)
class BatchOutcome:
    """Successful results plus collectively-reported failures, both in row order."""

    results: list[EvaluationResult]
    failures: list[EvaluationFailure]


def _splitmix64(state: np.ndarray) -> np.ndarray:
    z = (state + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _coordinate_noise(seed: int, ws: np.ndarray) -> np.ndarray:
    """Deterministic pseudo-noise, uniform on [-1, 1], keyed by (seed, coordinates).

    Pure integer mixing over the IEEE bit patterns of the raw coordinates:
    the same point gives the same noise in any process on any platform.
    """
    ws = np.ascontiguousarray(np.atleast_2d(ws), dtype=np.float64)
    state = np.full(ws.shape[0], np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    bits = ws.view(np.uint64)
    for j in range(ws.shape[1]):
        state = _splitmix64(state ^ bits[:, j])
    return (state >> np.uint64(11)).astype(np.float64) * 2.0**-52 - 1.0


class SyntheticObjective:
    """Deterministic closed-form objective on the default parameter box.

    ``quadratic`` is dominated by the angle of attack with an
    interaction and curvature term, so a linear surrogate fits well but not
    perfectly; ``linear`` is exactly affine (residual scale zero), exercising
    the degenerate-band path. ``noise_scale`` adds bounded pseudo-noise for
    stress-testing the residual model.
    """

    def __init__(
        self,
        kind: str = "quadratic",
        noise_scale: float = 0.0,
        seed: int = 0,
        space: ParameterSpace = DEFAULT_SPACE,
    ):
        if kind not in SYNTHETIC_KINDS:
            raise ConfigError(f"unknown synthetic objective kind {kind!r}; pick from {SYNTHETIC_KINDS}")
        if noise_scale < 0.0:
            raise ConfigError(f"noise_scale must be >= 0, got {noise_scale}")
        if space.dim != 6:
            raise ConfigError("synthetic objectives are defined on a 6-dimensional box")
        self.kind = kind
        self.noise_scale = float(noise_scale)
        self.seed = int(seed)
        self.space = space

    def evaluate_many(self, ws: np.ndarray) -> np.ndarray:
        ws = np.atleast_2d(np.asarray(ws, dtype=float))
        u = self.space.normalize_many(ws)
        ar, sweep, dihedral, alpha, beta, mach = (u[:, j] for j in range(6))
        j = (
            0.12
            + 0.55 * alpha
            + 0.15 * ar
            - 0.06 * sweep
            + 0.03 * dihedral
            + 0.04 * mach
            - 0.02 * beta
        )
        if self.kind == "quadratic":
            j = j + 0.10 * alpha * ar + 0.05 * alpha * alpha
        if self.noise_scale > 0.0:
            j = j + self.noise_scale * _coordinate_noise(self.seed, ws)
        return j

    def run_batch(self, ids: Sequence[int], ws: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
        """One ``evaluate_many`` call for all rows (a closed form needs no ids or workers, and never fails)."""
        started = time.monotonic()
        objectives = self.evaluate_many(ws)
        return objectives, np.full(len(objectives), (time.monotonic() - started) / len(objectives)), {}

    def close(self) -> None:
        """Nothing to release: the closed form runs in-process."""


def count_exceedances(evaluator, critical_value: float, n: int, rng: np.random.Generator, batch: int) -> tuple[int, int]:
    """Exceedances of ``critical_value`` and failures among ``evaluator``'s objectives at n uniform draws.

    The draws are the rows of ``rng.random((n, d))``, drawn ``batch`` rows at a
    time into one reused buffer, denormalized there in place and evaluated in
    ``_MC_SLICE``-row slices as requests 0 to n - 1, so no slice's temporaries
    grow with n. The rows, their order and their values do not depend on
    ``batch``, so neither do a deterministic evaluator's counts.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    space = evaluator.space
    buffer = np.empty((min(batch, n), space.dim))
    exceed = failed = 0
    for start in range(0, n, batch):
        ws = buffer[: n - start]
        space.denormalize_many(rng.random(out=ws), out=ws)
        for row in range(0, len(ws), _MC_SLICE):
            part = ws[row : row + _MC_SLICE]
            objectives, _, reasons = _run_checked(evaluator, range(start + row, start + row + len(part)), part)
            exceed += int(np.count_nonzero(objectives > critical_value))  # NaN, a failed row, exceeds nothing
            failed += len(reasons)
    return exceed, failed


def oracle_probability(objective: SyntheticObjective, critical_value: float, n: int, rng: np.random.Generator,
                       batch: int = MC_BATCH) -> tuple[float, float]:
    """Brute-force exceedance fraction over ``count_exceedances``' n draws, with its standard error."""
    exceed, _ = count_exceedances(objective, critical_value, n, rng, batch)
    p = exceed / n
    return p, math.sqrt(stratified_variance([1.0], [p], [n]))  # naive MC: one stratum


class ExternalEvaluator:
    """Keep one running command per slot and exchange JSON lines with all of them from one thread.

    ``parallelism`` slots, each with one child that gets ``run_dir`` (if any) in its
    environment and, when it has none in flight, the batch's next waiting row. A
    slot's child serves every ``run_batch`` until ``close`` (or, for an evaluator
    dropped unclosed, a finalizer); a request that kills or fails it replaces it. An
    exception that escapes ``run_batch``, Ctrl-C included, kills every child at once.
    """

    def __init__(
        self,
        command: Sequence[str],
        timeout: float = DEFAULT_TIMEOUT,
        space: ParameterSpace = DEFAULT_SPACE,
        parallelism: int = 1,
        run_dir: Optional[os.PathLike | str] = None,
    ):
        if not command:
            raise ConfigError("external evaluator needs a non-empty command")
        if not timeout > 0:
            raise ConfigError(f"evaluator timeout must be positive, got {timeout!r}")
        if parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1, got {parallelism}")
        self.command = list(command)
        self.timeout = float(timeout)
        self.space = space
        self.parallelism = parallelism
        self.run_dir = None if run_dir is None else str(run_dir)
        self._children: dict = {}  # slot -> (child, its stderr file)
        weakref.finalize(self, _end_children, self._children)

    def close(self) -> None:
        """End every slot's child: EOF on its stdin, 5 s to exit, then a kill."""
        _end_children(self._children)

    def _spawn(self, stderr: BinaryIO) -> subprocess.Popen:
        env = None if self.run_dir is None else {**os.environ, RUN_DIR_ENV: self.run_dir}
        return subprocess.Popen(self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr, env=env)

    def run_batch(self, ids: Sequence[int], ws: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
        """One queue of rows: on each pass, every slot with no request in flight takes the next waiting row."""
        objectives, seconds, reasons = np.full(len(ids), np.nan), np.full(len(ids), np.nan), {}
        waiting = 0  # rows before it have been sent
        flight: dict = {}  # slot -> (row, its start time, reply bytes so far)
        try:
            while waiting < len(ids) or flight:
                for slot in range(self.parallelism):
                    if waiting < len(ids) and slot not in flight:  # one per pass: a child that cannot start fails one
                        row, started = waiting, time.monotonic()
                        waiting += 1
                        try:
                            self._write(slot, int(ids[row]), ws[row])
                            flight[slot] = (row, started, bytearray())
                        except _REQUEST_ERRORS as exc:
                            reasons[row] = self._fail(slot, exc)
                if not flight:
                    continue
                fds = {self._children[slot][0].stdout.fileno(): slot for slot in flight}
                earliest = min(started for _, started, _ in flight.values())
                wait = min(_MAX_WAIT, max(0.0, earliest + self.timeout - time.monotonic()))
                ready = _ready(fds, wait)
                for fd, slot in fds.items():
                    row, started, buf = flight.pop(slot)
                    try:
                        if fd in ready:
                            chunk = os.read(fd, 65536)
                            if not chunk:
                                raise EOFError("evaluator closed its output stream")
                            buf.extend(chunk)
                        if b"\n" in buf:
                            objectives[row] = self._parse_reply(bytes(buf), int(ids[row]))
                            seconds[row] = time.monotonic() - started
                        elif time.monotonic() >= started + self.timeout:
                            raise TimeoutError("evaluator did not reply before the timeout")
                        else:
                            flight[slot] = (row, started, buf)
                    except _REQUEST_ERRORS as exc:
                        reasons[row] = self._fail(slot, exc)
            return objectives, seconds, reasons
        except BaseException:  # children in an unknown state are not kept
            for proc, _ in self._children.values():
                proc.kill()
            _end_children(self._children)
            raise

    def _write(self, slot: int, rid: int, params: np.ndarray) -> None:
        """Send request ``rid`` for the point ``params`` to the slot's child, first replacing a missing or dead one."""
        if slot in self._children and self._children[slot][0].poll() is not None:
            _end_children({slot: self._children.pop(slot)})
        if slot not in self._children:
            stderr = tempfile.TemporaryFile()  # each child's own, unnamed
            try:
                self._children[slot] = (self._spawn(stderr), stderr)
            except BaseException:
                stderr.close()
                raise
        payload = {"id": rid, "params": {name: float(v) for name, v in zip(self.space.names, params)}}
        stdin = self._children[slot][0].stdin
        stdin.write((json.dumps(payload) + "\n").encode("utf-8"))
        stdin.flush()

    @staticmethod
    def _parse_reply(data: bytes, rid: int) -> float:
        """The objective of the reply to request ``rid``: one line holding a JSON object with that id."""
        line, _, rest = data.partition(b"\n")
        if rest:
            raise IOError("evaluator sent more than one reply line at once")
        reply = json.loads(line.decode("utf-8"))
        if not isinstance(reply, dict):
            raise IOError(f"reply {reply!r} is not a JSON object")
        if type(reply.get("id")) is not int or reply["id"] != rid:
            raise IOError(f"reply id {reply.get('id')!r} does not match request id {rid}")
        objective = reply.get("objective")
        if type(objective) not in (int, float) or not np.isfinite(float(objective)):
            raise IOError(f"objective {objective!r} is not a finite JSON number")
        return float(objective)

    def _fail(self, slot: int, exc: Exception) -> str:
        """The reason a request failed; the slot's child is killed, and the tail of its stderr ends the reason."""
        reason = f"{type(exc).__name__}: {exc}"
        if slot in self._children:
            proc, stderr = self._children.pop(slot)
            proc.kill()
            proc.wait()
            stderr.seek(max(0, stderr.seek(0, os.SEEK_END) - 2048))  # the last 2 KiB it wrote
            tail = stderr.read().decode("utf-8", errors="replace").strip()
            reason += f"; solver stderr: {tail}" if tail else ""
            _end_children({slot: (proc, stderr)})
        return reason


def _end_children(children: dict) -> None:
    """Empty ``children``: EOF on each child's stdin, 5 s to exit, then a kill; close its pipes and stderr file."""
    ended = [children.pop(slot) for slot in list(children)]
    for proc, _ in ended:
        try:
            proc.stdin.close()
        except BrokenPipeError:  # bytes left unflushed to a child that is gone
            pass
    for proc, stderr in ended:
        try:
            _wait(proc, 5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        stderr.close()


def _wait(proc: subprocess.Popen, timeout: float) -> None:
    """``proc.wait(timeout)``, woken by the exit (a Linux pidfd): Popen's doubling poll sees a 16 ms exit at 31 ms."""
    try:
        fd = os.pidfd_open(proc.pid) if proc.poll() is None else None  # unreaped: the pid is still its own
    except (AttributeError, OSError):  # no pidfds on this system
        fd = None
    if fd is not None:
        try:
            if not _ready([fd], timeout):
                raise subprocess.TimeoutExpired(proc.args, timeout)
        finally:
            os.close(fd)
    proc.wait(timeout=timeout)


def _ready(fds, timeout: float) -> set:
    """The ``fds`` with data, EOF or an error to read within ``timeout`` seconds (``poll``, unlike
    ``select``, takes fd numbers of 1024 and above)."""
    poller = select.poll()
    for fd in fds:
        poller.register(fd, select.POLLIN)
    return {fd for fd, _ in poller.poll(timeout * 1000.0)}


def _run_checked(evaluator, ids: Sequence[int], ws: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """``evaluator.run_batch(ids, ws)``, refused unless every row came back as exactly one objective or one failure."""
    objectives, seconds, reasons = evaluator.run_batch(ids, ws)
    failed = np.flatnonzero(np.isnan(objectives)).tolist()
    if not len(objectives) == len(seconds) == len(ids) or sorted(reasons) != failed:
        raise ConfigError("evaluator protocol violation: a row did not come back as one objective or one failure")
    return objectives, seconds, reasons


def evaluate_batch(evaluator, ids: Sequence[int], ws: np.ndarray) -> BatchOutcome:
    """Evaluate the rows of ``ws`` as requests ``ids``, checked by ``_run_checked``.

    Results and failures carry their request ids and come back in row order,
    so the outcome is independent of parallelism and reply order for any
    deterministic evaluator.
    """
    if len(ids) == 0:
        return BatchOutcome(results=[], failures=[])
    objectives, seconds, reasons = _run_checked(evaluator, ids, ws)
    rows = range(len(ids))
    return BatchOutcome(
        results=[EvaluationResult(int(ids[r]), float(objectives[r]), float(seconds[r])) for r in rows if r not in reasons],
        failures=[EvaluationFailure(int(ids[r]), reasons[r]) for r in rows if r in reasons],
    )
