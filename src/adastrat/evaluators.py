"""Expensive-objective stand-ins and the external-process evaluation protocol.

The synthetic objectives replace the real simulation pipeline with closed
forms on the default 6-D box, cheap enough for brute-force ground truth yet
shaped to leave a linear surrogate a genuine residual. The external
evaluator wraps any command that speaks the line protocol: one JSON object
``{"id": ..., "params": {name: value, ...}}`` per request on stdin, one
``{"id": ..., "objective": ...}`` per reply on stdout.
"""
from __future__ import annotations

import json
import os
import select
import subprocess
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .space import DEFAULT_SPACE, ParameterSpace

RUN_DIR_ENV = "ADASTRAT_RUN_DIR"

SYNTHETIC_KINDS = ("quadratic", "linear")


@dataclass(frozen=True)
class EvaluationRequest:
    id: int
    params: np.ndarray


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
    """Successful results plus collectively-reported failures, both sorted by id."""

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

    def run_batch(
        self,
        requests: Sequence[EvaluationRequest],
        parallelism: int,
        run_dir: Optional[str],
    ) -> tuple[list[EvaluationResult], list[EvaluationFailure]]:
        """One vectorised call for all requests; a closed form needs no workers and never fails."""
        started = time.monotonic()
        values = self.evaluate_many(np.vstack([r.params for r in requests]))
        elapsed = (time.monotonic() - started) / len(requests)
        results = [
            EvaluationResult(id=r.id, objective=float(v), wall_time=elapsed)
            for r, v in zip(requests, values)
        ]
        return results, []


def oracle_probability(
    objective: SyntheticObjective,
    critical_value: float,
    n: int,
    rng: np.random.Generator,
    batch: int = 1 << 20,
) -> tuple[float, float]:
    """Brute-force exceedance fraction over n uniform draws, with its standard error."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    space = objective.space
    exceed = 0
    remaining = n
    while remaining > 0:
        m = min(batch, remaining)
        ws = space.denormalize_many(rng.random((m, space.dim)))
        exceed += int((objective.evaluate_many(ws) > critical_value).sum())
        remaining -= m
    p = exceed / n
    return p, float(np.sqrt(p * (1.0 - p) / n))


class ExternalEvaluator:
    """Run an external command per worker and exchange JSON lines with it."""

    def __init__(
        self,
        command: Sequence[str],
        timeout: float = 3600.0,
        space: ParameterSpace = DEFAULT_SPACE,
    ):
        if not command:
            raise ConfigError("external evaluator needs a non-empty command")
        if not timeout > 0:
            raise ConfigError(f"evaluator timeout must be positive, got {timeout!r}")
        self.command = list(command)
        self.timeout = float(timeout)
        self.space = space

    def _spawn(self, run_dir: Optional[str]) -> subprocess.Popen:
        env = dict(os.environ)
        if run_dir is not None:
            env[RUN_DIR_ENV] = str(run_dir)
        return subprocess.Popen(
            self.command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )

    def _read_reply(self, proc: subprocess.Popen, deadline: float) -> bytes:
        buf = bytearray()
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("evaluator did not reply before the timeout")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                raise TimeoutError("evaluator did not reply before the timeout")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise EOFError("evaluator closed its output stream")
            buf.extend(chunk)
            if b"\n" in buf:
                line, _, rest = bytes(buf).partition(b"\n")
                if rest:
                    raise IOError("evaluator sent more than one reply line at once")
                return line

    def run_batch(
        self,
        requests: Sequence[EvaluationRequest],
        parallelism: int,
        run_dir: Optional[str],
    ) -> tuple[list[EvaluationResult], list[EvaluationFailure]]:
        """Deal the requests round-robin onto ``parallelism`` workers, one child each."""
        chunks = [list(requests[k::parallelism]) for k in range(parallelism)]
        if parallelism == 1:
            out = [self.run_chunk(chunks[0], run_dir)]
        else:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=parallelism) as pool:
                out = list(pool.map(lambda c: self.run_chunk(c, run_dir), chunks))
        results = [r for res, _ in out for r in res]
        failures = [f for _, fail in out for f in fail]
        return results, failures

    def run_chunk(
        self,
        requests: Sequence[EvaluationRequest],
        run_dir: Optional[str],
    ) -> tuple[list[EvaluationResult], list[EvaluationFailure]]:
        """Feed one worker's requests through a (restartable) child process."""
        results: list[EvaluationResult] = []
        failures: list[EvaluationFailure] = []
        names = self.space.names
        proc: Optional[subprocess.Popen] = None
        try:
            for req in requests:
                started = time.monotonic()
                try:
                    if proc is None or proc.poll() is not None:
                        proc = self._spawn(run_dir)
                    payload = {
                        "id": int(req.id),
                        "params": {name: float(v) for name, v in zip(names, req.params)},
                    }
                    proc.stdin.write((json.dumps(payload) + "\n").encode("utf-8"))
                    proc.stdin.flush()
                    line = self._read_reply(proc, started + self.timeout)
                    reply = json.loads(line.decode("utf-8"))
                    if reply.get("id") != req.id:
                        raise IOError(f"reply id {reply.get('id')!r} does not match request id {req.id}")
                    objective = float(reply["objective"])
                    if not np.isfinite(objective):
                        raise IOError(f"non-finite objective {objective!r}")
                    results.append(
                        EvaluationResult(
                            id=req.id,
                            objective=objective,
                            wall_time=time.monotonic() - started,
                        )
                    )
                except (TimeoutError, EOFError, IOError, OSError, ValueError, KeyError) as exc:
                    failures.append(EvaluationFailure(id=req.id, reason=f"{type(exc).__name__}: {exc}"))
                    if proc is not None:
                        proc.kill()
                        proc.wait()
                        proc = None
        finally:
            if proc is not None:
                if proc.stdin:
                    proc.stdin.close()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        return results, failures


def evaluate_batch(
    evaluator,
    requests: Sequence[EvaluationRequest],
    parallelism: int = 1,
    run_dir: Optional[str] = None,
) -> BatchOutcome:
    """Evaluate a batch of requests through the evaluator's ``run_batch``.

    Every request must come back as exactly one result or one failure.
    Results carry their request ids and come back sorted by id, so the
    outcome is independent of worker count and scheduling for any
    deterministic evaluator.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    if not requests:
        return BatchOutcome(results=[], failures=[])
    results, failures = evaluator.run_batch(requests, parallelism, run_dir)
    seen = [r.id for r in results] + [f.id for f in failures]
    if sorted(seen) != sorted(r.id for r in requests):
        raise ConfigError("evaluator protocol violation: request and reply ids do not match up")
    return BatchOutcome(
        results=sorted(results, key=lambda r: r.id),
        failures=sorted(failures, key=lambda f: f.id),
    )
