import gc
import itertools
import os
import resource
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

from adastrat.errors import ConfigError
from adastrat.evaluators import (
    ExternalEvaluator,
    SyntheticObjective,
    _wait,
    evaluate_batch,
    oracle_probability,
)
from adastrat.rng import substream
from adastrat.space import DEFAULT_SPACE, sample_uniform

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def corner(low=True):
    lows = DEFAULT_SPACE.lows()
    return lows if low else lows + DEFAULT_SPACE.spans()


def test_quadratic_closed_form_corners():
    obj = SyntheticObjective(kind="quadratic", noise_scale=0.0)
    low, high = obj.evaluate_many(np.vstack([corner(), corner(low=False)]))
    assert low == pytest.approx(0.12, abs=1e-15)
    assert high == pytest.approx(0.96, abs=1e-12)


def test_linear_variant_drops_interaction_terms():
    obj = SyntheticObjective(kind="linear", noise_scale=0.0)
    assert obj.evaluate_many(corner(low=False))[0] == pytest.approx(0.96 - 0.15, abs=1e-12)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        SyntheticObjective(kind="cubic")
    with pytest.raises(ConfigError):
        SyntheticObjective(noise_scale=-0.1)


def test_out_of_box_input_rejected():
    obj = SyntheticObjective()
    w = corner()
    w[0] -= 1.0
    with pytest.raises(ValueError, match="aspect_ratio"):
        obj.evaluate_many(w)


def test_noise_is_bounded_deterministic_and_seed_keyed():
    ws = sample_uniform(DEFAULT_SPACE, substream(1, "noise"), 500)
    base = SyntheticObjective(noise_scale=0.0).evaluate_many(ws)
    noisy = SyntheticObjective(noise_scale=0.05, seed=3).evaluate_many(ws)
    again = SyntheticObjective(noise_scale=0.05, seed=3).evaluate_many(ws)
    other = SyntheticObjective(noise_scale=0.05, seed=4).evaluate_many(ws)
    np.testing.assert_array_equal(noisy, again)
    assert np.abs(noisy - base).max() <= 0.05 + 1e-15
    assert (noisy != other).any()
    # the batch interface and the vector closed form agree exactly
    out = evaluate_batch(SyntheticObjective(noise_scale=0.05, seed=3), range(len(ws)), ws)
    assert [r.objective for r in out.results] == noisy.tolist()


def test_oracle_probability_extreme_critical_values():
    obj = SyntheticObjective(noise_scale=0.0)
    rng = substream(2, "oracle")
    p_low, se_low = oracle_probability(obj, 0.0, 5_000, rng)
    assert p_low == 1.0 and se_low == 0.0
    p_high, _ = oracle_probability(obj, 2.0, 5_000, substream(2, "oracle"))
    assert p_high == 0.0


# (n, batch): n below, at and past one batch; n a multiple of neither the batch nor
# the 4,096-row slice; batches below, at and past one slice; one row per batch
ORACLE_SHAPES = [(100, 1 << 16), (8_192, 8_192), (12_345, 5_000), (20_000, 1 << 16), (9_999, 4_096), (257, 1)]


@pytest.mark.parametrize("noise", [0.0, 0.025], ids=["noise-free", "noisy"])
@pytest.mark.parametrize("n, batch", ORACLE_SHAPES)
def test_oracle_streams_the_one_shot_count(n, batch, noise):
    obj = SyntheticObjective(noise_scale=noise, seed=3)
    reference = substream(4, "stream").random((n, DEFAULT_SPACE.dim))
    exceed = int((obj.evaluate_many(DEFAULT_SPACE.denormalize_many(reference)) > 0.6).sum())
    assert 0 < exceed < n
    assert oracle_probability(obj, 0.6, n, substream(4, "stream"), batch=batch)[0] == exceed / n


@pytest.mark.parametrize("batch", [0, -1])
def test_oracle_refuses_a_batch_below_one(batch):
    with pytest.raises(ValueError, match=f"batch must be >= 1, got {batch}"):
        oracle_probability(SyntheticObjective(), 0.6, 10, substream(4, "stream"), batch=batch)


def test_oracle_holds_one_buffer():
    buffer = (1 << 16) * DEFAULT_SPACE.dim * 8  # 3 MiB of draws
    tracemalloc.start()
    try:
        oracle_probability(SyntheticObjective(noise_scale=0.025), 0.6, 1 << 18, substream(4, "stream"), batch=1 << 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * buffer


def test_oracle_reproduces_the_frozen_calibration_truth(calibration):
    spec = calibration["evaluator"]
    obj = SyntheticObjective(kind=spec["kind"], noise_scale=spec["noise_scale"], seed=spec["seed"])
    rng = substream(calibration["oracle_seed"], calibration["oracle_stream"])
    p, se = oracle_probability(obj, calibration["critical_value"], calibration["oracle_draws"], rng)
    assert (p, se) == (calibration["oracle_truth"], calibration["oracle_standard_error"])


def test_evaluate_batch_empty_and_parallel_determinism():
    obj = SyntheticObjective(noise_scale=0.02, seed=1)
    assert evaluate_batch(obj, [], np.empty((0, DEFAULT_SPACE.dim))).results == []
    ws = sample_uniform(DEFAULT_SPACE, substream(3, "batch"), 10)
    ids = np.arange(10)
    forward = evaluate_batch(obj, ids, ws)
    backward = evaluate_batch(obj, ids[::-1], ws[::-1])
    assert [r.objective for r in forward.results] == [r.objective for r in backward.results][::-1]
    assert [r.id for r in backward.results] == list(range(9, -1, -1))  # row order, not id order


class _Replies:
    """An evaluator whose ``run_batch`` returns fixed objectives and failure reasons."""

    space = DEFAULT_SPACE

    def __init__(self, objectives, reasons):
        self.objectives, self.reasons = np.array(objectives, dtype=float), reasons

    def run_batch(self, ids, ws):
        return self.objectives, np.zeros(len(self.objectives)), self.reasons


@pytest.mark.parametrize("objectives, reasons", [
    ([0.1, np.nan], {}),  # a failed row without a reason
    ([0.1, 0.2], {1: "crashed"}),  # a reason for a row with an objective
    ([0.1], {}),  # a row missing
])
def test_evaluate_batch_refuses_a_row_without_exactly_one_objective_or_failure(objectives, reasons):
    ws = sample_uniform(DEFAULT_SPACE, substream(3, "protocol"), 2)
    with pytest.raises(ConfigError, match="protocol violation"):
        evaluate_batch(_Replies(objectives, reasons), [5, 6], ws)
    out = evaluate_batch(_Replies([np.nan, 0.2], {0: "crashed"}), [5, 6], ws)
    assert [(f.id, f.reason) for f in out.failures] == [(5, "crashed")]
    assert [(r.id, r.objective) for r in out.results] == [(6, 0.2)]


def _external(mode=None, timeout=20.0, parallelism=1):
    cmd = [sys.executable, str(FIXTURES / "flaky_evaluator.py")]
    if mode:
        cmd.append(mode)
    return closing(ExternalEvaluator(command=cmd, timeout=timeout, parallelism=parallelism))


def _requests(n, key):
    """Request ids 0 to n - 1 and their points."""
    return np.arange(n), sample_uniform(DEFAULT_SPACE, substream(10, key), n)


def test_external_echo_script_matches_direct_computation():
    # the script replies with the plain sum of the parameter values
    ws = sample_uniform(DEFAULT_SPACE, substream(4, "echo"), 12)
    with _external("none", parallelism=3) as evaluator:
        out = evaluate_batch(evaluator, range(len(ws)), ws)
    assert not out.failures
    got = np.array([r.objective for r in out.results])
    np.testing.assert_allclose(got, ws.sum(axis=1), rtol=0, atol=1e-12)


def test_external_multiset_independent_of_parallelism():
    ws = sample_uniform(DEFAULT_SPACE, substream(5, "multi"), 9)
    with _external("none") as evaluator:
        seq = evaluate_batch(evaluator, range(len(ws)), ws)
    with _external("none", parallelism=4) as evaluator:
        par = evaluate_batch(evaluator, range(len(ws)), ws)
    assert [(r.id, r.objective) for r in seq.results] == [(r.id, r.objective) for r in par.results]


def test_external_garbage_replies_fail_only_their_requests():
    ws = sample_uniform(DEFAULT_SPACE, substream(6, "garbage"), 9)
    for parallelism in (1, 2):
        with _external("garbage", parallelism=parallelism) as evaluator:
            out = evaluate_batch(evaluator, range(len(ws)), ws)
        assert sorted(f.id for f in out.failures) == [0, 3, 6]
        assert sorted(r.id for r in out.results) == [1, 2, 4, 5, 7, 8]


def test_external_crash_restarts_and_continues():
    ws = sample_uniform(DEFAULT_SPACE, substream(7, "crash"), 6)
    with _external("crash") as evaluator:
        out = evaluate_batch(evaluator, range(len(ws)), ws)
    assert len(out.failures) >= 1
    assert len(out.results) + len(out.failures) == 6


def test_external_failure_reason_carries_the_stderr_tail():
    ws = sample_uniform(DEFAULT_SPACE, substream(7, "stderr"), 4)
    with _external("stderr") as evaluator:
        out = evaluate_batch(evaluator, range(len(ws)), ws)
    # each child answers one request and dies on the next: requests 1 and 3 fail
    assert [f.id for f in out.failures] == [1, 3]
    for f in out.failures:
        head, _, tail = f.reason.partition("; solver stderr: ")
        assert head == "EOFError: evaluator closed its output stream"
        assert tail.endswith(f"solver died on request {f.id}")
        assert len(tail.encode()) <= 2048 and tail.startswith("x")
    # a child that wrote nothing to stderr adds nothing
    with _external("garbage") as evaluator:
        out = evaluate_batch(evaluator, range(1), ws[:1])
    assert out.failures[0].reason == "JSONDecodeError: Expecting value: line 1 column 1 (char 0)"


def test_external_timeout_reported_per_request():
    ws = sample_uniform(DEFAULT_SPACE, substream(8, "hang"), 3)
    for parallelism in (1, 2):
        with _external("hang", timeout=1.0, parallelism=parallelism) as evaluator:
            started = time.monotonic()
            out = evaluate_batch(evaluator, range(len(ws)), ws)
            elapsed = time.monotonic() - started
        assert sorted(f.id for f in out.failures) == [0, 2]
        assert "Timeout" in out.failures[0].reason
        assert [r.id for r in out.results] == [1]
        if parallelism == 2:  # the child that answered 1 takes 2: the two hangs time out together
            assert elapsed < 1.5


def test_external_timeout_past_the_longest_select_wait_serves_a_batch():
    # 1e10 s is past what one poll call accepts (2**31 ms)
    with _external("none", timeout=1e10, parallelism=2) as evaluator:
        out = evaluate_batch(evaluator, *_requests(4, "long"))
    assert not out.failures
    assert [r.id for r in out.results] == [0, 1, 2, 3]


def test_external_reply_nested_too_deeply_fails_only_its_request(tmp_path, spawned):
    # json.loads raises RecursionError on this reply to id 1
    solver = tmp_path / "deep.py"
    solver.write_text("import json, sys\n"
                      "for line in sys.stdin:\n"
                      "    rid = json.loads(line)['id']\n"
                      "    print('[' * 100000 if rid == 1 else json.dumps({'id': rid, 'objective': rid}), flush=True)\n")
    with closing(ExternalEvaluator(command=[sys.executable, str(solver)])) as evaluator:
        out = evaluate_batch(evaluator, *_requests(4, "deep"))
    assert [f.id for f in out.failures] == [1]
    assert out.failures[0].reason.startswith("RecursionError: ")
    assert [r.id for r in out.results] == [0, 2, 3]
    assert len(spawned) == 2  # ids 2 and 3 went to a restarted child


def test_external_children_are_served_past_fd_1024():
    # fill the fd table past 1100, so every pipe of the children lies above select's limit of 1024
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < 2048:
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(2048, hard), hard))
    pipes = []
    try:
        while not pipes or pipes[-1][1] < 1100:
            pipes.append(os.pipe())
        command = [sys.executable, str(FIXTURES / "external_objective.py")]
        with closing(ExternalEvaluator(command=command, parallelism=2)) as evaluator:
            out = evaluate_batch(evaluator, *_requests(4, "fds"))
        assert not out.failures and [r.id for r in out.results] == [0, 1, 2, 3]
    finally:
        for fd in itertools.chain.from_iterable(pipes):
            os.close(fd)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


def test_external_wrong_id_detected():
    ws = sample_uniform(DEFAULT_SPACE, substream(9, "wrong"), 6)
    for parallelism in (1, 2):
        with _external("wrong-id", parallelism=parallelism) as evaluator:
            out = evaluate_batch(evaluator, range(len(ws)), ws)
        assert sorted(f.id for f in out.failures) == [0, 5]


@pytest.mark.parametrize("mode, bad", [
    ("null-objective", [0, 3, 6, 9]),
    ("non-object", [0, 3, 6, 9]),
    ("bad-types", [1, 4, 7, 10]),  # id true, objective "…", […] and true
])
def test_external_malformed_replies_fail_only_their_requests(mode, bad):
    ids, ws = _requests(12, mode)
    for parallelism in (1, 2):
        with _external(mode, parallelism=parallelism) as evaluator:
            out = evaluate_batch(evaluator, ids, ws)
        assert [f.id for f in out.failures] == bad
        assert [r.id for r in out.results] == [i for i in range(12) if i not in bad]
        assert all(f.reason.startswith("OSError: ") for f in out.failures)


def test_external_children_serve_every_batch(spawned):
    ids, ws = _requests(10, "batches")
    with _external("none", parallelism=2) as evaluator:
        first = evaluate_batch(evaluator, ids[:5], ws[:5])
        second = evaluate_batch(evaluator, ids[5:], ws[5:])
        assert len(spawned) == 2 and all(p.poll() is None for p in spawned)
    assert not first.failures and not second.failures
    assert [r.id for r in first.results + second.results] == list(range(10))
    assert all(p.poll() is not None for p in spawned)  # close ended them


def test_external_dead_child_is_replaced_before_the_next_batch(spawned):
    ids, ws = _requests(8, "replaced")
    with _external("none", parallelism=2) as evaluator:
        evaluate_batch(evaluator, ids[:4], ws[:4])
        spawned[0].kill()
        spawned[0].wait(timeout=10)
        out = evaluate_batch(evaluator, ids[4:], ws[4:])
    assert not out.failures and [r.id for r in out.results] == [4, 5, 6, 7]
    assert len(spawned) == 3


def test_external_child_is_killed_when_an_exception_escapes(spawned, monkeypatch):
    ids, ws = _requests(4, "escape")

    def interrupted(*args):
        raise KeyboardInterrupt

    for parallelism in (1, 2):
        spawned.clear()
        with _external("none", parallelism=parallelism) as evaluator:
            evaluate_batch(evaluator, ids[:2], ws[:2])
            with monkeypatch.context() as m:
                m.setattr(ExternalEvaluator, "_parse_reply", interrupted)
                with pytest.raises(KeyboardInterrupt):
                    evaluate_batch(evaluator, ids[2:3], ws[2:3])
            assert spawned[0].poll() is not None
            out = evaluate_batch(evaluator, ids[3:], ws[3:])
        # the slots' children ended together; the last request started one more
        assert not out.failures and len(spawned) == parallelism + 1


def test_external_interrupt_ends_every_child_at_once(spawned):
    ids, ws = _requests(8, "interrupt")
    ctrl_c = threading.Timer(0.5, signal.pthread_kill, (threading.main_thread().ident, signal.SIGINT))
    # the hang fixture never answers an even id: two per child, each 5 s until its timeout
    with _external("hang", timeout=5.0, parallelism=2) as evaluator:
        started = time.monotonic()
        ctrl_c.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                evaluate_batch(evaluator, ids[0::2], ws[0::2])
        finally:
            ctrl_c.cancel()
        assert time.monotonic() - started < 2.0
        assert len(spawned) == 2 and all(p.poll() is not None for p in spawned)
        out = evaluate_batch(evaluator, ids[1::2], ws[1::2])
    assert not out.failures and [r.id for r in out.results] == [1, 3, 5, 7]


def test_external_children_of_a_dropped_evaluator_are_ended(spawned):
    evaluator = ExternalEvaluator(command=[sys.executable, str(FIXTURES / "flaky_evaluator.py"), "none"],
                                  parallelism=2)
    evaluate_batch(evaluator, *_requests(4, "dropped"))
    assert all(p.poll() is None for p in spawned)
    del evaluator
    gc.collect()
    assert len(spawned) == 2 and all(p.poll() is not None for p in spawned)


def test_child_exit_wait_returns_on_exit_and_gives_up_at_its_timeout(monkeypatch):
    # with a pidfd (Linux) and with Popen's own poll, where there is none
    for pidfd in (True, False):
        if not pidfd:
            monkeypatch.delattr(os, "pidfd_open", raising=False)
        quick = subprocess.Popen([sys.executable, "-c", "raise SystemExit(7)"])
        _wait(quick, 30.0)
        assert quick.returncode == 7
        stuck = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            started = time.monotonic()
            with pytest.raises(subprocess.TimeoutExpired):
                _wait(stuck, 0.3)
            assert 0.3 <= time.monotonic() - started < 2.0 and stuck.poll() is None
        finally:
            stuck.kill()
            stuck.wait()


def test_external_children_get_the_run_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("ADASTRAT_RUN_DIR", raising=False)
    # the solver replies with the length of the run dir it was given
    reply = ("import json, os, sys\n"
             "for line in sys.stdin:\n"
             "    rid = json.loads(line)['id']\n"
             "    print(json.dumps({'id': rid, 'objective': len(os.environ.get('ADASTRAT_RUN_DIR', ''))}), flush=True)")
    for run_dir, expected in ((str(tmp_path), len(str(tmp_path))), (None, 0)):
        with closing(ExternalEvaluator(command=[sys.executable, "-c", reply], parallelism=2, run_dir=run_dir)) as ev:
            out = evaluate_batch(ev, *_requests(4, "run-dir"))
        assert [r.objective for r in out.results] == [expected] * 4


def test_external_missing_command_fails_each_request():
    with closing(ExternalEvaluator(command=[str(FIXTURES / "no-such-solver")], parallelism=2)) as evaluator:
        out = evaluate_batch(evaluator, *_requests(3, "missing"))
    assert not out.results and [f.id for f in out.failures] == [0, 1, 2]
    assert all(f.reason.startswith("FileNotFoundError: ") for f in out.failures)
    gc.collect()  # a stderr file left open warns here, and the warning fails the test


def test_external_evaluator_refuses_parallelism_below_one():
    for parallelism in (0, -1):
        with pytest.raises(ConfigError, match="parallelism"):
            ExternalEvaluator(command=["true"], parallelism=parallelism)
