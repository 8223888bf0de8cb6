"""The pool executor: dispatch, persistence, worker resolution,
fallback.

The byte-identity of *real* sharded work is pinned elsewhere: source-view
renders in ``tests/models/test_render_sharded.py`` and
``tests/models/test_render_faults.py``, serve dispatches in
``tests/core/test_serve.py``.  This suite covers the pool machinery
itself with cheap picklable functions.
"""

import concurrent.futures
import logging

import pytest

from repro.core import faults, frame_pool, log
from repro.core.faults import FaultPlan, FaultSpec, injected_faults


# Module-level so process pools can pickle them.
def _scaled(payload, value):
    scale, = payload
    return scale * value


def _pair(payload, start, stop):
    return (payload[0], start, stop)


def _chunk_boom(payload, value):
    raise RuntimeError("chunk failure")


def _chunk_oserror(payload, value):
    raise FileNotFoundError("missing chunk input")


def _slow_identity(payload, value, delay):
    import time

    time.sleep(delay)
    return value


def _touch_or_fail(payload, value):
    # Append one line per execution of a healthy chunk; the chunk with
    # value < 0 fails with its own OSError.
    marker, = payload
    if value < 0:
        raise FileNotFoundError("missing chunk input")
    with open(marker, "a") as handle:
        handle.write(f"{value}\n")
    return value


def _raise_timeout(payload, value):
    raise TimeoutError("the chunk's own timeout")


def _run_scaled(scale, values, **kwargs):
    """``scale * value`` per task through :func:`map_chunks`."""
    return frame_pool.map_chunks(_scaled, (scale,),
                                 [(value,) for value in values], **kwargs)


@pytest.fixture(autouse=True)
def clean_pool():
    """Every test starts and ends without a live persistent pool."""
    frame_pool.shutdown_pool()
    yield
    frame_pool.shutdown_pool()


class TestMapChunks:
    def test_sequential_and_parallel_agree(self):
        payload = (3,)
        tasks = [(value,) for value in range(7)]
        sequential = frame_pool.map_chunks(_scaled, payload, tasks,
                                           workers=1)
        parallel = frame_pool.map_chunks(_scaled, payload, tasks,
                                         workers=3)
        assert sequential == [0, 3, 6, 9, 12, 15, 18]
        assert parallel == sequential

    def test_results_in_task_order_with_multi_arg_tasks(self):
        payload = ("tag",)
        tasks = [(i, i + 10) for i in range(5)]
        results = frame_pool.map_chunks(_pair, payload, tasks, workers=2)
        assert results == [("tag", i, i + 10) for i in range(5)]

    def test_single_task_stays_in_process(self, monkeypatch):
        def bomb(*args, **kwargs):
            raise AssertionError("pool constructed for a single task")

        monkeypatch.setattr(frame_pool.concurrent.futures,
                            "ProcessPoolExecutor", bomb)
        assert frame_pool.map_chunks(_scaled, (2,), [(21,)],
                                     workers=8) == [42]

    def test_workers_one_stays_in_process(self, monkeypatch):
        def bomb(*args, **kwargs):
            raise AssertionError("pool constructed at workers=1")

        monkeypatch.setattr(frame_pool.concurrent.futures,
                            "ProcessPoolExecutor", bomb)
        assert frame_pool.map_chunks(_scaled, (2,), [(1,), (2,)],
                                     workers=1) == [2, 4]

    def test_chunk_exceptions_propagate_sequential_and_parallel(self):
        with pytest.raises(RuntimeError, match="chunk failure"):
            frame_pool.map_chunks(_chunk_boom, (0,), [(1,)], workers=1)
        with pytest.raises(RuntimeError, match="chunk failure"):
            frame_pool.map_chunks(_chunk_boom, (0,), [(1,), (2,)],
                                  workers=2)

    def test_chunk_oserror_propagates_from_parallel_path(self):
        # An OSError raised *by the chunk function* is the chunk's own
        # failure — it must not trigger the sequential fallback (which
        # would re-run every chunk).
        with pytest.raises(FileNotFoundError, match="missing chunk"):
            frame_pool.map_chunks(_chunk_oserror, (0,), [(1,), (2,)],
                                  workers=2)

    def test_result_order_is_task_order_not_completion_order(self):
        # The first chunk finishes last; results must still come back in
        # submission order.
        tasks = [(0, 0.4), (1, 0.0), (2, 0.0)]
        assert frame_pool.map_chunks(_slow_identity, (), tasks,
                                     workers=3) == [0, 1, 2]

    def test_chunk_oserror_never_reruns_healthy_chunks(self, tmp_path):
        # The sequential fallback must not fire for a chunk's own
        # OSError: it would re-run every chunk that already finished.
        # The failing chunk is last, so both healthy results are
        # collected before its error surfaces.
        marker = str(tmp_path / "ran")
        with pytest.raises(FileNotFoundError, match="missing chunk"):
            frame_pool.map_chunks(_touch_or_fail, (marker,),
                                  [(1,), (2,), (-1,)], workers=3)
        with open(marker) as handle:
            assert sorted(handle.read().split()) == ["1", "2"]

    def test_chunk_timeout_error_propagates_not_retried(self, caplog):
        # A TimeoutError raised *by the chunk* is not a hung worker: it
        # propagates at once, with no task_timeout retry.
        with caplog.at_level(logging.WARNING, logger="repro"):
            with pytest.raises(TimeoutError, match="own timeout"):
                frame_pool.map_chunks(_raise_timeout, (), [(1,), (2,)],
                                      workers=2, timeout=5.0)
        assert not log.events_named(caplog.records,
                                    "frame_pool.task_timeout")

    def test_pool_spawn_failure_falls_back_sequentially(self, monkeypatch,
                                                        caplog):
        def broken_pool(payload, workers):
            raise OSError("no process spawning here")

        monkeypatch.setattr(frame_pool, "get_pool", broken_pool)
        with caplog.at_level(logging.WARNING, logger="repro"):
            results = _run_scaled(5, [1, 2, 3], workers=3)
        assert results == [5, 10, 15]
        # Satellite requirement: the sequential fallback is reported as
        # a structured event exactly once per degradation.
        degraded = log.events_named(caplog.records,
                                    "frame_pool.degraded_sequential")
        assert len(degraded) == 1
        assert "pool unavailable" in degraded[0].repro_fields["reason"]

    def test_blocked_process_spawning_falls_back_sequentially(
            self, monkeypatch):
        # Worker processes spawn lazily inside ``submit``; a sandbox
        # that blocks process creation surfaces a PermissionError there
        # and the executor must fall back to the sequential path instead
        # of crashing the caller.
        def blocked_submit(self, fn, *args, **kwargs):
            raise PermissionError("process spawning blocked")

        monkeypatch.setattr(
            concurrent.futures.ProcessPoolExecutor, "submit",
            blocked_submit)
        assert _run_scaled(1, [0, 1, 2], workers=2) == [0, 1, 2]

    def test_broken_pool_falls_back_sequentially(self, monkeypatch,
                                                 caplog):
        class BrokenExecutor:
            def submit(self, *args, **kwargs):
                raise concurrent.futures.process.BrokenProcessPool(
                    "worker died")

        monkeypatch.setattr(frame_pool, "get_pool",
                            lambda payload, workers: BrokenExecutor())
        with caplog.at_level(logging.WARNING, logger="repro"):
            results = _run_scaled(7, [1, 2], workers=2)
        assert results == [7, 14]
        # Break -> rebuild once -> break again -> degrade: one rebuild
        # attempt, then exactly one degradation event.
        broken = log.events_named(caplog.records, "frame_pool.pool_broken")
        assert len(broken) == 2
        degraded = log.events_named(caplog.records,
                                    "frame_pool.degraded_sequential")
        assert len(degraded) == 1
        assert degraded[0].repro_fields["reason"] == "pool broke twice"


class TestPoolPersistence:
    def test_pool_reused_for_identical_payload(self):
        payload = (11,)
        assert frame_pool.map_chunks(_scaled, payload, [(1,), (2,)],
                                     workers=2) == [11, 22]
        first = frame_pool._POOL
        assert first is not None
        assert frame_pool.map_chunks(_scaled, payload, [(3,), (4,)],
                                     workers=2) == [33, 44]
        assert frame_pool._POOL[0] is first[0]   # same executor object

    def test_pool_replaced_when_payload_changes(self):
        frame_pool.map_chunks(_scaled, (1,), [(1,), (2,)], workers=2)
        first = frame_pool._POOL[0]
        assert frame_pool.map_chunks(_scaled, (2,), [(1,), (2,)],
                                     workers=2) == [2, 4]
        assert frame_pool._POOL[0] is not first

    def test_pool_replaced_when_width_changes(self):
        payload = (9,)
        frame_pool.map_chunks(_scaled, payload,
                              [(i,) for i in range(4)], workers=2)
        first = frame_pool._POOL[0]
        frame_pool.map_chunks(_scaled, payload,
                              [(i,) for i in range(4)], workers=3)
        assert frame_pool._POOL[0] is not first
        assert frame_pool._POOL[1] == 3

    def test_shutdown_is_idempotent(self):
        frame_pool.map_chunks(_scaled, (1,), [(1,), (2,)], workers=2)
        frame_pool.shutdown_pool()
        assert frame_pool._POOL is None
        frame_pool.shutdown_pool()


class TestResolveWorkers:
    # (REPRO_WORKERS, num_tasks, workers argument, expected width, the
    # knob a knob.ignored warning names or None) on a 4-CPU host.
    @pytest.mark.parametrize("env, tasks, workers, expected, ignored", [
        (None, 10, 4, 4, None),
        (None, 10, None, 4, None),               # cpu count
        ("6", 10, None, 6, None),                # env wins over cpu
        ("6", 3, None, 3, None),                 # clamped to tasks
        ("6", 10, 2, 2, None),                   # argument wins over env
        ("  3  ", 10, None, 3, None),            # padded integers parse
        ("", 10, None, 4, None),                 # blank env skipped
        ("   ", 10, None, 4, None),
        ("not-a-number", 10, None, 4, "REPRO_WORKERS"),
        ("2.5", 10, None, 4, "REPRO_WORKERS"),
        ("not-a-number", 1, None, 1, "REPRO_WORKERS"),
        ("0", 10, None, 1, None),                # non-positive: sequential
        ("-3", 10, None, 1, None),
        (None, 0, None, 1, None),                # never below one
        (None, 10, "garbage", 4, "workers"),
        (None, 10, 0, 1, None),
        (None, 10, -2, 1, None),
        (None, 10, "5", 5, None),                # str int ok
    ])
    def test_resolve_workers(self, monkeypatch, caplog, env, tasks,
                             workers, expected, ignored):
        monkeypatch.setattr(frame_pool.os, "cpu_count", lambda: 4)
        if env is None:
            monkeypatch.delenv("REPRO_WORKERS", raising=False)
        else:
            monkeypatch.setenv("REPRO_WORKERS", env)
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert frame_pool.resolve_workers(tasks, workers) == expected
        knobs = [record.repro_fields["knob"] for record in
                 log.events_named(caplog.records, "knob.ignored")]
        assert knobs == ([ignored] if ignored else [])


class TestMapChunksFaultInjection:
    """Deterministic fault drills against a *real* pool: crashed, hung,
    and corrupt workers re-execute only their chunk, and the output
    stays identical to the sequential path."""

    EXPECTED = [0, 5, 10, 15]

    def _run(self, workers=2, timeout=None, retries=None):
        return frame_pool.map_chunks(
            _scaled, (5,), [(i,) for i in range(4)],
            workers=workers, timeout=timeout, retries=retries)

    def test_worker_crash_rebuilds_pool_and_retries(self, caplog):
        plan = FaultPlan(tasks={1: FaultSpec("crash")})
        with caplog.at_level(logging.INFO, logger="repro"):
            with injected_faults(plan):
                assert self._run() == self.EXPECTED
        assert log.events_named(caplog.records, "frame_pool.pool_broken")
        assert log.events_named(caplog.records, "frame_pool.pool_rebuild")
        # A single crash must never degrade the whole frame.
        assert not log.events_named(caplog.records,
                                    "frame_pool.degraded_sequential")

    def test_persistent_crashes_degrade_once_then_finish_in_process(
            self, caplog):
        plan = FaultPlan(tasks={0: FaultSpec("crash",
                                             attempts=tuple(range(8)))})
        with caplog.at_level(logging.WARNING, logger="repro"):
            with injected_faults(plan):
                assert self._run(retries=3) == self.EXPECTED
        degraded = log.events_named(caplog.records,
                                    "frame_pool.degraded_sequential")
        assert len(degraded) == 1
        assert degraded[0].repro_fields["reason"] == "pool broke twice"

    def test_hung_worker_times_out_and_retries(self, caplog):
        plan = FaultPlan(tasks={2: FaultSpec("hang", hang_s=5.0)})
        with caplog.at_level(logging.WARNING, logger="repro"):
            with injected_faults(plan):
                assert self._run(timeout=0.25) == self.EXPECTED
        timeouts = log.events_named(caplog.records,
                                    "frame_pool.task_timeout")
        assert [r.repro_fields["task"] for r in timeouts] == [2]

    def test_corrupt_result_is_retried_not_returned(self, caplog):
        plan = FaultPlan(tasks={3: FaultSpec("corrupt")})
        with caplog.at_level(logging.WARNING, logger="repro"):
            with injected_faults(plan):
                results = self._run()
        assert results == self.EXPECTED
        assert not any(isinstance(value, faults.CorruptResult)
                       for value in results)
        corrupt = log.events_named(caplog.records,
                                   "frame_pool.task_corrupt")
        assert [r.repro_fields["task"] for r in corrupt] == [3]

    def test_timeout_env_knob_governs_hung_worker(self, monkeypatch,
                                                  caplog):
        monkeypatch.setenv(faults.TIMEOUT_ENV, "0.25")
        plan = FaultPlan(tasks={1: FaultSpec("hang", hang_s=5.0)})
        with caplog.at_level(logging.WARNING, logger="repro"):
            with injected_faults(plan):
                assert self._run() == self.EXPECTED
        timeouts = log.events_named(caplog.records,
                                    "frame_pool.task_timeout")
        assert [r.repro_fields["task"] for r in timeouts] == [1]
        assert timeouts[0].repro_fields["timeout_s"] == 0.25

    @pytest.mark.parametrize("retries", ["0", "1", "2"])
    def test_retries_env_knob_bounds_pooled_attempts(
            self, monkeypatch, caplog, retries):
        # A task corrupt on every pooled attempt is retried
        # max(retries, 1) times in the pool, then finishes in process.
        monkeypatch.setenv(faults.RETRIES_ENV, retries)
        plan = FaultPlan(tasks={2: FaultSpec("corrupt",
                                             attempts=tuple(range(8)))})
        with caplog.at_level(logging.INFO, logger="repro"):
            with injected_faults(plan):
                assert self._run() == self.EXPECTED
        corrupt = log.events_named(caplog.records,
                                   "frame_pool.task_corrupt")
        assert [r.repro_fields["attempt"] for r in corrupt] \
            == list(range(max(int(retries), 1)))
        inprocess = log.events_named(caplog.records,
                                     "frame_pool.task_inprocess")
        assert [r.repro_fields["task"] for r in inprocess] == [2]
