"""Fault-tolerant process-pool executor for render chunks and variant units.

The paper's evidence is a set of independent runs: the model variants
and sweep points of the figure harnesses, and the chunks of the
renders that are large enough to split.  Both fan out through one
retry / rebuild / timeout / degrade loop, behind two thin public
wrappers:

* :func:`map_chunks` parallelises independent chunks of one render.
  Two callers use it: the source-view renders of
  :func:`repro.models.render_source_views` (``SceneData.prepare``) and
  the cross-request dispatches of :mod:`repro.core.serve`.  Chunk
  boundaries are computed identically to the sequential path, so
  stitching results in task order reproduces the sequential output
  **byte for byte**.  Target-view renders and the accelerator frame
  simulation run in process: splitting one frame did not pay on any
  measured workload (``docs/performance.md``).
* :func:`run_variants` parallelises *between* experiment units — the
  ``(function, kwargs)`` tasks of :mod:`repro.core.registry`.  Its
  pool is shut down before it returns, so variant workers never
  outlive the call.

The loop takes a *scope* (``"frame_pool"`` or ``"run_variants"``):
the prefix of every event it emits, the ``scope`` a
:class:`repro.core.faults.FaultPlan` matches, and the backoff salt.

Design points (the worker-pool chunked-fetch idiom, adapted to heavy
per-task state):

* **Per-worker payload, initialised once.**  ``map_chunks(fn, payload,
  tasks)`` ships ``payload`` (a scene field and its ray bundle, or a
  model and its encoded feature maps) to each worker through the pool
  *initializer*, not with every task — chunks carry only their small
  descriptors (slice bounds, ray arrays, per-chunk uniforms).
* **Pool persistence.**  The executor survives across calls keyed by
  (worker count, payload identity): repeated dispatches against the
  same model and scene — the ``serve`` daemon — reuse the warm
  workers instead of re-spawning and re-shipping state.
  A payload or width change retires the old pool.
* **Nested-pool guard.**  Every pool worker marks itself via the
  ``REPRO_POOL_WORKER`` env flag; :func:`resolve_workers` — the one
  worker resolver — returns 1 inside any such worker, so a variant
  already fanned out by ``run_variants`` never oversubscribes the host
  with a second layer of processes.

Fault tolerance (see :mod:`repro.core.faults` and
``docs/robustness.md``): every task gets a per-task timeout
(``REPRO_TASK_TIMEOUT``) and a bounded retry budget
(``REPRO_RETRIES``).  A crashed or hung worker re-executes *only its
task* — completed tasks keep their results — with pooled retries
first and a final in-process attempt as the backstop, so the output is
byte-identical to the sequential path no matter which workers died.
``BrokenProcessPool`` mid-run rebuilds the pool once before degrading
to fully sequential execution; a timed-out pool (which still holds a
hung worker) is retired without joining and respawned on the next
attempt.  Every retry, rebuild, and degradation emits a structured
event through :mod:`repro.core.log`; an exception raised *by a task
function* propagates unchanged in every mode — retries are for
infrastructure faults, not for deterministic task errors.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import logging
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import faults, knobs, log

POOL_WORKER_ENV = "REPRO_POOL_WORKER"
WORKERS_ENV = "REPRO_WORKERS"

_LOG = log.get_logger("frame_pool")

# Parent-side singleton: (executor, worker count, payload).  Holding the
# payload tuple keeps strong references to its elements, so the id-based
# identity check below can never alias a garbage-collected object.
_POOL: Optional[Tuple[concurrent.futures.ProcessPoolExecutor, int, tuple]] \
    = None

# Worker-side state, set once by the pool initializer.
_WORKER_PAYLOAD = None

_UNSET = object()


def in_pool_worker() -> bool:
    """True inside any pool worker — a render chunk or a variant unit."""
    return os.environ.get(POOL_WORKER_ENV, "") == "1"


def _init_worker(payload: tuple) -> None:
    global _WORKER_PAYLOAD
    os.environ[POOL_WORKER_ENV] = "1"
    _WORKER_PAYLOAD = payload


def _run_task(function: Callable, args: tuple,
              fault: Optional[faults.FaultSpec] = None,
              task_index: int = -1):
    if fault is not None:
        injected = faults.apply_worker_fault(fault, task_index)
        if injected is not None:
            return injected
    return function(_WORKER_PAYLOAD, *args)


def _call_unit(payload: tuple, function: Callable, kwargs: Dict):
    return function(**kwargs)


def resolve_workers(num_tasks: int, workers: Optional[int] = None) -> int:
    """Pool width for a fan-out of ``num_tasks`` tasks.

    Priority: explicit ``workers`` argument, then the ``REPRO_WORKERS``
    env knob, then ``os.cpu_count()``; always clamped to
    ``[1, num_tasks]``.  Malformed values warn (``knob.ignored``) and
    fall through to the next source; non-positive values clamp to 1,
    forcing the sequential path.  Inside a pool worker the answer is
    always 1: only the outermost layer of parallelism may own the
    host's cores.
    """
    if in_pool_worker():
        return 1
    count = knobs.resolve(workers, WORKERS_ENV, None, int, "workers")
    if count is None:
        count = os.cpu_count() or 1
    return max(1, min(count, max(int(num_tasks), 1)))


def _payload_matches(held: tuple, payload: tuple) -> bool:
    return len(held) == len(payload) and \
        all(a is b for a, b in zip(held, payload))


def get_pool(payload: tuple, workers: int
             ) -> concurrent.futures.ProcessPoolExecutor:
    """The persistent executor for ``payload`` at ``workers`` width.

    Reused while every payload element is *the same object* as the
    previous call's (a model or accelerator re-rendering frames keeps
    its pool warm); any change shuts the old pool down and spawns a
    fresh one whose workers are initialised with the new payload.
    """
    global _POOL
    if _POOL is not None:
        executor, count, held = _POOL
        if count == workers and _payload_matches(held, payload):
            return executor
        shutdown_pool()
    executor = concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(payload,))
    _POOL = (executor, workers, payload)
    return executor


def shutdown_pool() -> None:
    """Retire the persistent pool (idempotent; registered at exit)."""
    global _POOL
    if _POOL is not None:
        executor, _, _ = _POOL
        _POOL = None
        executor.shutdown(cancel_futures=True)


def _retire_pool_nowait() -> None:
    """Retire a pool that may hold a *hung* worker: drop it without
    joining (a normal shutdown would block on the wedged process; the
    abandoned worker exits on its own once its sleep/compute ends)."""
    global _POOL
    if _POOL is not None:
        executor, _, _ = _POOL
        _POOL = None
        executor.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pool)


def _execute(scope: str, function: Callable, payload: tuple,
             tasks: Sequence[tuple], workers: Optional[int],
             timeout: Optional[float], retries: Optional[int]) -> List:
    """The one fault-tolerant loop behind both public wrappers."""
    tasks = list(tasks)
    count = resolve_workers(len(tasks), workers)
    if count <= 1 or len(tasks) <= 1:
        return [function(payload, *args) for args in tasks]
    timeout = faults.detect_task_timeout(timeout)
    retries = faults.detect_retries(retries)
    plan = faults.active_plan()

    results: List = [_UNSET] * len(tasks)
    pending = list(range(len(tasks)))
    rebuilt = False
    degraded: Optional[str] = None

    # max(retries, 1) pooled rounds, plus one bonus round when the pool
    # broke and was rebuilt — the rebuild is an infrastructure event,
    # it must not consume a task's retry budget.
    attempt = 0
    while pending and degraded is None and \
            attempt < max(retries, 1) + (1 if rebuilt else 0):
        if attempt:
            time.sleep(faults.backoff_delay(attempt - 1, salt=scope))
        try:
            executor = get_pool(payload, count)
            submitted: Dict[int, concurrent.futures.Future] = {}
            for index in pending:
                fault = plan.fault_for(index, attempt, scope=scope) \
                    if plan else None
                submitted[index] = executor.submit(
                    _run_task, function, tasks[index], fault, index)
        except concurrent.futures.process.BrokenProcessPool as error:
            # A worker died during spawn/submission.
            shutdown_pool()
            log.event(_LOG, f"{scope}.pool_broken", error=str(error),
                      attempt=attempt, pending=len(pending))
            if rebuilt:
                degraded = "pool broke twice"
                break
            rebuilt = True
            log.event(_LOG, f"{scope}.pool_rebuild",
                      level=logging.INFO, pending=len(pending))
            attempt += 1
            continue
        except OSError as error:
            # Pool infrastructure unavailable: worker processes spawn
            # lazily inside ``submit``, so a sandbox that blocks process
            # creation surfaces here, not in the constructor.  A task's
            # own OSError surfaces from future.result() below instead.
            shutdown_pool()
            degraded = f"pool unavailable: {error}"
            break

        retry: List[int] = []
        broken: Optional[BaseException] = None
        timed_out = False
        for index in pending:
            future = submitted[index]
            try:
                value = future.result(timeout=timeout)
            except concurrent.futures.TimeoutError:
                if future.done():
                    raise        # the task itself raised TimeoutError
                timed_out = True
                log.event(_LOG, f"{scope}.task_timeout", task=index,
                          attempt=attempt, timeout_s=timeout)
                retry.append(index)
                continue
            except concurrent.futures.process.BrokenProcessPool as error:
                broken = error
                retry.append(index)
                continue
            if isinstance(value, faults.CorruptResult):
                log.event(_LOG, f"{scope}.task_corrupt", task=index,
                          attempt=attempt)
                retry.append(index)
                continue
            results[index] = value
        pending = retry

        if broken is not None:
            shutdown_pool()      # workers are dead; the join is instant
            log.event(_LOG, f"{scope}.pool_broken", error=str(broken),
                      attempt=attempt, pending=len(pending))
            if rebuilt:
                degraded = "pool broke twice"
            else:
                rebuilt = True
                log.event(_LOG, f"{scope}.pool_rebuild",
                          level=logging.INFO, pending=len(pending))
        elif timed_out:
            # The pool still holds the hung worker: retire it without
            # joining; the next attempt (or the next call) respawns.
            _retire_pool_nowait()
        attempt += 1

    if degraded is not None:
        log.event(_LOG, f"{scope}.degraded_sequential", reason=degraded,
                  pending=len(pending))
    for index in pending:
        if degraded is None:
            log.event(_LOG, f"{scope}.task_inprocess",
                      level=logging.INFO, task=index)
        results[index] = function(payload, *tasks[index])
    return results


def map_chunks(function: Callable, payload: tuple,
               tasks: Sequence[tuple],
               workers: Optional[int] = None,
               timeout: Optional[float] = None,
               retries: Optional[int] = None) -> List:
    """Run ``function(payload, *task)`` for every task, results in
    task order.

    With a resolved width of 1 (or a single task) the calls run in this
    process against ``payload`` directly — the sequential path shares
    the exact code the workers execute, and is also the final-attempt
    backstop for every fault below.

    Fault handling (per task; completed tasks never re-execute):

    * a worker **crash** (``BrokenProcessPool``) re-submits only the
      unfinished tasks to a pool rebuilt once; a second break degrades
      the remaining tasks to sequential in-process execution;
    * a **hung** task (no result within ``timeout`` seconds — argument,
      else ``REPRO_TASK_TIMEOUT``, else off) is retried on a fresh
      pool, the poisoned one retired without joining;
    * a **corrupt** result (an injected
      :class:`repro.core.faults.CorruptResult`) is retried like a
      crash;
    * the retry budget (``retries`` argument, else ``REPRO_RETRIES``,
      default 1) bounds pooled attempts at ``max(retries, 1)``; the
      **final attempt** for any still-unfinished task always runs
      in-process — it cannot crash or hang, so an infrastructure fault
      never aborts the frame;
    * an exception raised *by the chunk function* — including OSError
      subclasses — propagates unchanged in either mode, never retried,
      never swallowed.

    Every fallback/retry emits a structured ``frame_pool.*`` event;
    full-degradation events fire exactly once per degradation.
    """
    return _execute("frame_pool", function, payload, tasks, workers,
                    timeout, retries)


def run_variants(tasks: Sequence[Tuple[Callable, Dict]],
                 workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None) -> List:
    """Run ``function(**kwargs)`` for every ``(function, kwargs)``
    unit, results in task order.

    The same loop and fault handling as :func:`map_chunks` (functions
    must be module-level so they pickle), with ``run_variants.*``
    events and fault scope.  A sequential resolution (``workers=1``, a
    single task, a 1-CPU host, or a call from inside a pool worker)
    never constructs a ``ProcessPoolExecutor``, so a sequential harness
    run pays zero spawn cost.  The pool is shut down before returning.
    """
    try:
        return _execute("run_variants", _call_unit, (), tasks, workers,
                        timeout, retries)
    finally:
        shutdown_pool()
