"""Deterministic fault injection and the shared retry policy.

The execution layer (the one pool executor,
:func:`repro.core.frame_pool.map_chunks`; :mod:`repro.core.batch`; and
the scene cache) must survive crashed workers, hung workers, corrupt
results, corrupt cache entries, and interrupted ingestion runs — with
byte-identical outputs on the retry path.  Proving that requires
*reproducible* failures: this module provides a declarative
:class:`FaultPlan` that injects exactly the faults a test asks for,
keyed by task index and attempt number, so every run of a
fault-injection suite sees the same failure sequence.

Fault kinds (all injected **inside pool workers only** — the
in-process/sequential paths never inject, which is what makes them the
trustworthy final-attempt backstop):

* ``crash``   — the worker process exits hard (``os._exit``), so the
  parent sees ``BrokenProcessPool``, exactly like a real segfault or
  OOM kill;
* ``hang``    — the task sleeps past its timeout before computing,
  modelling a wedged or pathologically slow worker;
* ``corrupt`` — the task returns a :class:`CorruptResult` marker in
  place of its real output, standing in for a checksum-failing return.

Plans additionally cover the non-pool layers: ``cache_keys`` makes
matching scene-cache entries read as corrupt (exercising the
self-heal path) and ``jobs`` injects per-job faults into the batch
ingestion loop (``"interrupt"`` kills the run mid-flight for resume
tests, ``"error"`` makes one job raise so quarantine is exercised).

A plan is installed parent-side with :func:`injected_faults`; the
execution layers ship each task's :class:`FaultSpec` into the worker
along with the task itself (workers may be spawned processes — they
cannot see parent globals).

The retry policy half is plain shared machinery, active whether or not
a plan is installed: :func:`backoff_delay` (exponential backoff with
deterministic jitter) and the ``REPRO_TASK_TIMEOUT`` /
``REPRO_RETRIES`` knobs, resolved by the one lenient knob parser
(:mod:`repro.core.knobs`: malformed values warn and fall back, never
crash an hours-long run).
"""

from __future__ import annotations

import os
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from . import knobs

TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"
RETRIES_ENV = "REPRO_RETRIES"

#: Default bounded-retry budget for pool tasks: one pooled retry before
#: the in-process final attempt.
DEFAULT_RETRIES = 1

#: Default base for the exponential-backoff schedule, in seconds.  Kept
#: small: pool retries are for *local* worker failures, not remote
#: services — the point of the backoff is to avoid hammering a host
#: that is thrashing, not to wait out a network partition.
DEFAULT_BACKOFF_S = 0.05

_CRASH_EXIT_CODE = 86          # distinctive, greppable in CI logs


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
class CorruptResult:
    """Marker a fault-injected worker returns in place of its real
    output — the stand-in for a checksum-failing result.  The execution
    layer treats any ``CorruptResult`` as a retryable worker fault,
    never as data."""

    def __init__(self, task_index: int):
        self.task_index = int(task_index)

    def __repr__(self) -> str:
        return f"CorruptResult(task_index={self.task_index})"


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: ``kind`` on the listed ``attempts``.

    ``attempts=(0,)`` (the default) is the common "fail once, succeed
    on retry" shape; a longer tuple keeps failing to exercise
    degradation paths.  ``hang_s`` is how long a ``hang`` sleeps before
    letting the task proceed (the parent's timeout should be shorter).
    """

    kind: str                            # "crash" | "hang" | "corrupt"
    attempts: Tuple[int, ...] = (0,)
    hang_s: float = 2.0

    def __post_init__(self):
        if self.kind not in ("crash", "hang", "corrupt"):
            raise ValueError(f"unknown fault kind {self.kind!r}")


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible failure schedule for one test or drill.

    * ``tasks`` — task index -> :class:`FaultSpec`, injected by
      :func:`repro.core.frame_pool.map_chunks`;
    * ``cache_keys`` — substrings of scene-cache keys whose entries
      read as corrupt;
    * ``jobs`` — batch job stem -> ``"interrupt"`` (the ingestion run
      dies mid-flight, as if killed) or ``"error"`` (the job raises and
      must be quarantined);
    * ``requests`` — serve-layer request id -> ``"error"`` (the request
      fails at dispatch), ``"corrupt"`` (its result reads as corrupt
      and is quarantined at completion), or ``"hang"`` (its chunks are
      withheld until the scheduler's request deadline) — consumed by
      :mod:`repro.core.serve` to prove poisoned requests are
      quarantined while their batch-mates complete byte-identically.
    """

    tasks: Mapping[int, FaultSpec] = field(default_factory=dict)
    cache_keys: Tuple[str, ...] = ()
    jobs: Mapping[str, str] = field(default_factory=dict)
    requests: Mapping[str, str] = field(default_factory=dict)

    def fault_for(self, index: int, attempt: int) -> Optional[FaultSpec]:
        """The fault to inject for task ``index`` on ``attempt``, or
        ``None``."""
        spec = self.tasks.get(int(index))
        if spec is not None and int(attempt) in spec.attempts:
            return spec
        return None

    def corrupts_cache(self, key: str) -> bool:
        return any(marker in key for marker in self.cache_keys)

    def job_fault(self, stem: str) -> Optional[str]:
        return self.jobs.get(stem)

    def request_fault(self, request_id: str) -> Optional[str]:
        return self.requests.get(request_id)


# Parent-side active plan.  Pool workers never read this global (they
# may be fresh spawned processes); the execution layers consult it at
# submit time and ship the matching FaultSpec with the task.
_ACTIVE: Optional[FaultPlan] = None


@contextmanager
def injected_faults(plan: FaultPlan):
    """Install ``plan`` as the active fault plan for the duration of
    the block (test scaffolding; production runs never install one)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


def apply_worker_fault(spec: FaultSpec, task_index: int):
    """Execute one injected fault inside a pool worker.

    ``crash`` never returns (hard process exit -> the parent's pool
    breaks); ``hang`` sleeps ``hang_s`` and returns ``None`` so the
    task then proceeds normally — a slow worker, whose late result the
    timed-out parent discards; ``corrupt`` returns the
    :class:`CorruptResult` that replaces the task's output.
    """
    if spec.kind == "crash":
        os._exit(_CRASH_EXIT_CODE)
    if spec.kind == "hang":
        time.sleep(spec.hang_s)
        return None
    return CorruptResult(task_index)


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
def backoff_delay(attempt: int, base: float = DEFAULT_BACKOFF_S) -> float:
    """Exponential backoff with deterministic jitter.

    ``base * 2**attempt`` plus a jitter in ``[0, base)`` derived from
    ``crc32(attempt)`` — reproducible from run to run (no wall-clock or
    global RNG involved).
    """
    token = str(int(attempt)).encode("utf-8")
    jitter = base * (zlib.crc32(token) % 1000) / 1000.0
    return base * (2.0 ** max(int(attempt), 0)) + jitter


# ----------------------------------------------------------------------
# Env knobs (lenient, see repro.core.knobs)
# ----------------------------------------------------------------------
def detect_task_timeout(timeout=None) -> Optional[float]:
    """Resolve the per-task timeout in seconds for the pool layers.

    Priority: explicit argument, then the ``REPRO_TASK_TIMEOUT`` env
    knob, then ``None`` (timeouts off — the historical behaviour).
    Empty/whitespace env values are skipped; malformed values warn and
    fall through; any non-positive value disables timeouts explicitly.
    """
    timeout = knobs.resolve(timeout, TIMEOUT_ENV, None, float, "timeout")
    return timeout if timeout is not None and timeout > 0 else None


def detect_retries(retries=None) -> int:
    """Resolve the bounded-retry budget for the pool layers.

    Priority: explicit argument, then the ``REPRO_RETRIES`` env knob,
    then :data:`DEFAULT_RETRIES`.  Malformed values warn and fall
    through; negative values clamp to 0 (no retries, straight to the
    final in-process attempt on failure) rather than raising.
    """
    return max(knobs.resolve(retries, RETRIES_ENV, DEFAULT_RETRIES, int,
                             "retries"), 0)
