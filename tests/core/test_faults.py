"""Fault plans, the backoff schedule, and the timeout/retry knobs."""

import logging

import pytest

from repro.core import faults, log
from repro.core.faults import (RETRIES_ENV, TIMEOUT_ENV, CorruptResult,
                               FaultPlan, FaultSpec, backoff_delay,
                               detect_retries, detect_task_timeout,
                               injected_faults)


class TestFaultPlan:
    def test_keyed_by_task_index_and_attempt(self):
        plan = FaultPlan(tasks={2: FaultSpec("corrupt", attempts=(0, 1))})
        assert plan.fault_for(2, 0).kind == "corrupt"
        assert plan.fault_for(2, 1).kind == "corrupt"
        assert plan.fault_for(2, 2) is None       # budget exhausted
        assert plan.fault_for(0, 0) is None       # other tasks clean

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meltdown")

    def test_cache_and_job_faults(self):
        plan = FaultPlan(cache_keys=("llff-src-fern",),
                         jobs={"job_a": "interrupt", "job_b": "error"})
        assert plan.corrupts_cache("llff-src-fern-0a1b2c3d")
        assert not plan.corrupts_cache("llff-src-horns-0a1b2c3d")
        assert plan.job_fault("job_a") == "interrupt"
        assert plan.job_fault("job_b") == "error"
        assert plan.job_fault("job_c") is None

    def test_injected_faults_installs_and_restores(self):
        assert faults.active_plan() is None
        plan = FaultPlan(tasks={0: FaultSpec("corrupt")})
        with injected_faults(plan) as active:
            assert active is plan
            assert faults.active_plan() is plan
            inner = FaultPlan()
            with injected_faults(inner):
                assert faults.active_plan() is inner
            assert faults.active_plan() is plan
        assert faults.active_plan() is None

    def test_corrupt_marker_is_identifiable(self):
        marker = faults.apply_worker_fault(FaultSpec("corrupt"), 7)
        assert isinstance(marker, CorruptResult)
        assert marker.task_index == 7


class TestBackoff:
    def test_deterministic(self):
        assert [backoff_delay(i) for i in range(4)] \
            == [backoff_delay(i) for i in range(4)]

    def test_exponential_base_with_bounded_jitter(self):
        base = 0.1
        for attempt in range(4):
            delay = backoff_delay(attempt, base=base)
            floor = base * 2 ** attempt
            assert floor <= delay < floor + base

    def test_same_schedule_in_every_process(self):
        # The jitter comes from crc32, not hash(): a fresh interpreter
        # with a different hash seed computes the same schedule.
        import json
        import os
        import subprocess
        import sys

        code = ("import json; from repro.core.faults import backoff_delay;"
                " print(json.dumps([backoff_delay(i) for i in range(4)]))")
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert json.loads(out.stdout) \
            == [backoff_delay(i) for i in range(4)]


class TestTimeoutKnob:
    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "9")
        assert detect_task_timeout(2.5) == 2.5

    def test_env_then_default_off(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "7.5")
        assert detect_task_timeout() == 7.5
        monkeypatch.delenv(TIMEOUT_ENV)
        assert detect_task_timeout() is None

    def test_non_positive_disables(self, monkeypatch):
        assert detect_task_timeout(0) is None
        assert detect_task_timeout(-3) is None
        monkeypatch.setenv(TIMEOUT_ENV, "0")
        assert detect_task_timeout() is None

    def test_blank_env_skipped(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "   ")
        assert detect_task_timeout() is None

    def test_malformed_env_warns_and_falls_back(self, monkeypatch,
                                                caplog):
        monkeypatch.setenv(TIMEOUT_ENV, "fast")
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert detect_task_timeout() is None
        record, = log.events_named(caplog.records, "knob.ignored")
        assert record.repro_fields["knob"] == TIMEOUT_ENV

    def test_malformed_argument_degrades_to_env(self, monkeypatch,
                                                caplog):
        monkeypatch.setenv(TIMEOUT_ENV, "4")
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert detect_task_timeout("soon") == 4.0
        assert log.events_named(caplog.records, "knob.ignored")


class TestRetriesKnob:
    def test_argument_beats_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(RETRIES_ENV, "5")
        assert detect_retries(2) == 2
        assert detect_retries() == 5
        monkeypatch.delenv(RETRIES_ENV)
        assert detect_retries() == faults.DEFAULT_RETRIES

    def test_negative_clamps_to_zero(self, monkeypatch):
        assert detect_retries(-4) == 0
        monkeypatch.setenv(RETRIES_ENV, "-1")
        assert detect_retries() == 0

    def test_malformed_env_warns_and_falls_back(self, monkeypatch,
                                                caplog):
        monkeypatch.setenv(RETRIES_ENV, "lots")
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert detect_retries() == faults.DEFAULT_RETRIES
        record, = log.events_named(caplog.records, "knob.ignored")
        assert record.repro_fields["knob"] == RETRIES_ENV
