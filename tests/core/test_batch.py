"""Fault-isolated batch ingestion: validation, quarantine, resume."""

import json
import logging
import os

import pytest

from repro.core import batch, log, registry
from repro.core.batch import (BatchSpecError, discover_jobs, run_batch,
                              validate_spec)
from repro.core.context import RunContext
from repro.core.faults import FaultPlan, injected_faults
from repro.core.registry import Experiment


def _tiny_unit(seed=1, width=3):
    return [seed * i for i in range(width)]


def _boom_unit():
    raise RuntimeError("synthetic job failure")


def _make_tiny(name, artefact):
    return Experiment(
        name=name, title="synthetic tiny", kind="table",
        artefact=artefact, description="batch-test fixture",
        params={"seed": 1, "width": 3},
        units=lambda ctx, params, shared: [
            (_tiny_unit, {"seed": params["seed"],
                          "width": params["width"]})],
        reduce=lambda results, params: results[0],
        render=lambda rows, params: "tiny " + " ".join(
            str(value) for value in rows))


@pytest.fixture()
def tiny_registry():
    """Register two synthetic experiments (one fast, one that raises)
    so batch tests never pay real harness compute."""
    tiny = _make_tiny("_batch_tiny", "_batch_tiny")
    boom = Experiment(
        name="_batch_boom", title="synthetic failure", kind="table",
        artefact="_batch_boom", description="batch-test fixture",
        params={},
        units=lambda ctx, params, shared: [(_boom_unit, {})],
        reduce=lambda results, params: results,
        render=lambda rows, params: "never rendered")
    registry.register(tiny)
    registry.register(boom)
    yield tiny
    del registry._REGISTRY["_batch_tiny"]
    del registry._REGISTRY["_batch_boom"]


def _write_spec(jobs_dir, stem, payload):
    path = os.path.join(jobs_dir, f"{stem}.json")
    with open(path, "w", encoding="utf-8") as handle:
        if isinstance(payload, str):
            handle.write(payload)
        else:
            json.dump(payload, handle)
    return path


class TestValidateSpec:
    def _check(self, spec, match):
        with pytest.raises(BatchSpecError, match=match):
            validate_spec(spec, "job.json")

    def test_rejections_cover_every_field(self, tiny_registry):
        self._check(["not", "an", "object"], "must be a JSON object")
        self._check({"experiment": "_batch_tiny", "workersz": 2},
                    "unknown spec field")
        self._check({}, "needs an 'experiment' name")
        self._check({"experiment": 7}, "needs an 'experiment' name")
        self._check({"experiment": "no_such_thing"}, "no_such_thing")
        self._check({"experiment": "_batch_tiny", "overrides": [1]},
                    "'overrides' must be a JSON object")
        self._check({"experiment": "_batch_tiny",
                     "overrides": {"depth": 2}}, "unknown parameter")
        self._check({"experiment": "_batch_tiny", "seed": True},
                    "'seed' must be an integer")
        self._check({"experiment": "_batch_tiny", "seed": "four"},
                    "'seed' must be an integer")
        self._check({"experiment": "_batch_tiny", "scale": 0},
                    "'scale' must be a positive number")
        self._check({"experiment": "_batch_tiny", "artefact": "../esc"},
                    "plain file stem")
        self._check({"experiment": "_batch_tiny", "artefact": "a/b"},
                    "plain file stem")

    def test_valid_spec_resolves(self, tiny_registry):
        name, overrides, fields, artefact = validate_spec(
            {"experiment": "_batch_tiny", "overrides": {"width": 5},
             "seed": 9, "scale": 0.5, "artefact": "custom_stem"},
            "job.json")
        assert name == "_batch_tiny"
        assert overrides == {"width": 5}
        assert fields == {"seed": 9, "scale": 0.5}
        assert artefact == "custom_stem"

    def test_minimal_spec_defaults(self, tiny_registry):
        name, overrides, fields, artefact = validate_spec(
            {"experiment": "_batch_tiny"}, "job.json")
        assert (overrides, fields, artefact) == ({}, {}, None)


class TestDiscoverJobs:
    def test_sorted_json_only(self, tmp_path):
        _write_spec(tmp_path, "b", {})
        _write_spec(tmp_path, "a", {})
        (tmp_path / "notes.txt").write_text("ignored")
        names = [os.path.basename(p) for p in discover_jobs(str(tmp_path))]
        assert names == ["a.json", "b.json"]

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            discover_jobs(str(tmp_path / "absent"))


class TestRunBatch:
    def test_quarantine_isolates_bad_specs_and_run_continues(
            self, tmp_path, tiny_registry, caplog):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        _write_spec(jobs, "a_good", {"experiment": "_batch_tiny"})
        _write_spec(jobs, "b_broken", '{"experiment": "_batch_tiny",')
        _write_spec(jobs, "c_custom", {"experiment": "_batch_tiny",
                                       "seed": 4,
                                       "artefact": "renamed"})
        with caplog.at_level(logging.WARNING, logger="repro"):
            summary = run_batch(str(jobs))
        assert (summary.completed, summary.skipped,
                summary.quarantined) == (2, 0, 1)

        out = tmp_path / "jobs" / "out"
        assert (out / "a_good.txt").exists()
        assert (out / "renamed.txt").exists()          # custom stem
        assert (out / "batch_summary.txt").exists()
        # Quarantine layout: spec copy + traceback report.
        errors = out / "errors"
        assert (errors / "b_broken.json").exists()
        report = (errors / "b_broken.report.txt").read_text()
        assert "JSONDecodeError" in report
        assert "Traceback" in report
        events = log.events_named(caplog.records, "batch.job_quarantined")
        assert [r.repro_fields["job"] for r in events] == ["b_broken"]

    def test_artefacts_byte_identical_to_direct_run(self, tmp_path,
                                                    tiny_registry):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        _write_spec(jobs, "job", {"experiment": "_batch_tiny", "seed": 6})
        run_batch(str(jobs))
        direct = tiny_registry.run(RunContext(seed=6)).text + "\n"
        written = (jobs / "out" / "job.txt").read_bytes()
        assert written == direct.encode("utf-8")

    def test_resume_skips_existing_artefacts(self, tmp_path,
                                             tiny_registry, caplog):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        _write_spec(jobs, "one", {"experiment": "_batch_tiny"})
        _write_spec(jobs, "two", {"experiment": "_batch_tiny", "seed": 2})
        first = run_batch(str(jobs))
        assert first.completed == 2
        before = (jobs / "out" / "one.txt").read_bytes()

        with caplog.at_level(logging.INFO, logger="repro"):
            second = run_batch(str(jobs))
        assert (second.completed, second.skipped) == (0, 2)
        assert (jobs / "out" / "one.txt").read_bytes() == before
        skips = log.events_named(caplog.records, "batch.job_skipped")
        assert len(skips) == 2

    def test_runtime_failure_quarantined_later_jobs_still_run(
            self, tmp_path, tiny_registry):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        _write_spec(jobs, "a_fails", {"experiment": "_batch_boom"})
        _write_spec(jobs, "b_runs", {"experiment": "_batch_tiny"})
        summary = run_batch(str(jobs))
        assert (summary.completed, summary.quarantined) == (1, 1)
        report = (jobs / "out" / "errors" /
                  "a_fails.report.txt").read_text()
        assert "RuntimeError: synthetic job failure" in report
        assert (jobs / "out" / "b_runs.txt").exists()

    def test_kill_mid_run_then_resume_completes_remainder(
            self, tmp_path, tiny_registry):
        # Satellite drill: the run dies mid-flight (injected interrupt
        # standing in for SIGINT/kill); a plain re-invocation resumes —
        # finished artefacts skip, the remainder completes, and the
        # final artefact set is identical to an uninterrupted run.
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        _write_spec(jobs, "a", {"experiment": "_batch_tiny", "seed": 1})
        _write_spec(jobs, "b", {"experiment": "_batch_tiny", "seed": 2})
        _write_spec(jobs, "c", {"experiment": "_batch_tiny", "seed": 3})
        plan = FaultPlan(jobs={"b": "interrupt"})
        with injected_faults(plan):
            with pytest.raises(KeyboardInterrupt):
                run_batch(str(jobs))
        out = jobs / "out"
        assert (out / "a.txt").exists()        # completed before the kill
        assert not (out / "b.txt").exists()    # interrupted
        assert not (out / "errors").exists()   # a kill is not a quarantine

        resumed = run_batch(str(jobs))
        assert (resumed.completed, resumed.skipped,
                resumed.quarantined) == (2, 1, 0)
        for stem, seed in (("a", 1), ("b", 2), ("c", 3)):
            expected = tiny_registry.run(RunContext(seed=seed)).text + "\n"
            assert (out / f"{stem}.txt").read_bytes() \
                == expected.encode("utf-8")

    def test_injected_job_error_is_quarantined(self, tmp_path,
                                               tiny_registry):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        _write_spec(jobs, "doomed", {"experiment": "_batch_tiny"})
        with injected_faults(FaultPlan(jobs={"doomed": "error"})):
            summary = run_batch(str(jobs))
        assert summary.quarantined == 1
        assert "injected job error" in summary.reports[0].detail

    def test_spec_seed_beats_context_default(self, tmp_path,
                                             tiny_registry):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        _write_spec(jobs, "pinned", {"experiment": "_batch_tiny",
                                     "seed": 8})
        _write_spec(jobs, "inherits", {"experiment": "_batch_tiny"})
        run_batch(str(jobs), ctx=RunContext(seed=2))
        pinned = tiny_registry.run(RunContext(seed=8)).text + "\n"
        inherited = tiny_registry.run(RunContext(seed=2)).text + "\n"
        assert (jobs / "out" / "pinned.txt").read_text() == pinned
        assert (jobs / "out" / "inherits.txt").read_text() == inherited

    @pytest.mark.parametrize("fields, seed, scale", [
        ({}, 2, 0.5),                            # inherits the batch
        ({"seed": 8, "scale": 0.25}, 8, 0.25),   # the spec wins
    ])
    def test_job_context_carries_batch_knobs(self, tmp_path, fields,
                                             seed, scale):
        ctx = RunContext(seed=2, scale=0.5, workers=3,
                         cache_dir=str(tmp_path / "cache"))
        job_ctx = batch._job_context(ctx, str(tmp_path / "out"), fields)
        assert (job_ctx.seed, job_ctx.scale) == (seed, scale)
        assert job_ctx.workers == 3
        assert job_ctx.cache_dir == str(tmp_path / "cache")
        assert job_ctx.results_dir == str(tmp_path / "out")

    def test_summary_render_is_deterministic(self, tmp_path,
                                             tiny_registry):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        _write_spec(jobs, "only", {"experiment": "_batch_tiny"})
        first = run_batch(str(jobs)).render()
        # Re-render after a resume: statuses differ (skipped), but the
        # render itself carries no timings/paths that could drift.
        assert "completed 1  skipped 0  quarantined 0" in first
        assert str(jobs) not in first          # no absolute paths
        second = run_batch(str(jobs)).render()
        assert "completed 0  skipped 1  quarantined 0" in second

    def test_explicit_out_dir(self, tmp_path, tiny_registry):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        _write_spec(jobs, "job", {"experiment": "_batch_tiny"})
        out = tmp_path / "elsewhere"
        summary = run_batch(str(jobs), out_dir=str(out))
        assert (out / "job.txt").exists()
        assert summary.errors_dir == str(out / "errors")

    def test_empty_jobs_dir_is_a_clean_run(self, tmp_path):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        summary = run_batch(str(jobs))
        assert summary.reports == []
        assert os.path.exists(summary.summary_path)
