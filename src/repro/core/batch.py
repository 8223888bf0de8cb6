"""Fault-isolated bulk ingestion: ``python -m repro batch <jobs_dir>``.

A production system ingests jobs it didn't author.  This module runs a
directory of JSON job specs through the experiment registry with the
per-file try/quarantine/continue discipline: one malformed, crashing,
or hostile spec can never kill the fleet — it is quarantined (spec +
traceback report copied to ``errors/``) and the run continues.

Job spec format (one ``.json`` file per job)::

    {
      "experiment": "table1",            // required: a registered name
      "overrides":  {"seed": 7},         // optional: parameter overrides
      "seed":       7,                   // optional: RunContext seed
      "scale":      0.5,                 // optional: work multiplier
      "artefact":   "table1_smoke"       // optional: output stem
                                         //   (default: the file stem)
    }

Design points:

* **Validate before compute.**  Every spec is parsed and checked
  against the registry (experiment exists, override keys are declared
  parameters, field types are sane) *before any job runs*; malformed
  specs are quarantined up front, so a typo in job 40 surfaces in
  seconds, not after 39 jobs' worth of compute.
* **Per-job quarantine.**  A job that fails at runtime lands in
  ``errors/`` — a copy of the spec plus a ``<stem>.report.txt`` with
  the full traceback — and the loop moves on.  Only
  ``KeyboardInterrupt`` / ``SystemExit`` abort the run (that's the
  operator, not the job).
* **Resumability.**  Artefacts are written atomically
  (:func:`repro.core.reporting.write_artifact`), so a killed run
  leaves only complete artefacts; on re-invocation, jobs whose
  artefact already exists are skipped.  Artefact text is byte-identical
  to ``python -m repro run <experiment> --write`` for the same
  parameters — the batch layer adds isolation, not drift.
* **Observability.**  Every job emits a structured
  :mod:`repro.core.log` event (``batch.job_completed`` /
  ``batch.job_skipped`` / ``batch.job_quarantined``) and the run ends
  with a deterministic ``batch_summary.txt`` artefact (per-job status
  table + counts) under the output directory.
"""

from __future__ import annotations

import json
import logging
import os
import re
import shutil
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import faults, log, reporting
from .context import RunContext
from .registry import get_experiment
from .scene_cache import exported_cache_knob

_LOG = log.get_logger("batch")

JOB_SUFFIX = ".json"
ERRORS_DIRNAME = "errors"
SUMMARY_STEM = "batch_summary"

_SPEC_FIELDS = ("experiment", "overrides", "seed", "scale", "artefact")
_STEM_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class BatchSpecError(ValueError):
    """A job spec that must be rejected before any compute."""


@dataclass
class JobReport:
    """Outcome of one ingested job."""

    stem: str
    spec_path: str
    status: str                  # "completed" | "skipped" | "quarantined"
    experiment: str = "?"
    detail: str = ""
    artefact_path: Optional[str] = None


@dataclass
class BatchSummary:
    """Outcome of one ``run_batch`` invocation."""

    jobs_dir: str
    out_dir: str
    errors_dir: str
    reports: List[JobReport] = field(default_factory=list)
    summary_path: Optional[str] = None

    def count(self, status: str) -> int:
        return sum(1 for report in self.reports
                   if report.status == status)

    @property
    def completed(self) -> int:
        return self.count("completed")

    @property
    def skipped(self) -> int:
        return self.count("skipped")

    @property
    def quarantined(self) -> int:
        return self.count("quarantined")

    def render(self) -> str:
        """The deterministic summary artefact text (statuses only — no
        timings, so a resumed run's summary depends only on the job
        outcomes)."""
        rows = [[report.stem, report.experiment, report.status,
                 report.detail] for report in self.reports]
        table = reporting.format_table(
            ["Job", "Experiment", "Status", "Detail"], rows,
            title=f"Batch ingestion — {len(self.reports)} job(s) from "
                  f"{os.path.basename(os.path.abspath(self.jobs_dir))}/")
        counts = (f"completed {self.completed}  skipped {self.skipped}  "
                  f"quarantined {self.quarantined}")
        return table + "\n\n" + counts


# ----------------------------------------------------------------------
# Spec validation (registry-driven, before any compute)
# ----------------------------------------------------------------------
def validate_spec(spec: object, path: str
                  ) -> Tuple[str, Dict, Dict, Optional[str]]:
    """Check one parsed job spec against the registry.

    Returns ``(experiment_name, overrides, context_fields, artefact)``
    or raises :class:`BatchSpecError` with a message precise enough to
    fix the spec from the quarantine report alone.
    """
    if not isinstance(spec, dict):
        raise BatchSpecError(
            f"job spec must be a JSON object, got {type(spec).__name__}")
    unknown = sorted(set(spec) - set(_SPEC_FIELDS))
    if unknown:
        raise BatchSpecError(
            f"unknown spec field(s) {unknown}; valid: {_SPEC_FIELDS}")
    name = spec.get("experiment")
    if not isinstance(name, str) or not name:
        raise BatchSpecError("spec needs an 'experiment' name (string)")
    try:
        experiment = get_experiment(name)
    except KeyError as error:
        raise BatchSpecError(str(error.args[0])) from None

    overrides = spec.get("overrides", {})
    if not isinstance(overrides, dict):
        raise BatchSpecError("'overrides' must be a JSON object")
    bad_keys = sorted(set(overrides) - set(experiment.params))
    if bad_keys:
        raise BatchSpecError(
            f"unknown parameter(s) {bad_keys} for experiment {name!r}; "
            f"valid: {sorted(experiment.params)}")

    context_fields: Dict = {}
    seed = spec.get("seed")
    if seed is not None:
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise BatchSpecError(f"'seed' must be an integer, got {seed!r}")
        context_fields["seed"] = seed
    scale = spec.get("scale")
    if scale is not None:
        if isinstance(scale, bool) or \
                not isinstance(scale, (int, float)) or scale <= 0:
            raise BatchSpecError(
                f"'scale' must be a positive number, got {scale!r}")
        context_fields["scale"] = float(scale)
    artefact = spec.get("artefact")
    if artefact is not None and (not isinstance(artefact, str)
                                 or not _STEM_RE.match(artefact)):
        raise BatchSpecError(
            f"'artefact' must be a plain file stem (letters, digits, "
            f"'._-'), got {artefact!r}")
    return name, dict(overrides), context_fields, artefact


def _quarantine(report: JobReport, errors_dir: str, error: BaseException
                ) -> None:
    """Copy the failed spec + a traceback report into ``errors/`` and
    mark the report quarantined.  The run continues."""
    os.makedirs(errors_dir, exist_ok=True)
    try:
        shutil.copy2(report.spec_path,
                     os.path.join(errors_dir,
                                  os.path.basename(report.spec_path)))
    except OSError:
        pass                     # the report below still records the path
    report.status = "quarantined"
    report.detail = f"{type(error).__name__}: {error}"
    report_path = os.path.join(errors_dir, f"{report.stem}.report.txt")
    reporting.write_artifact(
        report_path,
        f"job:        {report.stem}\n"
        f"spec:       {report.spec_path}\n"
        f"experiment: {report.experiment}\n"
        f"error:      {report.detail}\n\n"
        f"{traceback.format_exc()}")
    log.event(_LOG, "batch.job_quarantined", job=report.stem,
              experiment=report.experiment, error=report.detail,
              report=report_path)


# ----------------------------------------------------------------------
# Ingestion
# ----------------------------------------------------------------------
def discover_jobs(jobs_dir: str) -> List[str]:
    """The job spec files of ``jobs_dir``: every ``*.json``, sorted by
    name so runs (and resumes) process jobs in a stable order."""
    if not os.path.isdir(jobs_dir):
        raise FileNotFoundError(f"jobs directory not found: {jobs_dir}")
    return [os.path.join(jobs_dir, name)
            for name in sorted(os.listdir(jobs_dir))
            if name.endswith(JOB_SUFFIX)]


def run_batch(jobs_dir: str, ctx: Optional[RunContext] = None,
              out_dir: Optional[str] = None,
              errors_dir: Optional[str] = None) -> BatchSummary:
    """Ingest every job spec in ``jobs_dir`` with per-job isolation.

    ``out_dir`` (default ``<jobs_dir>/out``) receives one
    ``<stem>.txt`` artefact per completed job plus the
    ``batch_summary.txt`` report; ``errors_dir`` (default
    ``<out_dir>/errors``) receives quarantined specs and their
    traceback reports.  ``ctx`` supplies the run-wide knobs (workers,
    cache dir) and the *default* seed/scale —
    a spec's own ``seed``/``scale`` fields win for that job.
    """
    ctx = ctx or RunContext()
    out_dir = out_dir or os.path.join(jobs_dir, "out")
    errors_dir = errors_dir or os.path.join(out_dir, ERRORS_DIRNAME)
    plan = faults.active_plan()

    paths = discover_jobs(jobs_dir)
    summary = BatchSummary(jobs_dir=jobs_dir, out_dir=out_dir,
                           errors_dir=errors_dir)
    log.event(_LOG, "batch.start", level=logging.INFO, jobs=len(paths),
              jobs_dir=jobs_dir, out_dir=out_dir)

    # Phase 1 — parse + validate every spec before any compute.
    runnable: List[Tuple[JobReport, str, Dict, Dict, str]] = []
    for path in paths:
        stem = os.path.splitext(os.path.basename(path))[0]
        report = JobReport(stem=stem, spec_path=path, status="pending")
        summary.reports.append(report)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                spec = json.load(handle)
            name, overrides, context_fields, artefact = \
                validate_spec(spec, path)
        except (OSError, ValueError) as error:   # json errors are Value
            _quarantine(report, errors_dir, error)
            continue
        report.experiment = name
        runnable.append((report, name, overrides, context_fields,
                         artefact or stem))

    # Phase 2 — run the valid jobs, newest failure quarantined, loop
    # continues.  Artefact-exists jobs are skipped (resume path).
    with exported_cache_knob(ctx.cache_dir):
        for index, (report, name, overrides, context_fields,
                    artefact_stem) in enumerate(runnable):
            artefact_path = os.path.join(out_dir, f"{artefact_stem}.txt")
            report.artefact_path = artefact_path
            if os.path.exists(artefact_path):
                report.status = "skipped"
                report.detail = f"{artefact_stem}.txt exists"
                log.event(_LOG, "batch.job_skipped", level=logging.INFO,
                          job=report.stem, artefact=artefact_path)
                continue
            if plan is not None and plan.job_fault(report.stem):
                kind = plan.job_fault(report.stem)
                if kind == "interrupt":
                    # Simulates the operator killing the run mid-flight
                    # (resume tests): propagate, never quarantine.
                    raise KeyboardInterrupt(
                        f"injected interrupt at job {report.stem}")
            log.event(_LOG, "batch.job_start", level=logging.INFO,
                      job=report.stem, experiment=name,
                      position=f"{index + 1}/{len(runnable)}")
            try:
                if plan is not None and \
                        plan.job_fault(report.stem) == "error":
                    raise RuntimeError(
                        f"injected job error at {report.stem}")
                job_ctx = _job_context(ctx, out_dir, context_fields)
                result = get_experiment(name).run(job_ctx, **overrides)
                reporting.write_artifact(artefact_path, result.text + "\n")
            except (KeyboardInterrupt, SystemExit):
                raise            # the operator, not the job
            except BaseException as error:
                _quarantine(report, errors_dir, error)
                continue
            report.status = "completed"
            report.detail = f"{artefact_stem}.txt"
            log.event(_LOG, "batch.job_completed", level=logging.INFO,
                      job=report.stem, artefact=artefact_path)

    summary.summary_path = os.path.join(out_dir, f"{SUMMARY_STEM}.txt")
    reporting.write_artifact(summary.summary_path, summary.render() + "\n")
    log.event(_LOG, "batch.done", level=logging.INFO,
              completed=summary.completed, skipped=summary.skipped,
              quarantined=summary.quarantined,
              summary=summary.summary_path)
    return summary


def _job_context(ctx: RunContext, out_dir: str,
                 context_fields: Dict) -> RunContext:
    """The per-job :class:`RunContext`: batch-wide knobs, with the
    spec's own seed/scale taking precedence."""
    return RunContext(
        seed=context_fields.get("seed", ctx.seed),
        scale=context_fields.get("scale", ctx.scale),
        workers=ctx.workers, cache_dir=ctx.cache_dir,
        results_dir=out_dir)
