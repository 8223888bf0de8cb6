"""``repro.core`` — co-design glue and the experiment registry.

:mod:`repro.core.pipeline` runs paper-scale workloads on device models;
:mod:`repro.core.registry` holds one declarative :class:`Experiment`
per paper table/figure (prepare → units → reduce → render) driven by a
:class:`repro.core.context.RunContext`; :mod:`repro.core.experiments`
holds the unit bodies, run in process; :mod:`repro.core.frame_pool`'s
one fault-tolerant pool executor shards source-view renders and serve
dispatches; :mod:`repro.core.reporting` renders artefact text.
``python -m repro`` (:mod:`repro.cli`) lists, runs, sweeps, and
batch-ingests everything registered.

Serving layer (``docs/serving.md``): :mod:`repro.core.serve` is the
long-lived render daemon behind ``python -m repro serve`` — a
virtual-clock scheduler coalescing rays across concurrent requests
into batched dispatches, byte-identical to direct renders.

Robustness layer (``docs/robustness.md``): :mod:`repro.core.faults`
injects deterministic worker crashes/hangs/corruption and owns the
retry policy; :mod:`repro.core.log` carries every fallback as a
structured event (``REPRO_LOG`` knob); :mod:`repro.core.batch` ingests
arbitrary job directories with per-job quarantine and resume.
"""

from .figures import ascii_line_chart, stacked_latency_chart
from .log import configure as configure_logging, get_logger
from .faults import (CorruptResult, FaultPlan, FaultSpec, backoff_delay,
                     detect_retries, detect_task_timeout, injected_faults)
from .batch import (BatchSpecError, BatchSummary, JobReport, run_batch,
                    validate_spec)
from .context import (LLFF_EVAL_SCENES, RunContext, clear_scene_memos,
                      llff_references, llff_scene_data)
from .frame_pool import map_chunks, resolve_workers, shutdown_pool
from .scene_cache import SceneCache
from .experiments import AblationRow, FIG9_PAIRS, Fig9Point
from .registry import (Experiment, ExperimentResult, all_experiments,
                       experiment_names, get_experiment, run_sweep)
from .pipeline import (CoDesignPipeline, HardwareRig, dataflow_ablation,
                       hardware_rig)
from .serve import (QUALITIES, RenderRequest, RenderResponse,
                    RenderScheduler, ReplayResult, SceneStore, ServeConfig,
                    ServeError, ServiceOverloaded, detect_batch_window,
                    detect_max_batch, detect_queue_limit, replay,
                    run_daemon, synthetic_trace)
from .reporting import format_table, ratio_note, write_artifact

__all__ = [
    "CoDesignPipeline", "HardwareRig", "hardware_rig", "dataflow_ablation",
    "format_table", "ratio_note", "write_artifact",
    "map_chunks", "resolve_workers", "shutdown_pool", "llff_scene_data",
    "llff_references", "clear_scene_memos", "LLFF_EVAL_SCENES",
    "RunContext", "SceneCache",
    "Experiment", "ExperimentResult", "get_experiment",
    "experiment_names", "all_experiments", "run_sweep",
    "Fig9Point", "AblationRow", "FIG9_PAIRS",
    "ascii_line_chart", "stacked_latency_chart",
    "configure_logging", "get_logger",
    "CorruptResult", "FaultPlan", "FaultSpec", "backoff_delay",
    "detect_retries", "detect_task_timeout", "injected_faults",
    "BatchSpecError", "BatchSummary", "JobReport", "run_batch",
    "validate_spec",
    "QUALITIES", "RenderRequest", "RenderResponse", "RenderScheduler",
    "ReplayResult", "SceneStore", "ServeConfig", "ServeError",
    "ServiceOverloaded", "detect_batch_window", "detect_max_batch",
    "detect_queue_limit", "replay", "run_daemon", "synthetic_trace",
]
