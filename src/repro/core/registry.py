"""Declarative experiment registry: one :class:`Experiment` per paper
table/figure, all driven through one lifecycle.

Every experiment is a registered, declarative object with four hooks —

* ``prepare(ctx, params)``  -> state shared by every unit (prepared
  scenes, references, supervision caches), computed once per run;
* ``units(ctx, params, shared)`` -> a ``(function, kwargs)`` task
  list, run in process in order;
* ``reduce(results, params)``    -> the experiment's row structure;
* ``render(rows, params)``       -> the committed artefact text under
  ``benchmarks/results/`` — byte-identical to the historical
  harness output.

Adding a scenario is a ~20-line :func:`register` call instead of a new
hand-rolled harness; ``python -m repro`` (see :mod:`repro.cli`) lists,
runs, and sweeps everything registered here, and the ``benchmarks/``
suite regenerates the committed artefacts through the same objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..hardware.accelerator import variant_config
from ..scenes.datasets import DATASETS
from . import experiments as E
from .context import LLFF_EVAL_SCENES, RunContext
from .figures import ascii_line_chart, stacked_latency_chart
from .pipeline import CoDesignPipeline
from .reporting import format_table, ratio_note
from .scene_cache import exported_cache_knob
from . import serve as S

Task = Tuple[Callable, Dict[str, Any]]

# Paper reference values quoted inside the committed artefacts.
PAPER_TABLE2_MFLOPS = {"vanilla IBRNet": 13.94, "- ray transformer": 13.25,
                       "+ Ray-Mixer": 13.88, "+ Coarse-then-Focus": 4.27,
                       "+ channel pruning (10 views)": 0.80,
                       "+ channel pruning (6 views)": 0.51,
                       "+ channel pruning (4 views)": 0.37}
PAPER_TABLE3_MFLOPS = {("IBRNet", 4): 6.31, ("Gen-NeRF", 4): 0.368,
                       ("IBRNet", 10): 13.94, ("Gen-NeRF", 10): 0.803}
PAPER_BEST_FPS_2080TI = 0.249        # Sec. 2.3: "<= 0.249 FPS"
PAPER_ATTENTION_TIME_SHARE = 0.441   # Sec. 2.3, on LLFF
PAPER_SPEEDUP_2080TI = {"deepvoxels": 239.3, "nerf_synthetic": 246.0,
                        "llff": 255.8}
PAPER_SPEEDUP_TX2_LLFF = 7448.9
PAPER_MIN_SPEEDUP = 208.8            # Fig. 11: ">= 208.8x" everywhere


# ----------------------------------------------------------------------
# Experiment objects
# ----------------------------------------------------------------------
@dataclass
class ExperimentResult:
    """One registry run: the reduced rows plus the rendered artefact."""

    name: str
    params: Dict[str, Any]
    rows: Any
    text: str


@dataclass
class Experiment:
    """One declarative paper experiment.

    ``params`` is the committed-artefact configuration; a run may
    override any subset (unknown keys are rejected).  ``scale_rules``
    maps work-knob parameters to their floor value: a
    :class:`RunContext` with ``scale != 1`` multiplies each knob and
    clamps at the floor, giving a uniform "downscaled run" semantics
    for the CLI and smoke tests.
    """

    name: str
    title: str
    kind: str               # "table" | "figure" | "ablation"
    artefact: str           # stem under benchmarks/results/
    description: str
    params: Mapping[str, Any]
    units: Callable[[RunContext, Dict[str, Any], Any], List[Task]]
    reduce: Callable[[List[Any], Dict[str, Any]], Any]
    render: Callable[[Any, Dict[str, Any]], str]
    prepare: Optional[Callable[[RunContext, Dict[str, Any]], Any]] = None
    scale_rules: Mapping[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def bind(self, ctx: RunContext,
             overrides: Mapping[str, Any]) -> Dict[str, Any]:
        """Resolve the effective parameters for one run: defaults, then
        the context's scale and seed, then explicit overrides."""
        unknown = sorted(set(overrides) - set(self.params))
        if unknown:
            raise KeyError(
                f"unknown parameter(s) {unknown} for experiment "
                f"{self.name!r}; valid: {sorted(self.params)}")
        params = dict(self.params)
        if ctx.scale != 1.0:
            for key, floor in self.scale_rules.items():
                value = params[key]
                scaled = value * ctx.scale
                if isinstance(value, int):
                    scaled = int(round(scaled))
                params[key] = max(floor, scaled)
        if ctx.seed is not None and "seed" in params:
            params["seed"] = ctx.seed
        params.update(overrides)
        return params

    # ------------------------------------------------------------------
    def run(self, ctx: Optional[RunContext] = None,
            **overrides) -> ExperimentResult:
        """prepare -> units -> reduce -> render, all in this process.

        The ``prepare`` hook runs once and its state is handed to every
        unit, so a ladder of variants shares one set of prepared scenes
        and their supervision caches.  ``ctx.workers`` reaches the hooks
        that shard their own work (source-view renders, serve
        dispatches).  An explicit ``ctx.cache_dir`` is exported through
        the ``REPRO_CACHE_DIR`` knob for the duration of the run.
        """
        ctx = ctx or RunContext()
        params = self.bind(ctx, overrides)
        with exported_cache_knob(ctx.cache_dir):
            shared = self.prepare(ctx, params) if self.prepare else None
            tasks = self.units(ctx, params, shared)
            results = [function(**kwargs) for function, kwargs in tasks]
        rows = self.reduce(results, params)
        text = self.render(rows, params)
        return ExperimentResult(name=self.name, params=params, rows=rows,
                                text=text)

    # ------------------------------------------------------------------
    def regenerate(self, ctx: Optional[RunContext] = None,
                   **overrides) -> Tuple[ExperimentResult, str]:
        """Run and atomically (re)write the committed artefact."""
        ctx = ctx or RunContext()
        result = self.run(ctx, **overrides)
        return result, ctx.write_artifact(self.artefact, result.text)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    if experiment.name in _REGISTRY:
        raise ValueError(f"experiment {experiment.name!r} already "
                         f"registered")
    _REGISTRY[experiment.name] = experiment
    return experiment


def get_experiment(name: str) -> Experiment:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown experiment {name!r}; "
                       f"available: {', '.join(_REGISTRY)}") from None


def experiment_names() -> List[str]:
    return list(_REGISTRY)


def all_experiments() -> List[Experiment]:
    return list(_REGISTRY.values())


def _single_unit(function: Callable, *param_names: str
                 ) -> Callable[[RunContext, Dict[str, Any], Any],
                               List[Task]]:
    """Units hook for one-body experiments: a single task carrying the
    named parameters."""
    def units(ctx, params, shared):
        return [(function, {name: params[name] for name in param_names})]

    return units


def _first(results, params):
    return results[0]


# ----------------------------------------------------------------------
# Table 1 — area / power
# ----------------------------------------------------------------------
def _render_table1(rows, params) -> str:
    return format_table(
        ["Module", "Area mm^2", "Paper", "Power mW", "Paper"],
        rows, title="Table 1 — Gen-NeRF hardware module area/power")


register(Experiment(
    name="table1", title="Table 1 — area & power", kind="table",
    artefact="table1_area_power",
    description="Per-module area/power of the accelerator vs the "
                "paper's 28 nm @ 1 GHz budget.",
    params={},
    units=_single_unit(E._table1_unit),
    reduce=_first, render=_render_table1))


# ----------------------------------------------------------------------
# Fig. 2 — GPU latency breakdown
# ----------------------------------------------------------------------
def _render_fig2(results, params) -> str:
    rows = []
    for device, per_dataset in results.items():
        for dataset, phases in per_dataset.items():
            rows.append([device, dataset,
                         phases["acquire_features"], phases["mlp"],
                         phases["ray_transformer"], phases["others"],
                         phases["total"], phases["fps"]])
    text = format_table(
        ["Device", "Dataset", "Acquire s", "MLP s", "RayTrans s",
         "Others s", "Total s", "FPS"],
        rows, title="Fig. 2 — GPU latency breakdown (vanilla model)")
    best_fps = max(phases["fps"]
                   for phases in results["rtx2080ti"].values())
    attention = results["rtx2080ti"]["llff"]["attention_dnn_fraction"]
    text += "\n\n" + ratio_note(best_fps, PAPER_BEST_FPS_2080TI,
                                "best 2080Ti FPS")
    text += "\n" + ratio_note(attention, PAPER_ATTENTION_TIME_SHARE,
                              "ray-transformer share of DNN time (LLFF)")
    return text


register(Experiment(
    name="fig2", title="Fig. 2 — GPU latency breakdown", kind="figure",
    artefact="fig2_gpu_profile",
    description="Latency phases of the vanilla profiling workload on "
                "an RTX 2080Ti and a Jetson TX2.",
    params={},
    units=_single_unit(E._fig2_unit),
    reduce=_first, render=_render_fig2))


# ----------------------------------------------------------------------
# Fig. 9 — PSNR vs sampled points / MFLOPs
# ----------------------------------------------------------------------
def _fig9_units(ctx, params, shared) -> List[Task]:
    unit = dict(seed=params["seed"], step=params["step"],
                reference_points=params["reference_points"],
                pairs=tuple(tuple(pair) for pair in params["pairs"]),
                uniform_points=tuple(params["uniform_points"]),
                image_scale=params["image_scale"])
    return [(E._fig9_unit, dict(dataset=dataset, **unit))
            for dataset in params["datasets"]]


def _reduce_fig9(results, params):
    return dict(zip(params["datasets"], results))


def _render_fig9(results, params) -> str:
    rows = []
    for dataset, curves in results.items():
        for curve_name, points in curves.items():
            for point in points:
                rows.append([dataset, curve_name, point.label,
                             point.avg_points, point.mflops_per_pixel,
                             point.psnr])
    text = format_table(
        ["Dataset", "Curve", "Config", "Avg points", "MFLOPs/px", "PSNR"],
        rows, title="Fig. 9 — rendering quality vs sampling budget")
    for dataset, curves in results.items():
        chart = ascii_line_chart(
            {name: ([p.avg_points for p in pts], [p.psnr for p in pts])
             for name, pts in curves.items()},
            title=f"Fig. 9 (top) — {dataset}", x_label="avg points/ray",
            y_label="PSNR dB")
        text += "\n\n" + chart
    return text


register(Experiment(
    name="fig9", title="Fig. 9 — quality vs sampling budget",
    kind="figure", artefact="fig9_psnr_vs_points",
    description="Oracle-field PSNR of coarse-then-focus vs hierarchical "
                "sampling across the three dataset families.",
    params=dict(datasets=E.PROFILE_DATASETS, seed=3, step=4,
                reference_points=384, pairs=E.FIG9_PAIRS,
                uniform_points=E.FIG9_UNIFORM_POINTS, image_scale=1 / 8),
    units=_fig9_units, reduce=_reduce_fig9, render=_render_fig9,
    scale_rules={"reference_points": 64}))


# ----------------------------------------------------------------------
# Table 2 — component ablation
# ----------------------------------------------------------------------
def _table2_prepare_hook(ctx, params):
    # The scene source-view renders shard over the frame pool.
    return E._table2_prepare(**params, workers=ctx.workers)


def _table2_units(ctx, params, shared) -> List[Task]:
    return [(E._table2_unit, dict(kind=kind, prep=shared, **params))
            for kind in E.TABLE2_VARIANTS]


def _reduce_table2(results, params):
    return [row for unit_rows in results for row in unit_rows]


def _table2_cells(rows, scenes,
                  paper: Optional[Dict[str, float]] = None) -> List[list]:
    table = []
    for row in rows:
        cells = [row.method, row.mflops_per_pixel]
        for scene in scenes:
            psnr, lpips = row.per_scene[scene]
            cells.append(f"{psnr:.2f}/{lpips:.3f}")
        if paper is not None:
            cells.append(paper.get(row.method, float("nan")))
        table.append(cells)
    return table


def _render_table2(rows, params) -> str:
    # Scene columns in the canonical LLFF order, restricted to the
    # scenes this run actually trained on (downscaled runs may use a
    # subset; the committed artefact uses all four).
    scenes = [name for name in LLFF_EVAL_SCENES
              if name in params["scenes"]]
    return format_table(
        ["Method", "MFLOPs/px", *scenes, "paper MFLOPs/px"],
        _table2_cells(rows, scenes, paper=PAPER_TABLE2_MFLOPS),
        title="Table 2 — component ablation (PSNR/LPIPS-proxy)")


register(Experiment(
    name="table2", title="Table 2 — component ablation", kind="table",
    artefact="table2_ablation",
    description="Quality/FLOPs ladder of the technique stack, trained "
                "per variant on the four LLFF analogues.",
    params=dict(train_steps=300, eval_step=6, image_scale=1 / 10,
                num_points=20, seed=1, scenes=LLFF_EVAL_SCENES,
                num_source_views=10),
    prepare=_table2_prepare_hook, units=_table2_units,
    reduce=_reduce_table2, render=_render_table2,
    scale_rules={"train_steps": 6}))


# ----------------------------------------------------------------------
# Table 3 — per-scene finetuning
# ----------------------------------------------------------------------
_TABLE3_UNIT_KEYS = ("train_steps", "finetune_steps", "eval_step",
                     "image_scale", "num_points", "seed")


def _table3_prepare_hook(ctx, params):
    prep_keys = ("train_steps", "eval_step", "image_scale", "num_points",
                 "seed")
    prep_params = {key: params[key] for key in prep_keys}
    return {views: E._table3_prepare(views=views, workers=ctx.workers,
                                     **prep_params)
            for views in params["view_counts"]}


def _table3_units(ctx, params, shared) -> List[Task]:
    unit_params = {key: params[key] for key in _TABLE3_UNIT_KEYS}
    tasks: List[Task] = []
    for views in params["view_counts"]:
        for method in E.TABLE3_METHODS:
            tasks.append((E._table3_unit,
                          dict(method=method, views=views,
                               prep=shared[views], **unit_params)))
    return tasks


def _reduce_table3(results, params):
    return list(results)


def _render_table3(rows, params) -> str:
    return format_table(
        ["Method", "MFLOPs/px", *LLFF_EVAL_SCENES],
        _table2_cells(rows, LLFF_EVAL_SCENES),
        title="Table 3 — per-scene finetuning (PSNR/LPIPS-proxy)")


register(Experiment(
    name="table3", title="Table 3 — per-scene finetuning", kind="table",
    artefact="table3_finetune",
    description="IBRNet vs Gen-NeRF after per-scene finetuning at 4 "
                "and 10 source views.",
    params=dict(train_steps=260, finetune_steps=60, eval_step=6,
                image_scale=1 / 10, num_points=20, seed=1,
                view_counts=(4, 10)),
    prepare=_table3_prepare_hook, units=_table3_units,
    reduce=_reduce_table3, render=_render_table3,
    scale_rules={"train_steps": 5, "finetune_steps": 3}))


# ----------------------------------------------------------------------
# Fig. 10 — throughput comparison
# ----------------------------------------------------------------------
def _render_fig10(results, params) -> str:
    rows = []
    for dataset, r in results.items():
        rows.append([dataset, r["gen_nerf_fps"], r["rtx2080ti_fps"],
                     r["tx2_fps"], r["speedup_vs_2080ti"],
                     r["speedup_vs_tx2"]])
    text = format_table(
        ["Dataset", "Gen-NeRF FPS", "2080Ti FPS", "TX2 FPS",
         "Speedup vs 2080Ti", "vs TX2"],
        rows, title="Fig. 10 — throughput comparison")
    notes = [ratio_note(results[d]["speedup_vs_2080ti"],
                        PAPER_SPEEDUP_2080TI[d], f"{d} speedup vs 2080Ti")
             for d in results]
    notes.append(ratio_note(results["llff"]["speedup_vs_tx2"],
                            PAPER_SPEEDUP_TX2_LLFF, "llff speedup vs TX2"))
    return text + "\n\n" + "\n".join(notes)


register(Experiment(
    name="fig10", title="Fig. 10 — throughput comparison", kind="figure",
    artefact="fig10_fps",
    description="Gen-NeRF accelerator FPS vs RTX 2080Ti and Jetson TX2 "
                "on the three datasets.",
    params={"seed": 0},
    units=_single_unit(E._fig10_unit, "seed"),
    reduce=_first, render=_render_fig10))


# ----------------------------------------------------------------------
# Fig. 11 — scalability sweeps
# ----------------------------------------------------------------------
def _fig11_units(ctx, params, shared) -> List[Task]:
    seed = params["seed"]
    tasks = [(E._fig11_unit, dict(axis="views", value=int(views),
                                  seed=seed))
             for views in params["view_counts"]]
    tasks += [(E._fig11_unit, dict(axis="points", value=int(points),
                                   seed=seed))
              for points in params["point_counts"]]
    return tasks


def _reduce_fig11(results, params):
    split = len(params["view_counts"])
    return {"views": results[:split], "points": results[split:]}


def _render_fig11(results, params) -> str:
    view_rows = [[r["num_views"], r["gen_nerf_fps"], r["rtx2080ti_fps"],
                  r["tx2_fps"], r["speedup_vs_2080ti"]]
                 for r in results["views"]]
    point_rows = [[r["points_per_ray"], r["gen_nerf_fps"],
                   r["rtx2080ti_fps"], r["tx2_fps"],
                   r["speedup_vs_2080ti"]]
                  for r in results["points"]]
    text = format_table(
        ["#Views", "Gen-NeRF FPS", "2080Ti FPS", "TX2 FPS", "Speedup"],
        view_rows, title="Fig. 11 (left) — FPS vs #source views")
    text += "\n\n" + format_table(
        ["#Points", "Gen-NeRF FPS", "2080Ti FPS", "TX2 FPS", "Speedup"],
        point_rows, title="Fig. 11 (right) — FPS vs #sampled points")
    text += "\n\n" + ascii_line_chart(
        {"gen_nerf": ([r["num_views"] for r in results["views"]],
                      [r["gen_nerf_fps"] for r in results["views"]]),
         "2080Ti x100": ([r["num_views"] for r in results["views"]],
                         [100 * r["rtx2080ti_fps"]
                          for r in results["views"]])},
        title="Fig. 11 (left) — FPS vs #views (GPU scaled x100)",
        x_label="#source views", y_label="FPS")
    return text


register(Experiment(
    name="fig11", title="Fig. 11 — scalability", kind="figure",
    artefact="fig11_scalability",
    description="Accelerator advantage vs #source views and #sampled "
                "points on NeRF-Synthetic 800x800.",
    params=dict(view_counts=(10, 6, 4, 2, 1),
                point_counts=(128, 112, 96, 80, 64), seed=0),
    units=_fig11_units, reduce=_reduce_fig11, render=_render_fig11))


# ----------------------------------------------------------------------
# Table 4 — device comparison
# ----------------------------------------------------------------------
def _render_table4(rows, params) -> str:
    table = [[r["device"], r["sram_mb"], r["area_mm2"], r["frequency_ghz"],
              r["dram"], r["bandwidth_gb_s"], r["technology_nm"],
              r["typical_power_w"], r["typical_fps"]] for r in rows]
    text = format_table(
        ["Device", "SRAM MB", "Area mm^2", "GHz", "DRAM", "GB/s", "nm",
         "Power W", "Typical FPS"],
        table, title="Table 4 — accelerator and device comparison")
    simulated = rows[0]
    paper_gen_nerf = next(r for r in rows
                          if r["device"] == "Gen-NeRF (paper)")
    text += "\n\n" + ratio_note(simulated["typical_fps"],
                                paper_gen_nerf["typical_fps"],
                                "simulated vs paper typical FPS")
    return text


register(Experiment(
    name="table4", title="Table 4 — device comparison", kind="table",
    artefact="table4_devices",
    description="Device spec sheet: our simulated Gen-NeRF row next to "
                "the paper's reported devices.",
    params={"seed": 0},
    units=_single_unit(E._table4_unit, "seed"),
    reduce=_first, render=_render_table4))


# ----------------------------------------------------------------------
# Fig. 12 — dataflow / storage ablation
# ----------------------------------------------------------------------
def _fig12_units(ctx, params, shared) -> List[Task]:
    return [(E._fig12_unit, dict(views=views, seed=params["seed"]))
            for views in params["view_counts"]]


def _reduce_fig12(results, params):
    return dict(zip(params["view_counts"], results))


def _render_fig12(results, params) -> str:
    rows = []
    for views, variants in results.items():
        for name, values in variants.items():
            rows.append([views, name, values["data_s"] * 1e3,
                         values["compute_s"] * 1e3,
                         values["total_s"] * 1e3,
                         values["exposed_data_s"] * 1e3,
                         values["utilization"], values["prefetch_mb"]])
    text = format_table(
        ["#Views", "Variant", "Data ms", "Compute ms", "Total ms",
         "Exposed-data ms", "PE util", "Prefetch MB"],
        rows, title="Fig. 12 — dataflow & storage-format ablation")
    for views, variants in results.items():
        chart = stacked_latency_chart(
            {name: {"data(exposed)": v["exposed_data_s"],
                    "compute": v["compute_s"]}
             for name, v in variants.items()},
            title=f"Fig. 12 — latency breakdown at {views} views")
        text += "\n\n" + chart
    return text


register(Experiment(
    name="fig12", title="Fig. 12 — dataflow ablation", kind="figure",
    artefact="fig12_dataflow_ablation",
    description="Latency/utilisation of ours vs Var-1/2/3 dataflow and "
                "storage variants at {10, 6, 2} views.",
    params=dict(view_counts=(10, 6, 2), seed=0),
    units=_fig12_units, reduce=_reduce_fig12, render=_render_fig12))


# ----------------------------------------------------------------------
# Extension ablations
# ----------------------------------------------------------------------
def _render_coarse_budget(rows, params) -> str:
    table = [[row["coarse_points"], row["tau"], row["avg_points"],
              row["psnr"]] for row in rows]
    return format_table(["N_c", "tau", "avg points", "PSNR"],
                        table, title="Ablation — coarse budget vs quality")


register(Experiment(
    name="ablation_coarse_budget",
    title="Ablation — coarse budget vs quality", kind="ablation",
    artefact="ablation_coarse_budget",
    description="PSNR sensitivity to the coarse-pass budget N_c and "
                "critical-point threshold tau.",
    params=dict(dataset="nerf_synthetic", seed=3, step=8,
                image_scale=1 / 8, coarse_counts=(4, 8, 16, 32),
                taus=(1e-4, 1e-3, 1e-2), focused=32),
    units=_single_unit(E._coarse_budget_unit, "dataset", "seed", "step",
                       "image_scale", "coarse_counts", "taus", "focused"),
    reduce=_first, render=_render_coarse_budget))


def _render_patch_candidates(rows, params) -> str:
    table = [[row["num_candidates"], row["fps"], row["prefetch_mb"],
              row["utilization"]] for row in rows]
    return format_table(["M", "FPS", "Prefetch MB", "PE util"],
                        table, title="Ablation — candidate-set size")


register(Experiment(
    name="ablation_patch_candidates",
    title="Ablation — candidate-set size", kind="ablation",
    artefact="ablation_patch_candidates",
    description="Prefetch traffic and FPS vs the scheduler's "
                "candidate-shape menu size M.",
    params={"seed": 0},
    units=_single_unit(E._patch_candidate_unit, "seed"),
    reduce=_first, render=_render_patch_candidates))


# ----------------------------------------------------------------------
# occupancy_profile — per-ray valid-sample occupancy by scene family
# ----------------------------------------------------------------------
_OCCUPANCY_BASE_KEYS = ("seeds", "step", "image_scale", "coarse_points",
                        "focused", "n_max", "tau")


def _occupancy_units(ctx, params, shared) -> List[Task]:
    base = {key: params[key] for key in _OCCUPANCY_BASE_KEYS}
    return [(E._occupancy_profile_unit, dict(family=family, **base))
            for family in params["families"]]


def _reduce_rows_list(results, params):
    return list(results)


def _render_occupancy(rows, params) -> str:
    n_max = params["n_max"]
    table = []
    for row in rows:
        total = max(sum(row["histogram"]), 1)
        spark = "".join(
            " .:-=+*#%@"[min(9, (10 * count) // total)]
            for count in row["histogram"])
        table.append([row["family"], row["rays"],
                      100.0 * row["mean_occupancy"],
                      100.0 * row["empty_fraction"],
                      100.0 * row["saturated_fraction"],
                      f"|{spark}|"])
    body = format_table(
        ["Family", "Rays", "Mean occ %", "Empty %", "Saturated %",
         "Hist 0..100%"],
        table, title="Per-ray valid-sample occupancy (counts / n_max)",
        precision=1)
    return (body + "\n\n"
            f"n_max={n_max}, N_c={params['coarse_points']}, "
            f"N_f={params['focused']}, tau={params['tau']}; oracle coarse "
            "pass, seeds " + ",".join(str(s) for s in params["seeds"])
            + ".\nThe LLFF analogues pin near saturation; 'thicket' keeps "
            "occupancy high\nbut unsaturated and 'orbit_sparse' holds the "
            "sub-50% regime the packed\nfine pass (docs/performance.md) is "
            "benchmarked in.\n")


# ----------------------------------------------------------------------
# serve_replay — deterministic traffic replay through the render daemon
# ----------------------------------------------------------------------
_SERVE_REPLAY_BASE_KEYS = (
    "requests_per_client", "seed", "batch_window", "max_batch",
    "queue_limit", "scene_capacity", "scenes", "qualities", "image_scale",
    "views", "step", "source_points", "mean_gap")


def _serve_replay_units(ctx, params, shared) -> List[Task]:
    base = {key: params[key] for key in _SERVE_REPLAY_BASE_KEYS}
    base["workers"] = ctx.workers
    tasks = [(S._serve_replay_unit, dict(level=int(level), burst=False,
                                         **base))
             for level in params["levels"]]
    # One burst row past the high-water mark proves deterministic
    # shedding in the committed artefact.
    tasks.append((S._serve_replay_unit,
                  dict(level=int(params["burst_clients"]), burst=True,
                       **base)))
    return tasks


def _reduce_serve_replay(results, params):
    return list(results)


register(Experiment(
    name="serve_replay", title="serve — deterministic traffic replay",
    kind="table", artefact="serve_replay",
    description="Cross-request micro-batching service replayed against "
                "seeded synthetic traffic at several concurrency levels "
                "(virtual clock; byte-stable pixels).",
    params=dict(seed=0, levels=(1, 4, 16), requests_per_client=3,
                batch_window=4, max_batch=192, queue_limit=12,
                scene_capacity=2, scenes=("fern", "fortress"),
                qualities=("draft", "standard", "high", "gen_nerf"),
                image_scale=1 / 16, views=4, step=8, source_points=32,
                mean_gap=3, burst_clients=24),
    units=_serve_replay_units, reduce=_reduce_serve_replay,
    render=S.render_serve_replay,
    scale_rules={"requests_per_client": 1, "burst_clients": 4}))


register(Experiment(
    name="occupancy_profile",
    title="Occupancy — valid samples per ray by family", kind="table",
    artefact="occupancy_profile",
    description="Per-ray occupancy histograms of the coarse-then-focus "
                "plan across all scene families; the evidence that the "
                "occupancy-stress families de-saturate n_max and the "
                "sparse fine pass has something to skip.",
    params=dict(families=E.OCCUPANCY_FAMILIES, seeds=(1, 2, 3), step=4,
                image_scale=1 / 8, coarse_points=64, focused=8, n_max=32,
                tau=1e-3),
    units=_occupancy_units, reduce=_reduce_rows_list,
    render=_render_occupancy))


# ----------------------------------------------------------------------
# Grid sweeps (CLI `python -m repro sweep`)
# ----------------------------------------------------------------------
SWEEP_VARIANTS = ("ours", "var1", "var2", "var3")
SWEEP_AXES = ("dataset", "views", "points", "variant")
SWEEP_DEFAULT_GRID = {"dataset": ("nerf_synthetic",), "views": (6,),
                      "points": (64,), "variant": ("ours",)}


def parse_sweep_grid(tokens: Sequence[str]) -> Dict[str, tuple]:
    """Parse ``axis=v1,v2,...`` grid tokens into a full sweep grid.

    Axes: ``dataset`` (a dataset family), ``views`` / ``points``
    (positive ints), ``variant`` (a :func:`variant_config` name — the
    hardware axis).  Unspecified axes take the single-point defaults.
    """
    grid = {axis: tuple(values)
            for axis, values in SWEEP_DEFAULT_GRID.items()}
    for token in tokens:
        axis, _, values_text = token.partition("=")
        if axis not in SWEEP_AXES or not values_text:
            raise ValueError(
                f"bad grid token {token!r}; expected axis=v1,v2 with "
                f"axis in {SWEEP_AXES}")
        values = [value for value in values_text.split(",") if value]
        if not values:
            raise ValueError(
                f"bad grid token {token!r}; expected axis=v1,v2 with "
                f"axis in {SWEEP_AXES}")
        if axis in ("views", "points"):
            parsed = []
            for value in values:
                try:
                    number = int(value)
                except ValueError:
                    raise ValueError(f"{axis} values must be integers, "
                                     f"got {value!r}") from None
                if number <= 0:
                    raise ValueError(f"{axis} values must be positive, "
                                     f"got {value!r}")
                parsed.append(number)
            grid[axis] = tuple(parsed)
        elif axis == "dataset":
            for value in values:
                if value not in DATASETS:
                    raise ValueError(f"unknown dataset {value!r}; "
                                     f"choose from {sorted(DATASETS)}")
            grid[axis] = tuple(values)
        else:
            for value in values:
                if value not in SWEEP_VARIANTS:
                    raise ValueError(f"unknown hardware variant "
                                     f"{value!r}; choose from "
                                     f"{SWEEP_VARIANTS}")
            grid[axis] = tuple(values)
    return grid


def _sweep_unit(dataset: str, views: int, points: int, variant: str,
                seed: int) -> Dict[str, object]:
    """One sweep grid point: the co-design pipeline with the named
    hardware variant."""
    pipeline = CoDesignPipeline(variant_config(variant))
    accel = pipeline.simulate_accelerator(dataset, num_views=views,
                                          points_per_ray=points, seed=seed)
    gpu = pipeline.simulate_gpu("rtx2080ti", dataset, num_views=views,
                                points_per_ray=points)
    return {
        "dataset": dataset,
        "num_views": views,
        "points_per_ray": points,
        "variant": variant,
        "gen_nerf_fps": accel.fps,
        "rtx2080ti_fps": gpu.fps,
        "speedup_vs_2080ti": accel.fps / max(gpu.fps, 1e-12),
        "prefetch_mb": accel.prefetch_bytes / 1e6,
        "pe_utilization": accel.pe_utilization,
        "energy_mj": accel.energy_j * 1e3,
    }


def render_sweep(rows: Sequence[Dict[str, object]]) -> str:
    table = [[r["dataset"], r["variant"], r["num_views"],
              r["points_per_ray"], r["gen_nerf_fps"], r["rtx2080ti_fps"],
              r["speedup_vs_2080ti"], r["prefetch_mb"],
              r["pe_utilization"], r["energy_mj"]] for r in rows]
    return format_table(
        ["Dataset", "Variant", "#Views", "#Points", "Gen-NeRF FPS",
         "2080Ti FPS", "Speedup", "Prefetch MB", "PE util", "Energy mJ"],
        table,
        title=f"Registry sweep — {len(table)} grid point(s) over "
              f"dataset x views x points x variant")


def run_sweep(grid: Optional[Mapping[str, Sequence]] = None,
              ctx: Optional[RunContext] = None
              ) -> Tuple[List[Dict[str, object]], str]:
    """Run a dataset x views x points x hardware-variant grid.

    Every grid point is an independent simulator run; rows come back
    in grid order — datasets outermost, variants innermost.
    """
    ctx = ctx or RunContext()
    full = dict(SWEEP_DEFAULT_GRID)
    full.update({axis: tuple(values)
                 for axis, values in (grid or {}).items()})
    seed = ctx.seed if ctx.seed is not None else 0
    rows = [_sweep_unit(dataset, views, points, variant, seed)
            for dataset, views, points, variant in itertools.product(
                full["dataset"], full["views"], full["points"],
                full["variant"])]
    return rows, render_sweep(rows)
