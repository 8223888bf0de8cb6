"""Experiment unit functions.

This module holds the *bodies* of every paper experiment as
module-level, argument-pure unit functions — the task list that
:class:`repro.core.registry.Experiment` objects run in process after
their shared ``prepare`` hook.  Hardware experiments execute at the
paper's full resolutions (the simulator does not march rays);
algorithm experiments take scale knobs so the numpy training stays
tractable, with defaults chosen to finish in minutes.  The
orchestration — prepare → units → reduce → render — lives entirely in
the registry layer: run an experiment with
``get_experiment(name).run(RunContext(...), **overrides)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import models as M
from ..hardware.area_power import PAPER_TABLE1, full_chip_budget
from ..hardware.energy import typical_chip_power_w
from ..hardware.gpu_model import GpuModel, JETSON_TX2, RTX_2080TI
from ..hardware.icarus import TABLE4_PAPER_ROWS
from ..models.oracle import OracleStrategy, oracle_render_image
from ..models.workload import (RenderWorkload, profiling_workload,
                               table2_workload, typical_workload)
from ..scenes.datasets import DATASETS, Scene, make_scene
from .context import LLFF_EVAL_SCENES, llff_references, llff_scene_data
from .pipeline import CoDesignPipeline, dataflow_ablation

PROFILE_DATASETS = ("deepvoxels", "nerf_synthetic", "llff")

# Fig. 9's coarse/focused pairs (paper Sec. 5.2).
FIG9_PAIRS = ((8, 8), (8, 16), (16, 32), (32, 64))
FIG9_UNIFORM_POINTS = (16, 24, 48, 96, 192)


# ----------------------------------------------------------------------
# Table 1 — area / power
# ----------------------------------------------------------------------
def _table1_unit() -> List[Tuple[str, float, float, float, float]]:
    """Rows: (module, area, paper area, power, paper power)."""
    budget = full_chip_budget()
    rows = []
    for key in ("scheduler", "ppu", "engine", "prefetch", "total"):
        paper_area, paper_power = PAPER_TABLE1[key]
        module = budget[key]
        rows.append((module.name, module.area_mm2, paper_area,
                     module.power_mw, paper_power))
    return rows


# ----------------------------------------------------------------------
# Fig. 2 — GPU latency breakdown of the profiling workload
# ----------------------------------------------------------------------
def _fig2_unit() -> Dict[str, Dict[str, Dict[str, float]]]:
    """{device: {dataset: {phase: seconds, 'total': s, 'fps': f}}}.

    Profiling setup of Sec. 2.3: 10 source views, 196 points per ray,
    the vanilla (ray transformer) model.
    """
    devices = {"rtx2080ti": GpuModel(RTX_2080TI), "tx2": GpuModel(JETSON_TX2)}
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for device_name, model in devices.items():
        per_dataset = {}
        for dataset in PROFILE_DATASETS:
            spec = DATASETS[dataset]
            workload = profiling_workload(spec.height, spec.width)
            sim = model.simulate_frame(workload)
            phases = {
                "acquire_features": sim.phase_seconds["gather"],
                "mlp": sim.phase_seconds["mlp"],
                "ray_transformer": sim.phase_seconds["ray_module"],
                "others": (sim.phase_seconds["sampling"]
                           + sim.phase_seconds["others"]),
            }
            phases["total"] = sim.total_time_s
            phases["fps"] = sim.fps
            phases["attention_dnn_fraction"] = sim.dnn_attention_fraction()
            per_dataset[dataset] = phases
        results[device_name] = per_dataset
    return results


# ----------------------------------------------------------------------
# Fig. 9 — PSNR vs sampled points / MFLOPs (oracle-field evaluation)
# ----------------------------------------------------------------------
@dataclass
class Fig9Point:
    label: str
    avg_points: float
    mflops_per_pixel: float
    psnr: float


def _fig9_flops(strategy: OracleStrategy, num_views: int = 10) -> float:
    """MFLOPs/pixel of the paper-scale model under this sampling."""
    if strategy.kind == "coarse_focus":
        workload = RenderWorkload(height=1, width=1, num_views=num_views,
                                  points_per_ray=strategy.points,
                                  ray_module="mixer",
                                  coarse_points=strategy.coarse_points,
                                  n_max=max(64, strategy.points
                                            + strategy.coarse_points))
    else:
        total = strategy.points + strategy.coarse_points
        workload = RenderWorkload(height=1, width=1, num_views=num_views,
                                  points_per_ray=total,
                                  ray_module="transformer")
    return workload.flops_per_pixel() / 1e6


def _fig9_unit(dataset: str, seed: int, step: int, reference_points: int,
               pairs: Sequence[Tuple[int, int]],
               uniform_points: Sequence[int], image_scale: float
               ) -> Dict[str, List[Fig9Point]]:
    """One dataset's Fig. 9 oracle sweep.

    Argument-pure (scene generation is deterministic), so curves are
    identical whatever ran before the unit.
    """
    scene = make_scene(dataset, seed=seed, image_scale=image_scale)
    reference = M.render_target_reference(scene, reference_points, step)
    curves: Dict[str, List[Fig9Point]] = {"gen_nerf": [], "ibrnet": []}

    background = scene.spec.white_background
    for coarse, focused in pairs:
        strategy = OracleStrategy(kind="coarse_focus",
                                  coarse_points=coarse, points=focused,
                                  white_background=background)
        image, stats = oracle_render_image(
            scene.field, scene.target_camera, scene.near, scene.far,
            strategy, step=step)
        curves["gen_nerf"].append(Fig9Point(
            label=strategy.label, avg_points=stats["avg_points"],
            mflops_per_pixel=_fig9_flops(strategy),
            psnr=M.psnr(image, reference)))

    for total in uniform_points:
        coarse = max(4, total // 3)
        strategy = OracleStrategy(kind="hierarchical",
                                  coarse_points=coarse,
                                  points=total - coarse,
                                  white_background=background)
        image, stats = oracle_render_image(
            scene.field, scene.target_camera, scene.near, scene.far,
            strategy, step=step)
        curves["ibrnet"].append(Fig9Point(
            label=strategy.label, avg_points=stats["avg_points"],
            mflops_per_pixel=_fig9_flops(strategy),
            psnr=M.psnr(image, reference)))
    return curves


# ----------------------------------------------------------------------
# Tables 2 & 3 — component ablation and per-scene finetuning
# ----------------------------------------------------------------------
@dataclass
class AblationRow:
    method: str
    mflops_per_pixel: float
    per_scene: Dict[str, Tuple[float, float]]   # scene -> (psnr, lpips)


def _small_model_config(ray_module: str, n_max: int) -> M.ModelConfig:
    return M.ModelConfig(feature_dim=12, view_hidden=12, score_hidden=6,
                         density_hidden=24, density_feature_dim=8,
                         ray_module=ray_module, n_max=n_max,
                         encoder_hidden=8)


def _subset_views(scene: Scene, source_images: np.ndarray, views: int,
                  feature_maps=None) -> Tuple[Scene, np.ndarray, object]:
    """Restrict a scene to its ``views`` closest source views (IBRNet's
    conditioning rule), keeping cameras, images, and any precomputed
    feature maps aligned.

    Feature maps subset by row: the encoder acts per view, so slicing
    the stacked full-view encoding is bit-identical to encoding the
    subset images.
    """
    from dataclasses import replace as dc_replace

    if views >= scene.num_source_views:
        return scene, source_images, feature_maps
    indices = scene.closest_source_indices(views)
    subset = dc_replace(scene, source_cameras=[scene.source_cameras[i]
                                               for i in indices])
    if feature_maps is not None:
        from .. import nn
        with nn.inference_mode():
            if isinstance(feature_maps, tuple):
                feature_maps = tuple(maps[indices] for maps in feature_maps)
            else:
                feature_maps = feature_maps[indices]
    return subset, source_images[indices], feature_maps


def _evaluate_model(model, scene: Scene, source_images: np.ndarray,
                    num_points: int, step: int,
                    hierarchical: bool = True,
                    views: Optional[int] = None,
                    reference: Optional[np.ndarray] = None,
                    feature_maps=None) -> Tuple[float, float]:
    """PSNR/LPIPS-proxy of a model render against the dense reference.

    ``reference`` and ``feature_maps`` accept precomputed values so
    harnesses that evaluate several variants on the same scene pay the
    dense reference render and the scene encoding once, not per variant
    (the reference depends only on (scene, step); subsetting views does
    not touch the target camera).
    """
    if views is not None:
        scene, source_images, feature_maps = _subset_views(
            scene, source_images, views, feature_maps)
    if reference is None:
        reference = M.render_target_reference(scene, num_points=192, step=step)
    if isinstance(model, M.GenNeRF):
        image, _ = M.render_image_gen_nerf(model, scene, source_images,
                                           step=step,
                                           feature_maps=feature_maps)
    else:
        image = M.render_image_ibrnet(model, scene, source_images,
                                      num_points=num_points, step=step,
                                      hierarchical=hierarchical,
                                      feature_maps=feature_maps)
    image = np.clip(image, 0.0, 1.0)
    return M.psnr(image, reference), M.lpips_proxy(image, reference)


TABLE2_VARIANTS = ("vanilla", "no_transformer", "mixer", "gen_nerf")


def _table2_prepare(train_steps: int, eval_step: int, image_scale: float,
                    num_points: int, seed: int, scenes: Sequence[str],
                    num_source_views: int, workers: Optional[int] = 1):
    """Deterministic shared inputs of every table-2 variant unit.

    Scene generation is crc32-seeded and the dense reference render
    depends only on (scene, step).  The scene/reference renders come
    from the process-wide memo
    (:func:`repro.core.context.llff_scene_data`) — optionally backed by
    the ``REPRO_CACHE_DIR`` disk cache — so Table 3 runs at the same
    view count and repeated harness invocations pay for them once.
    """
    memo_key = (float(image_scale), int(num_source_views), int(seed), 128)
    names = [name for name in LLFF_EVAL_SCENES if name in scenes]
    scene_data = llff_scene_data(image_scale, num_source_views, seed=seed,
                                 names=names, workers=workers)
    train_cfg = M.TrainConfig(steps=train_steps, rays_per_batch=40,
                              num_points=num_points, seed=seed)
    references = llff_references(scene_data, memo_key, eval_step)
    return scene_data, train_cfg, references


def _table2_evaluate(model, method: str, workload_row: str, scene_data,
                     references, num_points: int, eval_step: int,
                     views: int = 10,
                     hierarchical: bool = True) -> AblationRow:
    """One table-2 row: PSNR/LPIPS-proxy per scene for one variant.

    Scene encodings come from ``SceneData.encoded_maps`` — cached per
    (model, scene) across the view-count evaluations and invalidated
    by encoder parameter versions, so a finetuned model re-encodes
    automatically while repeat evaluations reuse the maps.
    """
    workload = table2_workload(workload_row, num_views=views)
    per_scene = {}
    for name, data in scene_data.items():
        per_scene[name] = _evaluate_model(model, data.scene,
                                          data.source_images, num_points,
                                          eval_step, hierarchical,
                                          views=views,
                                          reference=references[name],
                                          feature_maps=data.encoded_maps(
                                              model))
    return AblationRow(method=method,
                       mflops_per_pixel=workload.flops_per_pixel() / 1e6,
                       per_scene=per_scene)


def _table2_unit(kind: str, train_steps: int, eval_step: int,
                 image_scale: float, num_points: int, seed: int,
                 scenes: Sequence[str], num_source_views: int,
                 prep) -> List[AblationRow]:
    """Train and evaluate one independent table-2 variant.

    ``prep`` is the shared :func:`_table2_prepare` output, computed
    once per run.  Every variant re-seeds its own RNG, so rows are
    identical no matter which variants ran before it.
    """
    scene_data, train_cfg, references = prep
    n_max = num_points

    def train(model) -> None:
        trainer = M.Trainer(model, list(scene_data.values()), train_cfg)
        trainer.fit(train_steps)
        model.eval()

    def evaluate(model, method: str, workload_row: str, views: int = 10,
                 hierarchical: bool = True) -> AblationRow:
        return _table2_evaluate(model, method, workload_row, scene_data,
                                references, num_points, eval_step,
                                views=views, hierarchical=hierarchical)

    rng = np.random.default_rng(seed)
    if kind == "vanilla":
        model = M.GeneralizableNeRF(
            _small_model_config("transformer", n_max), rng=rng)
        train(model)
        return [evaluate(model, "vanilla IBRNet", "vanilla")]
    if kind == "no_transformer":
        model = M.GeneralizableNeRF(_small_model_config("none", n_max),
                                    rng=rng)
        train(model)
        return [evaluate(model, "- ray transformer", "no_ray_transformer")]
    if kind == "mixer":
        model = M.GeneralizableNeRF(_small_model_config("mixer", n_max),
                                    rng=rng)
        train(model)
        return [evaluate(model, "+ Ray-Mixer", "ray_mixer")]
    if kind != "gen_nerf":
        raise KeyError(f"unknown table-2 variant {kind!r}")

    # Coarse-then-focus plus the pruned ladder, one unit: pruning
    # starts from the trained Gen-NeRF weights.
    gen_cfg = M.GenNerfConfig(fine=_small_model_config("mixer", n_max),
                              coarse_points=8,
                              focused_points=max(8, num_points - 8))
    gen_nerf = M.GenNeRF(gen_cfg, rng=rng)
    train(gen_nerf)
    rows = [evaluate(gen_nerf, "+ Coarse-then-Focus", "coarse_focus")]

    pruned = M.prune_gen_nerf(gen_nerf, sparsity=0.75)
    M.finetune(pruned, list(scene_data.values())[0].scene,
               steps=max(30, train_steps // 6),
               config=M.TrainConfig(steps=train_steps, rays_per_batch=40,
                                    num_points=num_points, seed=seed + 1,
                                    learning_rate=2e-4),
               data=list(scene_data.values())[0])
    pruned.eval()
    for views in (10, 6, 4):
        rows.append(evaluate(pruned, f"+ channel pruning ({views} views)",
                             "pruned", views=views))
    return rows


TABLE3_METHODS = ("IBRNet", "Gen-NeRF")


def _table3_prepare(views: int, train_steps: int, eval_step: int,
                    image_scale: float, num_points: int, seed: int,
                    workers: Optional[int] = 1):
    """Deterministic shared inputs of a table-3 (view count) pair.

    One dense reference per scene for this view count; both methods
    (and all their finetuned variants) compare against it.  Prepared
    scenes and references come from the process-wide memo, so the
    10-view rows share Table 2's ground-truth renders.
    """
    num_source_views = max(views, 6)
    memo_key = (float(image_scale), int(num_source_views), int(seed), 128)
    scene_data = llff_scene_data(image_scale, num_source_views, seed=seed,
                                 workers=workers)
    train_cfg = M.TrainConfig(steps=train_steps, rays_per_batch=40,
                              num_points=num_points, seed=seed)
    references = llff_references(scene_data, memo_key, eval_step)
    return scene_data, train_cfg, references


def _table3_unit(method: str, views: int, train_steps: int,
                 finetune_steps: int, eval_step: int, image_scale: float,
                 num_points: int, seed: int, prep) -> AblationRow:
    """Pretrain one method at one view count, finetune per scene,
    evaluate — one independent table-3 unit.  ``prep`` is the shared
    :func:`_table3_prepare` output for ``views``."""
    scene_data, train_cfg, references = prep

    rng = np.random.default_rng(seed)
    if method == "IBRNet":
        model = M.GeneralizableNeRF(
            _small_model_config("transformer", num_points), rng=rng)
        workload_row = "vanilla"
    elif method == "Gen-NeRF":
        gen_cfg = M.GenNerfConfig(
            fine=_small_model_config("mixer", num_points), coarse_points=8,
            focused_points=max(8, num_points - 8))
        model = M.GenNeRF(gen_cfg, rng=rng)
        workload_row = "pruned"
    else:
        raise KeyError(f"unknown table-3 method {method!r}")
    M.Trainer(model, list(scene_data.values()), train_cfg).fit(train_steps)

    per_scene = {}
    for name, data in scene_data.items():
        state = model.state_dict()
        M.finetune(model, data.scene, steps=finetune_steps,
                   config=M.TrainConfig(steps=finetune_steps,
                                        rays_per_batch=40,
                                        num_points=num_points,
                                        seed=seed + 7,
                                        learning_rate=2e-4),
                   data=data)
        model.eval()
        per_scene[name] = _evaluate_model(
            model, data.scene, data.source_images, num_points,
            eval_step, reference=references[name],
            feature_maps=data.encoded_maps(model))
        model.load_state_dict(state)   # reset to the pretrained net
    workload = table2_workload(workload_row, num_views=views)
    return AblationRow(method=f"{method} ({views} views)",
                       mflops_per_pixel=workload.flops_per_pixel() / 1e6,
                       per_scene=per_scene)


# ----------------------------------------------------------------------
# Fig. 10 / Fig. 11 / Table 4 — accelerator vs devices
# ----------------------------------------------------------------------
def _fig10_unit(seed: int) -> Dict[str, Dict[str, float]]:
    """FPS of Gen-NeRF accelerator vs RTX 2080Ti vs TX2 on 3 datasets."""
    pipeline = CoDesignPipeline()
    return {dataset: pipeline.fps_comparison(dataset, seed=seed)
            for dataset in PROFILE_DATASETS}


def _fig11_unit(axis: str, value: int, seed: int) -> Dict[str, float]:
    """One Fig. 11 sweep point (a view count or a point count).

    Builds its own :class:`CoDesignPipeline` — the simulators are pure
    functions of the workload (memoisation only saves time), so a
    fresh pipeline per unit returns exactly the shared-pipeline values.
    """
    pipeline = CoDesignPipeline()
    if axis == "views":
        row = pipeline.fps_comparison("nerf_synthetic", num_views=value,
                                      seed=seed)
        row["num_views"] = value
    elif axis == "points":
        row = pipeline.fps_comparison("nerf_synthetic",
                                      points_per_ray=value, seed=seed)
        row["points_per_ray"] = value
    else:
        raise KeyError(f"unknown fig11 axis {axis!r}")
    return row


def _table4_unit(seed: int) -> List[Dict[str, object]]:
    """Device spec table with our measured Gen-NeRF row alongside the
    paper's reported rows."""
    pipeline = CoDesignPipeline()
    sim = pipeline.simulate_accelerator("nerf_synthetic", seed=seed)
    rows: List[Dict[str, object]] = [{
        "device": "Gen-NeRF (simulated)",
        "sram_mb": 0.8,
        "area_mm2": full_chip_budget()["total"].area_mm2,
        "frequency_ghz": 1.0,
        "dram": "LPDDR4-2400",
        "bandwidth_gb_s": 17.8,
        "technology_nm": 28,
        "typical_power_w": typical_chip_power_w(),
        "typical_fps": sim.fps,
    }]
    for spec in TABLE4_PAPER_ROWS:
        rows.append({
            "device": spec.name + " (paper)",
            "sram_mb": spec.sram_mb,
            "area_mm2": spec.area_mm2,
            "frequency_ghz": spec.frequency_ghz,
            "dram": spec.dram,
            "bandwidth_gb_s": spec.bandwidth_gb_s,
            "technology_nm": spec.technology_nm,
            "typical_power_w": spec.typical_power_w,
            "typical_fps": spec.typical_fps,
        })
    return rows


# ----------------------------------------------------------------------
# Fig. 12 — dataflow / storage ablation
# ----------------------------------------------------------------------
def _fig12_unit(views: int, seed: int) -> Dict[str, Dict[str, float]]:
    """One view count's {variant: latency/traffic row} — independent
    per view count, so the registry fans the sweep out."""
    per_variant = {}
    for name, sim in dataflow_ablation("nerf_synthetic", views,
                                       seed=seed).items():
        per_variant[name] = {
            "data_s": sim.fetch_time_s,
            "compute_s": sim.compute_time_s,
            "total_s": sim.total_time_s,
            "exposed_data_s": sim.data_time_s,
            "utilization": sim.pe_utilization,
            "prefetch_mb": sim.prefetch_bytes / 1e6,
        }
    return per_variant


# ----------------------------------------------------------------------
# Extensions beyond the paper (DESIGN.md "ablation" bullets)
# ----------------------------------------------------------------------
def _coarse_budget_unit(dataset: str, seed: int, step: int,
                        image_scale: float,
                        coarse_counts: Sequence[int],
                        taus: Sequence[float],
                        focused: int) -> List[Dict[str, float]]:
    """PSNR sensitivity to the coarse-pass budget N_c and threshold tau."""
    scene = make_scene(dataset, seed=seed, image_scale=image_scale)
    reference = M.render_target_reference(scene, 384, step)
    rows = []
    for coarse in coarse_counts:
        for tau in taus:
            strategy = OracleStrategy(kind="coarse_focus",
                                      coarse_points=coarse, points=focused,
                                      tau=tau,
                                      white_background=scene.spec.white_background)
            image, stats = oracle_render_image(
                scene.field, scene.target_camera, scene.near, scene.far,
                strategy, step=step)
            rows.append({"coarse_points": float(coarse), "tau": tau,
                         "avg_points": stats["avg_points"],
                         "psnr": M.psnr(image, reference)})
    return rows


OCCUPANCY_FAMILIES = ("llff", "nerf_synthetic", "deepvoxels", "thicket",
                      "orbit_sparse")


def _occupancy_profile_unit(family: str, seeds: Sequence[int], step: int,
                            image_scale: float, coarse_points: int,
                            focused: int, n_max: int, tau: float
                            ) -> Dict[str, object]:
    """Per-ray valid-sample occupancy of the coarse-then-focus plan.

    Runs the oracle coarse pass (analytic field, no trained weights, so
    the statistic is a property of the *scene family*, not of one
    checkpoint) and reports how full each ray's ``n_max`` slot budget
    ends up — the quantity the sparse fine pass's saving is proportional
    to."""
    from ..geometry.rays import rays_for_image, stratified_depths
    from ..models.sampling import coarse_then_focus_plan
    from ..scenes.render_gt import composite_numpy, field_sigma_color

    edges = np.linspace(0.0, 1.0, 11)
    histogram = np.zeros(10, dtype=np.int64)
    occupancies = []
    empty = saturated = rays = 0
    for seed in seeds:
        kwargs = {"scene_name": "fern"} if family == "llff" else {}
        scene = make_scene(family, seed=int(seed), image_scale=image_scale,
                           num_source_views=6, **kwargs)
        bundle = rays_for_image(scene.target_camera, scene.near, scene.far,
                                step=step)
        coarse = stratified_depths(np.random.default_rng(int(seed)),
                                   len(bundle), coarse_points, scene.near,
                                   scene.far, jitter=False)
        sigmas, colors = field_sigma_color(scene.field, bundle, coarse)
        _, weights, _ = composite_numpy(sigmas, colors, coarse, bundle.far)
        plan = coarse_then_focus_plan(coarse, weights, focused, n_max, tau,
                                      scene.near, scene.far,
                                      rng=np.random.default_rng(int(seed)))
        occupancy = plan.counts / n_max
        # Clip exact 1.0 into the last bin (np.histogram already does);
        # the saturated count is tracked separately anyway.
        histogram += np.histogram(occupancy, bins=edges)[0]
        occupancies.append(occupancy)
        empty += int((plan.counts == 0).sum())
        saturated += int((plan.counts == n_max).sum())
        rays += len(bundle)
    occupancy = np.concatenate(occupancies)
    return {"family": family, "rays": int(rays),
            "mean_occupancy": float(occupancy.mean()),
            "empty_fraction": empty / rays,
            "saturated_fraction": saturated / rays,
            "histogram": histogram.tolist()}


def _patch_candidate_unit(seed: int) -> List[Dict[str, float]]:
    """Prefetch traffic and FPS vs the candidate-set size M."""
    from ..hardware.accelerator import AcceleratorConfig, GenNerfAccelerator
    from ..hardware.scheduler import DEFAULT_CANDIDATES, SchedulerConfig
    from .pipeline import hardware_rig

    spec = DATASETS["nerf_synthetic"]
    rig = hardware_rig(spec, 6, seed=seed)
    workload = typical_workload(spec.height, spec.width, 6)
    rows = []
    for m in (1, 2, 4, len(DEFAULT_CANDIDATES)):
        config = AcceleratorConfig(
            name=f"M={m}",
            scheduler=SchedulerConfig(candidates=DEFAULT_CANDIDATES[:m]))
        sim = GenNerfAccelerator(config).simulate_frame(
            workload, rig.novel, rig.sources, rig.near, rig.far)
        rows.append({"num_candidates": float(m), "fps": sim.fps,
                     "prefetch_mb": sim.prefetch_bytes / 1e6,
                     "utilization": sim.pe_utilization})
    return rows

