"""Unified run context for the experiment registry.

A :class:`RunContext` is the single object an experiment executes
against: its seed, scale, worker width, disk-cache directory and
artefact directory.  This module also owns the process-wide prepared
scene / dense-reference memos and the optional disk-backed scene cache
(:mod:`repro.core.scene_cache`) behind them, and artefact I/O through
:func:`repro.core.reporting.write_artifact`.

The memos are process-wide (two contexts in one process share prepared
scenes), so every experiment run in one process — Table 2 and Table 3
in the same pytest session, say — pays for a scene once; the disk
cache extends the reuse across processes and pytest sessions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .. import models as M
from ..scenes.datasets import llff_eval_scenes
from .scene_cache import SceneCache, recipe_key, source_images_key
from . import reporting

LLFF_EVAL_SCENES = ("fern", "fortress", "horns", "trex")

def _default_results_dir() -> str:
    """The committed ``benchmarks/results`` of the in-tree checkout
    (src-layout: four levels up from this file); for an installed
    package — where that walk lands outside any repository — fall back
    to a cwd-relative ``benchmarks/results``."""
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    in_tree = os.path.join(repo_root, "benchmarks", "results")
    if os.path.isdir(os.path.dirname(in_tree)):
        return in_tree
    return os.path.join(os.getcwd(), "benchmarks", "results")


DEFAULT_RESULTS_DIR = _default_results_dir()

# Process-wide memos: scene generation is crc32-deterministic, the
# source-view renders of ``SceneData.prepare`` depend only on
# (scene, gt_points), and the dense target reference only on
# (scene, step) — so one process-wide memo serves every harness:
# Table 2 and Table 3 at matching view counts share the same
# minutes-scale ground-truth renders instead of re-rendering them per
# table.  The shared ``SceneData`` objects also carry the scene-level
# caches of the training fast path (``gt_cache`` / ``conv_cache``),
# which is what lets identically scheduled variant ladders reuse
# supervision across models.
_SCENE_DATA_MEMO: Dict[tuple, "M.SceneData"] = {}
_REFERENCE_MEMO: Dict[tuple, np.ndarray] = {}

REFERENCE_POINTS = 192   # dense-reference quadrature of every harness


def clear_scene_memos() -> None:
    """Drop the process-wide prepared-scene and reference memos.

    Long-lived processes that sweep many configurations (each pinning
    its rendered ``SceneData`` — including the per-scene GT and
    feature caches — forever) can call this between sweeps to release
    the memory; the next harness run simply re-renders (or reloads
    from the disk cache when one is passed)."""
    _SCENE_DATA_MEMO.clear()
    _REFERENCE_MEMO.clear()


def _source_images_key(name: str, base: tuple) -> str:
    # Delegates to the shared recipe in repro.core.scene_cache so the
    # serve-layer SceneStore hits the same disk entries.
    image_scale, num_source_views, seed, gt_points = base
    return source_images_key(name, image_scale, num_source_views, seed,
                             gt_points)


def _reference_key(name: str, base: tuple, eval_step: int) -> str:
    image_scale, num_source_views, seed, gt_points = base
    return recipe_key(f"llff-ref-{name}", image_scale=image_scale,
                      num_source_views=num_source_views, seed=seed,
                      num_points=REFERENCE_POINTS, step=int(eval_step))


def llff_scene_data(image_scale: float, num_source_views: int = 10,
                    seed: int = 1, gt_points: int = 128,
                    names: Sequence[str] = LLFF_EVAL_SCENES,
                    cache: Optional[SceneCache] = None,
                    workers: Optional[int] = 1) -> Dict[str, "M.SceneData"]:
    """Prepared :class:`repro.models.SceneData` for LLFF analogues,
    memoised per process **per scene**, so a harness that asks for a
    subset (tiny test configs) only ever pays for that subset.

    With a disk ``cache`` (a :class:`SceneCache`, e.g. resolved by
    :meth:`SceneCache.from_env`) the expensive source-view renders
    additionally persist across processes, keyed by the crc32 scene
    recipe; hits are byte-identical to cold preparation, and the cheap
    deterministic scene objects are rebuilt either way.  ``None`` (the
    default) skips the disk layer.

    ``workers`` shards the cold source-view renders over the frame pool
    (``None`` autodetects); sharded renders are byte-identical to
    sequential, so the disk-cache keys and contents are unaffected.
    """
    base = (float(image_scale), int(num_source_views), int(seed),
            int(gt_points))
    prepared: Dict[str, "M.SceneData"] = {}
    missing = [name for name in names
               if (base + (name,)) not in _SCENE_DATA_MEMO]
    if missing:
        eval_scenes = llff_eval_scenes(image_scale, num_source_views,
                                       seed=seed)
        for name in missing:
            images = cache.load(_source_images_key(name, base)) \
                if cache else None
            if images is None:
                data = M.SceneData.prepare(eval_scenes[name],
                                           gt_points=gt_points,
                                           workers=workers)
                if cache:
                    cache.store(_source_images_key(name, base),
                                data.source_images)
            else:
                data = M.SceneData(scene=eval_scenes[name],
                                   source_images=images)
            _SCENE_DATA_MEMO[base + (name,)] = data
    for name in names:
        prepared[name] = _SCENE_DATA_MEMO[base + (name,)]
    return prepared


def llff_references(scene_data: Dict[str, "M.SceneData"], key: tuple,
                    eval_step: int,
                    cache: Optional[SceneCache] = None
                    ) -> Dict[str, np.ndarray]:
    """Dense target references for a prepared scene dict, memoised per
    (configuration, scene, step) — and persisted through the disk
    ``cache`` when one is passed.  ``key`` is the scene recipe tuple
    ``(image_scale, num_source_views, seed, gt_points)``."""
    references: Dict[str, np.ndarray] = {}
    for name, data in scene_data.items():
        memo_key = (key, name, int(eval_step))
        cached = _REFERENCE_MEMO.get(memo_key)
        if cached is None:
            disk_key = _reference_key(name, key, eval_step)
            cached = cache.load(disk_key) if cache else None
            if cached is None:
                cached = M.render_target_reference(
                    data.scene, num_points=REFERENCE_POINTS,
                    step=eval_step)
                if cache:
                    cache.store(disk_key, cached)
            _REFERENCE_MEMO[memo_key] = cached
        references[name] = cached
    return references


@dataclass
class RunContext:
    """Execution context shared by every registry experiment.

    * ``seed`` — overrides an experiment's ``seed`` parameter when set
      (``None`` keeps the experiment's committed-artefact default);
    * ``scale`` — work multiplier applied through each experiment's
      declared scale rules (1.0 = the committed-artefact configuration);
    * ``workers`` — width for the frame-pool sharding of source-view
      renders and serve dispatches (``None`` = ``REPRO_WORKERS`` env,
      then CPU count); experiment units always run in process;
    * ``cache_dir`` — disk scene-cache directory (``None`` = the
      ``REPRO_CACHE_DIR`` env knob; an off-value disables the cache),
      resolved by the experiments that prepare scenes;
    * ``results_dir`` — where :meth:`write_artifact` lands artefacts
      (defaults to the committed ``benchmarks/results``).
    """

    seed: Optional[int] = None
    scale: float = 1.0
    workers: Optional[int] = None
    cache_dir: Optional[str] = None
    results_dir: str = DEFAULT_RESULTS_DIR

    # ------------------------------------------------------------------
    def artifact_path(self, name: str) -> str:
        return os.path.join(self.results_dir, f"{name}.txt")

    def write_artifact(self, name: str, text: str) -> str:
        """Persist one artefact (atomically; trailing newline added,
        matching the benchmark harness convention)."""
        path = self.artifact_path(name)
        reporting.write_artifact(path, text + "\n")
        return path
