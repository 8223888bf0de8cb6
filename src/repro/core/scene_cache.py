"""Disk-backed cache for expensive scene preparation artefacts.

Scene *generation* is cheap and crc32-deterministic, but the two
minutes-scale steps of preparing an LLFF analogue — rendering the
source views (``SceneData.prepare``) and the dense target reference
(``render_target_reference``) — are pure functions of a small recipe.
This module persists those arrays under a cache directory keyed by the
crc32 of the recipe string, so separate processes (repeated pytest
sessions, CLI runs, the serve daemon) stop rebuilding them.

Knob: ``REPRO_CACHE_DIR`` names the cache directory; unset, empty, or
one of ``0 / off / none / disabled`` turns the disk layer off (the
in-process memos in :mod:`repro.core.context` still apply).  Cache hits
are byte-identical to cold preparation — the equivalence is pinned in
``tests/core/test_scene_cache.py``.

Files are written atomically (temp file + ``os.replace``) so a crashed
or concurrent run can never leave a truncated entry; an unreadable or
corrupt entry is a miss that **self-heals** — the bad file is deleted
(with a structured ``scene_cache.corrupt_entry`` warning through
:mod:`repro.core.log`), the caller recomputes, and the atomic store
writes a good entry back, so a damaged ``REPRO_CACHE_DIR`` never
poisons runs forever.
"""

from __future__ import annotations

import os
import zlib
from contextlib import contextmanager
from typing import Optional

import numpy as np

from . import faults, log
from .reporting import atomic_write

_LOG = log.get_logger("scene_cache")

ENV_KNOB = "REPRO_CACHE_DIR"
_OFF_VALUES = {"", "0", "off", "none", "disabled"}


@contextmanager
def exported_cache_knob(cache_dir: Optional[str]):
    """Export an explicit cache directory through the env knob for the
    duration of a run, restoring the previous value afterwards.

    This is how a :class:`repro.core.context.RunContext.cache_dir` (or
    the CLI's ``--cache-dir``) reaches every prepare hook and unit of
    an experiment run.  ``None`` (unspecified) leaves the environment
    alone; off-values pass through and disable the cache as usual.
    """
    if cache_dir is None:
        yield
        return
    previous = os.environ.get(ENV_KNOB)
    os.environ[ENV_KNOB] = cache_dir
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(ENV_KNOB, None)
        else:
            os.environ[ENV_KNOB] = previous


def source_images_key(name: str, image_scale: float,
                      num_source_views: int, seed: int,
                      gt_points: int) -> str:
    """The disk key of one LLFF-analogue scene's rendered source views.

    Shared by the experiment-layer memos (:mod:`repro.core.context`)
    and the serving LRU (:class:`repro.core.serve.SceneStore`), so a
    daemon warm-up and a harness run at matching recipes hit the same
    entries instead of re-rendering.
    """
    return recipe_key(f"llff-src-{name}", image_scale=float(image_scale),
                      num_source_views=int(num_source_views),
                      seed=int(seed), gt_points=int(gt_points))


def recipe_key(slug: str, **fields) -> str:
    """Stable cache key: a readable slug plus the crc32 of the recipe.

    ``fields`` are serialised sorted-by-name with ``repr`` values, so
    any change to a preparation parameter changes the key.
    """
    recipe = slug + ":" + ",".join(f"{name}={fields[name]!r}"
                                   for name in sorted(fields))
    return f"{slug}-{zlib.crc32(recipe.encode('utf-8')):08x}"


class SceneCache:
    """One cache directory of ``<recipe_key>.npy`` arrays."""

    def __init__(self, directory: str):
        self.directory = str(directory)

    @staticmethod
    def from_env(explicit: Optional[str] = None) -> Optional["SceneCache"]:
        """Resolve the active cache: ``explicit`` beats the env knob;
        off-values (and an unset knob) return ``None``."""
        value = explicit if explicit is not None \
            else os.environ.get(ENV_KNOB, "")
        if value is None or str(value).strip().lower() in _OFF_VALUES:
            return None
        return SceneCache(str(value))

    def path_for(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.npy")

    def load(self, key: str) -> Optional[np.ndarray]:
        """The cached array, or ``None`` on a miss.

        A corrupt entry (truncated, foreign, or unreadable file — or
        one an active :class:`repro.core.faults.FaultPlan` injects as
        corrupt) is deleted on the spot with a structured warning: the
        caller recomputes and stores a good entry back, so the cache
        self-heals instead of missing silently forever.
        """
        path = self.path_for(key)
        plan = faults.active_plan()
        if plan is not None and plan.corrupts_cache(key):
            self._heal(key, path, "injected corruption")
            return None
        try:
            return np.load(path, allow_pickle=False)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, EOFError) as error:
            self._heal(key, path, str(error))
            return None

    def _heal(self, key: str, path: str, reason: str) -> None:
        """Delete one corrupt entry (best-effort) and warn once."""
        try:
            os.unlink(path)
            deleted = True
        except OSError:
            deleted = False
        log.event(_LOG, "scene_cache.corrupt_entry", key=key, path=path,
                  deleted=deleted, reason=reason)

    def store(self, key: str, array: np.ndarray) -> str:
        """Persist ``array`` under ``key`` atomically."""
        return atomic_write(
            self.path_for(key),
            lambda handle: np.save(handle, np.ascontiguousarray(array)),
            mode="wb")
