"""Sharded-vs-sequential byte-identity for source-view renders.

:func:`render_source_views` (the ``SceneData.prepare`` hot path) fans
its ray chunks over the frame pool (``workers=``).  It computes the
same chunk boundaries as the sequential loop, runs each chunk as an
independent function of its slice, and stitches ``out[start:stop]``
slices in task order — so the rendered images must be
**byte-identical** at any worker count.  This suite pins that, and the
pool-failure fallback.
"""

import logging

import pytest

from repro.core import frame_pool, log
from repro.models import SceneData, render_source_views
from repro.scenes.datasets import make_scene

WORKER_COUNTS = (2, 4)


@pytest.fixture(scope="module")
def scene():
    return make_scene("llff", seed=3, image_scale=1 / 16)


@pytest.fixture(scope="module", autouse=True)
def retire_pool():
    yield
    frame_pool.shutdown_pool()


class TestSourceViewsSharded:
    def test_byte_identical_at_all_widths(self, scene):
        sequential = render_source_views(scene, num_points=32, workers=1)
        for workers in WORKER_COUNTS:
            sharded = render_source_views(scene, num_points=32,
                                          workers=workers)
            assert sharded.tobytes() == sequential.tobytes()
            assert sharded.dtype == sequential.dtype
            assert sharded.shape == sequential.shape

    def test_scene_data_prepare_threads_workers(self, scene):
        sequential = SceneData.prepare(scene, gt_points=32, workers=1)
        sharded = SceneData.prepare(scene, gt_points=32, workers=2)
        assert sharded.source_images.tobytes() == \
            sequential.source_images.tobytes()


class TestPoolFailureFallback:
    def test_render_survives_pool_failure_byte_identically(
            self, scene, monkeypatch, caplog):
        sequential = render_source_views(scene, num_points=32, workers=1)

        def broken_pool(payload, workers):
            raise OSError("process spawning disabled")

        monkeypatch.setattr(frame_pool, "get_pool", broken_pool)
        with caplog.at_level(logging.WARNING, logger="repro"):
            sharded = render_source_views(scene, num_points=32, workers=2)
        assert sharded.tobytes() == sequential.tobytes()
        degraded = log.events_named(caplog.records,
                                    "frame_pool.degraded_sequential")
        assert len(degraded) == 1
