"""Disk-backed scene-prep cache: keys, knob, byte-identical hits, and
corrupt-entry self-healing."""

import logging
import os

import numpy as np
import pytest

from repro import models as M
from repro.core import context as ctx_mod
from repro.core import log
from repro.core.context import (clear_scene_memos, llff_references,
                                llff_scene_data)
from repro.core.faults import FaultPlan, injected_faults
from repro.core.scene_cache import ENV_KNOB, SceneCache, recipe_key

TINY = dict(image_scale=1 / 16, num_source_views=3, seed=5, gt_points=8)


@pytest.fixture()
def fresh_memos():
    """Isolate the process-wide memos (tests must not poison — or be
    fed by — the harness-shared prepared scenes)."""
    saved_scene = dict(ctx_mod._SCENE_DATA_MEMO)
    saved_refs = dict(ctx_mod._REFERENCE_MEMO)
    clear_scene_memos()
    yield
    clear_scene_memos()
    ctx_mod._SCENE_DATA_MEMO.update(saved_scene)
    ctx_mod._REFERENCE_MEMO.update(saved_refs)


class TestRecipeKey:
    def test_stable_and_parameter_sensitive(self):
        key = recipe_key("llff-src-fern", scale=0.125, views=10, seed=1)
        assert key == recipe_key("llff-src-fern", scale=0.125, views=10,
                                 seed=1)
        assert key.startswith("llff-src-fern-")
        assert key != recipe_key("llff-src-fern", scale=0.125, views=10,
                                 seed=2)
        assert key != recipe_key("llff-src-horns", scale=0.125, views=10,
                                 seed=1)


class TestKnob:
    def test_off_values_disable(self, monkeypatch):
        for value in ("", "0", "off", "none", "disabled", "OFF"):
            monkeypatch.setenv(ENV_KNOB, value)
            assert SceneCache.from_env() is None
        monkeypatch.delenv(ENV_KNOB)
        assert SceneCache.from_env() is None

    def test_env_and_explicit_paths(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_KNOB, str(tmp_path / "env"))
        assert SceneCache.from_env().directory == str(tmp_path / "env")
        explicit = SceneCache.from_env(str(tmp_path / "explicit"))
        assert explicit.directory == str(tmp_path / "explicit")

    def test_cache_none_disables_even_with_env_set(
            self, monkeypatch, tmp_path, fresh_memos):
        # An explicitly disabled cache (e.g. a RunContext with an
        # off-value cache_dir) must not be re-enabled by the env knob.
        monkeypatch.setenv(ENV_KNOB, str(tmp_path))
        llff_scene_data(names=("fortress",), cache=None, **TINY)
        assert os.listdir(tmp_path) == []

    def test_run_context_off_value_disables(self, monkeypatch, tmp_path,
                                            fresh_memos):
        # The production path: an experiment's prepare hook resolves
        # the cache from the knob that Experiment.run exports.
        from repro.core.context import RunContext
        from repro.core.registry import Experiment

        prepares = Experiment(
            name="_cache_probe", title="probe", kind="table",
            artefact="unused", description="prepares one tiny scene",
            params={},
            prepare=lambda ctx, params: llff_scene_data(
                names=("fortress",), **TINY),
            units=lambda ctx, params, shared: [],
            reduce=lambda results, params: results,
            render=lambda rows, params: "")
        monkeypatch.setenv(ENV_KNOB, str(tmp_path))
        prepares.run(RunContext(cache_dir="off"))
        assert os.listdir(tmp_path) == []
        assert ctx_mod._SCENE_DATA_MEMO      # the scene was prepared


class TestStoreLoad:
    def test_round_trip_is_byte_identical(self, tmp_path):
        cache = SceneCache(str(tmp_path))
        array = np.random.default_rng(0).normal(size=(3, 4, 5))
        cache.store("unit", array)
        loaded = cache.load("unit")
        assert loaded.dtype == array.dtype
        assert loaded.tobytes() == array.tobytes()

    def test_miss_returns_none(self, tmp_path):
        assert SceneCache(str(tmp_path)).load("absent") is None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = SceneCache(str(tmp_path))
        cache.store("broken", np.ones((4, 4)))
        path = cache.path_for("broken")
        with open(path, "r+b") as handle:
            handle.truncate(10)
        assert cache.load("broken") is None

    def test_store_leaves_no_temp_files(self, tmp_path):
        cache = SceneCache(str(tmp_path))
        cache.store("clean", np.zeros(3))
        assert sorted(os.listdir(tmp_path)) == ["clean.npy"]


class TestSelfHeal:
    """Satellite: a corrupt entry is deleted on read failure (with a
    structured warning) so the next store writes a good one back."""

    def test_truncated_entry_is_deleted_and_warned(self, tmp_path,
                                                   caplog):
        cache = SceneCache(str(tmp_path))
        cache.store("damaged", np.arange(24.0).reshape(4, 6))
        path = cache.path_for("damaged")
        with open(path, "r+b") as handle:
            handle.truncate(10)
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert cache.load("damaged") is None
        assert not os.path.exists(path)      # bad file gone
        events = log.events_named(caplog.records,
                                  "scene_cache.corrupt_entry")
        assert len(events) == 1
        assert events[0].repro_fields["key"] == "damaged"
        assert events[0].repro_fields["deleted"] is True

    def test_heal_then_store_recovers_round_trip(self, tmp_path):
        cache = SceneCache(str(tmp_path))
        array = np.arange(12.0).reshape(3, 4)
        cache.store("entry", array)
        with open(cache.path_for("entry"), "r+b") as handle:
            handle.truncate(4)
        assert cache.load("entry") is None   # heals: entry removed
        cache.store("entry", array)          # caller recomputed
        assert cache.load("entry").tobytes() == array.tobytes()

    def test_foreign_file_is_healed(self, tmp_path, caplog):
        cache = SceneCache(str(tmp_path))
        path = cache.path_for("foreign")
        with open(path, "w") as handle:
            handle.write("not an npy file at all")
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert cache.load("foreign") is None
        assert not os.path.exists(path)
        assert log.events_named(caplog.records,
                                "scene_cache.corrupt_entry")

    def test_injected_cache_corruption_heals(self, tmp_path, caplog):
        cache = SceneCache(str(tmp_path))
        cache.store("llff-src-fern-deadbeef", np.ones(5))
        plan = FaultPlan(cache_keys=("llff-src-fern",))
        with caplog.at_level(logging.WARNING, logger="repro"):
            with injected_faults(plan):
                assert cache.load("llff-src-fern-deadbeef") is None
        assert not os.path.exists(cache.path_for("llff-src-fern-deadbeef"))
        events = log.events_named(caplog.records,
                                  "scene_cache.corrupt_entry")
        assert events[0].repro_fields["reason"] == "injected corruption"
        # Keys the plan does not name are untouched.
        cache.store("other", np.zeros(2))
        with injected_faults(plan):
            assert cache.load("other") is not None


class TestPreparedSceneCache:
    def test_warm_hit_skips_prepare_and_is_byte_identical(
            self, tmp_path, monkeypatch, fresh_memos):
        monkeypatch.setenv(ENV_KNOB, str(tmp_path))
        prepare_calls = []
        original = M.SceneData.prepare

        def counting_prepare(scene, gt_points=128, workers=1):
            prepare_calls.append(scene.name)
            return original(scene, gt_points=gt_points, workers=workers)

        monkeypatch.setattr(M.SceneData, "prepare",
                            staticmethod(counting_prepare))

        cold = llff_scene_data(names=("fortress",), **TINY)["fortress"]
        assert len(prepare_calls) == 1
        assert os.listdir(tmp_path)          # entry persisted

        clear_scene_memos()                  # simulate a new session
        warm = llff_scene_data(names=("fortress",), **TINY)["fortress"]
        assert len(prepare_calls) == 1        # no re-render on the hit
        assert warm.source_images.tobytes() == cold.source_images.tobytes()
        assert warm.source_images.dtype == cold.source_images.dtype

        # Cache off: a from-scratch prep matches the cached arrays, so
        # hits are byte-identical to cold preparation.
        monkeypatch.setenv(ENV_KNOB, "off")
        clear_scene_memos()
        scratch = llff_scene_data(names=("fortress",), **TINY)["fortress"]
        assert len(prepare_calls) == 2
        assert scratch.source_images.tobytes() \
            == warm.source_images.tobytes()

    def test_reference_cache_round_trip(self, tmp_path, monkeypatch,
                                        fresh_memos):
        monkeypatch.setenv(ENV_KNOB, str(tmp_path))
        render_calls = []
        original = M.render_target_reference

        def counting_render(scene, num_points=192, step=8):
            render_calls.append(scene.name)
            return original(scene, num_points=num_points, step=step)

        monkeypatch.setattr(ctx_mod.M, "render_target_reference",
                            counting_render)

        key = (TINY["image_scale"], TINY["num_source_views"],
               TINY["seed"], TINY["gt_points"])
        data = llff_scene_data(names=("fortress",), **TINY)
        cold = llff_references(data, key, eval_step=16)["fortress"]
        assert len(render_calls) == 1

        clear_scene_memos()
        data = llff_scene_data(names=("fortress",), **TINY)
        warm = llff_references(data, key, eval_step=16)["fortress"]
        assert len(render_calls) == 1          # disk hit, no re-render
        assert warm.tobytes() == cold.tobytes()

        # A different eval step is a different recipe -> cold again.
        llff_references(data, key, eval_step=8)
        assert len(render_calls) == 2
