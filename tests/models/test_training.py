"""Trainer and renderer integration tests."""

import numpy as np
import pytest

from repro import models as M


@pytest.fixture(scope="module")
def tiny_ibrnet():
    cfg = M.ModelConfig(feature_dim=8, view_hidden=8, score_hidden=4,
                        density_hidden=12, density_feature_dim=6,
                        ray_module="none", n_max=10, encoder_hidden=4)
    return M.GeneralizableNeRF(cfg, rng=np.random.default_rng(3))


class TestTrainer:
    def test_requires_scenes(self, tiny_ibrnet):
        with pytest.raises(ValueError):
            M.Trainer(tiny_ibrnet, [])

    def test_training_is_stable_and_steps_apply(self, tiny_ibrnet,
                                                 llff_scene_data):
        """The colour-blending prior puts the initial loss near its
        floor on this easy scene, so we assert stability (no divergence)
        and that optimisation actually updates parameters; the clear
        loss-decrease check lives in test_gen_nerf (harder objective)."""
        before = {name: p.data.copy()
                  for name, p in tiny_ibrnet.named_parameters()}
        trainer = M.Trainer(tiny_ibrnet, [llff_scene_data],
                            M.TrainConfig(steps=50, rays_per_batch=32,
                                          num_points=10, seed=1))
        losses = trainer.fit(50)
        assert len(losses) == 50
        assert np.mean(losses[-10:]) < np.mean(losses[:10]) * 1.5
        assert all(np.isfinite(losses))
        changed = any(not np.allclose(before[name], p.data)
                      for name, p in tiny_ibrnet.named_parameters())
        assert changed

    def test_history_accumulates(self, tiny_ibrnet, llff_scene_data):
        trainer = M.Trainer(tiny_ibrnet, [llff_scene_data],
                            M.TrainConfig(steps=3, rays_per_batch=8,
                                          num_points=6))
        trainer.fit(2)
        trainer.fit(2)
        assert len(trainer.history) == 4

    def test_finetune_runs(self, tiny_ibrnet, llff_scene):
        losses = M.finetune(tiny_ibrnet, llff_scene, steps=4,
                            config=M.TrainConfig(steps=4, rays_per_batch=8,
                                                 num_points=6),
                            gt_points=32)
        assert len(losses) == 4


class TestRenderers:
    def test_render_source_views_shape(self, llff_scene):
        images = M.render_source_views(llff_scene, num_points=24, step=1)
        assert images.shape[0] == llff_scene.num_source_views
        assert images.shape[1] == 3
        assert images.min() >= 0 and images.max() <= 1 + 1e-6

    def test_render_image_ibrnet(self, tiny_ibrnet, llff_scene_data):
        image = M.render_image_ibrnet(tiny_ibrnet, llff_scene_data.scene,
                                      llff_scene_data.source_images,
                                      num_points=8, step=16)
        assert image.ndim == 3 and np.isfinite(image).all()

    def test_render_image_ibrnet_hierarchical(self, tiny_ibrnet,
                                              llff_scene_data):
        image = M.render_image_ibrnet(tiny_ibrnet, llff_scene_data.scene,
                                      llff_scene_data.source_images,
                                      num_points=8, step=16,
                                      hierarchical=True, coarse_points=6)
        assert np.isfinite(image).all()

    def test_render_image_gen_nerf_stats(self, llff_scene_data):
        cfg = M.GenNerfConfig(
            fine=M.ModelConfig(feature_dim=8, view_hidden=8, score_hidden=4,
                               density_hidden=12, density_feature_dim=6,
                               ray_module="mixer", n_max=10,
                               encoder_hidden=4),
            coarse_points=4, focused_points=6)
        model = M.GenNeRF(cfg, rng=np.random.default_rng(0))
        image, stats = M.render_image_gen_nerf(
            model, llff_scene_data.scene, llff_scene_data.source_images,
            step=16)
        assert np.isfinite(image).all()
        assert stats["avg_focused_points"] <= 10
        assert stats["coarse_points"] == 4.0

    def test_reference_render(self, llff_scene):
        ref = M.render_target_reference(llff_scene, num_points=32, step=16)
        assert ref.ndim == 3 and np.isfinite(ref).all()


class TestEncoder:
    def test_encode_views_channel_last(self, rng):
        encoder = M.ConvEncoder(feature_dim=6, hidden=4, rng=rng)
        images = rng.uniform(0, 1, (3, 3, 12, 16)).astype(np.float32)
        maps = encoder.encode_views(images)
        assert len(maps) == 3
        assert maps[0].shape == (6, 8, 6)

    def test_flops_positive(self, rng):
        encoder = M.ConvEncoder(feature_dim=8, hidden=8, rng=rng)
        assert encoder.flops(64, 64, views=2) > 0
