"""Direct renders and serve's chunk dispatches stitch the same bytes.

``render_image_ibrnet`` / ``render_image_gen_nerf`` loop in process over
``_chunk_slices``, calling the module-level chunk bodies.  Serve runs
the same bodies through its chunk functions on standalone per-chunk
ray arrays, in whatever order its cross-request batches land.  The two
agree because each chunk is a pure function of its own rays (plus, for
hierarchical IBRNet, the uniforms drawn for it in chunk order from the
frame's ``default_rng(0)``).  This suite pins that property for every
scene family: chunks evaluated through serve's chunk functions in
*reverse* order stitch to the direct render byte for byte, at a chunk
size that leaves a ragged tail.  It also pins the chunk geometry that
renderers and serve share.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import serve
from repro.geometry.rays import rays_for_image
from repro.models import (GenNeRF, GenNerfConfig, GeneralizableNeRF,
                          ModelConfig, render_image_gen_nerf,
                          render_image_ibrnet, render_source_views)
from repro.models.renderer import _chunk_slices
from repro.scenes.datasets import make_scene

FAMILIES = ("llff", "nerf_synthetic", "deepvoxels", "thicket",
            "orbit_sparse")

TINY_MODEL = dict(feature_dim=8, view_hidden=8, score_hidden=4,
                  density_hidden=12, density_feature_dim=6,
                  ray_module="mixer", n_max=12, encoder_hidden=6)

CHUNK = 28          # every family's step-4 frame splits with a ragged tail
POINTS = 12


@pytest.fixture(scope="module")
def setups():
    """Scene, source images and the step-4 target bundle per family."""
    out = {}
    for family in FAMILIES:
        scene = make_scene(family, seed=1, image_scale=1 / 16,
                           num_source_views=6)
        source_images = render_source_views(scene, num_points=32)
        bundle = rays_for_image(scene.target_camera, scene.near, scene.far,
                                step=4)
        out[family] = (scene, source_images, bundle)
    return out


@pytest.fixture(scope="module")
def ibrnet():
    return GeneralizableNeRF(ModelConfig(**TINY_MODEL),
                             rng=np.random.default_rng(0)).eval()


@pytest.fixture(scope="module")
def gen_nerf():
    return GenNeRF(GenNerfConfig(fine=ModelConfig(**TINY_MODEL),
                                 coarse_points=6, focused_points=8),
                   rng=np.random.default_rng(0)).eval()


def _ragged_slices(bundle):
    slices = _chunk_slices(len(bundle), CHUNK)
    assert len(slices) > 1 and slices[-1][1] - slices[-1][0] < CHUNK
    return slices


class TestChunkSlices:
    @pytest.mark.parametrize("num_rays, chunk", [
        (0, 4), (1, 1), (1, 64), (7, 3), (64, 64), (65, 64), (192, 40),
        (4096, 4096), (4097, 4096)])
    def test_slices_tile_the_frame_in_order(self, num_rays, chunk):
        slices = _chunk_slices(num_rays, chunk)
        assert len(slices) == -(-num_rays // chunk)
        position = 0
        for index, (start, stop) in enumerate(slices):
            assert start == position and start < stop
            size = stop - start
            if index < len(slices) - 1:
                assert size == chunk
            else:
                assert 0 < size <= chunk
            position = stop
        assert position == num_rays


class TestIbrnetChunks:
    @pytest.mark.parametrize("hierarchical", [False, True],
                             ids=["uniform", "hierarchical"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_serve_chunks_stitch_out_of_order(self, setups, ibrnet,
                                              family, hierarchical):
        scene, source_images, bundle = setups[family]
        with nn.inference_mode():
            maps = ibrnet.encode_scene(source_images)
        direct = render_image_ibrnet(ibrnet, scene, source_images,
                                     num_points=POINTS, step=4,
                                     chunk=CHUNK, hierarchical=hierarchical,
                                     feature_maps=maps)
        slices = _ragged_slices(bundle)
        rng = np.random.default_rng(0)
        draws = [rng.random((stop - start, POINTS))
                 for start, stop in slices]
        cameras = tuple(scene.source_cameras)
        out = np.zeros((len(bundle), 3), dtype=np.float64)
        for (start, stop), uniforms in reversed(list(zip(slices, draws))):
            origins = bundle.origins[start:stop]
            directions = bundle.directions[start:stop]
            if hierarchical:
                state = (ibrnet, cameras, source_images, maps, POINTS,
                         POINTS, scene.near, scene.far)
                out[start:stop] = serve._hier_batch_chunk(
                    state, origins, directions, uniforms)
            else:
                state = (ibrnet, cameras, source_images, maps, POINTS,
                         scene.near, scene.far)
                out[start:stop] = serve._uniform_batch_chunk(
                    state, origins, directions)
        assert out.reshape(direct.shape).tobytes() == direct.tobytes()


class TestGenNerfChunks:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_serve_chunks_stitch_out_of_order(self, setups, gen_nerf,
                                              family):
        scene, source_images, bundle = setups[family]
        with nn.inference_mode():
            coarse_maps, fine_maps = gen_nerf.encode_scene(source_images)
        direct, stats = render_image_gen_nerf(
            gen_nerf, scene, source_images, step=4, chunk=CHUNK,
            feature_maps=(coarse_maps, fine_maps))
        state = (gen_nerf, tuple(scene.source_cameras), coarse_maps,
                 fine_maps, source_images, scene.near, scene.far)
        out = np.zeros((len(bundle), 3), dtype=np.float64)
        total_points = 0
        for start, stop in reversed(_ragged_slices(bundle)):
            out[start:stop], points = serve._gen_nerf_batch_chunk(
                state, bundle.origins[start:stop],
                bundle.directions[start:stop])
            total_points += points
        assert out.reshape(direct.shape).tobytes() == direct.tobytes()
        assert stats["avg_focused_points"] == total_points / len(bundle)
