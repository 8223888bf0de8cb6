"""Seeded benchmark inputs and their on-disk cache.

Everything the program receives is made here from ``--seed``: scenes,
their procedural source images, novel poses, dense reference renders,
serve traces and the pretrained render checkpoint.  Images, references
and the checkpoint are rendered/trained by the program itself, which
takes seconds to minutes, so they are cached as ``.npz`` files under
``.perfbench_cache/`` in the checkout.  ``run.py`` first builds any
missing ones in a child process (``python3 perfbench/inputs.py
WORKLOAD SEED``), so input making is never part of a timed region,
of ``setup_s`` or of the measured process's peak RSS.

Inputs whose outputs ``golden.json`` records (the training stream,
the simulated camera rigs) and the render scenes come from a pool of
``POOL`` variants (``seed % POOL``), which also keeps the cache small;
render poses and serve arrival schedules use the whole seed.  The
training scenes and the serve scenes are the LLFF analogues at scene
seed 1, as in the paper-table harnesses and ``RenderRequest``.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import zlib

import numpy as np

POOL = 4
CACHE_DIR = ".perfbench_cache"

RENDER_FAMILIES = ("llff", "thicket", "orbit_sparse")
RENDER_SCALE = 0.1
RENDER_VIEWS = 10
RENDER_POSES = 4
RENDER_STEP = 4
SOURCE_POINTS = 32          # quadrature points of the source-view renders
REFERENCE_POINTS = 192      # quadrature points of the dense references
CHECKPOINT_STEPS = 240
CHECKPOINT_SCENE_SEED = 100

TRAIN_SCENES = ("fern", "trex")
TRAIN_SCALE = 0.1
LLFF_SCENE_SEED = 1

SERVE_SCENES = ("fern", "fortress", "horns", "trex")
SERVE_QUALITIES = ("draft", "standard", "high", "gen_nerf")


def pool_index(seed: int) -> int:
    return int(seed) % POOL


class DiskCache:
    """``.npz`` arrays keyed by a readable recipe string."""

    def __init__(self, root: str):
        self.directory = os.path.join(root, CACHE_DIR)

    def _path(self, key: str) -> str:
        slug = "".join(c if c.isalnum() or c in "-_." else "_" for c in key)
        crc = zlib.crc32(key.encode("utf-8"))
        return os.path.join(self.directory, f"{slug[:80]}-{crc:08x}.npz")

    def get(self, key: str, build):
        """The cached arrays for ``key``; ``build()`` makes them once."""
        path = self._path(key)
        if os.path.exists(path):
            with np.load(path) as stored:
                return {name: stored[name] for name in stored.files}
        arrays = build()
        os.makedirs(self.directory, exist_ok=True)
        partial = path + f".{os.getpid()}.tmp.npz"
        np.savez(partial, **arrays)
        os.replace(partial, path)
        return arrays


def source_images(cache: DiskCache, scene, label: str) -> np.ndarray:
    """The scene's procedural source images (S, 3, H, W)."""
    from repro import models as M

    key = f"src-{label}-p{SOURCE_POINTS}"
    return cache.get(key, lambda: {"images": M.render_source_views(
        scene, num_points=SOURCE_POINTS)})["images"]


def jittered_scene(scene, rng: np.random.Generator, sigma: float = 0.08):
    """The scene with its held-out target pose moved by a seeded jitter
    of the eye point, still looking at the rig's centre."""
    from repro.geometry.transforms import camera_at

    target = scene.target_camera
    eye = target.center + rng.normal(0.0, sigma, size=3)
    camera = camera_at(eye, np.zeros(3), target.intrinsics)
    return dataclasses.replace(scene, target_camera=camera)


# ----------------------------------------------------------------------
# render
# ----------------------------------------------------------------------
def render_checkpoint(cache: DiskCache) -> dict:
    """Weights of a default-config Gen-NeRF trained by the program's own
    ``Trainer`` on one scene of each render family (scene seed outside
    the evaluation pool), so rendered views have meaningful PSNR."""
    from repro import models as M
    from repro.scenes.datasets import make_scene

    def build():
        scenes = []
        for family in RENDER_FAMILIES:
            scene = make_scene(family, seed=CHECKPOINT_SCENE_SEED,
                               num_source_views=RENDER_VIEWS,
                               image_scale=RENDER_SCALE)
            label = f"{family}-s{CHECKPOINT_SCENE_SEED}-x{RENDER_SCALE}"
            scenes.append(M.SceneData(
                scene=scene, source_images=source_images(cache, scene,
                                                         label)))
        model = M.GenNeRF(rng=np.random.default_rng(0))
        M.Trainer(model, scenes, M.TrainConfig(seed=0)).fit(
            CHECKPOINT_STEPS)
        return model.state_dict()

    return cache.get(f"render-checkpoint-{CHECKPOINT_STEPS}", build)


@dataclasses.dataclass
class RenderScene:
    family: str
    source_images: np.ndarray
    poses: list                   # scenes whose target is a jittered pose
    references: list              # dense reference image per pose


def render_inputs(cache: DiskCache, seed: int):
    """(checkpoint, [RenderScene]) for one seed."""
    from repro import models as M
    from repro.scenes.datasets import make_scene

    scene_seed = 1 + pool_index(seed)
    rng = np.random.default_rng((int(seed), zlib.crc32(b"render-poses")))
    scenes = []
    for family in RENDER_FAMILIES:
        scene = make_scene(family, seed=scene_seed,
                           num_source_views=RENDER_VIEWS,
                           image_scale=RENDER_SCALE)
        images = source_images(
            cache, scene, f"{family}-s{scene_seed}-x{RENDER_SCALE}")
        poses = [jittered_scene(scene, rng) for _ in range(RENDER_POSES)]
        references = cache.get(
            f"render-refs-{family}-seed{int(seed)}",
            lambda: {str(i): M.render_target_reference(
                pose, num_points=REFERENCE_POINTS, step=RENDER_STEP)
                for i, pose in enumerate(poses)})
        references = [references[str(i)] for i in range(len(poses))]
        scenes.append(RenderScene(family, images, poses, references))
    return render_checkpoint(cache), scenes


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
def train_inputs(cache: DiskCache, seed: int):
    """[(scene, source_images)] of the Table 2/3-style training set; the
    seed only picks the trainer's stream (see ``TrainWorkload``)."""
    from repro.scenes.datasets import make_scene

    out = []
    for name in TRAIN_SCENES:
        scene = make_scene("llff", seed=LLFF_SCENE_SEED, scene_name=name,
                           num_source_views=10, image_scale=TRAIN_SCALE)
        out.append((scene, source_images(
            cache, scene,
            f"llff-{name}-s{LLFF_SCENE_SEED}-x{TRAIN_SCALE}")))
    return out


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
SERVE_CLIENTS = 16
SERVE_REQUESTS_PER_CLIENT = 25
SERVE_MEAN_GAP = 3
SERVE_STEP = 8
SERVE_SCALE = 1 / 16
SERVE_VIEWS = 4
SERVE_SOURCE_POINTS = 32      # ServeConfig().source_points


def serve_inputs(cache: DiskCache, seed: int):
    """(trace, {store key: source images}, {scene name: reference}).

    The trace is :func:`repro.core.serve.synthetic_trace` over every
    scene and quality; the images are exactly what the serve LRU would
    render on a cold miss, keyed the way its disk cache is keyed.
    """
    from repro import models as M
    from repro.core.scene_cache import source_images_key
    from repro.core.serve import synthetic_trace
    from repro.scenes.datasets import make_scene

    scene_seed = LLFF_SCENE_SEED
    trace = synthetic_trace(
        seed=int(seed), clients=SERVE_CLIENTS,
        requests_per_client=SERVE_REQUESTS_PER_CLIENT,
        scenes=SERVE_SCENES, qualities=SERVE_QUALITIES,
        mean_gap=SERVE_MEAN_GAP, step=SERVE_STEP, image_scale=SERVE_SCALE,
        views=SERVE_VIEWS, scene_seed=scene_seed)
    images, references = {}, {}
    for name in SERVE_SCENES:
        scene = make_scene("llff", seed=scene_seed, scene_name=name,
                           num_source_views=SERVE_VIEWS,
                           image_scale=SERVE_SCALE)
        key = source_images_key(name, SERVE_SCALE, SERVE_VIEWS, scene_seed,
                                SERVE_SOURCE_POINTS)
        images[key] = cache.get(key, lambda: {
            "images": M.render_source_views(
                scene, num_points=SERVE_SOURCE_POINTS)})["images"]
        references[name] = cache.get(
            f"serve-ref-{key}-step{SERVE_STEP}", lambda: {
                "image": M.render_target_reference(
                    scene, num_points=REFERENCE_POINTS,
                    step=SERVE_STEP)})["image"]
    return trace, images, references


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------
SIM_DATASETS = ("llff", "nerf_synthetic", "deepvoxels")
SIM_VIEWS = (4, 6, 10)
SIM_VARIANTS = ("ours", "var1", "var2", "var3")
SIM_POINTS_PER_RAY = 64


def simulate_inputs(seed: int):
    """The Fig. 12-style sweep: [(label, variant, workload, rig)] at
    paper resolution; the camera rigs' jitter comes from the pool."""
    from repro.core.pipeline import hardware_rig
    from repro.models.workload import typical_workload
    from repro.scenes.datasets import DATASETS

    rig_seed = pool_index(seed)
    points = []
    for dataset in SIM_DATASETS:
        spec = DATASETS[dataset]
        for views in SIM_VIEWS:
            rig = hardware_rig(spec, views, seed=rig_seed)
            workload = typical_workload(
                height=spec.height, width=spec.width, num_views=views,
                points_per_ray=SIM_POINTS_PER_RAY)
            for variant in SIM_VARIANTS:
                points.append((f"{dataset}/{views}/{variant}", variant,
                               workload, rig))
    return points


BUILDERS = {"render": render_inputs, "train": train_inputs,
            "serve": serve_inputs}


if __name__ == "__main__":
    # python3 perfbench/inputs.py WORKLOAD SEED: fill the cache.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import repro.models  # noqa: F401  (first: hardware imports models)

    builder = BUILDERS.get(sys.argv[1])
    if builder is not None:
        builder(DiskCache(root), int(sys.argv[2]))
