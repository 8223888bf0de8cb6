"""``repro.scenes`` — procedural volumetric scenes and reference rendering.

Offline substitute for the paper's datasets (LLFF, NeRF-Synthetic,
DeepVoxels): analytic density/colour fields arranged by seeded
generators, camera rigs matching each dataset family, and a dense
ray-marching reference renderer (see DESIGN.md, substitution table).
"""

from .datasets import DATASETS, DatasetSpec, Scene, llff_eval_scenes, make_scene
from .fields import (CompositeField, Field, GaussianBlob, GroundPlane,
                     SolidBox, SphereShell)
from .generator import (LLFF_SCENE_TRAITS, deepvoxels_like_field,
                        llff_like_field, nerf_synthetic_like_field,
                        orbit_sparse_like_field, thicket_like_field)
from .render_gt import (composite_numpy, field_sigma_color, render_image,
                        render_rays)

__all__ = [
    "Field", "GaussianBlob", "SolidBox", "SphereShell", "GroundPlane",
    "CompositeField",
    "llff_like_field", "nerf_synthetic_like_field", "deepvoxels_like_field",
    "thicket_like_field", "orbit_sparse_like_field",
    "LLFF_SCENE_TRAITS",
    "DATASETS", "DatasetSpec", "Scene", "make_scene", "llff_eval_scenes",
    "composite_numpy", "render_rays", "render_image", "field_sigma_color",
]
