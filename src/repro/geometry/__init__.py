"""``repro.geometry`` — cameras, rays, epipolar geometry, and frusta.

Implements the geometric substrate of the paper: the projection pipeline
of generalizable NeRFs (Sec. 2.2 Steps 1–2) and the epipolar analysis
(Sec. 4.1–4.3) the accelerator dataflow is built on.
"""

from .camera import Camera, Intrinsics
from .epipolar import (EpipolarPair, epipolar_line, epipole_in_novel,
                       epipole_in_source, essential_matrix,
                       fundamental_matrix, group_rays_by_epipolar_lines,
                       pixels_through_epipole, point_line_distance,
                       relative_pose, skew)
from .frustum import (Footprint, PatchRegion, convex_hull_area,
                      depth_of_bin, frustum_corners, project_frustum)
from .rays import (RayBundle, image_shape_for_step, rays_for_image,
                   rays_for_pixels, stratified_depths)
from .transforms import (camera_at, forward_facing_cameras, look_at,
                         normalize, orbit_cameras)

__all__ = [
    "Camera", "Intrinsics",
    "EpipolarPair", "skew", "relative_pose", "essential_matrix",
    "fundamental_matrix", "epipole_in_source", "epipole_in_novel",
    "epipolar_line", "point_line_distance", "pixels_through_epipole",
    "group_rays_by_epipolar_lines",
    "PatchRegion", "Footprint", "frustum_corners", "project_frustum",
    "convex_hull_area", "depth_of_bin",
    "RayBundle", "rays_for_pixels", "rays_for_image", "stratified_depths",
    "image_shape_for_step",
    "look_at", "camera_at", "orbit_cameras", "forward_facing_cameras",
    "normalize",
]
