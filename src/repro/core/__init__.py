"""Core algorithms: the paper's parallel anisotropic meshing contribution."""

from .bl_pipeline import (
    BoundaryLayerConfig,
    BoundaryLayerResult,
    generate_boundary_layer,
    interior_seed,
    prepare_boundary_layer,
    triangulate_boundary_layer,
)
from .normals import SurfaceVertex, VertexKind, loop_surface_vertices
from .rays import Ray, refine_rays

__all__ = [
    "BoundaryLayerConfig",
    "BoundaryLayerResult",
    "Ray",
    "SurfaceVertex",
    "VertexKind",
    "generate_boundary_layer",
    "interior_seed",
    "loop_surface_vertices",
    "prepare_boundary_layer",
    "refine_rays",
    "triangulate_boundary_layer",
]
