"""Delaunay substrate: kernel, hull, constrained triangulation, refinement.

This package is the repository's from-scratch replacement for Shewchuk's
Triangle (see DESIGN.md, substitutions table).
"""

from .constrained import insert_segment, triangulate_pslg, carve
from .dnc import insertion_order, triangulate_ordered
from .hull import lower_hull_sorted
from .kernel import (
    GHOST,
    Triangulation,
    TriangulationError,
    delaunay_mesh,
    triangulate,
)
from .adapt import AdaptReport, MeshAdaptor, adapt_mesh
from .mesh import TriMesh, merge_meshes
from .refine import (
    RUPPERT_BOUND,
    AreaCriterion,
    RefinementError,
    Refiner,
    refine_pslg,
)
from .validate import ValidationReport, validate_mesh

__all__ = [
    "GHOST",
    "AdaptReport",
    "AreaCriterion",
    "MeshAdaptor",
    "RUPPERT_BOUND",
    "RefinementError",
    "Refiner",
    "TriMesh",
    "Triangulation",
    "TriangulationError",
    "ValidationReport",
    "adapt_mesh",
    "validate_mesh",
    "carve",
    "delaunay_mesh",
    "insert_segment",
    "insertion_order",
    "lower_hull_sorted",
    "merge_meshes",
    "refine_pslg",
    "triangulate",
    "triangulate_ordered",
    "triangulate_pslg",
]
