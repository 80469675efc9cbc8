"""repro — parallel 2D unstructured anisotropic Delaunay mesh generation.

A from-scratch reproduction of Pardue & Chernikov, "Parallel
Two-Dimensional Unstructured Anisotropic Delaunay Mesh Generation of
Complex Domains for Aerospace Applications" (ICPP 2016).

Quickstart
----------
>>> from repro import PSLG, naca0012, MeshConfig, generate_mesh
>>> pslg = PSLG.from_loops([naca0012(101)])
>>> result = generate_mesh(pslg, MeshConfig())
>>> result.mesh.n_triangles > 0
True

Package layout (see DESIGN.md for the full inventory):

- :mod:`repro.geometry` — predicates, primitives, boxes, PSLG, airfoils;
- :mod:`repro.delaunay` — the Triangle-substitute kernel: incremental
  Bowyer–Watson, constrained edges, Ruppert refinement, metric
  adaptation;
- :mod:`repro.sizing`   — sizing fields and the BL growth law;
- :mod:`repro.metric`   — SPD metric-tensor fields for adaptation;
- :mod:`repro.core`     — the paper's algorithms: boundary layers,
  projection-based decomposition, graded decoupling, push-button pipeline;
- :mod:`repro.runtime`  — executor backends (serial, process pool),
  buffer serde, service daemon, discrete-event cluster simulator;
- :mod:`repro.solver`   — P1 FEM + potential flow (the FUN3D stand-in);
- :mod:`repro.analysis` — anisotropy metrics and mesh reports;
- :mod:`repro.io`       — Triangle-format and NPZ mesh I/O.
"""

from .core.bl_pipeline import (
    BoundaryLayerConfig,
    BoundaryLayerResult,
    generate_boundary_layer,
)
from .analysis import mesh_report
from .core.pipeline import MeshConfig, MeshResult, generate_mesh
from .delaunay import TriMesh, adapt_mesh, delaunay_mesh, refine_pslg, \
    validate_mesh
from .geometry import PSLG, naca4, naca0012, three_element_airfoil
from .metric import MetricField
from .sizing import GeometricGrowth, GradedDistanceSizing, UniformSizing

__version__ = "1.0.0"

__all__ = [
    "BoundaryLayerConfig",
    "BoundaryLayerResult",
    "GeometricGrowth",
    "GradedDistanceSizing",
    "MeshConfig",
    "MeshResult",
    "MetricField",
    "PSLG",
    "TriMesh",
    "UniformSizing",
    "adapt_mesh",
    "delaunay_mesh",
    "generate_boundary_layer",
    "generate_mesh",
    "mesh_report",
    "naca4",
    "naca0012",
    "refine_pslg",
    "three_element_airfoil",
    "validate_mesh",
    "__version__",
]
