"""One-call mesh reports combining validation, quality, and anisotropy.

``mesh_report`` assembles everything a user wants to see after a
push-button run into a plain-text block: the validation verdict, the
quality summary, the gradation profile, and — when the surface is given —
the anisotropic alignment statistics that motivate the paper's
decomposition design.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..delaunay.mesh import TriMesh
from ..delaunay.validate import validate_mesh
from .metrics import alignment_to_surface, element_directions, histogram, size_profile

__all__ = ["mesh_report"]


def mesh_report(mesh: TriMesh, *, surface: Optional[np.ndarray] = None
                ) -> str:
    """Human-readable report for a finished mesh (validation without the
    Delaunay check: a refined mesh is constrained Delaunay by
    construction)."""
    parts = []
    rep = validate_mesh(mesh, check_delaunay=False)
    parts.append(rep.summary())

    q = mesh.quality_summary()
    parts.append(
        "quality: "
        + ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in q.items())
    )

    _, ratio = element_directions(mesh)
    finite = ratio[np.isfinite(ratio)]
    if len(finite):
        parts.append(histogram(np.minimum(finite, 50.0), bins=8,
                               label="stretch ratio (capped at 50)"))

    if surface is not None and mesh.n_triangles:
        scores = alignment_to_surface(mesh, surface)
        if len(scores):
            parts.append(
                f"anisotropic elements: {len(scores)}; surface alignment "
                f"|cos| median {np.median(scores):.3f} "
                f"(1.0 = layers perfectly aligned)"
            )
        # Distance bands out to the mesh bounding-box diagonal.
        lo = mesh.points.min(axis=0)
        hi = mesh.points.max(axis=0)
        d_max = float(np.hypot(*(hi - lo)))
        bins = np.geomspace(1e-4, max(d_max, 1e-3), 6)
        prof = size_profile(mesh, np.asarray(surface), bins)
        for row in prof:
            parts.append(
                f"  d in [{row['d_lo']:.3g}, {row['d_hi']:.3g}): "
                f"{row['n']} elements, mean area {row['mean_area']:.3g}, "
                f"mean aspect {row['mean_aspect']:.1f}"
            )
    return "\n".join(parts)
