"""Recursive projection-based decomposition driver (Section II.D).

Used as a *coarse partitioner* for the boundary-layer point cloud: the
cloud is recursively median-split along the shortest-bbox-edge axis, each
split contributing a path of true Delaunay edges; leaves are triangulated
independently (here with the incremental kernel, in the paper with
Triangle) and the union is the exact Delaunay triangulation of the whole
cloud — no merge step, no disturbed anisotropic alignment.

Termination criteria (paper Section II.D):
1. no internal (non-path, non-boundary) vertices remain,
2. vertex count below ``leaf_size``,
3. recursion level reached ``max_level`` (set from the process count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..delaunay.constrained import triangulate_pslg
from ..delaunay.kernel import Triangulation
from ..delaunay.mesh import TriMesh, merge_meshes
from .projection import dividing_path
from .subdomain import Subdomain

__all__ = ["DecompositionResult", "decompose", "triangulate_leaves"]


@dataclass
class DecompositionResult:
    leaves: List[Subdomain]
    path_edges_global: List[Tuple[int, int]] = field(default_factory=list)
    n_splits: int = 0

    def sizes(self) -> List[int]:
        return [len(leaf) for leaf in self.leaves]

    def balance(self) -> float:
        """max/mean leaf size — 1.0 is perfect balance."""
        s = self.sizes()
        return max(s) / (sum(s) / len(s)) if s else float("nan")


def decompose(
    points: np.ndarray,
    *,
    leaf_size: int = 64,
    max_level: int = 32,
    partition_mode: str = "path",
) -> DecompositionResult:
    """Decompose a point cloud into independently triangulable leaves.

    ``max_level`` maps to the paper's process-count-dependent recursion
    tolerance: ``2**max_level`` leaves upper-bound the parallelism.
    ``partition_mode`` selects exact path-side assignment (``"path"``) or
    the paper's branch-free coordinate split (``"coordinate"``) — see
    :meth:`Subdomain.partition`.
    """
    points = np.asarray(points, dtype=np.float64)
    if len(points) < 1:
        raise ValueError("empty point cloud")
    root = Subdomain.from_points(points)
    result = DecompositionResult(leaves=[])
    stack = [root]
    while stack:
        sub = stack.pop()
        if (
            len(sub) <= max(leaf_size, 3)
            or sub.level >= max_level
            or not sub.has_internal_vertices()
        ):
            result.leaves.append(sub)
            continue
        axis = sub.cut_axis()
        median = sub.median_vertex(axis)
        hull = dividing_path(sub, axis, median)
        for a, b in zip(hull, hull[1:]):
            result.path_edges_global.append(
                (int(sub.gid[a]), int(sub.gid[b]))
            )
        left, right = sub.partition(axis, median, hull, mode=partition_mode)
        if len(left) >= len(sub) or len(right) >= len(sub):
            # Degenerate split (e.g. all points on the path): stop here.
            result.leaves.append(sub)
            continue
        result.n_splits += 1
        stack.append(left)
        stack.append(right)
    return result


from .projection import side_of_path as _side_of_path  # re-export for tests


def leaf_region_mask(leaf: Subdomain, mesh: TriMesh) -> np.ndarray:
    """Boolean mask of ``mesh`` triangles inside the leaf's region.

    A leaf's Delaunay triangulation covers the convex hull of its points,
    which spills across the dividing paths; only triangles whose centroid
    sits on the leaf's side of every ancestor path belong to it (the
    spill-over is re-created identically by the neighbouring leaf).
    """
    keep = np.ones(mesh.n_triangles, dtype=bool)
    if not leaf.regions or mesh.n_triangles == 0:
        return keep
    cents = mesh.centroids()
    for t in range(mesh.n_triangles):
        for path, axis, sign in leaf.regions:
            s = _side_of_path(path, axis, cents[t])
            if s * sign < 0:
                keep[t] = False
                break
    return keep


def triangulate_leaves(result: DecompositionResult) -> List[TriMesh]:
    """Independently triangulate every leaf (the concurrent stage).

    The dividing-path edges are supplied as constraints; by the
    projection-path theorem they are Delaunay edges, so constraining them
    changes nothing mathematically but protects against floating-point
    tie-breaks on cocircular point sets.  Each leaf mesh is clipped to the
    leaf's path-bounded region; the clipped meshes tile the global
    triangulation exactly and :func:`merge_meshes` welds them together.
    """
    out: List[TriMesh] = []
    for leaf in result.leaves:
        if len(leaf) < 3:
            out.append(TriMesh(leaf.coords,
                               np.empty((0, 3), dtype=np.int32)))
            continue
        segs = np.asarray(leaf.path_edges, dtype=np.int64).reshape(-1, 2)
        tri = triangulate_pslg(leaf.coords, segs)
        mesh = tri.to_mesh()
        keep = leaf_region_mask(leaf, mesh)
        out.append(TriMesh(mesh.points, mesh.triangles[keep], mesh.segments))
    return out
