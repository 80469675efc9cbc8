"""Subdomain container for the projection-based decomposition (Section III).

A :class:`Subdomain` owns a contiguous coordinate array plus *maintained*
x-sorted and y-sorted index orders, giving the paper's O(1) bounding box
and O(1) median lookup, and linear-time sortedness-preserving partition.
The implementation mirrors the paper's memory tricks:

* the partition walks each sorted order once and splits it with boolean
  masks (no comparisons re-done downstream, no re-sorting);
* the left child *reuses* the parent's arrays where possible (the paper
  reuses the original subdomain's storage for the left subdomain);
* hull (dividing-path) vertices are duplicated into both children and
  flagged ``boundary`` so the "no internal vertices" termination criterion
  can be evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..geometry.aabb import AABB

__all__ = ["Subdomain"]


@dataclass
class Subdomain:
    """A set of vertices under decomposition.

    Attributes
    ----------
    coords:
        ``(n, 2)`` float64 vertex coordinates (local storage).
    gid:
        ``(n,)`` global vertex ids (into the original point cloud).
    x_order / y_order:
        Index arrays into ``coords`` sorted lexicographically by (x, y)
        and (y, x) respectively.
    boundary:
        ``(n,)`` bool; True for vertices on a dividing path.
    level:
        Recursion depth (root = 0).
    path_edges:
        Constrained dividing-path edges as local index pairs, accumulated
        from every split that created this subdomain.
    """

    coords: np.ndarray
    gid: np.ndarray
    x_order: np.ndarray
    y_order: np.ndarray
    boundary: np.ndarray
    level: int = 0
    path_edges: List[Tuple[int, int]] = field(default_factory=list)
    # Half-region constraints accumulated from ancestor splits: each entry
    # is (path polyline coords ordered along the cut axis, cut axis,
    # keep_sign) — a triangle belongs to this subdomain's region iff its
    # centroid lies on the keep_sign side of every ancestor path.
    regions: List[Tuple[np.ndarray, str, int]] = field(default_factory=list)

    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: np.ndarray) -> "Subdomain":
        """The root subdomain of a point cloud: global ids are the row
        indices and no vertex is on a path yet."""
        points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("points must be (n, 2)")
        n = len(points)
        x_order = np.lexsort((points[:, 1], points[:, 0]))
        y_order = np.lexsort((points[:, 0], points[:, 1]))
        return cls(points, np.arange(n, dtype=np.int64), x_order, y_order,
                   np.zeros(n, dtype=bool))

    def __len__(self) -> int:
        return len(self.coords)

    # ------------------------------------------------------------------
    # O(1) queries via the sorted orders
    # ------------------------------------------------------------------
    def bbox(self) -> AABB:
        """Bounding box in O(1) from the ends of the sorted orders."""
        if len(self) == 0:
            raise ValueError("empty subdomain")
        xs, ys = self.coords[:, 0], self.coords[:, 1]
        return AABB(
            float(xs[self.x_order[0]]), float(ys[self.y_order[0]]),
            float(xs[self.x_order[-1]]), float(ys[self.y_order[-1]]),
        )

    def cut_axis(self) -> str:
        """Axis the median line is parallel to: the paper cuts with a line
        parallel to the *shortest* bbox edge, splitting the long dimension
        (avoids long skinny subdomains that are expensive to triangulate).

        Returns ``"y"`` for a vertical median line (splits x) or ``"x"``
        for a horizontal one (splits y).
        """
        box = self.bbox()
        return "y" if box.width >= box.height else "x"

    def median_vertex(self, axis: str) -> int:
        """Local index of the median vertex along the primary axis in O(1).

        ``axis`` is the *cut* axis; the primary axis is the other one.
        """
        order = self.x_order if axis == "y" else self.y_order
        return int(order[len(order) // 2])

    def has_internal_vertices(self) -> bool:
        return bool((~self.boundary).any())

    # ------------------------------------------------------------------
    # Partition (linear time, sortedness preserved)
    # ------------------------------------------------------------------
    def partition(self, axis: str, median_local: int,
                  hull_local: np.ndarray, *,
                  mode: str = "path") -> Tuple["Subdomain", "Subdomain"]:
        """Split into (left/below, right/above) children about the median,
        duplicating the dividing-path (``hull_local``) vertices into both.

        ``mode="path"`` (default) assigns every vertex by which side of
        the dividing path it lies on — the assignment Blelloch's theorem
        needs for the merged leaf triangulations to equal the global
        Delaunay triangulation exactly.  ``mode="coordinate"`` reproduces
        the paper's Section III optimisation (branch-free median-coordinate
        split of the sorted arrays); it is faster but near the path a
        vertex can land on the wrong side, in which case the merged mesh
        is still a valid conforming triangulation of the same points but
        may deviate from Delaunay in a band around the path (see the
        decomposition ablation benchmark).

        Path vertices become ``boundary`` in both children, and the new
        dividing-path edges (consecutive hull pairs) are appended to each
        child's ``path_edges``; surviving parent path edges are forwarded
        to whichever child holds both endpoints.
        """
        coords = self.coords
        hull_mask = np.zeros(len(coords), dtype=bool)
        hull_mask[hull_local] = True

        if mode == "coordinate":
            prim = 0 if axis == "y" else 1
            sec = 1 - prim
            key = coords[:, prim]
            sec_key = coords[:, sec]
            mk, msk = key[median_local], sec_key[median_local]
            # "Less than the median vertex" in lexicographic (primary,
            # secondary) order so duplicated primary coordinates split
            # deterministically; >= goes right (paper Section III).
            less = (key < mk) | ((key == mk) & (sec_key < msk))
            left_keep = less | hull_mask
            right_keep = (~less) | hull_mask
        elif mode == "path":
            from .projection import side_of_path  # local: avoid cycle

            path_coords = coords[hull_local]
            left_sign_ = 1 if axis == "y" else -1
            sides = np.zeros(len(coords), dtype=np.int8)
            for i in range(len(coords)):
                if hull_mask[i]:
                    continue
                sides[i] = side_of_path(path_coords, axis, coords[i])
            left_keep = hull_mask | (sides * left_sign_ > 0)
            right_keep = hull_mask | (sides * left_sign_ < 0)
            # Degenerate on-path non-hull points go to both sides.
            on_path = ~hull_mask & (sides == 0)
            left_keep |= on_path
            right_keep |= on_path
        else:
            raise ValueError(f"unknown partition mode: {mode}")

        left = self._make_child(left_keep, hull_mask)
        right = self._make_child(right_keep, hull_mask)

        # Distribute parent's surviving path edges and add the new path.
        path_coords = np.ascontiguousarray(coords[hull_local])
        # Orientation convention: the path runs in +u direction (+y for a
        # vertical cut, +x for a horizontal one).  "Left of the directed
        # path" (orient2d > 0) is smaller x for a vertical cut — the left
        # child — but LARGER y for a horizontal cut — the right child.
        left_sign = 1 if axis == "y" else -1
        for child, sign in ((left, left_sign), (right, -left_sign)):
            local_of = {int(g): i for i, g in enumerate(child.gid)}
            for (u, v) in self.path_edges:
                gu, gv = int(self.gid[u]), int(self.gid[v])
                if gu in local_of and gv in local_of:
                    child.path_edges.append((local_of[gu], local_of[gv]))
            for a, b in zip(hull_local, hull_local[1:]):
                ga, gb = int(self.gid[a]), int(self.gid[b])
                child.path_edges.append((local_of[ga], local_of[gb]))
            child.regions = list(self.regions)
            child.regions.append((path_coords, axis, sign))
        return left, right

    def _make_child(self, keep: np.ndarray, hull_mask: np.ndarray
                    ) -> "Subdomain":
        idx = np.flatnonzero(keep)
        remap = np.full(len(self.coords), -1, dtype=np.int64)
        remap[idx] = np.arange(len(idx))
        # Filter the sorted orders with one masked pass each: the result
        # stays sorted (stable subsequence of a sorted sequence).
        x_order = remap[self.x_order[keep[self.x_order]]]
        y_order = remap[self.y_order[keep[self.y_order]]]
        return Subdomain(
            coords=np.ascontiguousarray(self.coords[idx]),
            gid=self.gid[idx].copy(),
            x_order=x_order,
            y_order=y_order,
            boundary=(self.boundary | hull_mask)[idx],
            level=self.level + 1,
        )
