"""Finalised triangle mesh: contiguous arrays, adjacency, quality metrics.

:class:`TriMesh` is the immutable product of the triangulation kernel and
the currency of everything downstream: refinement statistics, the FEM
solver, mesh I/O, and the experiment harnesses.  Vertices and triangles
live in contiguous NumPy arrays (structure-of-arrays, per the paper's
Section III implementation notes) and all per-triangle quantities are
computed vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from ..geometry.predicates import exact_eq

__all__ = ["TriMesh", "merge_meshes"]


@dataclass
class TriMesh:
    """Triangle mesh with optional constrained-edge markers.

    Attributes
    ----------
    points:
        ``(n, 2)`` float64 vertex coordinates.
    triangles:
        ``(m, 3)`` int32 vertex indices, counter-clockwise.
    segments:
        ``(s, 2)`` int32 constrained/boundary edges (may be empty).
    """

    points: np.ndarray
    triangles: np.ndarray
    segments: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), dtype=np.int32)
    )

    def __post_init__(self) -> None:
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int32)
        self.segments = np.ascontiguousarray(self.segments, dtype=np.int32)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must be (n, 2)")
        if self.triangles.size and (
            self.triangles.ndim != 2 or self.triangles.shape[1] != 3
        ):
            raise ValueError("triangles must be (m, 3)")
        if self.triangles.size and self.triangles.max() >= len(self.points):
            raise ValueError("triangle index out of range")
        if self.triangles.size and self.triangles.min() < 0:
            raise ValueError("negative triangle index")
        if self.segments.size and (
            self.segments.ndim != 2 or self.segments.shape[1] != 2
        ):
            raise ValueError("segments must be (s, 2)")
        if self.segments.size and (
            self.segments.min() < 0
            or self.segments.max() >= len(self.points)
        ):
            raise ValueError("segment index out of range")

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def __repr__(self) -> str:
        return f"TriMesh(n_points={self.n_points}, n_triangles={self.n_triangles})"

    # ------------------------------------------------------------------
    # Per-triangle geometry (vectorised)
    # ------------------------------------------------------------------
    def _corners(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        p = self.points
        t = self.triangles
        return p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]

    def areas(self) -> np.ndarray:
        """Signed triangle areas (positive == CCW)."""
        a, b, c = self._corners()
        return 0.5 * (
            (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
            - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
        )

    def centroids(self) -> np.ndarray:
        a, b, c = self._corners()
        return (a + b + c) / 3.0

    def edge_lengths(self) -> np.ndarray:
        """``(m, 3)`` edge lengths; column k is the edge opposite vertex k."""
        a, b, c = self._corners()
        la = np.linalg.norm(c - b, axis=1)
        lb = np.linalg.norm(a - c, axis=1)
        lc = np.linalg.norm(b - a, axis=1)
        return np.column_stack([la, lb, lc])

    def circumradii(self) -> np.ndarray:
        """Circumradius per triangle (R = abc / 4A); inf where degenerate."""
        ls = self.edge_lengths()
        area = np.abs(self.areas())
        with np.errstate(divide="ignore", invalid="ignore"):
            r = ls[:, 0] * ls[:, 1] * ls[:, 2] / (4.0 * area)
        r[exact_eq(area, 0.0)] = np.inf
        return r

    def radius_edge_ratios(self) -> np.ndarray:
        """Circumradius-to-shortest-edge ratio (Ruppert's quality measure).

        A triangulation refined to ratio <= sqrt(2) has minimum angle
        >= arcsin(1/(2*sqrt(2))) ~ 20.7 degrees — the bound the paper's
        isotropic comparison mesh satisfies.
        """
        ls = self.edge_lengths()
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.circumradii() / ls.min(axis=1)

    def angles(self) -> np.ndarray:
        """``(m, 3)`` interior angles in radians (column k at vertex k)."""
        ls = self.edge_lengths()
        la, lb, lc = ls[:, 0], ls[:, 1], ls[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            cos_a = (lb**2 + lc**2 - la**2) / (2 * lb * lc)
            cos_b = (la**2 + lc**2 - lb**2) / (2 * la * lc)
            cos_c = (la**2 + lb**2 - lc**2) / (2 * la * lb)
        cos_all = np.clip(np.column_stack([cos_a, cos_b, cos_c]), -1.0, 1.0)
        return np.arccos(cos_all)

    def min_angle(self) -> float:
        """Smallest interior angle in the mesh, radians."""
        if self.n_triangles == 0:
            return float("nan")
        return float(self.angles().min())

    def aspect_ratios(self) -> np.ndarray:
        """Longest-edge to shortest-altitude ratio per triangle.

        Anisotropic boundary-layer triangles legitimately reach ratios of
        thousands; this is the quantity the paper's 10,000:1 claim refers
        to.
        """
        ls = self.edge_lengths()
        lmax = ls.max(axis=1)
        area = np.abs(self.areas())
        with np.errstate(divide="ignore", invalid="ignore"):
            h_min = 2.0 * area / lmax
            return lmax / h_min

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def edges(self) -> np.ndarray:
        """Unique undirected edges as an ``(e, 2)`` sorted-index array."""
        t = self.triangles
        e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        e.sort(axis=1)
        return np.unique(e, axis=0)

    def boundary_edges(self) -> np.ndarray:
        """Edges used by exactly one triangle."""
        t = self.triangles
        e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        e.sort(axis=1)
        uniq, counts = np.unique(e, axis=0, return_counts=True)
        return uniq[counts == 1]

    def neighbors(self) -> np.ndarray:
        """``(m, 3)`` adjacent triangle per edge (opposite vertex k); -1 none."""
        t = self.triangles
        m = len(t)
        edge_map: Dict[Tuple[int, int], Tuple[int, int]] = {}
        nbr = np.full((m, 3), -1, dtype=np.int32)
        for ti in range(m):
            for k in range(3):
                u, v = int(t[ti, (k + 1) % 3]), int(t[ti, (k + 2) % 3])
                key = (u, v) if u < v else (v, u)
                if key in edge_map:
                    tj, kj = edge_map.pop(key)
                    nbr[ti, k] = tj
                    nbr[tj, kj] = ti
                else:
                    edge_map[key] = (ti, k)
        return nbr

    def is_conforming(self) -> bool:
        """Every internal edge shared by exactly 2 triangles, none by more."""
        t = self.triangles
        if len(t) == 0:
            return True
        e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        e.sort(axis=1)
        _, counts = np.unique(e, axis=0, return_counts=True)
        return bool(np.all(counts <= 2))

    def contains_segments(self, segments: np.ndarray) -> bool:
        """True if every given vertex-index segment appears as a mesh edge."""
        if len(segments) == 0:
            return True
        have = {tuple(e) for e in self.edges().tolist()}
        for u, v in np.asarray(segments, dtype=np.int64):
            a, b = (int(u), int(v)) if u < v else (int(v), int(u))
            if (a, b) not in have:
                return False
        return True

    # ------------------------------------------------------------------
    # Delaunay verification
    # ------------------------------------------------------------------
    def delaunay_violations(self, *, respect_segments: bool = True) -> int:
        """Count internal edges violating the local Delaunay criterion
        (exact incircle).

        An edge is locally Delaunay when the opposite vertex of each
        adjacent triangle is not inside the other's circumcircle.  For a
        *constrained* Delaunay triangulation, constrained edges are exempt
        (``respect_segments``).
        """
        from ..geometry.predicates import incircle

        t = self.triangles
        nbr = self.neighbors()
        constrained: Set[Tuple[int, int]] = set()
        if respect_segments and len(self.segments):
            for u, v in self.segments.tolist():
                constrained.add((min(u, v), max(u, v)))
        p = self.points
        bad = 0
        for ti in range(len(t)):
            for k in range(3):
                tj = nbr[ti, k]
                if tj < 0 or tj < ti:
                    continue
                u, v = int(t[ti, (k + 1) % 3]), int(t[ti, (k + 2) % 3])
                if (min(u, v), max(u, v)) in constrained:
                    continue
                a, b, c = (p[t[ti, 0]], p[t[ti, 1]], p[t[ti, 2]])
                # opposite vertex in tj
                opp = [w for w in t[tj] if w != u and w != v]
                if len(opp) != 1:
                    continue
                if incircle(a, b, c, p[opp[0]]) > 0:
                    bad += 1
        return bad

    # ------------------------------------------------------------------
    # Statistics bundle (for reports / EXPERIMENTS.md)
    # ------------------------------------------------------------------
    def quality_summary(self) -> Dict[str, float]:
        if self.n_triangles == 0:
            return {"n_points": self.n_points, "n_triangles": 0}
        ang = np.degrees(self.angles())
        return {
            "n_points": self.n_points,
            "n_triangles": self.n_triangles,
            "min_angle_deg": float(ang.min()),
            "max_angle_deg": float(ang.max()),
            "mean_min_angle_deg": float(ang.min(axis=1).mean()),
            "max_aspect_ratio": float(self.aspect_ratios().max()),
            "max_radius_edge": float(self.radius_edge_ratios().max()),
            "total_area": float(np.abs(self.areas()).sum()),
        }


def _group_rows(rows: np.ndarray):
    """``(order, head)``: the stable lexicographic order of the integer
    rows of ``rows`` (first column most significant) and, per sorted
    position, whether it starts a run of equal rows — so
    ``order[head]`` is the first appearance of each distinct row."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    head = np.ones(len(rows), dtype=bool)
    head[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return order, head


def merge_meshes(meshes: List[TriMesh]) -> TriMesh:
    """Merge subdomain meshes, welding vertices that coincide within 1e-12.

    Subdomains produced by the decomposition/decoupling share only border
    vertices, which are bit-identical by construction; welding uses a
    quantised coordinate key.  Duplicate triangles (none expected) are
    dropped.
    """
    if not meshes:
        raise ValueError("no meshes to merge")
    inv = 1e12

    # Weld: quantised keys for every vertex of every mesh, welded to the
    # global id of their first appearance (np.round == round: both
    # half-to-even).  One stable lexsort groups equal keys with each
    # group's first appearance at its head; no per-vertex Python loop.
    all_pts = np.vstack([np.asarray(m.points, dtype=np.float64).reshape(-1, 2)
                         for m in meshes])
    keys = np.round(all_pts * inv).astype(np.int64)
    order, head = _group_rows(keys)
    # Per sorted row, the first appearance of its key.
    first = order[head][np.cumsum(head) - 1]
    kept = np.zeros(len(keys), dtype=bool)
    kept[first] = True
    new_id = np.cumsum(kept) - 1
    gid = np.empty(len(keys), dtype=np.int64)
    gid[order] = new_id[first]
    points = all_pts[kept]

    offsets = np.cumsum([0] + [m.n_points for m in meshes])
    tri_blocks = [
        gid[offsets[i]:offsets[i + 1]][np.asarray(m.triangles, np.int64)]
        for i, m in enumerate(meshes) if m.n_triangles
    ]
    if tri_blocks:
        tris = np.vstack(tri_blocks)
        # Drop duplicate triangles (none expected), keeping first
        # appearance order like the sequential weld did.
        order, head = _group_rows(np.sort(tris, axis=1))
        kept = np.zeros(len(tris), dtype=bool)
        kept[order[head]] = True
        tris = tris[kept].astype(np.int32)
    else:
        tris = np.empty((0, 3), np.int32)

    seg_blocks = [
        gid[offsets[i]:offsets[i + 1]][np.asarray(m.segments, np.int64)]
        for i, m in enumerate(meshes) if len(m.segments)
    ]
    if seg_blocks:
        # Each segment once, as (low, high), the rows in sorted order.
        segs = np.sort(np.vstack(seg_blocks), axis=1)
        order, head = _group_rows(segs)
        segs = segs[order[head]].astype(np.int32)
    else:
        segs = np.empty((0, 2), np.int32)

    return TriMesh(points, tris, segs)
