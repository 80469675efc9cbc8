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
    # Canonical form
    # ------------------------------------------------------------------
    def canonical(self) -> "TriMesh":
        """Order-independent canonical form of this mesh.

        Two Delaunay meshes over the same point set have bit-identical
        canonical forms regardless of insertion order: vertices are
        lexsorted by coordinate, exact cocircular ties (the one place
        the Delaunay triangulation is *not* unique — e.g. the mirrored
        surface stations of a symmetric airfoil) are resolved by
        flipping every tied quad to its lexicographically smaller
        diagonal, each triangle is rotated so its smallest vertex id
        leads (rotation preserves the CCW orientation), and
        triangle/segment rows are lexsorted.  Feed the result through
        :func:`repro.runtime.serde.pack_mesh` +
        :func:`~repro.runtime.serde.canonical_hash` to compare meshes
        produced by different insertion strategies.
        """
        pts = self.points
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        remap = np.empty(len(pts), dtype=np.int64)
        remap[order] = np.arange(len(pts), dtype=np.int64)
        points = pts[order]
        tris = remap[self.triangles.astype(np.int64)]
        segs = remap[self.segments.astype(np.int64)]
        if len(segs):
            segs = np.sort(segs, axis=1)
            segs = segs[np.lexsort((segs[:, 1], segs[:, 0]))]
        if len(tris):
            tris = _canonical_ties(points, tris, segs)
            lead = np.argmin(tris, axis=1)
            cols = (lead[:, None] + np.arange(3)) % 3
            tris = np.take_along_axis(tris, cols, axis=1)
            tris = tris[np.lexsort((tris[:, 2], tris[:, 1], tris[:, 0]))]
        return TriMesh(points, tris.astype(np.int32),
                       segs.astype(np.int32))

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


def _canonical_ties(points: np.ndarray, tris: np.ndarray,
                    segs: np.ndarray) -> np.ndarray:
    """Resolve exact cocircular ties toward the smaller diagonal.

    A Delaunay triangulation is unique except where four (or more)
    points are exactly cocircular; there the diagonal choice records
    insertion order.  This pass flips every non-constrained internal
    edge whose quad is an exact tie (``incircle == 0``) when the
    opposite diagonal is lexicographically smaller.  Each executed flip
    replaces an edge key with a strictly smaller one, so the sorted
    edge multiset strictly decreases and the loop terminates at the
    unique all-ties-minimal triangulation.  Non-tied edges are locally
    Delaunay already and are never touched.
    """
    from ..geometry.predicates import incircle

    tlist = [list(map(int, row)) for row in tris]
    constrained = {(min(u, v), max(u, v)) for u, v in segs.tolist()}
    edge_map: Dict[Tuple[int, int], List[int]] = {}
    for ti, (a, b, c) in enumerate(tlist):
        for u, v in ((a, b), (b, c), (c, a)):
            edge_map.setdefault((min(u, v), max(u, v)), []).append(ti)

    def _rehome(key: Tuple[int, int], old: int, new: int) -> None:
        lst = edge_map[key]
        lst[lst.index(old)] = new

    queue = [e for e, owners in edge_map.items() if len(owners) == 2]
    while queue:
        e = queue.pop()
        if e in constrained:
            continue
        owners = edge_map.get(e)
        if owners is None or len(owners) != 2:
            continue  # stale entry from an earlier flip
        u, v = e
        t1, t2 = owners
        tv1, tv2 = tlist[t1], tlist[t2]
        if u not in tv1 or v not in tv1 or u not in tv2 or v not in tv2:
            continue
        a = next(w for w in tv1 if w != u and w != v)
        b = next(w for w in tv2 if w != u and w != v)
        if a == b:
            continue
        diag = (a, b) if a < b else (b, a)
        if diag >= e or diag in edge_map:
            continue
        if incircle(points[tv1[0]], points[tv1[1]], points[tv1[2]],
                    points[b]) != 0:
            continue  # not a tie: this edge is locally Delaunay
        # Orient from t1's directed copy p -> q of the edge (apex a);
        # t2 then holds q -> p with apex b, and the CCW quad cycle is
        # p -> b -> q -> a, so (a, p, b) and (b, q, a) are the CCW
        # halves across the new diagonal.
        i = tv1.index(u)
        p, q = (u, v) if tv1[(i + 1) % 3] == v else (v, u)
        tlist[t1] = [a, p, b]
        tlist[t2] = [b, q, a]
        del edge_map[e]
        edge_map[diag] = [t1, t2]
        # Rim edges (q, a) and (p, b) change hands; (p, a)/(q, b) stay.
        _rehome((min(q, a), max(q, a)), t1, t2)
        _rehome((min(p, b), max(p, b)), t2, t1)
        for rim in ((p, a), (q, a), (p, b), (q, b)):
            key = (min(rim), max(rim))
            if len(edge_map.get(key, ())) == 2:
                queue.append(key)
    return np.asarray(tlist, dtype=np.int64)


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
    # half-to-even).  Fully vectorised — no per-vertex Python loop.
    all_pts = np.vstack([np.asarray(m.points, dtype=np.float64).reshape(-1, 2)
                         for m in meshes])
    keys = np.round(all_pts * inv).astype(np.int64)
    _, first_idx, inverse = np.unique(keys, axis=0, return_index=True,
                                      return_inverse=True)
    # np.unique sorts by key; renumber so gids follow first appearance.
    appearance = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(first_idx), dtype=np.int64)
    rank[appearance] = np.arange(len(first_idx), dtype=np.int64)
    gid = rank[inverse]
    points = all_pts[first_idx[appearance]]

    offsets = np.cumsum([0] + [m.n_points for m in meshes])
    tri_blocks = [
        gid[offsets[i]:offsets[i + 1]][np.asarray(m.triangles, np.int64)]
        for i, m in enumerate(meshes) if m.n_triangles
    ]
    if tri_blocks:
        tris = np.vstack(tri_blocks)
        # Drop duplicate triangles (none expected), keeping first
        # appearance order like the sequential weld did.
        canon = np.sort(tris, axis=1)
        _, tfirst = np.unique(canon, axis=0, return_index=True)
        tris = tris[np.sort(tfirst)].astype(np.int32)
    else:
        tris = np.empty((0, 3), np.int32)

    seg_blocks = [
        gid[offsets[i]:offsets[i + 1]][np.asarray(m.segments, np.int64)]
        for i, m in enumerate(meshes) if len(m.segments)
    ]
    if seg_blocks:
        segs = np.sort(np.vstack(seg_blocks), axis=1)
        segs = np.unique(segs, axis=0).astype(np.int32)
    else:
        segs = np.empty((0, 2), np.int32)

    return TriMesh(points, tris, segs)
