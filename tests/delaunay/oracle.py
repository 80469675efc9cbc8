"""Exact reference for what a Bowyer–Watson cavity *is*.

No filters, no batching, no flat buffers: every decision is one call to
the exact ``incircle`` / ``orient2d`` on coordinates read through
``MeshArrays.point`` / ``triangle``.  The production ``cavity.carve`` must agree with
this cavity for cavity.

:func:`canonical` is the insertion-order-free form of a Delaunay mesh
the batch-insertion parity tests hash.
"""

from typing import Dict, List, Tuple

import numpy as np

from repro.delaunay.kernel import GHOST
from repro.delaunay.mesh import TriMesh
from repro.geometry.predicates import incircle, orient2d


def in_disk(tri, t, p):
    """``p`` lies in triangle ``t``'s (possibly ghost) open circumdisk."""
    arr = tri._arr
    tv = arr.triangle(t)
    if GHOST not in tv:
        return incircle(arr.point(tv[0]), arr.point(tv[1]), arr.point(tv[2]),
                        p) > 0
    # Ghost [u, v, G]: outside-hull half-plane strictly left of u->v,
    # plus the open edge uv.
    u, v = tri.ghost_edge(t)
    pu, pv = arr.point(u), arr.point(v)
    o = orient2d(pu, pv, p)
    if o != 0:
        return o > 0
    return (min(pu[0], pv[0]) <= p[0] <= max(pu[0], pv[0])
            and min(pu[1], pv[1]) <= p[1] <= max(pu[1], pv[1])
            and p != pu and p != pv)


def seed(tri, t, p):
    """``t`` or the first edge-neighbour whose open disk holds ``p``
    (``p`` on the boundary of ``t``)."""
    if in_disk(tri, t, p):
        return t
    return next(nb for nb in tri._arr.tn[3 * t:3 * t + 3]
                if nb >= 0 and in_disk(tri, nb, p))


def carve(tri, p, t0):
    """``(cavity, clipped)``: the connected component of in-disk
    triangles reached from ``t0`` without crossing a constrained edge,
    and whether a constrained edge kept out a triangle whose disk holds
    ``p`` — the cavity was truly clipped, and its star fan must be
    constrained Delaunay all the same (production repairs nothing)."""
    cavity = {t0}
    stack = [t0]
    barred = set()
    while stack:
        t = stack.pop()
        tv = tri._arr.triangle(t)
        for k in range(3):
            nb = tri._arr.tn[3 * t + k]
            if nb < 0 or nb in cavity:
                continue
            u, v = tv[k - 2], tv[k - 1]
            if (u != GHOST and v != GHOST
                    and ((u, v) if u < v else (v, u)) in tri.constraints):
                barred.add(nb)
            elif in_disk(tri, nb, p):
                cavity.add(nb)
                stack.append(nb)
    return cavity, any(in_disk(tri, nb, p) for nb in barred - cavity)


def canonical(mesh: TriMesh) -> TriMesh:
    """Order-independent canonical form of ``mesh``.

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
    pts = mesh.points
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    remap = np.empty(len(pts), dtype=np.int64)
    remap[order] = np.arange(len(pts), dtype=np.int64)
    points = pts[order]
    tris = remap[mesh.triangles.astype(np.int64)]
    segs = remap[mesh.segments.astype(np.int64)]
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
