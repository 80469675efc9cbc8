"""Constrained Delaunay triangulation: segment recovery and carving.

Builds on the incremental kernel: after inserting all PSLG vertices, each
input segment is *recovered* (forced to appear as an edge) by flipping the
edges that cross it — the classic Lawson walk-and-flip scheme — and then
locked against future flips and cavity crossings.  Vertices that happen to
lie exactly on a segment split it (the CDT of a PSLG must contain the
sub-segments).

After recovery, :func:`carve` classifies triangles as interior/exterior by
flooding from the ghost layer (and from user hole seeds) without crossing
constrained edges — the same behaviour the paper relies on from Triangle:
"Triangle first creates an initial triangulation and then removes elements
inside concavities and holes" (Section II.E).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..geometry.predicates import orient2d
from ..runtime.counters import current as counters_current
from .cavity import (
    brio_order,
    find_directed_edge,
    get_strategy,
    legalize_edges,
)
from .kernel import GHOST, Triangulation, TriangulationError
from .mesh import TriMesh

__all__ = [
    "insert_segment",
    "triangulate_pslg",
    "carve",
    "constrained_delaunay",
]


def _first_obstruction(tri: Triangulation, a: int, b: int):
    """First thing segment ``a -> b`` hits when leaving vertex ``a``.

    Returns ``("edge", (p, q))`` for a crossing edge or ``("vertex", w)``
    for a vertex lying exactly on the open segment.
    """
    arr = tri._arr
    pa, pb = arr.point(a), arr.point(b)
    for t in tri.triangles_around_vertex(a):
        tv = arr.triangle(t)
        if GHOST in tv:
            continue
        i = tv.index(a)
        p = tv[(i + 1) % 3]
        q = tv[(i + 2) % 3]
        op = orient2d(pa, pb, arr.point(p))
        oq = orient2d(pa, pb, arr.point(q))
        # In the CCW triangle (a, p, q) the interior wedge at ``a`` runs
        # from direction a->p (clockwise boundary) to a->q (counter-
        # clockwise boundary): the ray a->b lies inside iff p is weakly
        # right of the line a->b and q weakly left.
        if op > 0 or oq < 0:
            continue
        if op == 0 and _ahead(pa, pb, arr.point(p)):
            return ("vertex", p)
        if oq == 0 and _ahead(pa, pb, arr.point(q)):
            return ("vertex", q)
        if op < 0 and oq > 0:
            # The ray exits through the opposite edge (p, q).
            return ("edge", (p, q))
    raise TriangulationError(
        f"no obstruction found for segment {a}->{b} (corrupt star?)"
    )


def _ahead(pa, pb, pw) -> bool:
    """Is ``pw`` strictly ahead of ``pa`` in the direction of ``pb``?"""
    return (pb[0] - pa[0]) * (pw[0] - pa[0]) + (pb[1] - pa[1]) * (pw[1] - pa[1]) > 0


def _edge_crosses(tri: Triangulation, p: int, q: int, a: int, b: int) -> bool:
    """Does edge (p, q) properly cross segment (a, b)?"""
    if p in (a, b) or q in (a, b):
        return False
    point = tri._arr.point
    pa, pb = point(a), point(b)
    pp, pq = point(p), point(q)
    o1 = orient2d(pa, pb, pp)
    o2 = orient2d(pa, pb, pq)
    o3 = orient2d(pp, pq, pa)
    o4 = orient2d(pp, pq, pb)
    return o1 * o2 < 0 and o3 * o4 < 0


def insert_segment(tri: Triangulation, a: int, b: int
                   ) -> List[Tuple[int, int]]:
    """Force segment ``(a, b)`` to appear, splitting at collinear vertices.

    Returns the list of constrained sub-segments actually created (just
    ``[(a, b)]`` when no vertex lies on the segment).
    """
    if a == b:
        raise ValueError("degenerate segment")
    created: List[Tuple[int, int]] = []
    work = [(a, b)]
    guard = 0
    while work:
        guard += 1
        if guard > 10_000_000:
            raise TriangulationError("segment insertion did not terminate")
        u, v = work.pop()
        if tri.has_edge(u, v):
            tri.mark_constraint(u, v)
            created.append((u, v))
            continue
        kind, payload = _first_obstruction(tri, u, v)
        if kind == "vertex":
            w = payload
            work.append((u, w))
            work.append((w, v))
            continue
        split_vertex = _recover_by_flips(tri, u, v, first_edge=payload)
        if split_vertex is not None:
            work.append((u, split_vertex))
            work.append((split_vertex, v))
        else:
            tri.mark_constraint(u, v)
            created.append((u, v))
    sink = counters_current()
    if sink is not None:
        sink.incr("segments_recovered")
        if len(created) > 1:
            sink.incr("segment_splits", len(created) - 1)
    return created


def _recover_by_flips(tri: Triangulation, a: int, b: int,
                      first_edge: Tuple[int, int]) -> Optional[int]:
    """Flip crossing edges until ``(a, b)`` exists.

    Returns ``None`` on success, or a vertex id that turned out to lie on
    the open segment (caller splits and retries).
    """
    # March across the strip of triangles crossed by a->b collecting edges.
    # Constrained crossings are detected HERE, before any flip mutates the
    # triangulation: a failed insert_segment leaves the structure exactly
    # as it was (strong exception safety for invalid PSLG input).
    def _check_not_constrained(e: Tuple[int, int]) -> None:
        key = (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])
        if key in tri.constraints:
            raise TriangulationError(
                f"input segments cross: ({a},{b}) crosses constrained "
                f"{key} — the PSLG is not valid (segments must be "
                "disjoint except at shared endpoints)"
            )

    crossing: deque = deque()
    _check_not_constrained(first_edge)
    crossing.append(first_edge)
    p, q = first_edge
    # The triangle on a's side is (a, p, q), which owns directed edge (p, q).
    loc = find_directed_edge(tri, p, q)
    if loc is None:
        raise TriangulationError("crossing edge not found")
    t, k = loc
    arr = tri._arr
    nb = arr.tn[3 * t + k]
    pa, pb = arr.point(a), arr.point(b)
    march_guard = 0
    while True:
        march_guard += 1
        if march_guard > 4 * (tri.n_live_triangles + 8):
            raise TriangulationError("segment march did not terminate")
        # nb is the triangle on the far side of (p, q): it owns the reversed
        # directed edge (q, p); its apex is the vertex opposite that edge.
        kk = tri._edge_index(nb, q, p)
        r = arr.tv[3 * nb + kk]
        if r == b:
            break
        if r == GHOST:
            raise TriangulationError(
                f"segment {a}->{b} leaves the triangulation hull"
            )
        o = orient2d(pa, pb, arr.point(r))
        if o == 0:
            if _ahead(pa, pb, arr.point(r)):
                return r  # vertex exactly on the segment
            raise TriangulationError("collinear vertex behind segment")
        # Choose the edge of nb separating from b: between (p, r) and (r, q),
        # the crossed one has endpoints on opposite sides of a->b.
        if _edge_crosses(tri, p, r, a, b):
            new_edge = (p, r)
            q = r
        elif _edge_crosses(tri, r, q, a, b):
            new_edge = (r, q)
            p = r
        else:
            raise TriangulationError("march lost the segment")
        _check_not_constrained(new_edge)
        crossing.append(new_edge)
        # nb owns the directed new_edge; step across it to continue the march.
        k = tri._edge_index(nb, new_edge[0], new_edge[1])
        nb = arr.tn[3 * nb + k]

    # Flip queue until no edge crosses the segment.
    touched: List[Tuple[int, int]] = []
    guard = 0
    while crossing:
        guard += 1
        if guard > 1000 * (len(crossing) + 10) + 100_000:
            raise TriangulationError("flip recovery did not terminate")
        p, q = crossing.popleft()
        loc = find_directed_edge(tri, p, q)
        if loc is None:
            continue  # edge already flipped away
        if not _edge_crosses(tri, p, q, a, b):
            continue
        _check_not_constrained((p, q))  # flips cannot create constraints,
        # so this is only reachable if the march missed a crossing.
        t, k = loc
        if tri.edge_is_flippable(t, k):
            t1, t2 = tri.flip(t, k)
            # flip() leaves t2 = [apex2, v, apex1]; the new shared edge is
            # (apex1, apex2).
            new_e = (arr.tv[3 * t2 + 2], arr.tv[3 * t2])
            touched.append(new_e)
            if _edge_crosses(tri, new_e[0], new_e[1], a, b):
                crossing.append(new_e)
        else:
            crossing.append((p, q))
    if not tri.has_edge(a, b):
        raise TriangulationError(f"flip recovery failed to create {a}->{b}")
    tri.mark_constraint(a, b)
    legalize_edges(tri, touched)
    tri.unmark_constraint(a, b)  # caller marks; keep function composable
    return None


def triangulate_pslg(points: np.ndarray, segments: np.ndarray,
                     *, strategy: Optional[str] = None) -> Triangulation:
    """Insert all PSLG points, then recover and lock every segment.

    Point insertion goes through the cavity-engine strategy
    ``strategy`` (``None``: ``scalar``); segment recovery is always
    sequential.  No constraints exist during the bulk phase, so the
    batched strategy is safe here.
    """
    points = np.asarray(points, dtype=np.float64)
    segments = np.asarray(segments, dtype=np.int64)
    tri = Triangulation()
    order = brio_order(points, seed=0xFACADE)
    kernel_id: Dict[int, int] = get_strategy(strategy).insert_points(
        tri, points, order)
    for u, v in segments:
        ku, kv = kernel_id[int(u)], kernel_id[int(v)]
        for su, sv in insert_segment(tri, ku, kv):
            tri.mark_constraint(su, sv)
    return tri


def carve(tri: Triangulation, holes: Sequence[Tuple[float, float]] = ()
          ) -> np.ndarray:
    """Interior mask over triangle ids (True = keep), as a bool array.

    Floods "outside" from the ghost layer across non-constrained edges,
    then floods each hole region from its seed point.  Pass the mask to
    :meth:`Triangulation.to_mesh` (which consumes it without copying).
    """
    n = tri._arr.n_tris
    tn = tri._arr.tn
    keep = np.zeros(n, dtype=bool)
    outside = np.zeros(n, dtype=bool)
    stack: List[int] = []
    for t in tri.live_triangles():
        if tri.is_ghost(t):
            outside[t] = True
            stack.append(t)
    while stack:
        t = stack.pop()
        for k in range(3):
            nb = tn[3 * t + k]
            if nb < 0 or outside[nb]:
                continue
            u, v = tri._edge(t, k)
            if u != GHOST and v != GHOST:
                key = (u, v) if u < v else (v, u)
                if key in tri.constraints:
                    continue
            outside[nb] = True
            stack.append(nb)
    for seed in holes:
        t0 = tri.locate((float(seed[0]), float(seed[1])))
        if tri.is_ghost(t0) or outside[t0]:
            continue
        outside[t0] = True
        stack = [t0]
        while stack:
            t = stack.pop()
            for k in range(3):
                nb = tn[3 * t + k]
                if nb < 0 or outside[nb]:
                    continue
                u, v = tri._edge(t, k)
                key = (u, v) if u < v else (v, u)
                if key in tri.constraints:
                    continue
                outside[nb] = True
                stack.append(nb)
    for t in tri.live_triangles():
        if not tri.is_ghost(t) and not outside[t]:
            keep[t] = True
    return keep


def constrained_delaunay(points: np.ndarray, segments: np.ndarray,
                         holes: Sequence[Tuple[float, float]] = (),
                         *, strategy: Optional[str] = None) -> TriMesh:
    """One-call CDT of a PSLG with exterior/hole carving."""
    tri = triangulate_pslg(points, segments, strategy=strategy)
    mask = carve(tri, holes)
    return tri.to_mesh(keep_mask=mask)
