"""Constrained Delaunay triangulation: of a polygon, of boundary-layer
rays, of a mesh as it is, and of a PSLG.

What the product refines or adapts is built from what it is, so its real
triangles are exactly the domain and its ghosts are walls (DESIGN.md,
"One region model"): a polygon — a decoupled subdomain, or the loops of
``refine_pslg`` (:func:`triangulate_loops`) — is
:func:`triangulate_polygon` of its rings; the boundary-layer annuli are
:func:`triangulate_rays` of their rays; a mesh given to ``adapt_mesh``
is :func:`load_mesh` of its triangles.  The last two share one loader.

:func:`triangulate_pslg` (insert the points, recover the segments by
Lawson flips) and :func:`carve` (Triangle's "removes elements inside
concavities and holes", Section II.E) build the general-PSLG CDT no
product path takes; tests and ``benchmarks/bench_border_cdt.py`` compare
against it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.aabb import boxes_from_segments, overlapping_pairs
from ..geometry.predicates import exact_eq, orient2d, orient2d_batch
from ..geometry.primitives import (point_in_polygon, polygon_area,
                                  segments_intersect_batch)
from ..runtime.counters import current as counters_current
from .cavity import (
    _CCW_ERR,
    _CCW_GUARD,
    _ICC_ERR,
    _ICC_GUARD,
    _NXT,
    _PRV,
    brio_order,
    find_directed_edge,
    insert_all,
    legalize_edges,
)
from .kernel import GHOST, Triangulation, TriangulationError
from .mesh import TriMesh

#: Seeds the random ear order of :func:`triangulate_polygon`.
_EAR_SEED = 0

__all__ = [
    "RingError",
    "checked_rings",
    "insert_segment",
    "load_mesh",
    "triangulate_loops",
    "triangulate_pslg",
    "triangulate_polygon",
    "triangulate_rays",
    "carve",
]


class RingError(ValueError):
    """A ring :func:`triangulate_polygon` cannot triangulate: ``ring`` 0
    is the outer ring, ``ring`` i hole ring ``i - 1``, and ``vertex``
    indexes that ring as given."""

    def __init__(self, ring: int, vertex: int, problem: str) -> None:
        super().__init__(f"{_ring_name(ring)}, vertex {vertex}: {problem}")
        self.ring, self.vertex, self.problem = ring, vertex, problem

    def __reduce__(self) -> tuple:
        # Rebuilt from its own arguments, so it crosses a process pool.
        return type(self), (self.ring, self.vertex, self.problem)


def _ring_name(ring: int) -> str:
    return "outer ring" if ring == 0 else f"hole ring {ring - 1}"


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


def triangulate_pslg(points: np.ndarray, segments: np.ndarray
                     ) -> Triangulation:
    """Insert all PSLG points, then recover and lock every segment.

    The points go in one at a time (:func:`~.cavity.insert_all`) before
    any segment exists; segment recovery follows, one segment at a
    time.  ``segments`` is an ``(m, 2)`` array of integral indices into
    ``points``; any other shape, a fractional or an out-of-range index
    raises ``ValueError`` (naming the row) before anything is inserted.
    """
    points = np.asarray(points, dtype=np.float64)
    segments = _checked_segments(segments, len(points))
    tri = Triangulation()
    order = brio_order(points, seed=0xFACADE)
    kernel_id: Dict[int, int] = insert_all(tri, points, order)
    for u, v in segments.tolist():
        for su, sv in insert_segment(tri, kernel_id[u], kernel_id[v]):
            tri.mark_constraint(su, sv)
    return tri


def _checked_segments(segments, n: int) -> np.ndarray:
    """``segments`` as an ``int64 (m, 2)`` array of indices in ``[0, n)``,
    or ``ValueError`` naming the first row that is not."""
    seg = np.asarray(segments)
    if seg.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if seg.ndim != 2 or seg.shape[1] != 2:
        raise ValueError(f"segments must have shape (m, 2), got {seg.shape}")
    with np.errstate(invalid="ignore"):     # NaN / inf: flagged below
        idx = seg.astype(np.int64)
    fractional = (idx != seg).any(axis=1)
    outside = ((idx < 0) | (idx >= n)).any(axis=1)
    bad = np.flatnonzero(fractional | outside)
    if bad.size:
        row = int(bad[0])
        what = ("is not a pair of integral vertex indices" if fractional[row]
                else f"names a vertex outside [0, {n})")
        raise ValueError(f"segments row {row}: {seg[row].tolist()} {what}")
    return idx


def _orient_counted(tri, ax, ay, bx, by, cx, cy) -> int:
    """Sign of ``orient2d(a, b, c)``: the kernel's inlined filter, exact
    when it cannot decide, counted in the kernel's ``stat_orient_*``."""
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright
    detsum = abs(detleft) + abs(detright)
    if detsum > _CCW_GUARD:
        errbound = _CCW_ERR * detsum
        if det > errbound:  # lint: disable=R1 -- inlined orient2d filter; shares ORIENT_ERR_BOUND, exact fallback below
            tri.stat_orient_fast += 1
            return 1
        if -det > errbound:
            tri.stat_orient_fast += 1
            return -1
    tri.stat_orient_exact += 1
    o = orient2d((ax, ay), (bx, by), (cx, cy))
    tri.stat_orient_zero += o == 0
    return o


def _boundary_slot(arr, u: int, w: int) -> int:
    """Flat ``tn`` index of directed boundary edge ``u -> w``: turn
    clockwise about ``u`` from its hint until the edge."""
    tv, tn = arr.tv, arr.tn
    t = arr.vt[u]
    while True:
        i3 = 3 * t
        k = 0 if tv[i3] == u else (1 if tv[i3 + 1] == u else 2)
        if tv[i3 + _NXT[k]] == w:
            return i3 + _PRV[k]
        t = tn[i3 + _PRV[k]]


def checked_rings(ring: np.ndarray, hole_rings: Sequence[np.ndarray]
                  ) -> Tuple[np.ndarray, List[np.ndarray]]:
    """``ring`` and ``hole_rings`` as a polygon: the outer ring
    counter-clockwise, every hole ring clockwise.

    Raises :class:`RingError` for a ring with fewer than three distinct
    vertices, a vertex repeated next to itself, no area, or a vertex
    where the ring folds back onto itself, and for two ring edges that
    meet anywhere but at the vertex they share.  The crossing search is
    the one of :func:`~repro.core.intersections.crossing_pairs`
    (extent-box broad phase, exact batch test), minus the pairs of ring
    neighbours, which always touch.
    """
    parts = [np.asarray(r, dtype=np.float64).reshape(-1, 2)
             for r in (ring, *hole_rings)]
    for r, pts in enumerate(parts):
        nxt, prv = np.roll(pts, -1, axis=0), np.roll(pts, 1, axis=0)
        repeat = (pts == nxt).all(axis=1)
        if repeat.any():
            raise RingError(r, int(np.argmax(repeat)),
                            "repeats the vertex after it")
        if len(np.unique(pts, axis=0)) < 3:
            raise RingError(r, 0, "has fewer than 3 distinct vertices")
        # A fold-back is a zero turn between neighbours on one side.
        acute = np.flatnonzero(((prv - pts) * (nxt - pts)).sum(axis=1) > 0)
        if len(acute):
            fold = acute[orient2d_batch(prv[acute], pts[acute],
                                        nxt[acute]) == 0]
            if len(fold):
                raise RingError(r, int(fold[0]), "folds back on itself")
    sizes = [len(p) for p in parts]
    ring_of = np.repeat(np.arange(len(parts)), sizes)
    vertex_of = np.concatenate([np.arange(m) for m in sizes])
    size_of = np.repeat(sizes, sizes)
    segs = np.concatenate(
        [np.stack([p, np.roll(p, -1, axis=0)], axis=1) for p in parts])
    i, j = overlapping_pairs(boxes_from_segments(segs))
    step = (vertex_of[j] - vertex_of[i]) % size_of[i]
    apart = ((ring_of[i] != ring_of[j])
             | ((step != 1) & (step != size_of[i] - 1)))
    i, j = i[apart], j[apart]
    if len(i):
        meet = np.flatnonzero(segments_intersect_batch(
            segs[i, 0], segs[i, 1], segs[j, 0], segs[j, 1]))
        if len(meet):
            a, b = i[meet[0]], j[meet[0]]
            raise RingError(int(ring_of[a]), int(vertex_of[a]),
                            f"its edge meets edge {int(vertex_of[b])} of "
                            f"the {_ring_name(int(ring_of[b]))}")
    for r, pts in enumerate(parts):
        area = polygon_area(pts)
        if exact_eq(area, 0.0):
            raise RingError(r, 0, "encloses no area")
        if (area > 0.0) != (r == 0):
            parts[r] = pts[::-1]
    return parts[0], parts[1:]


def triangulate_loops(points: np.ndarray, segments: np.ndarray,
                      holes: Sequence[Tuple[float, float]]
                      ) -> Triangulation:
    """:func:`triangulate_polygon` of the closed loops of a PSLG.

    ``segments`` must form closed loops, in any order and direction,
    through every point: the loop that contains all others is the outer
    ring, each other one a hole whose seed in ``holes`` lies inside it.
    ``ValueError`` names the vertex, point or seed of any other input;
    crossing or degenerate loops are :func:`checked_rings`' errors.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    seg = _checked_segments(segments, len(points))
    if not len(seg):
        raise ValueError("no segments: the domain must be bounded by "
                         "closed loops of segments")
    degree = np.bincount(seg.ravel(), minlength=len(points))
    for v in np.flatnonzero((degree != 2)
                            | ~np.isfinite(points).all(axis=1))[:1]:
        where = f"point {v} {tuple(points[v].tolist())}"
        if degree[v] == 0:
            raise ValueError(f"{where} is on no loop")
        if degree[v] == 2:
            raise ValueError(f"{where} is not finite")
        raise ValueError(f"vertex {v} is an end of {degree[v]} segments, "
                         "not 2: the segments must form closed loops")
    # Both neighbours of each vertex, then one walk round each loop.
    ends = np.concatenate([seg, seg[:, ::-1]])
    nbr = ends[np.argsort(ends[:, 0], kind="stable"), 1].reshape(-1, 2)
    loops: List[List[int]] = []
    left = set(range(len(points)))
    while left:
        loop = [min(left)]
        prev, cur = loop[0], int(nbr[loop[0], 0])
        while cur != loop[0]:
            loop.append(cur)
            a, b = nbr[cur].tolist()
            prev, cur = cur, (b if a == prev else a)
        left.difference_update(loop)
        loops.append(loop)
    o = int(np.argmax([abs(polygon_area(points[lp])) for lp in loops]))
    inner = loops[:o] + loops[o + 1:]
    outer, hole_rings = checked_rings(points[loops[o]],
                                      [points[lp] for lp in inner])
    fx, fy = np.split(points[[lp[0] for lp in inner]].reshape(-1, 2), 2,
                      axis=1)
    for i in np.flatnonzero(~point_in_polygon(fx, fy, outer))[:1].tolist():
        raise ValueError(f"vertex {inner[i][0]}: its loop lies outside the "
                         f"loop through vertex {loops[o][0]}, the largest, so "
                         "no loop contains all others")
    for k, ring in enumerate(hole_rings):
        held = point_in_polygon(fx, fy, ring)
        held[k] = False  # its own first vertex
        for i in np.flatnonzero(held)[:1].tolist():
            raise ValueError(f"vertex {inner[i][0]}: its loop lies inside "
                             f"the inner loop through vertex {inner[k][0]}: "
                             "inner loops are holes of the outer one")
    seeds = np.asarray(holes, dtype=np.float64).reshape(-1, 2)
    hit = np.array([point_in_polygon(seeds[:, :1], seeds[:, 1:], ring)
                    for ring in hole_rings]).reshape(len(inner), len(seeds))
    for s in np.flatnonzero(~hit.any(axis=0))[:1].tolist():
        raise ValueError(f"hole seed {s} at {tuple(seeds[s].tolist())} lies "
                         "inside no inner loop")
    for i in np.flatnonzero(~hit.any(axis=1))[:1].tolist():
        raise ValueError(f"vertex {inner[i][0]}: its inner loop has no "
                         "hole seed (every inner loop is a hole and needs "
                         "one)")
    return triangulate_polygon(outer, hole_rings)


def triangulate_polygon(ring: np.ndarray,
                        hole_rings: Sequence[np.ndarray] = ()
                        ) -> Triangulation:
    """Constrained Delaunay triangulation of a polygon, from its rings.

    ``ring`` is the outer border, counter-clockwise, each of
    ``hole_rings`` a hole border, clockwise, all simple and disjoint
    (:func:`checked_rings`).  Kernel vertex ``i`` is ring
    vertex ``i``, outer ring first; every ring edge is a constraint
    bordered by a ghost.  Holes are bridged to the outer border (Eberly
    2002), leaving one weakly simple polygon whose bridge ends appear
    twice; its ears are removed in a seeded random order and put back
    in reverse, each legalised by Lawson flips across the edges opposite
    its tip (Chew 1990); bridges are glued and legalised last.  Every
    sign is the kernel's filtered predicate, counted in its ``stat_*``.
    """
    tri = Triangulation()
    arr = tri._arr
    rings = [np.asarray(r, dtype=np.float64).reshape(-1, 2)
             for r in (ring, *hole_rings)]
    pts = np.vstack(rings)
    n = arr.n_pts = len(pts)
    arr.px.extend(pts.ravel().tolist())
    arr.vt.extend([-1] * n)
    starts = np.cumsum([0] + [len(r) for r in rings])
    # The polygon as a cycle of vertex ids; a bridge end gets a twin id
    # (same point, appended after the rings) for its second visit.
    nxt = np.arange(1, n + 1)
    nxt[starts[1:] - 1] = starts[:-1]
    prv = np.arange(-1, n - 1)
    prv[starts[:-1]] = starts[1:] - 1
    ring_edges = np.stack([np.arange(n), nxt], axis=1)
    nxt, prv, orig = nxt.tolist(), prv.tolist(), list(range(n))
    outer = list(range(starts[1]))
    bridges: List[Tuple[int, int]] = []
    # A hole bridges from its rightmost vertex m, rightmost hole first,
    # to the nearest outer vertex p strictly right of m that sees it: no
    # ring edge or bridge but those at m or p meets the segment.
    tops = [(int(s + np.lexsort((pts[s:e, 1], pts[s:e, 0]))[-1]), s, e)
            for s, e in zip(starts[1:-1].tolist(), starts[2:].tolist())]
    for m, s, e in sorted(tops, key=lambda top: tuple(pts[top[0]]),
                          reverse=True):
        cand = np.asarray([v for v in outer if pts[v, 0] > pts[m, 0]],
                          dtype=np.int64)
        for p in cand[np.lexsort(
                (cand, ((pts[cand] - pts[m]) ** 2).sum(axis=1)))].tolist():
            far = pts[ring_edges[~np.isin(ring_edges, (m, p)).any(axis=1)]]
            if not segments_intersect_batch(
                    np.broadcast_to(pts[m], far[:, 0].shape),
                    np.broadcast_to(pts[p], far[:, 0].shape),
                    far[:, 0], far[:, 1]).any():
                break
        else:
            raise TriangulationError(f"hole vertex {m} sees no vertex")
        ring_edges = np.vstack([ring_edges, [[m, p]]])
        # An earlier bridge end is visited more than once: enter at the
        # visit whose corner opens towards m.
        for c in [v for v in range(len(orig)) if orig[v] == p]:
            pa, pc, pb, pm = (arr.point(w) for w in (prv[c], c, nxt[c], m))
            right, left = orient2d(pc, pb, pm) > 0, orient2d(pa, pc, pm) > 0
            if (right and left) if orient2d(pa, pc, pb) > 0 else right or left:
                p = c
                break
        m2, p2 = arr.new_point(*pts[m]), arr.new_point(*arr.point(p))
        orig += [m, orig[p]]
        pn, mp = nxt[p], prv[m]
        nxt[p], prv[m], nxt[mp], prv[pn] = m, p, m2, p2
        nxt += [p2, pn]
        prv += [mp, m2]
        bridges.append((orig[p], m))
        outer.extend(range(s, e))

    px = arr.px
    n_all = len(orig)
    # Each bridge is two boundary edges, one each way, glued at the end.
    edge_at = {(orig[v], orig[nxt[v]]): v for v in range(n_all)}
    glue = [(edge_at[pm], edge_at[pm[::-1]]) for pm in bridges]
    glue = [(u, nxt[u], w, nxt[w]) for u, w in glue]
    # turn[v]: orientation of the corner at v, None once a clip moved a
    # neighbour.
    turn: List[Optional[int]] = [
        _orient_counted(tri, px[2 * p], px[2 * p + 1], px[2 * v],
                        px[2 * v + 1], px[2 * q], px[2 * q + 1])
        for p, v, q in zip(prv, range(n_all), nxt)]
    # What can block an ear: reflex and flat vertices (a convex one
    # never turns reflex) and bridge ends, sorted by x and by y.
    ends = set(orig[n:])
    blockers = [v for v in range(n_all) if turn[v] <= 0 or orig[v] in ends]
    by_x = sorted(blockers, key=lambda v: (px[2 * v], v))
    by_y = sorted(blockers, key=lambda v: (px[2 * v + 1], v))
    xs = [px[2 * v] for v in by_x]
    ys = [px[2 * v + 1] for v in by_y]
    alive = [True] * n_all

    def is_ear(v: int) -> bool:
        p, q = prv[v], nxt[v]
        ax, ay, bx, by = px[2 * p], px[2 * p + 1], px[2 * v], px[2 * v + 1]
        cx, cy = px[2 * q], px[2 * q + 1]
        if turn[v] is None:
            turn[v] = _orient_counted(tri, ax, ay, bx, by, cx, cy)
        if turn[v] <= 0:
            return False
        x0, x1 = min(ax, bx, cx), max(ax, bx, cx)
        y0, y1 = min(ay, by, cy), max(ay, by, cy)
        i, j = bisect_left(xs, x0), bisect_right(xs, x1)
        k, m = bisect_left(ys, y0), bisect_right(ys, y1)
        own = (orig[p], orig[v], orig[q])
        for w in (by_x[i:j] if j - i <= m - k else by_y[k:m]):
            if not alive[w] or orig[w] in own:
                continue
            wx, wy = px[2 * w], px[2 * w + 1]
            # The diagonal first: it rejects most of what the box lets in.
            if (x0 <= wx <= x1 and y0 <= wy <= y1
                    and _orient_counted(tri, cx, cy, ax, ay, wx, wy) >= 0
                    and _orient_counted(tri, ax, ay, bx, by, wx, wy) >= 0
                    and _orient_counted(tri, bx, by, cx, cy, wx, wy) >= 0):
                return False
        return True

    # Random ear order: a candidate drawn at random is clipped when it is
    # an ear.  Candidates are the convex vertices, then each vertex whose
    # neighbour a clip moved since it was drawn; an ear a clip uncovered
    # elsewhere is found by one rescan when none is left.
    cand = [v for v in range(n_all) if turn[v] > 0]
    slot = [-1] * n_all
    for i, v in enumerate(cand):
        slot[v] = i
    rng = np.random.default_rng(_EAR_SEED)
    draws: List[float] = []
    clipped: List[Tuple[int, int, int]] = []
    left = n_all
    rescanned = False
    while left > 3:
        if not cand:
            if rescanned:
                raise TriangulationError(
                    "polygon has no ear: its rings are not simple")
            rescanned = True
            v = clipped[-1][0] if clipped else 0
            for _ in range(left):
                if slot[v] < 0:
                    slot[v] = len(cand)
                    cand.append(v)
                v = nxt[v]
        if not draws:
            draws = rng.random(n_all).tolist()
        i = int(draws.pop() * len(cand))
        v = cand[i]
        cand[i] = cand[-1]
        slot[cand[i]] = i
        cand.pop()
        slot[v] = -1
        if not is_ear(v):
            continue
        rescanned = False
        p, q = prv[v], nxt[v]
        clipped.append((p, v, q))
        nxt[p], prv[q] = q, p
        alive[v] = False
        left -= 1
        turn[p] = turn[q] = None
        for w in (p, q):
            if slot[w] < 0:
                slot[w] = len(cand)
                cand.append(w)
    a = alive.index(True)
    b, c = nxt[a], nxt[nxt[a]]
    if _orient_counted(tri, px[2 * a], px[2 * a + 1], px[2 * b],
                       px[2 * b + 1], px[2 * c], px[2 * c + 1]) <= 0:
        raise TriangulationError("polygon has no ear: its rings are not simple")

    # Reverse: glue each ear back onto the diagonal it cut off, then flip
    # until the edges opposite its tip v are locally Delaunay.
    tv, tn, vt = arr.tv, arr.tn, arr.vt
    in_disk = tri._in_disk
    tv.extend((a, b, c))
    tn.extend((-1, -1, -1))
    vt[a] = vt[b] = vt[c] = 0
    for p, v, q in reversed(clipped):
        e = _boundary_slot(arr, p, q)
        t = vt[v] = len(tv) // 3
        tv.extend((p, v, q))
        tn.extend((-1, e // 3, -1))
        tn[e] = t
        stack = [(t, 1)]
        while stack:
            t1, k1 = stack.pop()
            i1 = 3 * t1
            t2 = tn[i1 + k1]
            if t2 < 0:
                continue
            i2 = 3 * t2
            k2 = 0 if tn[i2] == t1 else (1 if tn[i2 + 1] == t1 else 2)
            d = tv[i2 + k2]
            if not in_disk(t1, px[2 * d], px[2 * d + 1]):
                continue
            tri.flip(t1, k1)  # v is now vertex 0 of t1 and 2 of t2
            stack.append((t1, 0))
            stack.append((t2, 2))
    arr.n_tris = len(tv) // 3

    # Glue each bridge to its twin, fold the twin ids back, legalise.
    for u, un, w, wn in glue:
        e1, e2 = _boundary_slot(arr, u, un), _boundary_slot(arr, w, wn)
        tn[e1], tn[e2] = e2 // 3, e1 // 3
    if bridges:
        tv[:] = [orig[x] for x in tv]
        del arr.px[2 * n:], vt[n:]
        arr.n_pts = n
        legalize_edges(tri, bridges)

    _add_ghosts(tri)
    tri._last_tri = 0
    tri.constraints.update(
        (u, w) if u < w else (w, u) for u, w in ring_edges[:n].tolist())
    sink = counters_current()
    if sink is not None:
        sink.incr("ring_points", n)
    return tri


def _add_ghosts(tri: Triangulation) -> None:
    """A ghost across every boundary edge (``tn`` -1), linked round each
    boundary loop; a vertex starts one boundary edge at most."""
    arr = tri._arr
    tv, tn = arr.tv, arr.tn
    n_real = arr.n_tris
    start: Dict[int, int] = {}
    for t in range(n_real):
        for k in (0, 1, 2):
            if tn[3 * t + k] < 0:
                w = tv[3 * t + _PRV[k]]
                tn[3 * t + k] = start[w] = arr.n_tris
                arr.n_tris += 1
                tv.extend((w, tv[3 * t + _NXT[k]], GHOST))
                tn.extend((-1, -1, t))
    for g in range(n_real, arr.n_tris):
        h = tn[3 * g] = start[tv[3 * g + 1]]
        tn[3 * h + 1] = g
    tri.n_live_triangles = arr.n_tris


def _not_ccw(pts: np.ndarray, tris: np.ndarray) -> Tuple[int, int]:
    """``(exact tests, first row of tris not strictly CCW or -1)``: the
    orient2d filter, exact on the rows it cannot certify."""
    ac, bc = (pts[tris[:, k]] - pts[tris[:, 2]] for k in (0, 1))
    left, right = ac[:, 0] * bc[:, 1], ac[:, 1] * bc[:, 0]
    detsum = np.abs(left) + np.abs(right)
    ccw = left - right > _CCW_ERR * detsum  # orient2d's filter
    unsure = np.flatnonzero(~(ccw & (detsum > _CCW_GUARD)))
    for t in unsure.tolist():
        if orient2d(*pts[tris[t]].tolist()) <= 0:
            return len(unsure), t
    return len(unsure), -1


def _edge_twins(u: np.ndarray, v: np.ndarray, n: int
                ) -> Tuple[np.ndarray, np.ndarray]:
    """``(twin, twice)``: ``twin[s]`` is the slot of ``v[s] -> u[s]``
    (slot ``3 t + k`` is edge ``k`` of ``t``; -1 on the boundary),
    ``twice`` the slots of directed edges another slot holds too."""
    code = u * n + v
    by_code = np.argsort(code, kind="stable")
    code = code[by_code]
    twice = by_code[np.flatnonzero(code[1:] == code[:-1])]
    at = np.minimum(np.searchsorted(code, v * n + u), len(code) - 1)
    twin = np.where(code[at] == v * n + u, by_code[at], -1)
    return twin, twice


def _linked(pts: np.ndarray, tris: np.ndarray, twin: np.ndarray,
            segments: np.ndarray) -> Triangulation:
    """The loader: vertex ``i`` is ``pts[i]``, slot ``t`` ``tris[t]``,
    linked by ``twin``; each row of ``segments`` is a constraint."""
    n, n_tris = len(pts), len(tris)
    tri = Triangulation()
    arr = tri._arr
    arr.px, arr.tv = pts.ravel().tolist(), tris.ravel().tolist()
    arr.tn = np.where(twin < 0, -1, twin // 3).tolist()
    vt = np.full(n, -1, dtype=np.int64)
    vt[tris.ravel()] = np.repeat(np.arange(n_tris), 3)
    arr.vt, arr.n_pts, arr.n_tris = vt.tolist(), n, n_tris
    tri.n_live_triangles, tri._last_tri = n_tris, 0
    tri.constraints.update(zip(segments.min(axis=1).tolist(),
                               segments.max(axis=1).tolist()))
    return tri


def load_mesh(points: np.ndarray, triangles: np.ndarray,
              segments: np.ndarray) -> Triangulation:
    """A mesh as the triangulation it is, with a ghost wall on every
    boundary edge: vertex ``i`` is ``points[i]``, slot ``t``
    ``triangles[t]``, and ``segments`` and the boundary edges are the
    constraints.  ``ValueError`` names what is not a mesh: no triangles,
    one not strictly counter-clockwise, a directed edge two triangles
    hold, a segment that is no edge, two boundary loops at one vertex.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    n = len(pts)
    segs = _checked_segments(segments, n)
    if not len(tris):
        raise ValueError("the mesh has no triangles")
    n_exact, bad = _not_ccw(pts, tris)
    if bad >= 0:
        raise ValueError(f"triangle {bad} {tris[bad].tolist()} does not "
                         "turn strictly counter-clockwise")
    u, v = tris[:, list(_NXT)].ravel(), tris[:, list(_PRV)].ravel()
    twin, twice = _edge_twins(u, v, n)
    if len(twice):
        s = int(twice[0])
        raise ValueError(f"triangle {s // 3}: edge {(int(u[s]), int(v[s]))}"
                         " is held by two triangles in the same direction")
    edges = np.minimum(u, v) * n + np.maximum(u, v)
    missing = np.flatnonzero(~np.isin(segs.min(axis=1) * n
                                      + segs.max(axis=1), edges))
    if len(missing):
        r = int(missing[0])
        raise ValueError(f"segments row {r}: {segs[r].tolist()} is not an "
                         "edge of the mesh")
    bu, bv = u[twin < 0], v[twin < 0]
    pinch = np.flatnonzero(np.bincount(bu, minlength=n) > 1)
    if len(pinch):
        raise ValueError(f"vertex {int(pinch[0])}: two boundary loops meet "
                         "there")
    tri = _linked(pts, tris, twin, segs)
    tri.stat_orient_fast += len(tris) - n_exact
    tri.stat_orient_exact += n_exact
    _add_ghosts(tri)
    tri.constraints.update(zip(np.minimum(bu, bv).tolist(),
                               np.maximum(bu, bv).tolist()))
    return tri


def triangulate_rays(points: np.ndarray, segments: np.ndarray,
                     element_ptr: np.ndarray, ray_ptr: np.ndarray,
                     ray_ids: np.ndarray, ray_h: np.ndarray
                     ) -> Triangulation:
    """Constrained Delaunay triangulation of boundary-layer annuli, from
    their rays (DESIGN.md, "Boundary-layer triangulation").

    Ray ``r`` is the vertex chain ``ray_ids[ray_ptr[r]:ray_ptr[r + 1]]``
    (origin, layer points, tip) at heights ``ray_h`` of the same slice;
    element ``e`` owns rays ``element_ptr[e]:element_ptr[e + 1]``, in
    counter-clockwise order.  Each ray is zipped with the next into a
    strip, always advancing the chain whose next height is lower.  Unless
    every strip triangle turns strictly counter-clockwise and the edges
    one triangle owns are exactly ``segments``,
    :class:`TriangulationError` names the element, the ray pair and the
    check.  The strips are loaded as :func:`load_mesh` loads, with no
    ghosts, and Lawson flips make every edge locally Delaunay.  Kernel
    vertex ``i`` is ``points[i]``; a segment is a constraint.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    segments = np.asarray(segments, dtype=np.int64).reshape(-1, 2)
    element_ptr, ray_ptr, ids = (np.asarray(a, dtype=np.int64)
                                 for a in (element_ptr, ray_ptr, ray_ids))
    n, n_rays = len(pts), len(ray_ptr) - 1
    succ = np.arange(1, n_rays + 1)
    succ[element_ptr[1:] - 1] = element_ptr[:-1]
    pred = np.argsort(succ)

    def fail(r: int, check: str):
        e = int(np.searchsorted(element_ptr, r, side="right")) - 1
        return TriangulationError(
            f"boundary layer element {e}, rays {r - element_ptr[e]} and "
            f"{succ[r] - element_ptr[e]}: {check}")

    # Zip: each chain step q (up to a layer point or tip) is side A of
    # its own ray's strip and side B of its predecessor's, and the steps
    # of one strip are taken in height order.
    ray_of = np.repeat(np.arange(n_rays), np.diff(ray_ptr))
    q = np.flatnonzero(ray_of[1:] == ray_of[:-1]) + 1
    pair = np.concatenate([ray_of[q], pred[ray_of[q]]])
    side_b = np.repeat([False, True], len(q))
    q = np.concatenate([q, q])
    order = np.lexsort((side_b, np.asarray(ray_h)[q], pair))
    pair, side_b, q = pair[order], side_b[order], q[order]
    first = np.searchsorted(pair, pair)
    b_done = np.cumsum(side_b) - side_b
    a_done = np.arange(len(q)) - b_done
    a_now = ray_ptr[pair] + a_done - a_done[first]
    b_now = ray_ptr[succ[pair]] + b_done - b_done[first]
    tris = ids[np.stack([np.where(side_b, a_now, q - 1), q,
                         np.where(side_b, q - 1, b_now)], axis=1)]
    keep = (tris != np.roll(tris, 1, axis=1)).all(axis=1)  # no repeat
    tris, pair = tris[keep], pair[keep]
    n_tris = len(tris)

    n_exact, bad = _not_ccw(pts, tris)
    if bad >= 0:
        raise fail(pair[bad], f"triangle {tris[bad].tolist()} is not "
                   "strictly counter-clockwise")

    # Edge k of t runs tv[_NXT[k]] -> tv[_PRV[k]]; its twin is the
    # reversed edge, and an edge without one is on the boundary.
    u, v = tris[:, list(_NXT)].ravel(), tris[:, list(_PRV)].ravel()
    twin, twice = _edge_twins(u, v, n)
    if len(twice):
        raise fail(pair[twice[0] // 3],
                   "two strip triangles share a directed edge")
    lo, hi = np.minimum(u, v)[twin < 0], np.maximum(u, v)[twin < 0]
    odd = np.setxor1d(lo * n + hi, segments.min(axis=1) * n
                      + segments.max(axis=1))
    if len(odd):
        w = int(odd[0] // n)
        raise fail(ray_of[np.flatnonzero(ids == w)[0]],
                   f"edge {(w, int(odd[0] % n))} is a segment or a boundary "
                   "edge of the strips, not both")

    tri = _linked(pts, tris, twin, segments)
    tri.stat_orient_fast += n_tris - n_exact
    tri.stat_orient_exact += n_exact

    # Lawson: the interior edges the incircle filter does not certify go
    # on the stack; a flip stacks the four edges round its quad.
    inner = np.flatnonzero(twin > np.arange(3 * n_tris))
    rel = pts[tris[inner // 3]] - pts[tris.ravel()[twin[inner]]][:, None]
    lift = (rel ** 2).sum(axis=2)
    cross = rel[:, [1, 2, 0], 0] * rel[:, [2, 0, 1], 1]
    cross_t = rel[:, [2, 0, 1], 0] * rel[:, [1, 2, 0], 1]
    det = (lift * (cross - cross_t)).sum(axis=1)
    permanent = (lift * (np.abs(cross) + np.abs(cross_t))).sum(axis=1)
    outside = (permanent > _ICC_GUARD) & (-det > _ICC_ERR * permanent)
    tri.stat_incircle_fast += int(np.count_nonzero(outside))
    stack = inner[~outside].tolist()
    arr = tri._arr
    px, tv, tn = arr.px, arr.tv, arr.tn
    while stack:
        s = stack.pop()
        t1, t2 = s // 3, tn[s]
        if t2 < 0:
            continue
        i2 = 3 * t2
        w = tv[i2 + (0 if tn[i2] == t1 else (1 if tn[i2 + 1] == t1 else 2))]
        if tri._in_disk(t1, px[2 * w], px[2 * w + 1]):
            tri.flip(t1, s - 3 * t1)
            stack += (3 * t1, 3 * t1 + 2, i2, i2 + 2)
    sink = counters_current()
    if sink is not None:
        sink.incr("bl_points", n)
        sink.incr("bl_flips", tri.stat_flips)
        sink.incr("bl_orient_tests",
                  tri.stat_orient_fast + tri.stat_orient_exact)
        sink.incr("bl_incircle_tests",
                  tri.stat_incircle_fast + tri.stat_incircle_exact)
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
