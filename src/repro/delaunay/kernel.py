"""Incremental Delaunay triangulation kernel (Bowyer–Watson with ghosts).

This is the repository's substitute for Shewchuk's Triangle: the engine
used to triangulate boundary-layer subdomains and to Delaunay-refine the
decoupled inviscid subdomains.  Design:

* **Ghost triangles.**  Each boundary edge is bordered by a *ghost*
  ``[u, v, G]`` sharing a symbolic vertex :data:`GHOST`.  Built by
  insertion, the boundary is the convex hull and a ghost is the open
  half-plane strictly left of ``u -> v`` (plus the open edge): insertion
  outside the hull is a uniform cavity operation — no super-triangle, no
  magic coordinates.  Built from a polygon's rings
  (:func:`~repro.delaunay.constrained.triangulate_polygon`) or loaded
  from a mesh (:func:`~repro.delaunay.constrained.load_mesh`), every
  ghost edge is a constraint and a ghost is a *wall*: no cavity, flood
  or straight walk crosses a constraint, so none reaches one.
* **State here, algorithms in** :mod:`repro.delaunay.cavity`.
  :class:`Triangulation` owns slots, adjacency, the constraint set,
  the counters, edge flips and export; the three steps of an insertion
  (one ``walk``, one ``carve``, one ``retriangulate``) and the one
  Lawson legaliser that mutate it are free functions there.
* **Robust predicates, filter inlined.**  All sign decisions are exact.
  The walk, the carve and the single in-disk test
  (:meth:`Triangulation._in_disk`) evaluate the floating-point *filter*
  stage of :mod:`repro.geometry.predicates` inline and escalate only
  inconclusive signs to the exact integer path.
* **BRIO insertion + walking point location** seeded from a
  caller-provided hint or the most recently touched triangle, and from
  nothing else: the kernel keeps no spatial index, because the traffic
  it serves (BRIO or sorted bulk insertion, hinted refinement and
  adaptation) lands within a few steps of one of the two.  A caller
  streaming points in arbitrary order without a hint pays an
  O(sqrt(n)) walk per point — use :func:`triangulate`, a sorted order
  or a hint instead.  A step cap with a brute-force fallback guards
  adversarial inputs.
* **Constrained edges.**  A set of locked undirected edges that cavity
  searches refuse to cross; segment *recovery* (making an arbitrary edge
  appear) lives in :mod:`repro.delaunay.constrained`.
* **Determinism.**  All randomness (walk tie-breaking, BRIO rounds) is
  derived from explicit seeds threaded through the constructor and the
  module-level drivers, so identical inputs yield byte-identical meshes.
* **Observability.**  The kernel accumulates plain-integer ``stat_*``
  counters (walk-step and cavity-size histograms, exact-predicate
  escalations, visibility prunes, flips), one per name of the schema
  in :mod:`repro.runtime.counters`, whose ``KernelCounters`` absorbs
  them; the overhead is a handful of integer adds per insertion.

Storage is :class:`repro.delaunay.arrays.MeshArrays`: flat Python
lists ``px[2*v]`` / ``tv[3*t+k]`` / ``tn[3*t+k]`` / ``vt[v]`` that hot
paths index directly and that grow by appending in place, so an alias
never goes stale; cold paths call ``_arr.point(v)`` /
``_arr.triangle(t)``.  NumPy readers (:func:`delaunay_mesh`, the
adaptor's tables) take read-only snapshots from ``MeshArrays``;
:meth:`Triangulation.to_mesh` is a vectorised compaction of them.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .arrays import DEAD, MeshArrays

# The cavity module owns the shared geometric constants and the
# algorithms (walk, carve, retriangulate); Triangulation owns the state
# they run on.
from .cavity import (
    GHOST,
    TriangulationError,
    _CCW_ERR,
    _CCW_GUARD,
    _ICC_CHEAP,
    _ICC_ERR,
    _ICC_GUARD,
    _ICC_S_GUARD,
    _NXT,
    _PRV,
    brio_order,
    carve,
    insert_all,
    insert_point as cavity_insert_point,
    retriangulate,
    walk,
)
from ..geometry.predicates import incircle, orient2d
from .mesh import TriMesh
from ..runtime.counters import monotonic_ns, reset_kernel_stats

__all__ = [
    "GHOST",
    "Triangulation",
    "TriangulationError",
    "check_strategy",
    "delaunay_mesh",
    "triangulate",
]


class Triangulation:
    """Mutable 2D Delaunay triangulation under incremental insertion.

    Create empty, then :meth:`insert_point` each vertex (or use the
    module-level :func:`triangulate` convenience).  Triangle slots are
    recycled through a free list so ids stay dense.

    Parameters
    ----------
    seed:
        Seeds every source of randomness in the kernel (walk
        tie-breaking).  Identical inputs + identical seed give
        byte-identical triangulations.
    """

    def __init__(self, *, seed: int = 0x5EED) -> None:
        #: SoA storage: coordinates, triangle vertices/neighbours, free
        #: list and per-vertex incident triangle all live here.
        self._arr = MeshArrays()
        self.constraints: Set[Tuple[int, int]] = set()
        self._last_tri: int = -1                     # walk hint
        # Instance-owned LCG word for walk tie-breaking, drawn once from
        # a seeded generator, never the stdlib/global RNG (the global
        # seed must not reach a mesh: tests/test_determinism.py): two
        # kernels alive in one process must not share hidden RNG state.
        self._lcg = int(np.random.default_rng(seed).integers(1, 1 << 31))
        self.n_live_triangles = 0                    # includes ghosts
        # Triangles created/removed by the most recent insertion or edge
        # split: the refiner's new work is the created star.
        self.last_created: List[int] = []
        self.last_removed: List[int] = []
        # Observability counters: the ``stat_*`` attributes of the
        # schema in repro.runtime.counters, which absorbs them.
        reset_kernel_stats(self)

    # ------------------------------------------------------------------
    # Low-level triangle bookkeeping
    # ------------------------------------------------------------------
    def _new_triangle(self, a: int, b: int, c: int) -> int:
        arr = self._arr
        t = arr.new_triangle_slot()
        tv = arr.tv
        tn = arr.tn
        i = 3 * t
        tv[i] = a
        tv[i + 1] = b
        tv[i + 2] = c
        tn[i] = -1
        tn[i + 1] = -1
        tn[i + 2] = -1
        vt = arr.vt
        if a != GHOST:
            vt[a] = t
        if b != GHOST:
            vt[b] = t
        if c != GHOST:
            vt[c] = t
        self.n_live_triangles += 1
        return t

    def _kill_triangle(self, t: int) -> None:
        self._arr.kill(t)
        self.n_live_triangles -= 1

    def is_ghost(self, t: int) -> bool:
        """True if live triangle ``t`` is a ghost.

        Dead-triangle contract (enforced, see :mod:`repro.delaunay.arrays`):
        callers must not ask about recycled slots — check
        ``tv[3*t] == DEAD`` / ``triangle(t) is None`` first.  Historically
        this silently returned ``False`` for dead slots, masking stale-id
        bugs under free-list reuse.
        """
        tv = self._arr.tv
        i = 3 * t
        a = tv[i]
        if a == DEAD:
            raise TriangulationError(
                f"is_ghost({t}): dead (recycled) triangle slot")
        return a == GHOST or tv[i + 1] == GHOST or tv[i + 2] == GHOST

    def _edge(self, t: int, k: int) -> Tuple[int, int]:
        """Directed edge opposite vertex ``k`` of triangle ``t``."""
        tv = self._arr.tv
        i = 3 * t
        return tv[i + _NXT[k]], tv[i + _PRV[k]]

    def _set_mutual(self, t1: int, k1: int, t2: int, k2: int) -> None:
        tn = self._arr.tn
        tn[3 * t1 + k1] = t2
        tn[3 * t2 + k2] = t1

    def _edge_index(self, t: int, u: int, v: int) -> int:
        """Index k such that the directed edge k of ``t`` is (u, v)."""
        tv = self._arr.tv
        i = 3 * t
        for k in range(3):
            if tv[i + _NXT[k]] == u and tv[i + _PRV[k]] == v:
                return k
        raise TriangulationError(
            f"edge ({u},{v}) not in triangle {t}={self._arr.triangle(t)}")

    def ghost_edge(self, t: int) -> Tuple[int, int]:
        """The real directed hull edge ``(u, v)`` of ghost triangle ``t``."""
        tv = self._arr.tv
        i = 3 * t
        for k in range(3):
            if tv[i + k] == GHOST:
                return tv[i + _NXT[k]], tv[i + _PRV[k]]
        raise TriangulationError(f"triangle {t} is not a ghost")

    def live_triangles(self) -> Iterable[int]:
        # Re-reads bounds and the view every step so concurrent inserts
        # behave like iterating the historical (growing) list.
        arr = self._arr
        t = 0
        while t < arr.n_tris:
            if arr.tv[3 * t] != DEAD:
                yield t
            t += 1

    # ------------------------------------------------------------------
    # Predicates (real / ghost uniform)
    # ------------------------------------------------------------------
    def _in_disk(self, t: int, px: float, py: float) -> bool:
        """True if ``(px, py)`` lies in triangle ``t``'s (possibly ghost)
        open circumdisk — the Bowyer–Watson cavity membership test.

        The filter stage is inlined: certified signs return immediately
        (counted as fast); inconclusive ones escalate to the exact
        predicates (counted as exact).
        """
        tvm = self._arr.tv
        pxm = self._arr.px
        i = 3 * t
        a = tvm[i]
        b = tvm[i + 1]
        c = tvm[i + 2]
        if a >= 0 and b >= 0 and c >= 0:
            j = 2 * a
            ax = pxm[j]
            ay = pxm[j + 1]
            j = 2 * b
            bx = pxm[j]
            by = pxm[j + 1]
            j = 2 * c
            cx = pxm[j]
            cy = pxm[j + 1]
            adx = ax - px
            ady = ay - py
            bdx = bx - px
            bdy = by - py
            cdx = cx - px
            cdy = cy - py
            bdxcdy = bdx * cdy
            cdxbdy = cdx * bdy
            cdxady = cdx * ady
            adxcdy = adx * cdy
            adxbdy = adx * bdy
            bdxady = bdx * ady
            alift = adx * adx + ady * ady
            blift = bdx * bdx + bdy * bdy
            clift = cdx * cdx + cdy * cdy
            det = (alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy)
                   + clift * (adxbdy - bdxady))
            s = alift + blift + clift
            if s > _ICC_S_GUARD:
                cheap = _ICC_CHEAP * s * s
                # Inlined incircle cheap certificate: full filter + exact
                # below.
                if det > cheap:
                    self.stat_incircle_fast += 1
                    return True
                if -det > cheap:
                    self.stat_incircle_fast += 1
                    return False
            permanent = ((abs(bdxcdy) + abs(cdxbdy)) * alift
                         + (abs(cdxady) + abs(adxcdy)) * blift
                         + (abs(adxbdy) + abs(bdxady)) * clift)
            if permanent > _ICC_GUARD:
                errbound = _ICC_ERR * permanent
                # Inlined incircle Shewchuk filter: exact escalation below.
                if det > errbound:
                    self.stat_incircle_fast += 1
                    return True
                if -det > errbound:
                    self.stat_incircle_fast += 1
                    return False
            self.stat_incircle_exact += 1
            side = incircle((ax, ay), (bx, by), (cx, cy), (px, py))
            if side == 0:
                self.stat_incircle_zero += 1
            return side > 0
        # Ghost [u, v, G]: outside-hull half-plane strictly left of u->v,
        # plus the open edge uv.
        u, v = self.ghost_edge(t)
        j = 2 * u
        ux = pxm[j]
        uy = pxm[j + 1]
        j = 2 * v
        vx = pxm[j]
        vy = pxm[j + 1]
        pu = (ux, uy)
        pv = (vx, vy)
        detleft = (ux - px) * (vy - py)
        detright = (uy - py) * (vx - px)
        det = detleft - detright
        detsum = abs(detleft) + abs(detright)
        if detsum > _CCW_GUARD:
            errbound = _CCW_ERR * detsum
            # Inlined orient2d filter: shares ORIENT_ERR_BOUND, exact fallback
            # below.
            if det > errbound:
                self.stat_orient_fast += 1
                return True
            if -det > errbound:
                self.stat_orient_fast += 1
                return False
        self.stat_orient_exact += 1
        o = orient2d(pu, pv, (px, py))
        if o > 0:
            return True
        if o < 0:
            return False
        self.stat_orient_zero += 1
        return (
            min(ux, vx) <= px <= max(ux, vx)
            and min(uy, vy) <= py <= max(uy, vy)
            and (px, py) != pu and (px, py) != pv
        )

    # ------------------------------------------------------------------
    # Point location
    # ------------------------------------------------------------------
    def locate(self, p: Tuple[float, float]) -> int:
        """Return a triangle whose closed region contains ``p``.

        For ``p`` outside the hull this is a ghost triangle whose
        half-plane contains it.  The same :func:`~repro.delaunay.cavity.
        walk` insertion uses, started from the last touched triangle.
        """
        if self.n_live_triangles == 0:
            raise TriangulationError("empty triangulation")
        return walk(self, p[0], p[1], -1)[0]

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert_point(self, x: float, y: float) -> int:
        """Insert vertex ``(x, y)``; returns its id, or the existing
        vertex's id when ``(x, y)`` is already one.

        The first three non-collinear points bootstrap the initial
        triangle + three ghosts; collinear prefixes are buffered.  A
        hinted insert is :func:`repro.delaunay.cavity.insert_point`.
        """
        p = (float(x), float(y))
        if not (math.isfinite(p[0]) and math.isfinite(p[1])):
            raise ValueError("non-finite coordinates")
        self.last_created = []
        self.last_removed = []

        if self.n_live_triangles == 0:
            return self._bootstrap_insert(p)

        r = cavity_insert_point(self, p[0], p[1], -1)
        return r if r >= 0 else -2 - r

    def _bootstrap_insert(self, p: Tuple[float, float]) -> int:
        """Handle insertions before the first real triangle exists."""
        arr = self._arr
        for i in range(arr.n_pts):
            if arr.point(i) == p:
                return i
        arr.new_point(p[0], p[1])
        self.stat_inserts += 1
        n = arr.n_pts
        if n < 3:
            return n - 1
        # Try to find a non-collinear triple including the newest point.
        c = n - 1
        for a in range(n):
            for b in range(a + 1, n):
                if b == c or a == c:
                    continue
                o = orient2d(arr.point(a), arr.point(b), arr.point(c))
                if o != 0:
                    if o < 0:
                        a, b = b, a
                    self._create_first_triangle(a, b, c)
                    # Re-insert any remaining buffered points.
                    used = {a, b, c}
                    for v in range(n):
                        if v not in used:
                            x, y = arr.point(v)
                            cavity, seed, _, wrapped = carve(
                                self, x, y, *walk(self, x, y, -1))
                            retriangulate(self, v, cavity, seed, wrapped)
                    return c
        return c  # all points still collinear

    def _create_first_triangle(self, a: int, b: int, c: int) -> None:
        t = self._new_triangle(a, b, c)
        # Ghosts: [c,b,G], [a,c,G], [b,a,G] — outside left of each edge.
        g0 = self._new_triangle(c, b, GHOST)  # across edge (b, c)
        g1 = self._new_triangle(a, c, GHOST)  # across edge (c, a)
        g2 = self._new_triangle(b, a, GHOST)  # across edge (a, b)
        # Real <-> ghost links.
        self._set_mutual(t, 0, g0, self._edge_index(g0, c, b))
        self._set_mutual(t, 1, g1, self._edge_index(g1, a, c))
        self._set_mutual(t, 2, g2, self._edge_index(g2, b, a))
        # Ghost <-> ghost links (around GHOST).
        for ga, gb in ((g0, g2), (g2, g1), (g1, g0)):
            ua, va = self.ghost_edge(ga)
            ub, vb = self.ghost_edge(gb)
            # ga edge (va, G) matches gb edge (G, ub) when va == ub
            ka = self._edge_index(ga, va, GHOST)
            kb = self._edge_index(gb, GHOST, ub)
            if va != ub:
                raise TriangulationError("ghost ring construction bug")
            self._set_mutual(ga, ka, gb, kb)
        self._last_tri = t
        self.last_created = [t, g0, g1, g2]
        self.last_removed = []

    # ------------------------------------------------------------------
    # Edge flipping (constraint recovery, legalisation, the polygon builder)
    # ------------------------------------------------------------------
    def flip(self, t1: int, k1: int) -> Tuple[int, int]:
        """Flip the edge ``(u, v)`` opposite vertex ``k1`` of ``t1``.

        The same two slots are reused: ``t1`` becomes ``[a, u, b]`` and
        its neighbour ``t2`` becomes ``[b, v, a]``, ``a`` and ``b`` their
        apexes; returns ``(t1, t2)``.  The quadrilateral must be strictly
        convex — caller checks.
        """
        arr = self._arr
        tvm = arr.tv
        tnm = arr.tn
        i1 = 3 * t1
        t2 = tnm[i1 + k1]
        if t2 < 0:
            raise TriangulationError("cannot flip hull edge")
        i2 = 3 * t2
        k2 = 0 if tnm[i2] == t1 else (1 if tnm[i2 + 1] == t1 else 2)
        u = tvm[i1 + _NXT[k1]]
        v = tvm[i1 + _PRV[k1]]
        a = tvm[i1 + k1]   # apex of t1
        b = tvm[i2 + k2]   # apex of t2
        if tnm[i2 + k2] != t1 or tvm[i2 + _NXT[k2]] != v:
            raise TriangulationError(f"triangles {t1}, {t2} not adjacent")
        if GHOST in (a, b, u, v):
            raise TriangulationError("cannot flip an edge of a ghost triangle")
        key = (u, v) if u < v else (v, u)
        if key in self.constraints:
            raise TriangulationError("cannot flip a constrained edge")
        # Outer neighbours: across (v, a) and (a, u) of t1, (u, b) and
        # (b, v) of t2.
        n_va = tnm[i1 + _NXT[k1]]
        n_au = tnm[i1 + _PRV[k1]]
        n_ub = tnm[i2 + _NXT[k2]]
        n_bv = tnm[i2 + _PRV[k2]]
        tvm[i1], tvm[i1 + 1], tvm[i1 + 2] = a, u, b
        tvm[i2], tvm[i2 + 1], tvm[i2 + 2] = b, v, a
        tnm[i1], tnm[i1 + 1], tnm[i1 + 2] = n_ub, t2, n_au
        tnm[i2], tnm[i2 + 1], tnm[i2 + 2] = n_va, t1, n_bv
        # (u, b) moved from t2 to t1 and (v, a) from t1 to t2; the other
        # two outer edges kept their slot.
        if n_ub >= 0:
            j = 3 * n_ub
            tnm[j + (0 if tnm[j] == t2 else (1 if tnm[j + 1] == t2
                                             else 2))] = t1
        if n_va >= 0:
            j = 3 * n_va
            tnm[j + (0 if tnm[j] == t1 else (1 if tnm[j + 1] == t1
                                             else 2))] = t2
        vtm = arr.vt
        vtm[u] = t1
        vtm[b] = vtm[v] = vtm[a] = t2
        self.stat_flips += 1
        return t1, t2

    def edge_is_flippable(self, t1: int, k1: int) -> bool:
        """The quad around edge k1 of t1 is strictly convex and all-real."""
        arr = self._arr
        tvm = arr.tv
        i1 = 3 * t1
        t2 = arr.tn[i1 + k1]
        if t2 < 0 or self.is_ghost(t1) or self.is_ghost(t2):
            return False
        u = tvm[i1 + _NXT[k1]]
        v = tvm[i1 + _PRV[k1]]
        k2 = self._edge_index(t2, v, u)
        a = tvm[i1 + k1]
        b = tvm[3 * t2 + k2]
        pxm = arr.px
        ja, jb, ju, jv = 2 * a, 2 * b, 2 * u, 2 * v
        pa = (pxm[ja], pxm[ja + 1])
        pb = (pxm[jb], pxm[jb + 1])
        pu = (pxm[ju], pxm[ju + 1])
        pv = (pxm[jv], pxm[jv + 1])
        return (
            orient2d(pa, pu, pb) > 0
            and orient2d(pb, pv, pa) > 0
        )

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------
    def mark_constraint(self, u: int, v: int) -> None:
        self.constraints.add((u, v) if u < v else (v, u))

    def unmark_constraint(self, u: int, v: int) -> None:
        self.constraints.discard((u, v) if u < v else (v, u))

    def has_edge(self, u: int, v: int) -> bool:
        """True if (u, v) is currently an edge of the triangulation."""
        arr = self._arr
        return any(v in arr.triangle(t)
                   for t in self.triangles_around_vertex(u))

    def triangles_around_vertex(self, v: int) -> List[int]:
        """All live triangles (including ghosts) incident to vertex ``v``;
        ``[]`` for a vertex without a triangle (hint ``-1``)."""
        arr = self._arr
        tv, tn = arr.tv, arr.tn
        t0 = arr.vt[v]
        if t0 < 0:
            return []
        row = arr.triangle(t0)
        if row is None or v not in row:
            raise TriangulationError(
                f"vertex {v}: hint triangle {t0} is dead or lacks it")
        out = [t0]
        # Rotate around v using adjacency, both directions to cope with
        # hull interruptions (ghosts close the ring so a full loop always
        # exists).  With v at index i of t, the edges at v are _NXT[i]
        # and _PRV[i].
        seen = {t0}
        for turn in (_NXT, _PRV):
            cur = t0
            while True:
                i = 3 * cur
                k = 0 if tv[i] == v else (1 if tv[i + 1] == v else 2)
                nxt = tn[i + turn[k]]
                if nxt < 0 or nxt in seen:
                    break
                seen.add(nxt)
                out.append(nxt)
                cur = nxt
        return out

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_mesh(self, *, keep_mask: Optional[Sequence[bool]] = None) -> TriMesh:
        """Export real triangles as a :class:`TriMesh`.

        ``keep_mask`` (indexed by triangle id) optionally filters triangles
        (used by exterior/hole carving).  Vertices are compacted; the
        constraint set is exported as ``segments`` (only those whose both
        endpoints survive).

        The compaction is fully vectorised (:meth:`MeshArrays.compact`,
        no per-triangle Python loops); when every kernel vertex survives
        the point block is the read-only coordinate snapshot itself.
        """
        t_start = monotonic_ns()
        arr = self._arr
        mask = None
        if keep_mask is not None:
            mask = np.zeros(arr.n_tris, dtype=bool)
            km = np.asarray(keep_mask, dtype=bool)
            n = min(len(km), arr.n_tris)
            mask[:n] = km[:n]
        pts, tarr, remap = arr.compact(mask)
        if remap is None:
            # Dense compaction: kernel vertex ids are the mesh ids.
            segs = list(self.constraints)
        else:
            segs = [(remap[u], remap[v]) for u, v in self.constraints
                    if remap[u] >= 0 and remap[v] >= 0]
        sarr = (np.asarray(sorted(segs), dtype=np.int32)
                if segs else np.empty((0, 2), dtype=np.int32))
        mesh = TriMesh(pts, tarr, sarr)
        self.stat_finalize_ns += monotonic_ns() - t_start
        return mesh


#: What the ``strategy=`` of :func:`triangulate` and the
#: ``insert_strategy=`` of :func:`repro.core.pipeline.generate_mesh`
#: accept.  The kernel inserts points one way (:func:`cavity.insert_all
#: <repro.delaunay.cavity.insert_all>`); the names stay accepted for
#: callers that still pass them, and change nothing.
_STRATEGY_NAMES = (None, "scalar", "batch")


def check_strategy(name: Optional[str]) -> None:
    """Raise ``ValueError`` unless ``name`` is one of
    :data:`_STRATEGY_NAMES`."""
    if name not in _STRATEGY_NAMES:
        raise ValueError(f"unknown insertion strategy: {name!r} "
                         "(accepted: scalar, batch)")


def triangulate(points: np.ndarray, *,
                strategy: Optional[str] = None) -> Triangulation:
    """Delaunay-triangulate a point set incrementally, in BRIO order
    for expected-case robustness (x-sorted insertion, the paper's
    Section III reuse of the maintained sort, is
    :func:`repro.delaunay.dnc.triangulate_ordered`'s ``"sorted"``
    policy).  Identical inputs produce byte-identical triangulations.

    ``strategy`` is checked by :func:`check_strategy` and changes
    nothing.
    """
    check_strategy(strategy)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must be (n, 2)")
    tri, _ = _triangulate_with_map(points)
    return tri


def _triangulate_with_map(points: np.ndarray
                          ) -> Tuple[Triangulation, Dict[int, int]]:
    if len(points) and not np.isfinite(points).all():
        raise ValueError("non-finite coordinates")
    seed = 0xC0FFEE
    tri = Triangulation(seed=seed)
    order = brio_order(points, seed=seed).tolist()
    return tri, insert_all(tri, points, order)


def delaunay_mesh(points: np.ndarray) -> TriMesh:
    """Delaunay triangulation as a :class:`TriMesh` indexed like ``points``.

    Duplicate input points map to the first occurrence, so triangle indices
    always refer to the caller's array.
    """
    points = np.asarray(points, dtype=np.float64)
    tri, inserted = _triangulate_with_map(points)
    arr = tri._arr
    # kernel vertex id -> smallest input index that produced it
    inv = np.full(arr.n_pts, len(points), dtype=np.int64)
    np.minimum.at(inv, np.fromiter(inserted.values(), np.int64, len(inserted)),
                  np.fromiter(inserted.keys(), np.int64, len(inserted)))
    rows = arr.tri_v()
    # Real rows in slot order: min excludes DEAD and GHOST at once.
    tarr = inv[rows[rows.min(axis=1) >= 0]].astype(np.int32)
    return TriMesh(points, tarr)
