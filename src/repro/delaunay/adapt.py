"""Metric-driven local mesh adaptation (split / collapse / flip / smooth).

The anisotropic adaptation workload of the paper's related work (Tsolakis
& Chrisochoides, arXiv:2404.18030): given a mesh and a vertex metric
field (:class:`repro.metric.MetricField`), apply local operations until
the mesh is (approximately) *unit* in the metric — every edge with metric
length inside ``[1/sqrt(2), sqrt(2)]``:

* **split** edges longer than ``l_max`` at their midpoint — constrained
  segments split through the same region-safe path as Ruppert refinement,
  interior edges through the kernel's cavity-engine point insertion;
* **collapse** edges shorter than ``l_min`` by removing a free endpoint
  and retriangulating its star polygon (ear clipping with exact
  orientation guards);
* **flip** edges when the worst metric quality of the two adjacent
  triangles improves (anisotropic Lawson sweeps over a dirty-edge
  worklist: an edge is scored again only after one of its two
  triangles changed);
* **smooth** free vertices toward the metric-weighted centroid of their
  neighbours, with step-halving validity guards.

:class:`MeshAdaptor` extends :class:`repro.delaunay.refine.Refiner` — it
inherits the interior/hole region bookkeeping, the constraint-aware
segment splitting, and the cavity-engine insertion path, and adds the
structural operations refinement never needs (collapse, quality flips,
vertex relocation).  :func:`adapt_mesh` is the one-call driver used by
:mod:`repro.solver.adapt` and the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.predicates import orient2d
from ..metric import tensor as _mt
from ..runtime.counters import current as counters_current
from .arrays import DEAD
from .constrained import triangulate_pslg
from .kernel import GHOST, TriangulationError
from .mesh import TriMesh
from .refine import Refiner

__all__ = ["AdaptReport", "MeshAdaptor", "adapt_mesh", "LOW_BAND", "HIGH_BAND",
           "FLIP_MAX_SWEEPS", "FLIP_TOL"]

#: Unit-mesh acceptance band for metric edge lengths.
LOW_BAND = 1.0 / math.sqrt(2.0)
HIGH_BAND = math.sqrt(2.0)
#: Lawson sweeps one flip pass may run, and the quality gain a flip
#: must exceed (keeps equal-quality diagonals from flipping for ever).
FLIP_MAX_SWEEPS = 10
FLIP_TOL = 1e-12
#: Fraction of the way to the metric-weighted neighbour centroid a
#: smoothing move first tries (halved up to twice when it would invert).
SMOOTH_RELAXATION = 0.5

_QUALITY_SCALE = 4.0 * math.sqrt(3.0)


def _metric_quality(px, tensors, a: int, b: int, c: int) -> float:
    """Metric shape quality in [0, 1] of triangle ``(a, b, c)``;
    1 = metric-equilateral.

    ``px`` is the flat coordinate buffer (``x`` of vertex ``i`` at
    ``2 * i``) and ``tensors`` a list of compact ``[m11, m12, m22]``
    rows: plain floats only, nothing allocated.  The expression order is
    that of the array formulation this replaced (mean tensor
    ``(ta + tb + tc) / 3``, :func:`repro.metric.tensor.quad_form` per
    edge, edges summed left to right), so the result is bit-equal to it
    and depends on the rotation ``(a, b, c)`` is given in.
    """
    i, j, k = 2 * a, 2 * b, 2 * c
    ax, ay = px[i], px[i + 1]
    bx, by = px[j], px[j + 1]
    cx, cy = px[k], px[k + 1]
    area = 0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
    if area <= 0.0:
        return 0.0
    ta, tb, tc = tensors[a], tensors[b], tensors[c]
    m0 = (ta[0] + tb[0] + tc[0]) / 3.0
    m1 = (ta[1] + tb[1] + tc[1]) / 3.0
    m2 = (ta[2] + tb[2] + tc[2]) / 3.0
    det_m = m0 * m2 - m1 * m1
    if det_m <= 0.0:
        return 0.0
    ex, ey = bx - ax, by - ay
    l0 = m0 * ex * ex + 2.0 * m1 * ex * ey + m2 * ey * ey
    ex, ey = cx - bx, cy - by
    l1 = m0 * ex * ex + 2.0 * m1 * ex * ey + m2 * ey * ey
    ex, ey = ax - cx, ay - cy
    l2 = m0 * ex * ex + 2.0 * m1 * ex * ey + m2 * ey * ey
    denom = (l0 + l1) + l2
    if denom <= 0.0:
        return 0.0
    return _QUALITY_SCALE * (area * math.sqrt(det_m)) / denom


@dataclass
class AdaptReport:
    """Operation counters and conformity trace for one adaptation run."""

    passes: int = 0
    splits: int = 0
    collapses: int = 0
    flips: int = 0
    smooth_moves: int = 0
    #: Edges the flip passes scored (four quality values each) and the
    #: Lawson sweeps they ran; ``flips / flip_evaluations`` is the
    #: useful share of the scoring work.
    flip_evaluations: int = 0
    flip_sweeps: int = 0
    conformity_before: float = 0.0
    conformity_after: float = 0.0
    #: In-band edge fraction after each pass (monitoring/stats).
    conformity_trace: List[float] = dataclass_field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "passes": self.passes,
            "splits": self.splits,
            "collapses": self.collapses,
            "flips": self.flips,
            "smooth_moves": self.smooth_moves,
            "flip_evaluations": self.flip_evaluations,
            "flip_sweeps": self.flip_sweeps,
            "conformity_before": self.conformity_before,
            "conformity_after": self.conformity_after,
            "conformity_trace": list(self.conformity_trace),
        }


class MeshAdaptor(Refiner):
    """Local-operation adaptation driver over a constrained triangulation.

    Parameters mirror :class:`Refiner` (region bookkeeping is shared);
    ``field`` prescribes the target metric, ``l_min``/``l_max`` the
    collapse/split thresholds in metric length.
    """

    def __init__(
        self,
        tri,
        metric_field,
        *,
        holes: Sequence[Tuple[float, float]] = (),
        l_min: float = LOW_BAND,
        l_max: float = HIGH_BAND,
        protect_segments: bool = False,
    ) -> None:
        super().__init__(tri, holes=holes, quality_bound=None)
        if not (0.0 < l_min < l_max):
            raise ValueError("need 0 < l_min < l_max")
        self.field = metric_field
        self.l_min = float(l_min)
        self.l_max = float(l_max)
        # When True, constrained segments are never split: callers whose
        # downstream stages match boundary vertices by exact coordinates
        # (e.g. the potential-flow body classification) keep their rings
        # verbatim.
        self.protect_segments = bool(protect_segments)
        self.report = AdaptReport()
        #: Flip passes the sweep cap ended while edges were still flipping.
        self.flip_sweep_caps = 0
        # Edit clocks: ``_topology_edits`` moves with every committed
        # split, collapse and flip, ``_point_edits`` whenever a vertex
        # is added or moved.  A snapshot is kept with the clock value it
        # was taken at and reused while that clock stands still.
        self._topology_edits = 0
        self._point_edits = 0
        self._tensors_at: Tuple[int, Optional[np.ndarray]] = (-1, None)
        self._edges_at: Tuple[int, Optional[tuple]] = (-1, None)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _vertex_tensors(self) -> np.ndarray:
        """Metric tensors interpolated at every kernel vertex: one
        interpolation per state of the point set."""
        clock, tensors = self._tensors_at
        if clock != self._point_edits:
            arr = self.tri._arr
            tensors = self.field.interpolate(arr.pts())
            self._tensors_at = (self._point_edits, tensors)
        return tensors

    def _edge_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(uv, slot)`` of the interior edges, from the flat arrays:
        one scan per state of the connectivity.

        ``uv`` holds the ``(u, v)``, ``u < v`` rows of every edge with an
        interior (non-hole, non-ghost) triangle on either side, sorted
        like tuples; ``slot[i] = 3 * t + k`` is where the triangle left
        of ``u -> v`` stores that edge (``t`` may be a ghost: a hull
        edge).  Every edge is stored once in each direction, so the
        ``u < v`` occurrences are the unique edges.
        """
        clock, table = self._edges_at
        if clock == self._topology_edits:
            return table
        arr = self.tri._arr
        n_t = arr.n_tris
        tv = arr.tri_v()
        # One spare False row: an unlinked neighbour (-1) reads it.
        inside = np.zeros(n_t + 1, dtype=bool)
        inside[[t for t, lab in self._interior.items() if lab]] = True
        inside[:n_t] &= tv.min(axis=1) >= 0  # neither dead nor ghost
        # Directed edge k of a row is (row[k + 1], row[k + 2]); a dead
        # row keeps stale vertices and neighbours, hence the live test.
        src = tv[:, (1, 2, 0)]
        dst = tv[:, (2, 0, 1)]
        keep = ((tv[:, :1] != DEAD) & (src >= 0) & (src < dst)
                & (inside[:n_t, None] | inside[arr.tri_n()]))
        slot = np.flatnonzero(keep.ravel())
        uv = np.column_stack([src.ravel()[slot], dst.ravel()[slot]]
                             ).astype(np.int64)
        order = np.argsort(uv[:, 0] * arr.n_pts + uv[:, 1])
        table = (uv[order], slot[order])
        self._edges_at = (self._topology_edits, table)
        return table

    def _metric_lengths(self, edges, tensors: np.ndarray) -> np.ndarray:
        """Metric edge lengths (Alauzet linear-metric quadrature)."""
        return _mt.edge_lengths(tensors, self.tri._arr.pts(), edges)

    def conformity(self) -> float:
        """Fraction of interior edges with metric length in the band."""
        edges = self._edge_table()[0]
        if not len(edges):
            return 1.0
        lengths = self._metric_lengths(edges, self._vertex_tensors())
        inband = (lengths >= LOW_BAND) & (lengths <= HIGH_BAND)
        return float(inband.mean())

    def _protected_vertices(self) -> set:
        """Vertices that collapse/smooth must not move or remove:
        constraint endpoints and hull vertices."""
        tri = self.tri
        tv = tri._arr.tri_v()
        ghosts = tv[tv.min(axis=1) == GHOST]  # dead rows read DEAD < GHOST
        protected = set(ghosts[ghosts != GHOST].tolist())
        for uv in tri.constraints:
            protected.update(uv)
        return protected

    # ------------------------------------------------------------------
    # Individual operations (each returns True when it changed the mesh)
    # ------------------------------------------------------------------
    def split_edge(self, u: int, v: int) -> bool:
        """Split edge (u, v) at its midpoint.

        Constrained segments go through the region-safe subsegment path;
        interior edges through cavity insertion.  Returns ``False`` when
        the edge no longer exists or the midpoint collides with an
        existing vertex.
        """
        tri = self.tri
        loc = self._find_any_edge_triangle(u, v)
        if loc is None:
            return False
        pu, pv = tri._arr.point(u), tri._arr.point(v)
        mx, my = 0.5 * (pu[0] + pv[0]), 0.5 * (pu[1] + pv[1])
        key = (u, v) if u < v else (v, u)
        if key in tri.constraints:
            if self.protect_segments:
                self.locked_skips += 1
                return False
            self._insert_on_segment(u, v, mx, my)
        else:
            if tri.is_ghost(loc):
                return False
            try:
                if self._insert_tracked(mx, my, interior_hint=loc) < 0:
                    return False  # the midpoint is an existing vertex
            except TriangulationError:
                return False
        self.report.splits += 1
        self._topology_edits += 1
        self._point_edits += 1
        return True

    def collapse_edge(self, u: int, v: int,
                      protected: Optional[set] = None) -> bool:
        """Collapse edge (u, v) by removing a free endpoint.

        Prefers removing ``v``; falls back to ``u``.  A vertex is free
        when it is not a constraint endpoint, not on the hull, and its
        star is uniformly labelled ghost-free interior.  Returns
        ``False`` when neither endpoint can be removed safely.
        """
        if protected is None:
            protected = self._protected_vertices()
        for victim in (v, u):
            if victim in protected:
                continue
            if self._remove_vertex(victim):
                self.report.collapses += 1
                return True
        return False

    def _remove_vertex(self, v: int) -> bool:
        """Delete vertex ``v`` and retriangulate its star polygon.

        The star ring (ordered CCW by the kernel's triangle orientation)
        is ear-clipped with exact orientation tests; the new fan is wired
        into the surrounding adjacency atomically — nothing mutates until
        a complete valid retriangulation exists.
        """
        tri = self.tri
        arr = tri._arr
        star = tri.triangles_around_vertex(v)
        if len(star) < 3:
            return False
        label: Optional[bool] = None
        ring_next: Dict[int, int] = {}
        outer: Dict[Tuple[int, int], int] = {}
        for t in star:
            tv = arr.triangle(t)
            if tv is None or GHOST in tv:
                return False
            lab = self._is_interior(t)
            if label is None:
                label = lab
            elif lab != label:
                return False  # star crosses a region boundary
            i = tv.index(v)
            a, b = tv[(i + 1) % 3], tv[(i + 2) % 3]
            if a in ring_next:
                return False  # non-manifold star
            ring_next[a] = b
            outer[(a, b)] = arr.tn[3 * t + i]
        start = min(ring_next)
        ring = [start]
        while True:
            nxt = ring_next[ring[-1]]
            if nxt == start:
                break
            ring.append(nxt)
            if len(ring) > len(ring_next):
                return False  # broken ring
        if len(ring) != len(star):
            return False

        point = arr.point
        poly = list(ring)
        new_tris: List[Tuple[int, int, int]] = []
        guard = 0
        while len(poly) > 3:
            guard += 1
            if guard > 2 * len(ring) * len(ring) + 16:
                return False
            n = len(poly)
            clipped = False
            for i in range(n):
                a, b, c = poly[i - 1], poly[i], poly[(i + 1) % n]
                pa, pb, pc = point(a), point(b), point(c)
                if orient2d(pa, pb, pc) <= 0:
                    continue
                ok = True
                for w in poly:
                    if w in (a, b, c):
                        continue
                    pw = point(w)
                    if (orient2d(pa, pb, pw) >= 0
                            and orient2d(pb, pc, pw) >= 0
                            and orient2d(pc, pa, pw) >= 0):
                        ok = False
                        break
                if ok:
                    new_tris.append((a, b, c))
                    poly.pop(i)
                    clipped = True
                    break
            if not clipped:
                return False
        a, b, c = poly
        if orient2d(point(a), point(b), point(c)) <= 0:
            return False
        new_tris.append((a, b, c))

        # Commit: kill the star, create the fan, wire adjacency.
        for t in star:
            tri._kill_triangle(t)
            self._interior.pop(t, None)
        created = [tri._new_triangle(*tv) for tv in new_tris]
        for t in created:
            self._interior[t] = bool(label)
        emap: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for t in created:
            for k in range(3):
                emap[tri._edge(t, k)] = (t, k)
        tn = arr.tn
        for (eu, ev), (t, k) in sorted(emap.items()):
            rev = emap.get((ev, eu))
            if rev is not None:
                tn[3 * t + k] = rev[0]
                continue
            nb = outer[(eu, ev)]
            tn[3 * t + k] = nb
            if nb >= 0:
                tn[3 * nb + tri._edge_index(nb, ev, eu)] = t
        arr.vt[v] = -1
        self._topology_edits += 1
        return True

    def _flip_opposite(self, t1: int, k1: int) -> bool:
        """Flip the edge opposite vertex ``k1`` of real triangle ``t1``
        when the other side is real, in the same region, and the quad
        strictly convex.  ``t1`` decides which slot gets which of the
        new triangles (:meth:`Triangulation.flip`)."""
        tri = self.tri
        t2 = tri._arr.tn[3 * t1 + k1]
        if t2 < 0 or tri.is_ghost(t2):
            return False
        label = self._is_interior(t1)
        if label != self._is_interior(t2):
            return False
        if not tri.edge_is_flippable(t1, k1):
            return False
        n1, n2 = tri.flip(t1, k1)
        self._interior[n1] = label
        self._interior[n2] = label
        self.report.flips += 1
        self._topology_edits += 1
        return True

    # ------------------------------------------------------------------
    # Passes
    # ------------------------------------------------------------------
    def split_pass(self) -> int:
        """Split every edge with metric length above ``l_max``."""
        edges = self._edge_table()[0]
        if not len(edges):
            return 0
        lengths = self._metric_lengths(edges, self._vertex_tensors())
        order = np.argsort(-lengths, kind="stable")
        edges = edges.tolist()
        done = 0
        for j in order:
            if lengths[j] <= self.l_max:
                break
            u, v = edges[j]
            if self.split_edge(u, v):
                done += 1
        return done

    def collapse_pass(self) -> int:
        """Collapse edges with metric length below ``l_min``."""
        edges = self._edge_table()[0]
        if not len(edges):
            return 0
        lengths = self._metric_lengths(edges, self._vertex_tensors())
        order = np.argsort(lengths, kind="stable")
        edges = edges.tolist()
        protected = self._protected_vertices()
        removed: set = set()
        done = 0
        for j in order:
            if lengths[j] >= self.l_min:
                break
            u, v = edges[j]
            if u in removed or v in removed:
                continue
            loc = self._find_any_edge_triangle(u, v)
            if loc is None:
                continue  # stale edge (star already rebuilt)
            if self.collapse_edge(u, v, protected):
                done += 1
                # Whichever endpoint vanished no longer owns a triangle.
                for w in (u, v):
                    if self.tri._arr.vt[w] < 0:
                        removed.add(w)
        return done

    def flip_pass(self) -> int:
        """Anisotropic Lawson sweeps: flip while the worst metric quality
        of an edge's two triangles improves.

        A sweep visits edges in sorted ``(u, v)`` order and only edges
        that existed when it began; up to :data:`FLIP_MAX_SWEEPS` sweeps
        run, the last one flipping nothing unless the cap cut it short.
        Whether an edge flips is a function of its two triangles alone
        (their slots and stored rotation, region labels, four points,
        four tensors), and a flip rewrites exactly two triangles, so
        after the first sweep only the five edges of a flipped pair can
        decide differently: the sweep is a worklist of those *dirty*
        edges.  An outer edge of the new pair rejoins the running sweep
        when that sweep still has it ahead (it sorts after the edge just
        flipped and was not born in this sweep); otherwise, and always
        for the new diagonal, it waits for the next sweep.  That visits
        every edge whose answer can have changed at the very place a
        full sweep over all edges would, and no other.
        """
        tri = self.tri
        arr = tri._arr
        tv, tn, px = arr.tv, arr.tn, arr.px
        n = arr.n_pts
        rep = self.report
        tensors = self._vertex_tensors().tolist()
        locked = {u * n + v for u, v in tri.constraints}
        uv, slot = self._edge_table()
        work = (uv[:, 0] * n + uv[:, 1]).tolist()  # packed keys sort alike
        # slot_of[key] = 3 * t + k of the edge in the triangle left of
        # u -> v (u < v): the side decides which slot a flip writes
        # which new triangle to, hence the output's triangle rows.
        slot_of = dict(zip(work, slot.tolist()))
        total = 0
        for _ in range(FLIP_MAX_SWEEPS):
            rep.flip_sweeps += 1
            heap = work  # sorted, so already a heap
            queued = set(heap)
            born: set = set()
            later: set = set()
            flipped = 0
            while heap:
                key = heappop(heap)
                if key in locked:
                    continue
                t1, k1 = divmod(slot_of[key], 3)
                i1 = 3 * t1
                t2 = tn[i1 + k1]
                a = tv[i1 + k1]
                if a == GHOST or t2 < 0:
                    continue
                u, v = divmod(key, n)
                i2 = 3 * t2
                b = tv[i2 + tri._edge_index(t2, v, u)]
                if b == GHOST:
                    continue
                rep.flip_evaluations += 1
                q_now = min(
                    _metric_quality(px, tensors,
                                    tv[i1], tv[i1 + 1], tv[i1 + 2]),
                    _metric_quality(px, tensors,
                                    tv[i2], tv[i2 + 1], tv[i2 + 2]))
                q_new = min(_metric_quality(px, tensors, a, u, b),
                            _metric_quality(px, tensors, b, v, a))
                if not (q_new > q_now + FLIP_TOL
                        and self._flip_opposite(t1, k1)):
                    continue
                flipped += 1
                # Now t1 = [a, u, b] and t2 = [b, v, a]: edge 1 of each
                # is the new diagonal, edges 0 and 2 the outer four.
                diagonal = a * n + b if a < b else b * n + a
                slot_of[diagonal] = i2 + 1 if a < b else i1 + 1
                born.add(diagonal)
                later.add(diagonal)
                for s, x, y in ((i1, u, b), (i1 + 2, a, u),
                                (i2, v, a), (i2 + 2, b, v)):
                    if x > y:  # left of y -> x is the outside neighbour
                        nb = tn[s]
                        s = 3 * nb + tri._edge_index(nb, y, x)
                        x, y = y, x
                    dirty = x * n + y
                    slot_of[dirty] = s
                    if dirty < key or dirty in born:
                        later.add(dirty)
                    elif dirty not in queued:
                        queued.add(dirty)
                        heappush(heap, dirty)
            total += flipped
            if not flipped:
                break
            work = sorted(later)
        else:
            self.flip_sweep_caps += 1
        return total

    def smooth_pass(self) -> int:
        """Move free vertices toward the metric-weighted neighbour
        centroid; each move is validated (no inverted incident triangle)
        with step halving before acceptance."""
        tri = self.tri
        tensors = self._vertex_tensors()
        protected = self._protected_vertices()
        arr = tri._arr
        px, vt = arr.px, arr.vt
        moves = 0
        for v in range(arr.n_pts):
            if v in protected or vt[v] < 0:
                continue
            star = tri.triangles_around_vertex(v)
            if not star:
                continue
            ok = True
            neighbours: set = set()
            for t in star:
                tv = arr.triangle(t)
                if tv is None or GHOST in tv or not self._is_interior(t):
                    ok = False
                    break
                for w in tv:
                    if w != v:
                        neighbours.add(w)
            if not ok or len(neighbours) < 3:
                continue
            nbr = sorted(neighbours)
            old = arr.point(v)
            pv = np.array(old)
            npts = np.array([arr.point(w) for w in nbr])
            vecs = npts - pv[None, :]
            m_edge = 0.5 * (np.repeat(tensors[v][None, :], len(nbr), axis=0)
                            + tensors[nbr])
            w_len = np.sqrt(np.maximum(_mt.quad_form(m_edge, vecs), 0.0))
            wsum = float(w_len.sum())
            if wsum <= 0.0:
                continue
            target = (w_len[:, None] * npts).sum(axis=0) / wsum
            step = SMOOTH_RELAXATION
            accepted = False
            for _ in range(3):
                # target is NumPy: store plain floats (see arrays.py).
                px[2 * v] = float(old[0] + step * (target[0] - old[0]))
                px[2 * v + 1] = float(old[1] + step * (target[1] - old[1]))
                valid = True
                for t in star:
                    tv = arr.triangle(t)
                    if orient2d(arr.point(tv[0]), arr.point(tv[1]),
                                arr.point(tv[2])) <= 0:
                        valid = False
                        break
                if valid:
                    accepted = True
                    break
                step *= 0.5
            if accepted:
                moves += 1
            else:
                px[2 * v] = old[0]
                px[2 * v + 1] = old[1]
        self.report.smooth_moves += moves
        self._point_edits += moves
        return moves

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def adapt(self, *, max_passes: int = 3,
              smooth_iterations: int = 1) -> AdaptReport:
        """Run split -> collapse -> flip -> smooth passes to conformity.

        Stops early when a pass performs no structural operation.  The
        report accumulates counters across passes and records the
        conformity trace.
        """
        rep = self.report
        rep.conformity_before = self.conformity()
        for _ in range(max_passes):
            rep.passes += 1
            n_split = self.split_pass()
            n_coll = self.collapse_pass()
            n_flip = self.flip_pass()
            for _ in range(max(int(smooth_iterations), 0)):
                self.smooth_pass()
            rep.conformity_trace.append(self.conformity())
            if n_split == 0 and n_coll == 0 and n_flip == 0:
                break
        rep.conformity_after = (rep.conformity_trace[-1]
                                if rep.conformity_trace
                                else rep.conformity_before)
        sink = counters_current()
        if sink is not None:
            sink.absorb_kernel(self.tri)
            sink.incr("adapt_passes", rep.passes)
            sink.incr("adapt_splits", rep.splits)
            sink.incr("adapt_collapses", rep.collapses)
            sink.incr("adapt_flips", rep.flips)
            sink.incr("adapt_smooth_moves", rep.smooth_moves)
            sink.incr("adapt_flip_evaluations", rep.flip_evaluations)
            sink.incr("adapt_flip_sweeps", rep.flip_sweeps)
            if self.flip_sweep_caps:
                sink.incr("adapt_flip_sweep_cap", self.flip_sweep_caps)
        return rep


def adapt_mesh(
    mesh: TriMesh,
    metric_field,
    *,
    holes: Sequence[Tuple[float, float]] = (),
    l_min: float = LOW_BAND,
    l_max: float = HIGH_BAND,
    max_passes: int = 3,
    smooth_iterations: int = 1,
    protect_segments: bool = False,
) -> Tuple[TriMesh, AdaptReport]:
    """Adapt ``mesh`` to ``metric_field``; returns (new mesh, report).

    The mesh's constrained segments are preserved through the rebuild
    (they are re-marked as constraints and never collapsed; they may
    gain split vertices when the metric asks for finer boundary spacing,
    unless ``protect_segments`` forbids it).  ``holes`` are the region
    seed points of the original geometry, exactly as given to
    :func:`repro.delaunay.refine_pslg`.
    """
    tri = triangulate_pslg(mesh.points, mesh.segments)
    adaptor = MeshAdaptor(
        tri,
        metric_field,
        holes=holes,
        l_min=l_min,
        l_max=l_max,
        protect_segments=protect_segments,
    )
    adaptor.adapt(max_passes=max_passes, smooth_iterations=smooth_iterations)
    return adaptor.to_mesh(), adaptor.report
