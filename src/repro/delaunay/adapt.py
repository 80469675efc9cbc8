"""Metric-driven local mesh adaptation (split / collapse / flip / smooth).

The anisotropic adaptation workload of the paper's related work (Tsolakis
& Chrisochoides, arXiv:2404.18030): given a mesh and a vertex metric
field (:class:`repro.metric.MetricField`), apply local operations until
the mesh is (approximately) *unit* in the metric — every edge with metric
length inside ``[1/sqrt(2), sqrt(2)]``:

* **split** edges longer than :data:`HIGH_BAND` at their midpoint —
  constrained segments as edges (:func:`~repro.delaunay.cavity.
  split_edge`), interior edges by cavity insertion;
* **collapse** edges shorter than :data:`LOW_BAND` by removing a free
  endpoint and retriangulating its star polygon (ear clipping with exact
  orientation guards);
* **flip** edges when the worst metric quality of the two adjacent
  triangles improves (anisotropic Lawson sweeps over a dirty-edge
  worklist: an edge is scored again only after one of its two
  triangles changed);
* **smooth** free vertices toward the metric-weighted centroid of their
  neighbours, with step-halving validity guards.

:func:`adapt_mesh` loads the mesh as it is
(:func:`~repro.delaunay.constrained.load_mesh`): its triangles are the
region and every boundary edge is a constraint with a ghost wall behind
it.  :class:`MeshAdaptor` extends :class:`repro.delaunay.refine.Refiner`
(segment split, Steiner budget, edge lookups) with the operations
refinement never needs (collapse, quality flips, vertex relocation).
:func:`adapt_mesh` is the one-call driver used by
:mod:`repro.solver.adapt` and the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..metric import tensor as _mt
from ..runtime.counters import current as counters_current
from .arrays import DEAD
from .cavity import insert_point
from .constrained import load_mesh
from .kernel import GHOST, TriangulationError
from .mesh import TriMesh
from .refine import Refiner, _orient

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


def _pairwise_sum(values: List[float]) -> float:
    """``np.sum(values)`` of a list of floats, bit for bit (signed zeros,
    subnormals and non-finite values included), without building an
    array.

    NumPy sums a block of fewer than 8 terms left to right from ``-0.0``
    and a block of up to 128 in eight interleaved accumulators, combined
    pairwise, with the tail (length mod 8) added in order; the reduction
    then adds the block to its ``0.0`` identity.  Longer inputs, which
    NumPy splits recursively, go to ``np.sum`` itself.
    """
    n = len(values)
    if n > 128:
        return float(np.sum(values))
    if n < 8:
        res = -0.0
        for x in values:
            res += x
        return 0.0 + res
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        r0 += values[i]
        r1 += values[i + 1]
        r2 += values[i + 2]
        r3 += values[i + 3]
        r4 += values[i + 4]
        r5 += values[i + 5]
        r6 += values[i + 6]
        r7 += values[i + 7]
    res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for i in range(end, n):
        res += values[i]
    return 0.0 + res


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


def _ear_clip(px, ring: List[int]) -> Optional[List[Tuple[int, int, int]]]:
    """Triangles of the CCW polygon ``ring`` by ear clipping, or
    ``None`` when it cannot be clipped into positive triangles.

    Each step clips the first convex corner (in ring order) whose
    triangle holds no other ring vertex, inside or on its boundary; the
    orientation tests are exact (:func:`repro.delaunay.refine._orient`
    on the coordinates in ``px``).
    """
    poly = list(ring)
    new_tris: List[Tuple[int, int, int]] = []
    guard = 0
    while len(poly) > 3:
        guard += 1
        if guard > 2 * len(ring) * len(ring) + 16:
            return None
        n = len(poly)
        for i in range(n):
            a, b, c = poly[i - 1], poly[i], poly[(i + 1) % n]
            ax, ay = px[2 * a], px[2 * a + 1]
            bx, by = px[2 * b], px[2 * b + 1]
            cx, cy = px[2 * c], px[2 * c + 1]
            if _orient(ax, ay, bx, by, cx, cy) <= 0:
                continue
            for w in poly:
                if w == a or w == b or w == c:
                    continue
                wx, wy = px[2 * w], px[2 * w + 1]
                if (_orient(ax, ay, bx, by, wx, wy) >= 0
                        and _orient(bx, by, cx, cy, wx, wy) >= 0
                        and _orient(cx, cy, ax, ay, wx, wy) >= 0):
                    break  # w blocks this ear
            else:
                new_tris.append((a, b, c))
                poly.pop(i)
                break
        else:
            return None  # no ear
    a, b, c = poly
    if _orient(px[2 * a], px[2 * a + 1], px[2 * b], px[2 * b + 1],
               px[2 * c], px[2 * c + 1]) <= 0:
        return None
    new_tris.append((a, b, c))
    return new_tris


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

    ``tri`` is a region as :class:`Refiner` takes it (a loaded mesh);
    ``metric_field`` prescribes the target metric.  The collapse/split
    thresholds in metric length are the unit band's ends,
    :data:`LOW_BAND` and :data:`HIGH_BAND`.
    """

    def __init__(
        self,
        tri,
        metric_field,
        *,
        protect_segments: bool = False,
    ) -> None:
        super().__init__(tri, quality_bound=None)
        self.field = metric_field
        # When True, constrained segments are never split: callers whose
        # downstream stages match boundary vertices by exact coordinates
        # (e.g. the potential-flow body classification) keep their rings
        # verbatim.
        self.protect_segments = bool(protect_segments)
        self.report = AdaptReport()
        #: Flip passes the sweep cap ended while edges were still flipping.
        self.flip_sweep_caps = 0
        #: ``_metric_quality`` calls the flip passes made.
        self.quality_evals = 0
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

        ``uv`` holds the ``(u, v)``, ``u < v`` rows of every edge of the
        region, sorted like tuples; ``slot[i] = 3 * t + k`` is where the
        triangle left of ``u -> v`` stores it (``t`` is a ghost for a
        boundary edge).  Each edge is stored once per direction, so the
        ``u < v`` rows are the unique edges; a ghost end (-1) fails
        ``u >= 0`` or ``u < v``.
        """
        clock, table = self._edges_at
        if clock == self._topology_edits:
            return table
        arr = self.tri._arr
        tv = arr.tri_v()
        # Directed edge k of a row is (row[k + 1], row[k + 2]); a dead
        # row keeps stale vertices, hence the live test.
        src = tv[:, (1, 2, 0)]
        dst = tv[:, (2, 0, 1)]
        keep = (tv[:, :1] != DEAD) & (src >= 0) & (src < dst)
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
        """Fraction of the region's edges with metric length in band."""
        edges = self._edge_table()[0]
        if not len(edges):
            return 1.0
        lengths = self._metric_lengths(edges, self._vertex_tensors())
        inband = (lengths >= LOW_BAND) & (lengths <= HIGH_BAND)
        return float(inband.mean())

    def _protected_vertices(self) -> set:
        """Vertices that collapse/smooth must not move or remove: the
        constraint endpoints, the boundary's among them."""
        protected: set = set()
        for uv in self.tri.constraints:
            protected.update(uv)
        return protected

    # ------------------------------------------------------------------
    # Individual operations (each returns True when it changed the mesh)
    # ------------------------------------------------------------------
    def split_edge(self, u: int, v: int) -> bool:
        """Split edge (u, v) at its midpoint.

        Constrained segments split as edges (:meth:`_split_segment`),
        interior edges by cavity insertion.  ``False`` when the edge is
        gone, the midpoint is a vertex, or a half would not turn CCW.
        """
        tri = self.tri
        loc = self._find_any_edge_triangle(u, v)
        if loc is None:
            return False
        key = (u, v) if u < v else (v, u)
        try:
            if key in tri.constraints:
                if self.protect_segments:
                    self.locked_skips += 1
                    return False
                self._split_segment(u, v)
            else:
                pu, pv = tri._arr.point(u), tri._arr.point(v)
                if insert_point(tri, 0.5 * (pu[0] + pv[0]),
                                0.5 * (pu[1] + pv[1]), loc) < 0:
                    return False  # the midpoint is an existing vertex
                self._count_steiner()
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
        when it is not a constraint endpoint (every boundary vertex is
        one) and its star is ghost-free.  Returns ``False`` when neither
        endpoint can be removed safely.
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
        is ear-clipped with exact orientation tests
        (:func:`_ear_clip`); the new fan is wired into the surrounding
        adjacency atomically — nothing mutates until a complete valid
        retriangulation exists.
        """
        tri = self.tri
        arr = tri._arr
        tv = arr.tv
        star = tri.triangles_around_vertex(v)
        if len(star) < 3:
            return False
        ring_next: Dict[int, int] = {}
        outer: Dict[Tuple[int, int], int] = {}
        for t in star:
            j = 3 * t
            x, y, z = tv[j], tv[j + 1], tv[j + 2]
            if x < 0 or y < 0 or z < 0:
                return False  # a ghost (or dead) row
            if x == v:
                a, b, k = y, z, 0
            elif y == v:
                a, b, k = z, x, 1
            else:
                a, b, k = x, y, 2
            if a in ring_next:
                return False  # non-manifold star
            ring_next[a] = b
            outer[(a, b)] = arr.tn[j + k]
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
        new_tris = _ear_clip(arr.px, ring)
        if new_tris is None:
            return False

        # Commit: kill the star, create the fan, wire adjacency.
        for t in star:
            tri._kill_triangle(t)
        created = [tri._new_triangle(*row) for row in new_tris]
        # Directed edge k of row (a, b, c) is opposite vertex k.
        emap: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for t, (a, b, c) in zip(created, new_tris):
            emap[(b, c)] = (t, 0)
            emap[(c, a)] = (t, 1)
            emap[(a, b)] = (t, 2)
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
        when the other side is real and the quad strictly convex.  ``t1``
        decides which slot gets which of the new triangles
        (:meth:`Triangulation.flip`)."""
        tri = self.tri
        t2 = tri._arr.tn[3 * t1 + k1]
        if t2 < 0 or tri.is_ghost(t2):
            return False
        if not tri.edge_is_flippable(t1, k1):
            return False
        tri.flip(t1, k1)
        self.report.flips += 1
        self._topology_edits += 1
        return True

    # ------------------------------------------------------------------
    # Passes
    # ------------------------------------------------------------------
    def split_pass(self) -> int:
        """Split every edge with metric length above :data:`HIGH_BAND`."""
        edges = self._edge_table()[0]
        if not len(edges):
            return 0
        lengths = self._metric_lengths(edges, self._vertex_tensors())
        order = np.argsort(-lengths, kind="stable")
        edges = edges.tolist()
        done = 0
        for j in order:
            if lengths[j] <= HIGH_BAND:
                break
            u, v = edges[j]
            if self.split_edge(u, v):
                done += 1
        return done

    def collapse_pass(self) -> int:
        """Collapse edges with metric length below :data:`LOW_BAND`."""
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
            if lengths[j] >= LOW_BAND:
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
        (their slots and stored rotation, four points, four tensors),
        and a flip rewrites exactly two triangles, so after the first
        sweep only the five edges of a flipped pair can decide
        differently: the sweep is a worklist of those *dirty* edges.  An
        outer edge of the new pair rejoins the running sweep when that
        sweep still has it ahead (it sorts after the edge just flipped
        and was not born in this sweep); otherwise, and always for the
        new diagonal, it waits for the next sweep.  That visits
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
        # quality[t]: _metric_quality of slot t as tv stores it, memoised
        # until a flip rewrites the slot (no point or tensor moves here).
        quality: List[Optional[float]] = [None] * arr.n_tris
        evals = 0
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
                # t2 holds v, u and its apex b (GHOST on the hull).
                b = tv[i2] + tv[i2 + 1] + tv[i2 + 2] - u - v
                if b == GHOST:
                    continue
                rep.flip_evaluations += 1
                q1 = quality[t1]
                if q1 is None:
                    q1 = quality[t1] = _metric_quality(
                        px, tensors, tv[i1], tv[i1 + 1], tv[i1 + 2])
                    evals += 1
                q2 = quality[t2]
                if q2 is None:
                    q2 = quality[t2] = _metric_quality(
                        px, tensors, tv[i2], tv[i2 + 1], tv[i2 + 2])
                    evals += 1
                q_a = _metric_quality(px, tensors, a, u, b)
                q_b = _metric_quality(px, tensors, b, v, a)
                evals += 2
                if not (min(q_a, q_b) > min(q1, q2) + FLIP_TOL
                        and self._flip_opposite(t1, k1)):
                    continue
                flipped += 1
                # The flip wrote exactly the two rotations just scored.
                quality[t1] = q_a
                quality[t2] = q_b
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
        self.quality_evals += evals
        return total

    def smooth_pass(self) -> int:
        """Move free vertices toward the metric-weighted neighbour
        centroid; each move is validated (no inverted incident triangle)
        with step halving before acceptance.

        Plain floats throughout, in the order of the array formulation
        this replaced (``tests/delaunay/oracle_adapt.py``), so the moves
        are bit-equal to it: per neighbour ``w`` the weight is
        ``sqrt(max(quad_form(0.5 * (t_v + t_w), p_w - p_v), 0))``, the
        weights are summed in NumPy's pairwise order
        (:func:`_pairwise_sum`) and the weighted centroid left to right.
        """
        tri = self.tri
        tensors = self._vertex_tensors().tolist()
        protected = self._protected_vertices()
        arr = tri._arr
        px, tv, vt = arr.px, arr.tv, arr.vt
        sqrt = math.sqrt
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
                i = 3 * t
                a, b, c = tv[i], tv[i + 1], tv[i + 2]
                if a < 0 or b < 0 or c < 0:
                    ok = False  # a ghost row
                    break
                neighbours.update((a, b, c))
            neighbours.discard(v)
            if not ok or len(neighbours) < 3:
                continue
            i = 2 * v
            ox, oy = px[i], px[i + 1]
            s0, s1, s2 = tensors[v]
            weights = []
            cx = cy = 0.0
            for w in sorted(neighbours):
                j = 2 * w
                wx, wy = px[j], px[j + 1]
                t0, t1, t2 = tensors[w]
                m0 = 0.5 * (s0 + t0)
                m1 = 0.5 * (s1 + t1)
                m2 = 0.5 * (s2 + t2)
                ex, ey = wx - ox, wy - oy
                q = m0 * ex * ex + 2.0 * m1 * ex * ey + m2 * ey * ey
                # np.maximum(q, 0.0): NaN stays NaN, -0.0 becomes 0.0.
                weight = 0.0 if q <= 0.0 else sqrt(q)
                weights.append(weight)
                cx += weight * wx
                cy += weight * wy
            wsum = _pairwise_sum(weights)
            if wsum <= 0.0:
                continue
            tx, ty = cx / wsum, cy / wsum
            step = SMOOTH_RELAXATION
            for _ in range(3):
                px[i] = ox + step * (tx - ox)
                px[i + 1] = oy + step * (ty - oy)
                for t in star:
                    j = 3 * t
                    a, b, c = 2 * tv[j], 2 * tv[j + 1], 2 * tv[j + 2]
                    if _orient(px[a], px[a + 1], px[b], px[b + 1],
                               px[c], px[c + 1]) <= 0:
                        break  # this step inverts a triangle
                else:
                    moves += 1
                    break
                step *= 0.5
            else:  # every step inverted one: stay put
                px[i] = ox
                px[i + 1] = oy
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
            for _ in range(smooth_iterations):
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
            sink.incr("adapt_quality_evals", self.quality_evals)
            if self.flip_sweep_caps:
                sink.incr("adapt_flip_sweep_cap", self.flip_sweep_caps)
        return rep


def adapt_mesh(
    mesh: TriMesh,
    metric_field,
    *,
    holes: Sequence[Tuple[float, float]] = (),
    max_passes: int = 3,
    smooth_iterations: int = 1,
    protect_segments: bool = False,
) -> Tuple[TriMesh, AdaptReport]:
    """Adapt ``mesh`` to ``metric_field``; returns (new mesh, report).

    The mesh is loaded as it is (:func:`~repro.delaunay.constrained.
    load_mesh`): its triangles are the region; its segments and boundary
    edges are constraints, never collapsed, split where the metric asks
    unless ``protect_segments``.  ``ValueError`` unless ``max_passes``
    >= 1 and ``smooth_iterations`` >= 0.  ``holes`` must be empty (a
    hole of the mesh is already one); it stays for old callers.
    """
    if len(holes):
        raise ValueError("adapt_mesh takes no hole seeds: the mesh's own "
                         "triangles are the region")
    if max_passes < 1:
        raise ValueError(f"max_passes must be >= 1, got {max_passes!r}")
    if smooth_iterations < 0:
        raise ValueError(
            f"smooth_iterations must be >= 0, got {smooth_iterations!r}")
    adaptor = MeshAdaptor(
        load_mesh(mesh.points, mesh.triangles, mesh.segments),
        metric_field,
        protect_segments=protect_segments,
    )
    adaptor.adapt(max_passes=max_passes, smooth_iterations=smooth_iterations)
    return adaptor.to_mesh(), adaptor.report
