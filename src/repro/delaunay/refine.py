"""Ruppert's Delaunay refinement with a sizing-function area bound.

This provides the "Triangle -q -a" capability the paper depends on
(Sections II.D-II.E): given a constrained Delaunay triangulation of a
subdomain, insert Steiner points until

* no constrained sub-segment is *encroached* (has a vertex strictly inside
  its diametral circle), and
* every interior triangle satisfies the circumradius-to-shortest-edge
  bound ``B`` (default sqrt(2), Ruppert's guaranteed-termination bound,
  minimum angle ~20.7 degrees) and the area bound ``area_fn(centroid)``.

Processing order follows Ruppert: encroached segments split at their
midpoint first; then bad triangles get their circumcenter, unless the
circumcenter would encroach a segment, in which case the segment splits
instead.  Interior/exterior classification is maintained incrementally: a
cavity never crosses a constrained edge, so every retriangulated cavity
inherits a uniform region label.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..geometry.predicates import exact_eq
from ..geometry.primitives import circumcenter, distance, distance_sq
from ..runtime.counters import current as counters_current
from .cavity import find_directed_edge
from .constrained import carve, triangulate_pslg
from .kernel import GHOST, Triangulation, TriangulationError
from .mesh import TriMesh

__all__ = [
    "RefinementError",
    "Refiner",
    "refine_pslg",
    "RUPPERT_BOUND",
    "SizingCriterion",
    "AreaCriterion",
    "MetricCriterion",
]

#: Ruppert's circumradius-to-shortest-edge termination bound (paper Eq. 1
#: context): sqrt(2) corresponds to a 20.7-degree minimum angle.
RUPPERT_BOUND = math.sqrt(2.0)


class RefinementError(RuntimeError):
    """Refinement failed to terminate within its insertion budget."""


AreaFn = Callable[[float, float], float]

Point = Tuple[float, float]


class SizingCriterion:
    """Decides whether a triangle is too large for a sizing field.

    The refiner consults exactly one criterion per triangle, handing it
    the three corner coordinates and the (positive) Euclidean area it
    already computed.  Implementations return ``True`` when the triangle
    must be split for *size* reasons; the shape (circumradius-to-edge)
    test stays in the refiner and is criterion-independent.
    """

    def oversized(self, pa: Point, pb: Point, pc: Point, area: float
                  ) -> bool:
        raise NotImplementedError


class AreaCriterion(SizingCriterion):
    """Scalar area bound ``area_fn(centroid)`` — the classic Triangle
    ``-a`` semantics.  The arithmetic (centroid then compare) is kept
    bit-identical to the pre-criterion refiner so meshes hash the same.
    """

    def __init__(self, area_fn: AreaFn) -> None:
        self.area_fn = area_fn

    def oversized(self, pa: Point, pb: Point, pc: Point, area: float
                  ) -> bool:
        cx = (pa[0] + pb[0] + pc[0]) / 3.0
        cy = (pa[1] + pb[1] + pc[1]) / 3.0
        return area > self.area_fn(cx, cy)


class MetricCriterion(SizingCriterion):
    """Anisotropic bound from a :class:`repro.metric.MetricField`.

    A triangle is oversized when either

    * its longest edge measured in the metric exceeds ``max_edge``
      (default ``sqrt(2)``, the upper end of the unit-mesh band), or
    * its circumradius in the metric of the centroid exceeds
      ``max_circumradius`` (default ``1.0``; a metric-unit equilateral
      triangle has circumradius ``1/sqrt(3)``, so 1.0 only fires on
      clearly oversized or badly shaped elements).

    The circumradius test maps the corners through ``M^{1/2}`` frozen at
    the centroid and measures the Euclidean circumradius there.
    """

    def __init__(self, field, *, max_edge: float = RUPPERT_BOUND,
                 max_circumradius: float = 1.0, k: int = 3) -> None:
        if max_edge <= 0 or max_circumradius <= 0:
            raise ValueError("metric criterion bounds must be positive")
        self.field = field
        self.max_edge = float(max_edge)
        self.max_circumradius = float(max_circumradius)
        self.k = int(k)

    def oversized(self, pa: Point, pb: Point, pc: Point, area: float
                  ) -> bool:
        cx = (pa[0] + pb[0] + pc[0]) / 3.0
        cy = (pa[1] + pb[1] + pc[1]) / 3.0
        corners = np.array([pa, pb, pc], dtype=np.float64)
        query = np.vstack([corners, [[cx, cy]]])
        tensors = self.field.interpolate(query, k=self.k)
        # Metric edge lengths: average of endpoint quadratic forms.
        from ..metric import tensor as _mt

        vecs = corners[[1, 2, 0]] - corners[[0, 1, 2]]
        l_sq_a = _mt.quad_form(tensors[[0, 1, 2]], vecs)
        l_sq_b = _mt.quad_form(tensors[[1, 2, 0]], vecs)
        l_m = 0.5 * (np.sqrt(np.maximum(l_sq_a, 0.0))
                     + np.sqrt(np.maximum(l_sq_b, 0.0)))
        if float(l_m.max()) > self.max_edge:
            return True
        # Circumradius under the centroid metric.
        root = _mt.sqrtm(tensors[3:4])
        r11, r12, r22 = root[0, 0], root[0, 1], root[0, 2]
        qa, qb, qc = (
            (r11 * p[0] + r12 * p[1], r12 * p[0] + r22 * p[1])
            for p in (pa, pb, pc)
        )
        try:
            cc = circumcenter(qa, qb, qc)
        except ValueError:
            return False  # metric-degenerate: leave to the shape test
        if not (math.isfinite(cc[0]) and math.isfinite(cc[1])):
            return False
        return distance(cc, qa) > self.max_circumradius


class Refiner:
    """Delaunay refinement driver over a :class:`Triangulation`.

    Parameters
    ----------
    tri:
        A constrained triangulation (segments already recovered/locked).
    holes:
        Seed points of hole regions (excluded from refinement and output).
    quality_bound:
        Circumradius-to-shortest-edge bound B; ``None`` disables quality
        refinement (area-only).
    area_fn:
        Maximum triangle area at a location, or ``None`` for no area bound.
        Shorthand for ``criterion=AreaCriterion(area_fn)``.
    criterion:
        A :class:`SizingCriterion` deciding the size test directly (e.g.
        :class:`MetricCriterion` for anisotropic sizing).  Mutually
        exclusive with ``area_fn``.
    min_edge_floor:
        Safety floor: skinny triangles whose shortest edge is already below
        this length are not split further.  This is the pragmatic guard
        against non-termination near small input angles (the airfoil
        trailing-edge cusps); Triangle uses concentric-shell splitting for
        the same purpose.
    max_steiner:
        Hard insertion budget; exceeded -> :class:`RefinementError`.
    """

    def __init__(
        self,
        tri: Triangulation,
        *,
        holes: Sequence[Tuple[float, float]] = (),
        quality_bound: Optional[float] = RUPPERT_BOUND,
        area_fn: Optional[AreaFn] = None,
        criterion: Optional[SizingCriterion] = None,
        min_edge_floor: float = 0.0,
        max_steiner: int = 2_000_000,
        lock_segments: bool = False,
    ) -> None:
        if area_fn is not None and criterion is not None:
            raise ValueError("pass either area_fn or criterion, not both")
        self.tri = tri
        self.quality_bound = quality_bound
        self.area_fn = area_fn
        self.criterion = (AreaCriterion(area_fn) if area_fn is not None
                          else criterion)
        self.min_edge_floor = float(min_edge_floor)
        self.max_steiner = int(max_steiner)
        self.steiner_count = 0
        # When True, constrained segments are never split: the decoupling
        # contract (Section II.E) — the graded borders were pre-sized so
        # refinement never *needs* to split them; any skipped split is
        # counted for diagnostics.
        self.lock_segments = bool(lock_segments)
        self.locked_skips = 0
        # Triangles that could not be improved (their fix was denied by
        # lock_segments / min_edge_floor): excluded from rescans so the
        # fixed-point loop terminates.
        self._unfixable: set = set()
        # interior[t]: True for triangles in the meshed region.
        mask = carve(tri, holes)
        self._interior: Dict[int, bool] = {
            t: bool(mask[t]) for t in tri.live_triangles()
        }
        self._holes = tuple(holes)

    # ------------------------------------------------------------------
    # Region bookkeeping
    # ------------------------------------------------------------------
    def _is_interior(self, t: int) -> bool:
        return self._interior.get(t, False)

    def _insert_tracked(self, x: float, y: float, *, interior_hint: int
                        ) -> int:
        """Insert a point and propagate the region label of its cavity.

        ``interior_hint`` is a triangle known to contain the point (the
        label source).  Cavities cannot cross constraints, so the label is
        uniform over the cavity and inherited by every new triangle.
        """
        label = self._is_interior(interior_hint)
        vid = self.tri.insert_point(x, y, hint=interior_hint)
        for t in self.tri.last_removed:
            self._interior.pop(t, None)
            self._unfixable.discard(t)
        for t in self.tri.last_created:
            self._interior[t] = label and not self.tri.is_ghost(t)
            self._unfixable.discard(t)
        self.steiner_count += 1
        if self.steiner_count > self.max_steiner:
            raise RefinementError(
                f"exceeded Steiner budget ({self.max_steiner}); "
                "sizing function or input geometry is inconsistent"
            )
        return vid

    def _insert_on_segment(self, u: int, v: int, x: float, y: float) -> int:
        """Split constrained segment (u, v) at (x, y) on the segment.

        The two sides of a constrained segment may carry different region
        labels (interior vs hole/exterior), and the insertion cavity spans
        both sides while the constraint is lifted — so new triangles must
        be relabelled.  Classification is by *connectivity*: each new
        triangle adopts the label of a neighbour reachable without
        crossing a constrained edge (a geometric side-of-line test would
        misclassify cavity triangles beyond the segment's endpoints).
        """
        from ..geometry.predicates import orient2d

        tri = self.tri
        loc = self._find_any_edge_triangle(u, v)
        if loc is None:
            raise TriangulationError(f"segment ({u},{v}) is not an edge")
        # Side labels of the segment before the split (valid within the
        # segment's slab): used to seed the connectivity propagation for
        # triangles adjacent to the new subsegments — necessary when the
        # cavity swallows every pre-existing triangle of a region.
        label_side = {}
        for t in tri.triangles_around_vertex(u):
            tv = tri.tri_v[t]
            if tv is None or v not in tv or tri.is_ghost(t):
                continue
            w = next(w for w in tv if w not in (u, v))
            if w == GHOST:
                continue
            side = orient2d(tri.pts[u], tri.pts[v], tri.pts[w])
            if side != 0:
                label_side[side] = self._is_interior(t)
        pu, pv = tri.pts[u], tri.pts[v]

        tri.unmark_constraint(u, v)
        vid = self._insert_tracked(x, y, interior_hint=loc)
        tri.mark_constraint(u, vid)
        tri.mark_constraint(vid, v)

        created = [t for t in tri.last_created if tri.tri_v[t] is not None]
        created_set = set(created)
        for t in created:
            if tri.is_ghost(t):
                self._interior[t] = False
        pending = []
        seeded: dict = {}
        for t in created:
            if tri.is_ghost(t):
                continue
            tv = tri.tri_v[t]
            # Adjacent to a new subsegment: side-of-line is valid here.
            if (u in tv or v in tv) and vid in tv:
                w = next((w for w in tv if w not in (u, v, vid)), None)
                if w is not None:
                    side = orient2d(pu, pv, tri.pts[w])
                    if side != 0 and side in label_side:
                        seeded[t] = label_side[side]
                        self._interior[t] = label_side[side]
                        continue
            pending.append(t)
        resolved: dict = dict(seeded)
        guard = 0
        while pending:
            guard += 1
            if guard > 4 * len(created) + 16:
                # Should be unreachable: the cavity boundary always
                # touches labelled pre-existing triangles or ghosts.
                for t in pending:
                    self._interior[t] = False
                break
            progress = False
            rest = []
            for t in pending:
                label = None
                for k in range(3):
                    e_u, e_v = tri._edge(t, k)
                    if e_u != GHOST and e_v != GHOST:
                        key = (e_u, e_v) if e_u < e_v else (e_v, e_u)
                        if key in tri.constraints:
                            continue  # labels do not cross constraints
                    nb = tri.tri_n[t][k]
                    if nb < 0:
                        continue
                    if tri.is_ghost(nb):
                        label = False  # open to the outside of the hull
                        break
                    if nb in resolved:
                        label = resolved[nb]
                        break
                    if nb not in created_set and nb in self._interior:
                        label = self._interior[nb]
                        break
                if label is None:
                    rest.append(t)
                else:
                    resolved[t] = label
                    self._interior[t] = label
                    progress = True
            pending = rest
            if not progress and pending:
                continue  # another pass: resolved set has grown
        return vid

    def _find_any_edge_triangle(self, u: int, v: int) -> Optional[int]:
        """Any live triangle holding edge {u, v}, preferring a real one.

        The two directed-edge probes cover both sides of the edge; only
        a hull edge can make one side ghost.
        """
        tri = self.tri
        ghost: Optional[int] = None
        for a, b in ((u, v), (v, u)):
            loc = find_directed_edge(tri, a, b)
            if loc is not None:
                if not tri.is_ghost(loc[0]):
                    return loc[0]
                if ghost is None:
                    ghost = loc[0]
        return ghost

    # ------------------------------------------------------------------
    # Encroachment
    # ------------------------------------------------------------------
    def _encroached_by(self, u: int, v: int, w: int) -> bool:
        """Vertex ``w`` strictly inside the diametral circle of (u, v)?"""
        pu, pv, pw = self.tri.pts[u], self.tri.pts[v], self.tri.pts[w]
        # Angle at w subtending uv > 90 deg  <=>  (u-w).(v-w) < 0.
        return ((pu[0] - pw[0]) * (pv[0] - pw[0])
                + (pu[1] - pw[1]) * (pv[1] - pw[1])) < 0.0

    def _encroached_by_point(self, u: int, v: int, p: Tuple[float, float]
                             ) -> bool:
        pu, pv = self.tri.pts[u], self.tri.pts[v]
        return ((pu[0] - p[0]) * (pv[0] - p[0])
                + (pu[1] - p[1]) * (pv[1] - p[1])) < 0.0

    def _segment_encroached(self, u: int, v: int) -> bool:
        """Check the apex vertices of the (up to two) adjacent triangles —
        sufficient in a CDT: any encroaching vertex implies the apexes
        encroach too (they are inside the diametral circle or the segment
        would not be Delaunay-adjacent to them)."""
        loc = self._find_any_edge_triangle(u, v)
        if loc is None:
            return False
        tri = self.tri
        for t in tri.triangles_around_vertex(u):
            tv = tri.tri_v[t]
            if v not in tv or tri.is_ghost(t):
                continue
            w = next(w for w in tv if w not in (u, v))
            if w != GHOST and self._encroached_by(u, v, w):
                return True
        return False

    # ------------------------------------------------------------------
    # Quality / size tests
    # ------------------------------------------------------------------
    def _triangle_bad(self, t: int) -> Optional[str]:
        """Return "quality"/"size" when triangle ``t`` needs refinement."""
        tri = self.tri
        tv = tri.tri_v[t]
        if tv is None or GHOST in tv or not self._is_interior(t):
            return None
        pa, pb, pc = (tri.pts[tv[0]], tri.pts[tv[1]], tri.pts[tv[2]])
        la = distance(pb, pc)
        lb = distance(pa, pc)
        lc = distance(pa, pb)
        lmin = min(la, lb, lc)
        area = 0.5 * abs(
            (pb[0] - pa[0]) * (pc[1] - pa[1])
            - (pb[1] - pa[1]) * (pc[0] - pa[0])
        )
        if exact_eq(area, 0.0):
            return None  # exactly degenerate slivers cannot be improved
        if self.criterion is not None:
            if self.criterion.oversized(pa, pb, pc, area):
                return "size"
        if self.quality_bound is not None:
            r = la * lb * lc / (4.0 * area)
            if r / lmin > self.quality_bound:
                if self.min_edge_floor and lmin <= self.min_edge_floor:
                    return None  # small-angle guard
                return "quality"
        return None

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def refine(self) -> None:
        """Run to completion (or raise :class:`RefinementError`)."""
        # Phase 0: split every encroached input segment.  The
        # min_edge_floor guard applies here too: without it, two segments
        # meeting at a small input angle ping-pong encroachment splits
        # down to floating-point scale (Ruppert's classic small-angle
        # cascade; Triangle handles it with concentric shells).
        seg_queue = deque(() if self.lock_segments else self.tri.constraints)
        while seg_queue:
            u, v = seg_queue.popleft()
            key = (u, v) if u < v else (v, u)
            if key not in self.tri.constraints:
                continue
            if self._segment_encroached(u, v) and self._split_allowed(u, v):
                mid = self._split_segment(u, v)
                seg_queue.append((u, mid))
                seg_queue.append((mid, v))

        # Phase 1: process bad triangles; re-scan until a fixed point.
        # A worklist of triangle ids; stale ids are skipped cheaply.
        work: deque = deque(
            t for t in self.tri.live_triangles() if self._triangle_bad(t)
        )
        idle_rescans = 0
        while True:
            while work:
                t = work.popleft()
                if self.tri.tri_v[t] is None:
                    continue
                reason = self._triangle_bad(t)
                if reason is None:
                    continue
                self._process_bad_triangle(t, work)
            # Re-scan to catch triangles invalidated out of the worklist.
            fresh = [t for t in self.tri.live_triangles()
                     if t not in self._unfixable and self._triangle_bad(t)]
            if not fresh:
                break
            idle_rescans += 1
            if idle_rescans > 10_000:
                raise RefinementError("refinement rescan did not converge")
            work.extend(fresh)

        sink = counters_current()
        if sink is not None:
            sink.absorb_kernel(self.tri)
            sink.incr("steiner_points", self.steiner_count)
            if self.locked_skips:
                sink.incr("locked_segment_skips", self.locked_skips)

    def _split_segment(self, u: int, v: int) -> int:
        pu, pv = self.tri.pts[u], self.tri.pts[v]
        mx, my = 0.5 * (pu[0] + pv[0]), 0.5 * (pu[1] + pv[1])
        return self._insert_on_segment(u, v, mx, my)

    def _process_bad_triangle(self, t: int, work: deque) -> None:
        tri = self.tri
        tv = tri.tri_v[t]
        pa, pb, pc = (tri.pts[tv[0]], tri.pts[tv[1]], tri.pts[tv[2]])
        try:
            cc = circumcenter(pa, pb, pc)
        except ValueError:
            self._unfixable.add(t)
            return
        if not (np.isfinite(cc[0]) and np.isfinite(cc[1])):
            self._unfixable.add(t)
            return

        # Walk from the triangle toward the circumcenter; a constrained
        # edge crossed on the way means cc is invisible -> split it.
        blocker = self._visibility_blocker(t, cc)
        if blocker is not None:
            u, v = blocker
            if self._split_allowed(u, v):
                mid = self._split_segment(u, v)
                self._requeue_around_vertex(mid, work)
            else:
                self._unfixable.add(t)
            return

        dest = tri.locate(cc, hint=t)
        if tri.is_ghost(dest) or not self._is_interior(dest):
            # Outside the region without crossing a constraint (numeric
            # corner) — nothing safe to insert.
            self._unfixable.add(t)
            return
        # Reject when cc would encroach a constrained cavity edge.
        encroached = self._encroached_segments_near(dest, cc)
        if encroached:
            did_split = False
            for u, v in encroached:
                if self._split_allowed(u, v):
                    mid = self._split_segment(u, v)
                    self._requeue_around_vertex(mid, work)
                    did_split = True
            if not did_split:
                self._unfixable.add(t)
            return
        dup = tri.find_vertex_at(cc, dest)
        if dup is not None:
            self._unfixable.add(t)
            return  # circumcenter collides with an existing vertex
        vid = self._insert_tracked(cc[0], cc[1], interior_hint=dest)
        self._requeue_around_vertex(vid, work)

    def _split_allowed(self, u: int, v: int) -> bool:
        if self.lock_segments:
            self.locked_skips += 1
            return False
        if not self.min_edge_floor:
            return True
        return distance(self.tri.pts[u], self.tri.pts[v]) > 2.0 * self.min_edge_floor

    def _requeue_around_vertex(self, vid: int, work: deque) -> None:
        for t in self.tri.triangles_around_vertex(vid):
            if not self.tri.is_ghost(t):
                work.append(t)

    def _visibility_blocker(self, t: int, cc: Tuple[float, float]
                            ) -> Optional[Tuple[int, int]]:
        """First constrained edge crossed walking from ``t``'s centroid to
        ``cc``, or ``None`` when the circumcenter is visible."""
        from ..geometry.predicates import orient2d
        from ..geometry.primitives import segments_intersect

        tri = self.tri
        tv = tri.tri_v[t]
        pa, pb, pc = (tri.pts[tv[0]], tri.pts[tv[1]], tri.pts[tv[2]])
        start = ((pa[0] + pb[0] + pc[0]) / 3.0, (pa[1] + pb[1] + pc[1]) / 3.0)
        cur = t
        guard = 0
        visited = {t}
        while True:
            guard += 1
            if guard > 4 * (tri.n_live_triangles + 8):
                return None
            tv = tri.tri_v[cur]
            if tv is None or GHOST in tv:
                return None
            # Does cc lie in cur?
            inside = all(
                orient2d(tri.pts[tv[(k + 1) % 3]],
                         tri.pts[tv[(k + 2) % 3]], cc) >= 0
                for k in range(3)
            )
            if inside:
                return None
            moved = False
            for k in range(3):
                u, v = tri._edge(cur, k)
                if u == GHOST or v == GHOST:
                    continue
                pu, pv = tri.pts[u], tri.pts[v]
                if orient2d(pu, pv, cc) < 0 and segments_intersect(
                    start, cc, pu, pv
                ):
                    key = (u, v) if u < v else (v, u)
                    if key in tri.constraints:
                        return (u, v)
                    nxt = tri.tri_n[cur][k]
                    if nxt < 0 or nxt in visited:
                        continue
                    visited.add(nxt)
                    cur = nxt
                    moved = True
                    break
            if not moved:
                return None

    def _encroached_segments_near(self, dest: int, cc: Tuple[float, float]
                                  ) -> List[Tuple[int, int]]:
        """Constrained edges of the would-be cavity that ``cc`` encroaches."""
        tri = self.tri
        out: List[Tuple[int, int]] = []
        # Breadth-limited sweep over the cavity that cc's insertion would
        # carve (constraint-respecting), checking its constrained border.
        cavity = {dest}
        stack = [dest]
        while stack:
            t = stack.pop()
            for k in range(3):
                nb = tri.tri_n[t][k]
                u, v = tri._edge(t, k)
                is_constr = False
                if u != GHOST and v != GHOST:
                    key = (u, v) if u < v else (v, u)
                    is_constr = key in tri.constraints
                if is_constr:
                    if self._encroached_by_point(u, v, cc):
                        out.append((u, v))
                    continue
                if nb < 0 or nb in cavity:
                    continue
                if tri._in_disk(nb, cc[0], cc[1]):
                    cavity.add(nb)
                    stack.append(nb)
        return out

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def to_mesh(self) -> TriMesh:
        arr = self.tri._arr
        mask = np.zeros(arr.n_tris, dtype=bool)
        for t, lab in self._interior.items():
            if lab and not arr.is_dead(t):
                mask[t] = True
        mesh = self.tri.to_mesh(keep_mask=mask)
        sink = counters_current()
        if sink is not None:
            sink.absorb_finalize(self.tri)
        return mesh


def refine_pslg(
    points: np.ndarray,
    segments: np.ndarray,
    *,
    holes: Sequence[Tuple[float, float]] = (),
    quality_bound: Optional[float] = RUPPERT_BOUND,
    max_area: Optional[float] = None,
    area_fn: Optional[AreaFn] = None,
    criterion: Optional[SizingCriterion] = None,
    min_edge_floor: float = 0.0,
    max_steiner: int = 2_000_000,
    assume_sorted: bool = False,
) -> TriMesh:
    """One-call PSLG -> refined quality mesh (the Triangle workflow).

    ``max_area`` is a uniform bound; ``area_fn`` a spatially varying one
    (both may be given — the effective bound is the minimum).  A custom
    ``criterion`` (e.g. :class:`MetricCriterion`) replaces both.
    """
    if max_area is not None and max_area <= 0:
        raise ValueError("max_area must be positive")
    if criterion is not None and (max_area is not None or area_fn is not None):
        raise ValueError("pass either criterion or area bounds, not both")

    bound_fn: Optional[AreaFn]
    if area_fn is None and max_area is None:
        bound_fn = None
    elif area_fn is None:
        bound_fn = lambda x, y: max_area  # noqa: E731
    elif max_area is None:
        bound_fn = area_fn
    else:
        bound_fn = lambda x, y: min(max_area, area_fn(x, y))  # noqa: E731

    tri = triangulate_pslg(points, segments, assume_sorted=assume_sorted)
    refiner = Refiner(
        tri,
        holes=holes,
        quality_bound=quality_bound,
        area_fn=bound_fn,
        criterion=criterion,
        min_edge_floor=min_edge_floor,
        max_steiner=max_steiner,
    )
    refiner.refine()
    return refiner.to_mesh()
