"""Ruppert's Delaunay refinement with a sizing-function area bound.

This provides the "Triangle -q -a" capability the paper depends on
(Sections II.D-II.E): given a constrained Delaunay triangulation of a
subdomain, insert Steiner points until

* no constrained sub-segment is *encroached* (has a vertex strictly inside
  its diametral circle), and
* every interior triangle satisfies the circumradius-to-shortest-edge
  bound ``B`` (default sqrt(2), Ruppert's guaranteed-termination bound,
  minimum angle ~20.7 degrees) and the area bound of the
  :class:`AreaCriterion` (``-a``).

Processing order follows Ruppert: encroached segments split at their
midpoint first; then bad triangles get their circumcenter, unless the
circumcenter would encroach a segment, in which case the segment splits
instead.  A circumcenter costs the kernel's three steps
(:mod:`repro.delaunay.cavity`), each asked for once: one straight walk
locates it (or meets the segment that hides it), one ``carve`` yields
its conflict region — whose constrained boundary edges are the only
segments it can encroach, so that question is read off the region — and
``retriangulate`` commits the same region, whose star is the new work.
That is all of the work there is: the worklist starts as one scan of the
mesh and afterwards holds only the triangles an insertion created, plus
the one kind of bad triangle no insertion replaces — the one that
outlived the split of the segments its circumcenter encroached
(Ruppert leaves it "still in the queue"), which goes back in when the
queue drains.  The mesh is never scanned again.
Interior/exterior classification is maintained incrementally: a cavity
never crosses a constrained edge, so every retriangulated cavity
inherits a uniform region label.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..geometry.predicates import exact_eq, orient2d
from ..geometry.primitives import circumcenter, distance, segments_intersect
from ..runtime.counters import current as counters_current
from .cavity import carve, find_directed_edge, insert_point, retriangulate, walk
from .constrained import carve as carve_regions, triangulate_pslg
from .kernel import GHOST, Triangulation, TriangulationError
from .mesh import TriMesh

__all__ = [
    "RefinementError",
    "Refiner",
    "refine_pslg",
    "RUPPERT_BOUND",
    "AreaCriterion",
]

#: Ruppert's circumradius-to-shortest-edge termination bound (paper Eq. 1
#: context): sqrt(2) corresponds to a 20.7-degree minimum angle.
RUPPERT_BOUND = math.sqrt(2.0)


class RefinementError(RuntimeError):
    """Refinement cannot go on: the insertion budget is spent, or a
    segment split found the region labels broken or its point taken."""


AreaFn = Callable[[float, float], float]

#: The sizing functions' ``area = _UNIT_AREA * h**2`` (equilateral).
_UNIT_AREA = math.sqrt(3.0) / 4.0

Point = Tuple[float, float]


class AreaCriterion:
    """Scalar area bound ``area_fn(centroid)`` — the classic Triangle
    ``-a`` semantics: :meth:`oversized` says whether a triangle, given
    its corners and the area the refiner computed, must split for size;
    the shape test stays in the refiner.  The arithmetic (centroid then
    compare) is kept bit-identical to the pre-criterion refiner so
    meshes hash the same.

    When ``area_fn`` is the ``area_at`` of a sizing that declares its
    edge length Lipschitz (``lipschitz``, see
    :class:`repro.sizing.GradedDistanceSizing`), a filter stands in
    front of that test, like the predicates': the edge length at a
    corner, evaluated once per vertex, bounds the one at the centroid,
    and an area outside the bounds has its verdict.  Inside them the
    test above runs, so every verdict is the unfiltered one.
    """

    def __init__(self, area_fn: AreaFn) -> None:
        self.area_fn = area_fn
        self._sizing = getattr(area_fn, "__self__", None)
        self._lipschitz = getattr(self._sizing, "lipschitz", None)
        self._edge_at: Dict[Point, float] = {}
        #: ``area_fn`` calls; verdicts the bounds decided / left open.
        self.evals = self.clear = self.band = 0

    def prime(self, points: Sequence[Point]) -> None:
        """Edge lengths at a mesh's first vertices, in one array call."""
        many = getattr(self._sizing, "area_at_many", None)
        if self._lipschitz is not None and many is not None:
            self.evals += len(points)
            self._edge_at.update(zip(
                points, np.sqrt(many(points) / _UNIT_AREA).tolist()))

    def oversized(self, pa: Point, pb: Point, pc: Point, area: float
                  ) -> bool:
        cx = (pa[0] + pb[0] + pc[0]) / 3.0
        cy = (pa[1] + pb[1] + pc[1]) / 3.0
        if self._lipschitz is not None:
            grow, slack = self._lipschitz
            for p in (pa, pb, pc):
                h = self._edge_at.get(p)
                if h is None:
                    self.evals += 1
                    h = self._edge_at[p] = math.sqrt(
                        self.area_fn(p[0], p[1]) / _UNIT_AREA)
                reach = grow * math.hypot(cx - p[0], cy - p[1]) + slack
                # 1e-9 of the operands, a million roundings of anything
                # here or in area_fn: the bounds hold for its floats.
                reach += 1e-9 * (h + reach)
                hi = h + reach
                lo = h - reach
                big = area > _UNIT_AREA * hi * hi
                if big or (lo > 0.0 and area < _UNIT_AREA * lo * lo):
                    self.clear += 1
                    return big
            self.band += 1
        self.evals += 1
        return area > self.area_fn(cx, cy)


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
    criterion:
        The :class:`AreaCriterion` deciding the size test, or ``None``
        for no size bound.
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
        criterion: Optional[AreaCriterion] = None,
        min_edge_floor: float = 0.0,
        max_steiner: int = 2_000_000,
        lock_segments: bool = False,
    ) -> None:
        self.tri = tri
        self.quality_bound = quality_bound
        self.criterion = criterion
        self.min_edge_floor = float(min_edge_floor)
        self.max_steiner = int(max_steiner)
        self.steiner_count = 0
        #: Calls of the quality/size test (the refiner's own unit of work).
        self.triangle_tests = 0
        # When True, constrained segments are never split: the decoupling
        # contract (Section II.E) — the graded borders were pre-sized so
        # refinement never *needs* to split them; any skipped split is
        # counted for diagnostics.
        self.lock_segments = bool(lock_segments)
        self.locked_skips = 0
        # Bad triangles that outlived a split made on their behalf,
        # slot -> vertex triple (a cavity slot is recycled at once, so
        # the triple is the identity): the worklist's only re-entries.
        self._survivors: Dict[int, Tuple[int, int, int]] = {}
        # interior[t]: True for triangles in the meshed region.
        mask = carve_regions(tri, holes)
        self._interior: Dict[int, bool] = {
            t: bool(mask[t]) for t in tri.live_triangles()
        }
        self._holes = tuple(holes)

    # ------------------------------------------------------------------
    # Region bookkeeping
    # ------------------------------------------------------------------
    def _is_interior(self, t: int) -> bool:
        return self._interior.get(t, False)

    def _track_cavity(self, label: bool) -> None:
        """Carry region label ``label`` over the cavity the kernel just
        committed (``last_removed`` -> ``last_created``) and charge the
        Steiner budget.  Cavities cannot cross constraints, so the label
        is uniform over the cavity and inherited by every new triangle.
        """
        tri = self.tri
        for t in tri.last_removed:
            self._interior.pop(t, None)
        for t in tri.last_created:
            self._interior[t] = label and not tri.is_ghost(t)
        self.steiner_count += 1
        if self.steiner_count > self.max_steiner:
            raise RefinementError(
                f"exceeded Steiner budget ({self.max_steiner}); "
                "sizing function or input geometry is inconsistent"
            )

    def _insert_tracked(self, x: float, y: float, *, interior_hint: int
                        ) -> int:
        """Insert a point nobody needs to inspect the cavity of, through
        the kernel's own composition of the three steps.

        ``interior_hint`` is a triangle known to contain the point (the
        walk start and the label source).  Returns the vertex id, or
        :func:`~repro.delaunay.cavity.insert_point`'s negative code when
        the point duplicates an existing vertex (nothing changed).
        """
        label = self._is_interior(interior_hint)
        vid = insert_point(self.tri, x, y, interior_hint)
        if vid >= 0:
            self._track_cavity(label)
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
        tri = self.tri
        arr = tri._arr
        sides = list(self._edge_sides(u, v))
        if not sides:
            raise TriangulationError(f"segment ({u},{v}) is not an edge")
        loc = next((t for t, w in sides if w != GHOST), sides[0][0])
        pu, pv = arr.point(u), arr.point(v)
        # Side labels of the segment before the split (valid within the
        # segment's slab): used to seed the connectivity propagation for
        # triangles adjacent to the new subsegments — necessary when the
        # cavity swallows every pre-existing triangle of a region.
        label_side = {}
        for t, w in sides:
            if w != GHOST and t in self._interior:
                side = orient2d(pu, pv, arr.point(w))
                if side != 0:
                    label_side[side] = self._interior[t]

        tri.unmark_constraint(u, v)
        vid = self._insert_tracked(x, y, interior_hint=loc)
        if vid < 0:
            tri.mark_constraint(u, v)
            raise RefinementError(
                f"segment ({u},{v}) cannot be split at {(x, y)}: the "
                f"point is existing vertex {-2 - vid}")
        tri.mark_constraint(u, vid)
        tri.mark_constraint(vid, v)

        created = tri.last_created
        created_set = set(created)
        pending = []
        resolved: dict = {}
        for t in created:
            if tri.is_ghost(t):
                continue  # labelled exterior by _track_cavity
            tv = arr.triangle(t)
            # Adjacent to a new subsegment: side-of-line is valid here
            # (no w: the sliver (u, v, vid) of a midpoint rounded off
            # the segment).
            if (u in tv or v in tv) and vid in tv:
                w = next((w for w in tv if w not in (u, v, vid)), None)
                side = 0 if w is None else orient2d(pu, pv, arr.point(w))
                if side in label_side:
                    resolved[t] = self._interior[t] = label_side[side]
                    continue
            pending.append(t)
        while pending:
            rest = []
            for t in pending:
                label = None
                for k in range(3):
                    e_u, e_v = tri._edge(t, k)  # real: t is no ghost
                    key = (e_u, e_v) if e_u < e_v else (e_v, e_u)
                    if key in tri.constraints:
                        continue  # labels do not cross constraints
                    nb = arr.tn[3 * t + k]
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
                    resolved[t] = self._interior[t] = label
            if len(rest) == len(pending):
                # The cavity boundary always touches labelled
                # pre-existing triangles or ghosts; if it does not, the
                # region bookkeeping is broken and guessing a label
                # would silently drop (or leak) triangles in to_mesh().
                raise RefinementError(
                    f"split of segment ({u},{v}) at {(x, y)}: "
                    f"{len(rest)} new triangles reach no labelled region")
            pending = rest
        return vid

    def _edge_sides(self, u: int, v: int):
        """``(triangle, apex)`` left of ``u -> v``, then left of
        ``v -> u`` (lazily: one directed-edge probe each).  A side is
        missing only when the edge is; a hull edge has a ghost side,
        whose apex is ``GHOST``."""
        tri = self.tri
        for a, b in ((u, v), (v, u)):
            loc = find_directed_edge(tri, a, b)
            if loc is not None:
                yield loc[0], tri._arr.tv[3 * loc[0] + loc[1]]

    def _find_any_edge_triangle(self, u: int, v: int) -> Optional[int]:
        """Any live triangle holding edge {u, v}, preferring a real one."""
        ghost: Optional[int] = None
        for t, apex in self._edge_sides(u, v):
            if apex != GHOST:
                return t
            if ghost is None:
                ghost = t
        return ghost

    # ------------------------------------------------------------------
    # Encroachment
    # ------------------------------------------------------------------
    def _encroached_by_point(self, u: int, v: int, p: Tuple[float, float]
                             ) -> bool:
        """``p`` strictly inside the diametral circle of (u, v)?"""
        px = self.tri._arr.px
        i, j = 2 * u, 2 * v
        # Angle at p subtending uv > 90 deg  <=>  (u-p).(v-p) < 0.
        return ((px[i] - p[0]) * (px[j] - p[0])
                + (px[i + 1] - p[1]) * (px[j + 1] - p[1])) < 0.0

    def _segment_encroached(self, u: int, v: int) -> bool:
        """Check the apex vertices of the (up to two) adjacent triangles —
        sufficient in a CDT: any encroaching vertex implies the apexes
        encroach too (they are inside the diametral circle or the segment
        would not be Delaunay-adjacent to them)."""
        point = self.tri._arr.point
        return any(
            w != GHOST and self._encroached_by_point(u, v, point(w))
            for _, w in self._edge_sides(u, v))

    # ------------------------------------------------------------------
    # Quality / size tests
    # ------------------------------------------------------------------
    def _triangle_bad(self, t: int) -> bool:
        """Does live interior triangle ``t`` fail the size or shape test?"""
        self.triangle_tests += 1
        arr = self.tri._arr
        tv = arr.tv
        a, b, c = tv[3 * t], tv[3 * t + 1], tv[3 * t + 2]
        # A dead slot reads DEAD (< 0) at a, a ghost GHOST (< 0) anywhere.
        if a < 0 or b < 0 or c < 0 or not self._is_interior(t):
            return False
        px = arr.px
        pa = (px[2 * a], px[2 * a + 1])
        pb = (px[2 * b], px[2 * b + 1])
        pc = (px[2 * c], px[2 * c + 1])
        la = distance(pb, pc)
        lb = distance(pa, pc)
        lc = distance(pa, pb)
        lmin = min(la, lb, lc)
        area = 0.5 * abs(
            (pb[0] - pa[0]) * (pc[1] - pa[1])
            - (pb[1] - pa[1]) * (pc[0] - pa[0])
        )
        if exact_eq(area, 0.0):
            return False  # exactly degenerate slivers cannot be improved
        if self.criterion is not None:
            if self.criterion.oversized(pa, pb, pc, area):
                return True
        if self.quality_bound is not None:
            r = la * lb * lc / (4.0 * area)
            if r / lmin > self.quality_bound:
                if self.min_edge_floor and lmin <= self.min_edge_floor:
                    return False  # small-angle guard
                return True
        return False

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

        # Phase 1: one worklist of triangle slots — the bad triangles of
        # one scan, then whatever an insertion creates.  A slot is tested
        # again when it is popped (its triangle may be gone or replaced).
        # Survivors re-enter when the queue has drained, in slot order
        # (sooner, or in another order, is as correct but numbers the
        # Steiner points differently).  Each re-entry follows a split,
        # and splits are bounded by max_steiner / min_edge_floor, so the
        # loop ends.
        arr = self.tri._arr
        if self.criterion is not None:
            self.criterion.prime([arr.point(v) for v in range(arr.n_pts)])
        work: deque = deque(
            t for t in self.tri.live_triangles() if self._triangle_bad(t)
        )
        # What the test said of a popped slot's occupant, slot ->
        # (vertex triple, verdict): a slot is queued once per triangle
        # ever created in it, and the occupant meets every later entry.
        verdicts: Dict[int, Tuple[Tuple[int, int, int], bool]] = {}
        while work:
            t = work.popleft()
            corners = arr.triangle(t)
            if corners is not None:
                tested, bad = verdicts.get(t, (None, False))
                if tested != corners:
                    bad = self._triangle_bad(t)
                    verdicts[t] = (corners, bad)
                if bad:
                    self._process_bad_triangle(t, work)
            if not work and self._survivors:
                work.extend(sorted(
                    t for t, corners in self._survivors.items()
                    if arr.triangle(t) == corners))
                self._survivors.clear()

        sink = counters_current()
        if sink is not None:
            sink.absorb_kernel(self.tri)
            sink.incr("steiner_points", self.steiner_count)
            sink.incr("triangle_tests", self.triangle_tests)
            if self.criterion is not None:
                sink.incr("sizing_evals", self.criterion.evals)
                sink.incr("size_verdicts_clear", self.criterion.clear)
                sink.incr("size_verdicts_band", self.criterion.band)
            if self.locked_skips:
                sink.incr("locked_segment_skips", self.locked_skips)

    def _split_segment(self, u: int, v: int) -> int:
        pu, pv = self.tri._arr.point(u), self.tri._arr.point(v)
        mx, my = 0.5 * (pu[0] + pv[0]), 0.5 * (pu[1] + pv[1])
        return self._insert_on_segment(u, v, mx, my)

    def _process_bad_triangle(self, t: int, work: deque) -> None:
        tri = self.tri
        arr = tri._arr
        try:
            cc = circumcenter(*(arr.point(w) for w in arr.triangle(t)))
        except ValueError:
            cc = (math.nan, math.nan)
        if not (math.isfinite(cc[0]) and math.isfinite(cc[1])):
            return

        # Locate: a constrained edge between the triangle and its
        # circumcenter means cc is invisible -> split that edge instead.
        blocker, dest, certified = self._locate_visible(t, cc)
        if blocker is not None:
            self._split_segments([blocker], t, work)
            return
        if (tri.is_ghost(dest) or not self._is_interior(dest)
                or tri.find_vertex_at(cc, dest) is not None):
            # Outside the region without crossing a constraint (numeric
            # corner) or on top of an existing vertex — nothing safe to
            # insert.
            return
        # Conflict region, carved once and inspected before it is
        # committed: cc must not encroach a segment of its boundary.
        cavity, seed = carve(tri, cc[0], cc[1], dest, certified)
        encroached = self._encroached_boundary(cavity, seed, cc)
        if encroached:
            self._split_segments(encroached, t, work)
            return
        # Commit the same set.
        vid = arr.new_point(cc[0], cc[1])
        tri.stat_inserts += 1
        retriangulate(tri, vid, cavity, seed)
        self._track_cavity(True)
        self._requeue_created(work)

    def _split_segments(self, segments: Sequence[Tuple[int, int]], t: int,
                        work: deque) -> None:
        """Split, in the given order, every segment that may be split.
        Bad triangle ``t`` is done with when none may (its fix is
        denied); when it outlives the splits it is a survivor."""
        allowed = [uv for uv in segments if self._split_allowed(*uv)]
        if not allowed:
            return
        arr = self.tri._arr
        corners = arr.triangle(t)
        for u, v in allowed:
            self._split_segment(u, v)
            self._requeue_created(work)
        if arr.triangle(t) == corners:
            self._survivors[t] = corners

    def _split_allowed(self, u: int, v: int) -> bool:
        if self.lock_segments:
            self.locked_skips += 1
            return False
        if not self.min_edge_floor:
            return True
        point = self.tri._arr.point
        return distance(point(u), point(v)) > 2.0 * self.min_edge_floor

    def _requeue_created(self, work: deque) -> None:
        """The star the kernel just built is the only new work."""
        tri = self.tri
        work.extend(t for t in tri.last_created if not tri.is_ghost(t))

    def _locate_visible(self, t: int, cc: Tuple[float, float]
                        ) -> Tuple[Optional[Tuple[int, int]], int, bool]:
        """Walk straight from ``t``'s centroid to ``cc``.

        Returns ``(blocker, dest, certified)``: the first constrained
        edge on the way (``cc`` is not visible; ``dest`` means nothing),
        else ``None`` and the triangle holding ``cc`` — the one the walk
        ended in when ``cc`` is strictly inside it (``certified``);
        when ``cc`` is on an edge or a numeric corner stopped the walk,
        the kernel's :func:`~repro.delaunay.cavity.walk` from ``t``
        picks among the candidates.
        """
        tri = self.tri
        arr = tri._arr
        tv, tn, px = arr.tv, arr.tn, arr.px  # the walk inserts nothing
        pa, pb, pc = (arr.point(w) for w in arr.triangle(t))
        start = ((pa[0] + pb[0] + pc[0]) / 3.0, (pa[1] + pb[1] + pc[1]) / 3.0)
        cur = t
        visited = {t}
        steps = 0
        max_steps = 4 * (tri.n_live_triangles + 8)
        blocker = None
        strictly_inside = False
        while blocker is None and steps < max_steps:
            steps += 1
            i = 3 * cur
            a, b, c = tv[i], tv[i + 1], tv[i + 2]
            if a < 0 or b < 0 or c < 0:  # dead or ghost
                break
            pa = (px[2 * a], px[2 * a + 1])
            pb = (px[2 * b], px[2 * b + 1])
            pc = (px[2 * c], px[2 * c + 1])
            edges = ((b, c, pb, pc), (c, a, pc, pa), (a, b, pa, pb))
            signs = [orient2d(pu, pv, cc) for _, _, pu, pv in edges]
            if min(signs) >= 0:
                strictly_inside = 0 not in signs
                break
            for k in range(3):
                u, v, pu, pv = edges[k]
                if signs[k] < 0 and segments_intersect(start, cc, pu, pv):
                    if ((u, v) if u < v else (v, u)) in tri.constraints:
                        blocker = (u, v)
                        break
                    nxt = tn[i + k]
                    if nxt >= 0 and nxt not in visited:
                        visited.add(nxt)
                        cur = nxt
                        break
            else:
                break  # no way on: a numeric corner
        tri.stat_locates += 1
        tri.stat_walk_steps += steps
        tri.stat_walk_hist[min(steps, 31)] += 1
        if blocker is not None or strictly_inside:
            return blocker, cur, strictly_inside
        return (None, *walk(tri, cc[0], cc[1], t))

    def _encroached_boundary(self, cavity: Set[int], seed: int,
                             cc: Tuple[float, float]
                             ) -> List[Tuple[int, int]]:
        """Constrained boundary edges of ``cavity`` that ``cc`` encroaches.

        Membership-only traversal (no predicate is evaluated): depth
        first from ``seed``, because the order the segments are listed
        in is the order they are split in, and the vertex numbering of
        un-locked refinement follows from it.
        """
        tri = self.tri
        tv, tn = tri._arr.tv, tri._arr.tn
        constraints = tri.constraints
        out: List[Tuple[int, int]] = []
        seen = {seed}
        stack = [seed]
        while stack:
            i = 3 * stack.pop()
            a, b, c = tv[i], tv[i + 1], tv[i + 2]
            for k, (u, v) in enumerate(((b, c), (c, a), (a, b))):
                if (u != GHOST and v != GHOST
                        and ((u, v) if u < v else (v, u)) in constraints):
                    if self._encroached_by_point(u, v, cc):
                        out.append((u, v))
                else:
                    nb = tn[i + k]
                    if nb in cavity and nb not in seen:
                        seen.add(nb)
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
    max_area: Optional[float] = None,
    area_fn: Optional[AreaFn] = None,
    min_edge_floor: float = 0.0,
) -> TriMesh:
    """One-call PSLG -> refined quality mesh (the Triangle workflow),
    at Ruppert's bound :data:`RUPPERT_BOUND`.

    ``max_area`` is a uniform bound; ``area_fn`` a spatially varying one
    (both may be given — the effective bound is the minimum).
    """
    if max_area is not None and max_area <= 0:
        raise ValueError("max_area must be positive")

    criterion = None
    if max_area is not None and area_fn is not None:
        criterion = AreaCriterion(lambda x, y: min(max_area, area_fn(x, y)))
    elif max_area is not None:
        criterion = AreaCriterion(lambda x, y: max_area)
    elif area_fn is not None:
        criterion = AreaCriterion(area_fn)

    tri = triangulate_pslg(points, segments)
    refiner = Refiner(tri, holes=holes, criterion=criterion,
                      min_edge_floor=min_edge_floor)
    refiner.refine()
    return refiner.to_mesh()
