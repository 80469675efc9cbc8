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
inherits a uniform region label.  The hot path reads the kernel's flat
arrays and builds no point tuples; its geometry keeps every float and
every exact decision of the point-tuple primitives.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..geometry.predicates import (
    ORIENT_ERR_BOUND, ORIENT_UNDERFLOW_GUARD, exact_eq, orient2d)
from ..geometry.primitives import segments_intersect
from ..runtime.counters import current as counters_current
from .arrays import DEAD
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


def _orient(ax, ay, bx, by, cx, cy) -> int:
    """:func:`orient2d` of three points given as coordinates: the float
    filter decides when it can, ``orient2d`` itself when it cannot."""
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright
    detsum = abs(detleft) + abs(detright)
    if (detsum > ORIENT_UNDERFLOW_GUARD
            and abs(det) > ORIENT_ERR_BOUND * detsum):
        return 1 if det > 0.0 else -1  # lint: disable=R1 -- inlined orient2d filter; shares ORIENT_ERR_BOUND, exact fallback below
    return orient2d((ax, ay), (bx, by), (cx, cy))


def _crosses(sx, sy, x, y, ux, uy, vx, vy, d2: int) -> bool:
    """``segments_intersect(s, p, u, v)`` for ``p = (x, y)``, given the
    sign ``d2 = orient2d(u, v, p)`` the straight walk already has."""
    d1 = _orient(ux, uy, vx, vy, sx, sy)
    d3 = _orient(sx, sy, x, y, ux, uy)
    d4 = _orient(sx, sy, x, y, vx, vy)
    if d1 and d2 and d3 and d4:  # no endpoint on the other's line
        return d1 != d2 and d3 != d4
    return segments_intersect((sx, sy), (x, y), (ux, uy), (vx, vy))


def _encroaches(px, u: int, v: int, x: float, y: float) -> bool:
    """``(x, y)`` strictly inside the diametral circle of segment
    ``(u, v)``?  Angle at p subtending uv > 90 deg <=> (u-p).(v-p) < 0."""
    i, j = 2 * u, 2 * v
    return (px[i] - x) * (px[j] - x) + (px[i + 1] - y) * (px[j + 1] - y) < 0.0


def _circumcenter(ax, ay, bx, by, cx, cy) -> Optional[Tuple[float, float]]:
    """Circumcenter of triangle ``abc``, relative to ``a`` (Shewchuk's
    formulation), or ``None`` when it has no finite one."""
    bax, bay = bx - ax, by - ay
    cax, cay = cx - ax, cy - ay
    d = 2.0 * (bax * cay - bay * cax)
    if exact_eq(d, 0.0):
        return None
    b2 = bax * bax + bay * bay
    c2 = cax * cax + cay * cay
    x = ax + (cay * b2 - bay * c2) / d
    y = ay + (bax * c2 - cax * b2) / d
    return (x, y) if math.isfinite(x) and math.isfinite(y) else None


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
    test above runs, so every verdict is the unfiltered one.  The edge
    lengths are kept by vertex id, so a criterion serves one
    triangulation.
    """

    def __init__(self, area_fn: AreaFn) -> None:
        self.area_fn = area_fn
        self._sizing = getattr(area_fn, "__self__", None)
        self._lipschitz = getattr(self._sizing, "lipschitz", None)
        self._edge_at: Dict[int, float] = {}
        #: ``area_fn`` calls; verdicts the bounds decided / left open.
        self.evals = self.clear = self.band = 0

    def prime(self, pts: np.ndarray) -> None:
        """Edge lengths at vertices ``0 .. len(pts) - 1`` (their
        coordinates, ``(n, 2)``), in one array call."""
        many = getattr(self._sizing, "area_at_many", None)
        if self._lipschitz is not None and many is not None:
            self.evals += len(pts)
            self._edge_at.update(enumerate(
                np.sqrt(many(pts) / _UNIT_AREA).tolist()))

    def oversized(self, a: int, b: int, c: int, ax: float, ay: float,
                  bx: float, by: float, cx: float, cy: float, area: float
                  ) -> bool:
        gx = (ax + bx + cx) / 3.0
        gy = (ay + by + cy) / 3.0
        if self._lipschitz is not None:
            grow, slack = self._lipschitz
            edge_at = self._edge_at
            for v, x, y in ((a, ax, ay), (b, bx, by), (c, cx, cy)):
                h = edge_at.get(v)
                if h is None:
                    self.evals += 1
                    h = edge_at[v] = math.sqrt(self.area_fn(x, y) / _UNIT_AREA)
                reach = grow * math.hypot(gx - x, gy - y) + slack
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
        return area > self.area_fn(gx, gy)


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
        # Straight walks handed to the kernel walk / blocked by a segment.
        self.walk_fallbacks = self.blocked = 0
        # Bad triangles that outlived a split made on their behalf,
        # slot -> vertex triple (a cavity slot is recycled at once, so
        # the triple is the identity): the worklist's only re-entries.
        self._survivors: Dict[int, Tuple[int, int, int]] = {}
        # interior[t]: True for triangles in the meshed region.
        mask = carve_regions(tri, holes)
        self._interior: Dict[int, bool] = {
            t: bool(mask[t]) for t in tri.live_triangles()
        }

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
        interior = self._interior
        for t in tri.last_removed:
            interior.pop(t, None)
        tv = tri._arr.tv
        for t in tri.last_created:
            i = 3 * t
            interior[t] = (label and tv[i] >= 0 and tv[i + 1] >= 0
                           and tv[i + 2] >= 0)
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
    def _segment_encroached(self, u: int, v: int) -> bool:
        """Check the apex vertices of the (up to two) adjacent triangles —
        sufficient in a CDT: any encroaching vertex implies the apexes
        encroach too (they are inside the diametral circle or the segment
        would not be Delaunay-adjacent to them)."""
        px = self.tri._arr.px
        return any(w != GHOST and _encroaches(px, u, v, px[2 * w],
                                              px[2 * w + 1])
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
        if a < 0 or b < 0 or c < 0 or not self._interior.get(t, False):
            return False
        px = arr.px
        ax, ay = px[2 * a], px[2 * a + 1]
        bx, by = px[2 * b], px[2 * b + 1]
        cx, cy = px[2 * c], px[2 * c + 1]
        # Edge lengths as sqrt(dx*dx + dy*dy) of q - p, the area from the
        # same differences: the floats of the point-tuple test.
        dx, dy = cx - bx, cy - by
        cax, cay = cx - ax, cy - ay
        bax, bay = bx - ax, by - ay
        la = math.sqrt(dx * dx + dy * dy)
        lb = math.sqrt(cax * cax + cay * cay)
        lc = math.sqrt(bax * bax + bay * bay)
        lmin = min(la, lb, lc)
        area = 0.5 * abs(bax * cay - bay * cax)
        if exact_eq(area, 0.0):
            return False  # exactly degenerate slivers cannot be improved
        if self.criterion is not None:
            if self.criterion.oversized(a, b, c, ax, ay, bx, by, cx, cy,
                                        area):
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
        tv = arr.tv
        if self.criterion is not None:
            self.criterion.prime(arr.pts())
        work: deque = deque(
            t for t in self.tri.live_triangles() if self._triangle_bad(t)
        )
        # What the test said of a popped slot's occupant, slot ->
        # (vertex triple, verdict): a slot is queued once per triangle
        # ever created in it, and the occupant meets every later entry.
        verdicts: Dict[int, Tuple[Tuple[int, int, int], bool]] = {}
        while work:
            t = work.popleft()
            i = 3 * t
            if tv[i] != DEAD:
                corners = (tv[i], tv[i + 1], tv[i + 2])
                tested, bad = verdicts.get(t, (None, False))
                if tested != corners:
                    bad = self._triangle_bad(t)
                    verdicts[t] = (corners, bad)
                if bad:
                    self._process_bad_triangle(t, work)
            if not work and self._survivors:
                # A dead slot reads DEAD, which no recorded triple holds.
                work.extend(sorted(
                    t for t, corners in self._survivors.items()
                    if (tv[3 * t], tv[3 * t + 1], tv[3 * t + 2]) == corners))
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
            for name, n in (("locked_segment_skips", self.locked_skips),
                            ("straight_walk_fallbacks", self.walk_fallbacks),
                            ("blocked_circumcenters", self.blocked)):
                if n:
                    sink.incr(name, n)

    def _split_segment(self, u: int, v: int) -> int:
        pu, pv = self.tri._arr.point(u), self.tri._arr.point(v)
        mx, my = 0.5 * (pu[0] + pv[0]), 0.5 * (pu[1] + pv[1])
        return self._insert_on_segment(u, v, mx, my)

    def _process_bad_triangle(self, t: int, work: deque) -> None:
        tri = self.tri
        arr = tri._arr
        tv, px = arr.tv, arr.px
        i = 3 * t
        ja, jb, jc = 2 * tv[i], 2 * tv[i + 1], 2 * tv[i + 2]
        cc = _circumcenter(px[ja], px[ja + 1], px[jb], px[jb + 1], px[jc],
                           px[jc + 1])
        if cc is None:
            return
        x, y = cc

        # Locate: a constrained edge between the triangle and its
        # circumcenter means cc is invisible -> split that edge instead.
        blocker, dest, certified = self._locate_visible(t, x, y)
        if blocker is not None:
            self._split_segments([blocker], t, work)
            return
        i = 3 * dest
        a, b, c = tv[i], tv[i + 1], tv[i + 2]
        if (a < 0 or b < 0 or c < 0 or not self._interior.get(dest, False)
                or any(px[2 * w] == x and px[2 * w + 1] == y
                       for w in (a, b, c))):
            # Outside the region without crossing a constraint (numeric
            # corner) or on top of an existing vertex — nothing safe to
            # insert.
            return
        # Conflict region, carved once and inspected before it is
        # committed: cc must not encroach a segment of its boundary.
        cavity, seed = carve(tri, x, y, dest, certified)
        encroached = self._encroached_boundary(cavity, seed, x, y)
        if encroached:
            self._split_segments(encroached, t, work)
            return
        # Commit the same set.
        vid = arr.new_point(x, y)
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
        px = self.tri._arr.px
        dx, dy = px[2 * v] - px[2 * u], px[2 * v + 1] - px[2 * u + 1]
        return math.sqrt(dx * dx + dy * dy) > 2.0 * self.min_edge_floor

    def _requeue_created(self, work: deque) -> None:
        """The star the kernel just built is the only new work."""
        tv = self.tri._arr.tv
        for t in self.tri.last_created:
            i = 3 * t
            if tv[i] >= 0 and tv[i + 1] >= 0 and tv[i + 2] >= 0:
                work.append(t)

    def _locate_visible(self, t: int, x: float, y: float
                        ) -> Tuple[Optional[Tuple[int, int]], int, bool]:
        """Walk straight from ``t``'s centroid to ``cc = (x, y)``.

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
        tv, tn, px = arr.tv, arr.tn, arr.px
        i = 3 * t
        ja, jb, jc = 2 * tv[i], 2 * tv[i + 1], 2 * tv[i + 2]
        sx = (px[ja] + px[jb] + px[jc]) / 3.0
        sy = (px[ja + 1] + px[jb + 1] + px[jc + 1]) / 3.0
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
            ja, jb, jc = 2 * a, 2 * b, 2 * c
            edges = ((b, c, jb, jc), (c, a, jc, ja), (a, b, ja, jb))
            signs = [_orient(px[j], px[j + 1], px[m], px[m + 1], x, y)
                     for _, _, j, m in edges]
            if min(signs) >= 0:
                strictly_inside = 0 not in signs
                break
            for k in range(3):
                u, v, j, m = edges[k]
                if signs[k] < 0 and _crosses(sx, sy, x, y, px[j], px[j + 1],
                                             px[m], px[m + 1], signs[k]):
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
        if blocker is not None:
            self.blocked += 1
        if blocker is not None or strictly_inside:
            return blocker, cur, strictly_inside
        self.walk_fallbacks += 1
        return (None, *walk(tri, x, y, t))

    def _encroached_boundary(self, cavity: Set[int], seed: int, x: float,
                             y: float) -> List[Tuple[int, int]]:
        """Constrained boundary edges of ``cavity`` that ``(x, y)``
        encroaches.

        Membership-only traversal (no predicate is evaluated): depth
        first from ``seed``, because the order the segments are listed
        in is the order they are split in, and the vertex numbering of
        un-locked refinement follows from it.
        """
        tri = self.tri
        tv, tn, px = tri._arr.tv, tri._arr.tn, tri._arr.px
        constraints = tri.constraints
        out: List[Tuple[int, int]] = []
        seen = {seed}
        stack = [seed]
        while stack:
            i = 3 * stack.pop()
            a, b, c = tv[i], tv[i + 1], tv[i + 2]
            for k, u, v in ((0, b, c), (1, c, a), (2, a, b)):
                if (u >= 0 and v >= 0
                        and ((u, v) if u < v else (v, u)) in constraints):
                    if _encroaches(px, u, v, x, y):
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
        # Dead slots need no test: the compaction keeps live rows only.
        mask = np.zeros(self.tri._arr.n_tris, dtype=bool)
        mask[[t for t, lab in self._interior.items() if lab]] = True
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
