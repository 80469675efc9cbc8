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
its conflict region and lists the segments bounding it — the only ones
it can encroach, so encroachment is a dot product per listed segment —
and ``retriangulate`` commits the same region, with ``carve``'s word on
whether it wrapped a segment, and its star is the new work.  A triangle
is judged by one test over the flat arrays, size before shape.
That is all of the work there is: the worklist starts as one scan of the
mesh and afterwards holds only the triangles an insertion created, plus
the one kind of bad triangle no insertion replaces — the one that
outlived the split of the segments its circumcenter encroached
(Ruppert leaves it "still in the queue"), which goes back in when the
queue drains.  The mesh is never scanned again.

The input is a region: a polygon triangulation or a loaded mesh, whose
ghost edges are all constraints, so a ghost is a wall no cavity or walk
crosses and the real triangles are the domain — no label is kept.  A
segment splits as an edge (:func:`~repro.delaunay.cavity.split_edge`).
The hot path reads the kernel's flat arrays and builds no point tuples;
its geometry keeps every float and exact decision of the primitives.
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
from ..sizing.functions import UniformSizing
from .arrays import DEAD
from .cavity import (carve, find_directed_edge, locate_fallback,
                     retriangulate, split_edge, walk)
from .constrained import triangulate_loops
from .kernel import GHOST, Triangulation
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
#: Steiner points one refinement may insert before it gives up.
MAX_STEINER = 2_000_000


class RefinementError(RuntimeError):
    """Refinement cannot go on: the insertion budget is spent, or a
    segment is too short to split (its midpoint is an end)."""


AreaFn = Callable[[float, float], float]

#: The sizing functions' ``area = _UNIT_AREA * h**2`` (equilateral).
_UNIT_AREA = math.sqrt(3.0) / 4.0
#: An area bound at ``(x, y)`` must exceed this times ``x*x + y*y``: an
#: edge under 2**-40 of ``|(x, y)|`` is below the float resolution there.
_MIN_REL_AREA = _UNIT_AREA * 2.0 ** -80
_INF = math.inf


def _checked_area(area: float, x: float, y: float) -> float:
    if not _MIN_REL_AREA * (x * x + y * y) < area < _INF:
        raise ValueError(
            f"the size bound at ({x!r}, {y!r}) is area {area!r}: it must be "
            "a positive finite number, over the float resolution there")
    return area


def _orient(ax, ay, bx, by, cx, cy) -> int:
    """:func:`orient2d` of three points given as coordinates: the float
    filter decides when it can, ``orient2d`` itself when it cannot."""
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright
    detsum = abs(detleft) + abs(detright)
    if (detsum > ORIENT_UNDERFLOW_GUARD
            and abs(det) > ORIENT_ERR_BOUND * detsum):
        # Inlined orient2d filter: shares ORIENT_ERR_BOUND, exact fallback
        # below.
        return 1 if det > 0.0 else -1
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


def _depth_first(tri, cavity: Set[int], seed: int, segments, encroached):
    """``encroached``, some of the ``segments`` ``carve`` listed for
    ``cavity``, in the order a depth-first search from ``seed`` that
    crosses none meets them: the split order of un-locked refinement."""
    tv, tn = tri._arr.tv, tri._arr.tn
    out: List[Tuple[int, int]] = []
    seen = {seed}
    stack = [seed]
    while stack:
        i = 3 * stack.pop()
        a, b, c = tv[i], tv[i + 1], tv[i + 2]
        for k, u, v in ((0, b, c), (1, c, a), (2, a, b)):
            if (u, v) in segments:
                if (u, v) in encroached:
                    out.append((u, v))
            else:
                nb = tn[i + k]
                if nb in cavity and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    return out


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
    ``-a`` semantics: a triangle whose area exceeds it must split for
    size.  The criterion holds the bound and its state; the refiner's
    one triangle test (:meth:`Refiner._triangle_bad`) reads them and
    decides size and shape together.  The arithmetic (centroid then
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

    An area ``area_fn`` returns that is not a positive finite number over
    the float resolution at its point (:data:`_MIN_REL_AREA`) is a
    ``ValueError`` naming the point: a NaN would switch the size test
    off, and a bound no float spacing meets would spend the budget.
    """

    def __init__(self, area_fn: AreaFn) -> None:
        self.area_fn = area_fn
        self._sizing = getattr(area_fn, "__self__", None)
        self.lipschitz = getattr(self._sizing, "lipschitz", None)
        self.edge_at: Dict[int, float] = {}
        #: ``area_fn`` calls; verdicts the bounds decided / left open.
        self.evals = self.clear = self.band = 0

    def prime(self, pts: np.ndarray) -> None:
        """Edge lengths at vertices ``0 .. len(pts) - 1`` (their
        coordinates, ``(n, 2)``), in one array call."""
        many = getattr(self._sizing, "area_at_many", None)
        if self.lipschitz is not None and many is not None:
            self.evals += len(pts)
            areas = many(pts)
            bad = np.flatnonzero(~((_MIN_REL_AREA * (pts * pts).sum(axis=1)
                                    < areas) & (areas < _INF)))
            for i in bad[:1].tolist():
                _checked_area(float(areas[i]), *pts[i].tolist())
            self.edge_at.update(enumerate(
                np.sqrt(areas / _UNIT_AREA).tolist()))


class Refiner:
    """Delaunay refinement driver over a :class:`Triangulation`.

    Parameters
    ----------
    tri:
        A constrained triangulation whose real triangles are exactly the
        region to refine and whose ghost edges are all constraints: a
        polygon triangulation or a loaded mesh; ``ValueError`` otherwise.
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
        quality_bound: Optional[float] = RUPPERT_BOUND,
        criterion: Optional[AreaCriterion] = None,
        min_edge_floor: float = 0.0,
        max_steiner: int = MAX_STEINER,
        lock_segments: bool = False,
    ) -> None:
        # A ghost across an unconstrained edge is a hull half-plane (a
        # point-cloud or general-PSLG hull): refining would mesh outside.
        # An edge with nothing across it (no ghost layer) cannot split.
        rows = np.sort(tri._arr.tri_v(), axis=1)  # dead: DEAD < GHOST
        if -1 in tri._arr.tn and (
                tri._arr.tri_n()[rows[:, 0] != DEAD] < 0).any():
            raise ValueError("an edge has no triangle or ghost across it: "
                             "the refiner takes a region with ghost walls")
        for u, v in rows[rows[:, 0] == GHOST, 1:].tolist():
            if (u, v) not in tri.constraints:
                raise ValueError(
                    f"boundary edge ({u},{v}) is not a constraint: the "
                    "refiner takes a region whose ghosts are walls (a "
                    "polygon triangulation or a loaded mesh)")
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

    def _count_steiner(self) -> None:
        """Charge the Steiner budget for the vertex just added."""
        self.steiner_count += 1
        if self.steiner_count > self.max_steiner:
            raise RefinementError(
                f"exceeded Steiner budget ({self.max_steiner}); "
                "sizing function or input geometry is inconsistent"
            )

    def _split_segment(self, u: int, v: int) -> int:
        """Split constrained segment (u, v) at its midpoint: an edge
        split (:func:`~repro.delaunay.cavity.split_edge`), whose two
        halves stay constrained."""
        arr = self.tri._arr
        pu, pv = arr.point(u), arr.point(v)
        mid = (0.5 * (pu[0] + pv[0]), 0.5 * (pu[1] + pv[1]))
        if mid == pu or mid == pv:
            raise RefinementError(
                f"segment ({u},{v}) cannot be split at {mid}: the point is "
                "one of its ends")
        vid = split_edge(self.tri, u, v, *mid)
        self._count_steiner()
        return vid

    def _edge_sides(self, u: int, v: int):
        """``(triangle, apex)`` left of ``u -> v``, then left of
        ``v -> u`` (lazily: one directed-edge probe each).  A side is
        missing only when the edge is; a boundary edge has a ghost side,
        whose apex is ``GHOST``."""
        tri = self.tri
        for a, b in ((u, v), (v, u)):
            loc = find_directed_edge(tri, a, b)
            if loc is not None:
                yield loc[0], tri._arr.tv[3 * loc[0] + loc[1]]

    def _find_any_edge_triangle(self, u: int, v: int) -> Optional[int]:
        """A real triangle holding edge {u, v} (every edge of a region
        has one), or ``None`` when it is no edge."""
        return next((t for t, apex in self._edge_sides(u, v)
                     if apex != GHOST), None)

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
        """Does live real triangle ``t`` fail the size or shape test?
        Size first (the criterion's filter corner by corner, else the
        bound at the centroid), then shape, in the floats of the
        point-tuple test: lengths ``sqrt(dx*dx + dy*dy)`` of ``q - p``."""
        self.triangle_tests += 1
        arr = self.tri._arr
        tv = arr.tv
        i = 3 * t
        a, b, c = tv[i], tv[i + 1], tv[i + 2]
        # A dead slot reads DEAD (< 0) at a, a ghost GHOST (< 0) anywhere.
        if a < 0 or b < 0 or c < 0:
            return False
        px = arr.px
        ax, ay = px[2 * a], px[2 * a + 1]
        bx, by = px[2 * b], px[2 * b + 1]
        cx, cy = px[2 * c], px[2 * c + 1]
        cax, cay = cx - ax, cy - ay
        bax, bay = bx - ax, by - ay
        area = 0.5 * abs(bax * cay - bay * cax)
        if area <= 0.0:
            return False  # exactly degenerate slivers cannot be improved
        crit = self.criterion
        if crit is not None:
            gx = (ax + bx + cx) / 3.0
            gy = (ay + by + cy) / 3.0
            bounds = crit.lipschitz
            k = i  # corners i .. i + 2 in turn; without a filter, none
            end = i + 3 if bounds is not None else i
            while k < end:
                v = tv[k]
                k += 1
                x, y = px[2 * v], px[2 * v + 1]
                h = crit.edge_at.get(v)
                if h is None:
                    crit.evals += 1
                    h = crit.edge_at[v] = math.sqrt(_checked_area(
                        crit.area_fn(x, y), x, y) / _UNIT_AREA)
                reach = bounds[0] * math.hypot(gx - x, gy - y) + bounds[1]
                # 1e-9 of the operands, a million roundings of anything
                # here or in area_fn: the bounds hold for its floats.
                reach += 1e-9 * (h + reach)
                hi = h + reach
                if area > _UNIT_AREA * hi * hi:
                    crit.clear += 1
                    return True
                lo = h - reach
                if lo > 0.0 and area < _UNIT_AREA * lo * lo:
                    crit.clear += 1
                    break
            else:
                if bounds is not None:
                    crit.band += 1
                crit.evals += 1
                if area > _checked_area(crit.area_fn(gx, gy), gx, gy):
                    return True
        if self.quality_bound is not None:
            dx, dy = cx - bx, cy - by
            la = math.sqrt(dx * dx + dy * dy)
            lb = math.sqrt(cax * cax + cay * cay)
            lc = math.sqrt(bax * bax + bay * bay)
            lmin = la if la < lb else lb
            if lc < lmin:
                lmin = lc
            if la * lb * lc / (4.0 * area) / lmin > self.quality_bound:
                # The small-angle guard: no split under the floor.
                return not (self.min_edge_floor
                            and lmin <= self.min_edge_floor)
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
                memo = verdicts.get(t)
                if memo is not None and memo[0] == corners:
                    bad = memo[1]
                else:
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
        ja, jb, jc = 2 * tv[i], 2 * tv[i + 1], 2 * tv[i + 2]
        if (ja < 0 or jb < 0 or jc < 0
                or (px[ja] == x and px[ja + 1] == y)
                or (px[jb] == x and px[jb + 1] == y)
                or (px[jc] == x and px[jc + 1] == y)):
            # Outside the region without crossing a constraint (numeric
            # corner) or on top of an existing vertex — nothing safe to
            # insert.
            return
        # Conflict region, carved once with the segments bounding it,
        # and inspected before it is committed: cc must encroach none.
        cavity, seed, segments, wrapped = carve(tri, x, y, dest, certified)
        if segments:
            encroached = [(u, v) for u, v in segments
                          if _encroaches(px, u, v, x, y)]
            if encroached:
                if len(encroached) > 1 and not self.lock_segments:
                    encroached = _depth_first(tri, cavity, seed, segments,
                                              encroached)
                self._split_segments(encroached, t, work)
                return
        # Commit the same set.
        vid = arr.new_point(x, y)
        tri.stat_inserts += 1
        retriangulate(tri, vid, cavity, seed, wrapped)
        self._count_steiner()
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
        else ``None`` and the triangle whose closed region holds ``cc``
        — ``certified`` when strictly inside, else ``cc`` is on its
        boundary, which ``carve`` accepts as a start.  Only when a
        numeric corner stopped the walk does the kernel's
        :func:`~repro.delaunay.cavity.walk` from ``t`` locate ``cc``;
        a ghost it returns is a wall (every ghost edge is a constraint,
        not a hull half-plane), and an exhaustive scan locates ``cc``
        instead.
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
        inside = strictly_inside = False
        while blocker is None and steps < max_steps:
            steps += 1
            i = 3 * cur
            a, b, c = tv[i], tv[i + 1], tv[i + 2]
            if a < 0 or b < 0 or c < 0:  # dead or ghost
                break
            # Edge k is (u, v) = (b, c), (c, a), (a, b); the first one
            # behind cc that the walk crosses is the way on.
            u, v, w = b, c, a
            behind = on_edge = False
            for k in (0, 1, 2):
                j, m = 2 * u, 2 * v
                sign = _orient(px[j], px[j + 1], px[m], px[m + 1], x, y)
                if sign < 0:
                    behind = True
                    if _crosses(sx, sy, x, y, px[j], px[j + 1], px[m],
                                px[m + 1], sign):
                        if ((u, v) if u < v else (v, u)) in tri.constraints:
                            blocker = (u, v)
                            break
                        nxt = tn[i + k]
                        if nxt >= 0 and nxt not in visited:
                            visited.add(nxt)
                            cur = nxt
                            break
                elif not sign:
                    on_edge = True
                u, v, w = v, w, u
            else:
                # Inside, or no way on: a numeric corner.
                inside = not behind
                strictly_inside = inside and not on_edge
                break
        tri.stat_locates += 1
        tri.stat_walk_steps += steps
        tri.stat_walk_hist[min(steps, 31)] += 1
        if blocker is not None:
            self.blocked += 1
        if blocker is not None or inside:
            return blocker, cur, strictly_inside
        self.walk_fallbacks += 1
        dest, certified = walk(tri, x, y, t)
        if tri.is_ghost(dest):  # a wall: its edge is a constraint
            return None, locate_fallback(tri, x, y), False
        return None, dest, certified

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def to_mesh(self) -> TriMesh:
        """The real triangles: the region, and nothing else."""
        mesh = self.tri.to_mesh()
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

    The segments must form closed loops through every point: the one
    that contains all others bounds the domain, each other one is a hole
    with its seed in ``holes`` inside it (:func:`~repro.delaunay.
    constrained.triangulate_loops` names what it refuses).  The polygon
    is refined with its segments unlocked.

    ``max_area`` is a uniform bound (a :class:`~repro.sizing.UniformSizing`,
    so the criterion's Lipschitz filter decides most verdicts); ``area_fn``
    a spatially varying one (both may be given — the effective bound is
    the minimum).  Each must be a positive finite number, else
    ``ValueError``.
    """
    if max_area is not None and not 0.0 < max_area < _INF:
        raise ValueError(
            f"max_area must be a positive finite number, got {max_area!r}")

    criterion = None
    if max_area is not None and area_fn is not None:
        # area_fn first: min() would drop a NaN in second place.
        criterion = AreaCriterion(lambda x, y: min(area_fn(x, y), max_area))
    elif max_area is not None:
        criterion = AreaCriterion(UniformSizing(max_area).area_at)
    elif area_fn is not None:
        criterion = AreaCriterion(area_fn)

    refiner = Refiner(triangulate_loops(points, segments, holes),
                      criterion=criterion, min_edge_floor=min_edge_floor)
    refiner.refine()
    return refiner.to_mesh()
