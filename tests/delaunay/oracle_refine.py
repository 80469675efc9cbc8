"""The refinement driver as it was before the survivor worklist — the
reference :class:`repro.delaunay.refine.Refiner` is compared against.

:class:`RescanRefiner` carries ``refine``, ``_track_cavity`` (now
``_count_steiner``: no region label is left to carry),
``_process_bad_triangle`` and ``_split_segments`` of commit ``e3ad0f4``
verbatim but for the labels: the deque drains, then a *rescan* re-tests every live
triangle, steered by the per-slot ``_unfixable`` flag set (a triangle
whose fix was denied is never rescanned) and capped at 10 000 rescans.
A rescan only ever finds the bad triangle that outlived the split of the
segments its circumcenter encroached; production re-queues exactly that
triangle, so both drivers must produce byte-identical meshes
(``test_fuzz_pslg.py``, ``fuzz_refine_digest.py``).

Three edits to the copied text: ``_triangle_bad`` is tested for truth
(production returns ``bool`` now, the copy said ``is not None``),
``rescan_found`` counts what the rescans put back, so a test can tell
whether a case exercised the rescan at all, and the constrained boundary
of a cavity is found by the two passes production made before ``carve``
reported it (:func:`encroached_boundary`, :func:`wrapped_edge`), so the
fuzz slices compare ``carve``'s report with them.  Everything else the
driver needs (`_triangle_bad`, `_locate_visible`, the segment split) is
production's: this is an oracle for the *worklist*, not a second
refiner.

:func:`constrained_boundary` is the refiner's depth-first pass over a
carved cavity (``Refiner._encroached_boundary`` before ``carve`` listed
the segments itself) without the encroachment test, and
:func:`wrapped_edge` is ``retriangulate``'s scan for a segment with
cavity triangles on both sides, verbatim.

:func:`assert_refinement_complete` is the same scan as a postcondition:
what no driver may leave behind, whatever order it worked in.

:func:`circumcenter`, :func:`distance` and :func:`find_vertex_at` are the
point-tuple geometry the refiner called before it read the kernel's flat
arrays, verbatim (they were ``repro.geometry.primitives`` functions and a
``Triangulation`` method): the references the refiner's coordinate forms
are compared against (``test_refine_geometry.py``).
"""

import math
from collections import deque
from typing import Optional, Sequence, Tuple

from repro.delaunay.cavity import _NXT, _PRV, carve, retriangulate
from repro.delaunay.kernel import GHOST
from repro.delaunay.refine import RefinementError, Refiner, _encroaches
from repro.geometry.predicates import exact_eq
from repro.runtime.counters import current as counters_current


def distance(a, b) -> float:
    """Euclidean distance between two points."""
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    return math.sqrt(dx * dx + dy * dy)


def circumcenter(a, b, c) -> Tuple[float, float]:
    """Circumcenter of triangle ``(a, b, c)``.

    Computed relative to ``a`` for numerical stability (Shewchuk's
    formulation).  Raises :class:`ValueError` for degenerate triangles.
    """
    bax, bay = b[0] - a[0], b[1] - a[1]
    cax, cay = c[0] - a[0], c[1] - a[1]
    d = 2.0 * (bax * cay - bay * cax)
    if exact_eq(d, 0.0):
        raise ValueError("degenerate triangle has no circumcenter")
    b2 = bax * bax + bay * bay
    c2 = cax * cax + cay * cay
    ux = (cay * b2 - bay * c2) / d
    uy = (bax * c2 - cax * b2) / d
    return (a[0] + ux, a[1] + uy)


def find_vertex_at(tri, p: Tuple[float, float], t: int) -> Optional[int]:
    """Vertex of triangle ``t`` exactly coincident with ``p``, if any."""
    arr = tri._arr
    for v in arr.triangle(t):
        if v != GHOST and arr.point(v) == (p[0], p[1]):
            return v
    return None


def constrained_boundary(tri, cavity, seed):
    """The constrained edges of ``cavity``'s triangles, each as the
    directed edge of its triangle, depth first from ``seed`` (never
    crossing a constrained edge): the order un-locked refinement splits
    the encroached ones in."""
    tv, tn = tri._arr.tv, tri._arr.tn
    constraints = tri.constraints
    out = []
    seen = {seed}
    stack = [seed]
    while stack:
        i = 3 * stack.pop()
        a, b, c = tv[i], tv[i + 1], tv[i + 2]
        for k, u, v in ((0, b, c), (1, c, a), (2, a, b)):
            if (u >= 0 and v >= 0
                    and ((u, v) if u < v else (v, u)) in constraints):
                out.append((u, v))
            else:
                nb = tn[i + k]
                if nb in cavity and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    return out


def encroached_boundary(tri, cavity, seed, x, y):
    """Constrained boundary edges of ``cavity`` that ``(x, y)``
    encroaches, in :func:`constrained_boundary`'s order."""
    return [(u, v) for u, v in constrained_boundary(tri, cavity, seed)
            if _encroaches(tri._arr.px, u, v, x, y)]


def wrapped_edge(tri, cavity) -> bool:
    """Does a constrained edge have cavity triangles on both sides?"""
    tvm, tnm = tri._arr.tv, tri._arr.tn
    for t in cavity:
        i3 = 3 * t
        for k in range(3):
            if tnm[i3 + k] not in cavity:
                continue
            u = tvm[i3 + _NXT[k]]
            v = tvm[i3 + _PRV[k]]
            if u == GHOST or v == GHOST:
                continue
            if ((u, v) if u < v else (v, u)) in tri.constraints:
                return True
    return False


class RescanRefiner(Refiner):
    def __init__(self, tri, **kwargs) -> None:
        super().__init__(tri, **kwargs)
        # Triangles that could not be improved (their fix was denied by
        # lock_segments / min_edge_floor): excluded from rescans so the
        # fixed-point loop terminates.
        self._unfixable: set = set()
        self.rescan_found = 0

    def _count_steiner(self) -> None:
        tri = self.tri
        for t in tri.last_removed:
            self._unfixable.discard(t)
        for t in tri.last_created:
            self._unfixable.discard(t)
        super()._count_steiner()

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
                if self.tri._arr.triangle(t) is None:
                    continue
                if self._triangle_bad(t):
                    self._process_bad_triangle(t, work)
            # Re-scan to catch triangles invalidated out of the worklist.
            fresh = [t for t in self.tri.live_triangles()
                     if t not in self._unfixable and self._triangle_bad(t)]
            if not fresh:
                break
            idle_rescans += 1
            if idle_rescans > 10_000:
                raise RefinementError("refinement rescan did not converge")
            self.rescan_found += len(fresh)
            work.extend(fresh)

        sink = counters_current()
        if sink is not None:
            sink.absorb_kernel(self.tri)
            sink.incr("steiner_points", self.steiner_count)
            if self.locked_skips:
                sink.incr("locked_segment_skips", self.locked_skips)

    def _process_bad_triangle(self, t: int, work: deque) -> None:
        tri = self.tri
        try:
            cc = circumcenter(*(tri._arr.point(w) for w in tri._arr.triangle(t)))
        except ValueError:
            cc = (math.nan, math.nan)
        if not (math.isfinite(cc[0]) and math.isfinite(cc[1])):
            self._unfixable.add(t)
            return

        # Locate: a constrained edge between the triangle and its
        # circumcenter means cc is invisible -> split that edge instead.
        blocker, dest, certified = self._locate_visible(t, *cc)
        if blocker is not None:
            self._split_segments([blocker], t, work)
            return
        if tri.is_ghost(dest) or find_vertex_at(tri, cc, dest) is not None:
            # Outside the region without crossing a constraint (numeric
            # corner) or on top of an existing vertex — nothing safe to
            # insert.
            self._unfixable.add(t)
            return
        # Conflict region, carved once and inspected before it is
        # committed: cc must not encroach a segment of its boundary.
        cavity, seed, _, _ = carve(tri, cc[0], cc[1], dest, certified)
        encroached = encroached_boundary(tri, cavity, seed, *cc)
        if encroached:
            self._split_segments(encroached, t, work)
            return
        # Commit the same set.
        vid = tri._arr.new_point(cc[0], cc[1])
        tri.stat_inserts += 1
        retriangulate(tri, vid, cavity, seed, wrapped_edge(tri, cavity))
        self._count_steiner()
        self._requeue_created(work)

    def _split_segments(self, segments: Sequence[Tuple[int, int]], t: int,
                        work: deque) -> None:
        """Split, in the given order, every segment that may be split;
        bad triangle ``t`` is unfixable when none may."""
        allowed = [uv for uv in segments if self._split_allowed(*uv)]
        for u, v in allowed:
            self._split_segment(u, v)
            self._requeue_created(work)
        if not allowed:
            self._unfixable.add(t)


def fix_denied(refiner: Refiner, t: int) -> bool:
    """Would the refiner leave bad triangle ``t`` as it is?  Its exits,
    read-only: no finite circumcenter; the circumcenter behind, or
    encroaching, only segments that may not be split (locked, or at the
    ``min_edge_floor``); the circumcenter outside the region or on a
    vertex."""
    tri = refiner.tri
    try:
        cc = circumcenter(*(tri._arr.point(w) for w in tri._arr.triangle(t)))
    except ValueError:
        return True
    if not (math.isfinite(cc[0]) and math.isfinite(cc[1])):
        return True
    blocker, dest, certified = refiner._locate_visible(t, *cc)
    if blocker is not None:
        return not refiner._split_allowed(*blocker)
    if tri.is_ghost(dest) or find_vertex_at(tri, cc, dest) is not None:
        return True
    cavity, seed, _, _ = carve(tri, cc[0], cc[1], dest, certified)
    encroached = encroached_boundary(tri, cavity, seed, *cc)
    return bool(encroached) and not any(
        refiner._split_allowed(u, v) for u, v in encroached)


def assert_refinement_complete(refiner: Refiner) -> None:
    """The whole-mesh scan the driver itself never makes: once
    ``refine()`` has returned, every live real triangle is good or its
    fix is denied."""
    left = [t for t in refiner.tri.live_triangles()
            if refiner._triangle_bad(t) and not fix_denied(refiner, t)]
    assert not left, (
        f"{len(left)} bad triangles with an allowed fix left: {left[:5]}")
