"""Cavity-operation engine for the incremental Delaunay kernel.

This module owns the Bowyer–Watson *algorithms*, one of each kind, as
free functions over a :class:`~repro.delaunay.kernel.Triangulation`
(which owns only state) and its SoA
:class:`~repro.delaunay.arrays.MeshArrays` storage.  An insertion is
three public steps:

* **locate** — :func:`walk` finds the triangle holding the point;
* **conflict region** — :func:`carve` returns the cavity, its seed (the
  one statement of where a cavity starts) and the segments it met, and
  changes nothing, so a caller can inspect the region before deciding;
* **commit** — :func:`retriangulate` replaces the region by the star
  fan of a freshly stored vertex.

:func:`insert_point` is their composition and nothing else; a caller
with a question about the region — the refiner's "does this point
encroach a segment?" — calls the steps itself and commits or drops the
same set.  The filters are inlined and escalate inconclusive signs to
the exact predicates; the exact, unfiltered statement of what a cavity
is lives with the tests (``tests/delaunay/oracle.py``), which compare
:func:`carve` against it cavity for cavity.  :func:`legalize_edges` is
the one Lawson flip loop (segment recovery, and the guard behind a
pruned cavity).

:func:`insert_all` turns a bulk point set plus an insertion order into
kernel vertices, one :func:`insert_point` at a time: the kernel has one
insertion path (DESIGN.md, "One insertion path").
"""

from __future__ import annotations

import gc
import math
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .arrays import DEAD
from ..geometry.predicates import (
    INCIRCLE_ERR_BOUND,
    INCIRCLE_UNDERFLOW_GUARD,
    ORIENT_ERR_BOUND,
    ORIENT_UNDERFLOW_GUARD,
    incircle,
    orient2d,
)

__all__ = [
    "GHOST",
    "TriangulationError",
    "brio_order",
    "find_directed_edge",
    "walk",
    "locate_fallback",
    "carve",
    "insert_point",
    "insert_all",
    "retriangulate",
    "prune_cavity_visibility",
    "legalize_edges",
    "split_edge",
]

#: Symbolic hull vertex: ghost triangle ``[u, v, GHOST]`` is the open
#: half-plane strictly left of the directed hull edge ``u -> v`` plus
#: the open edge itself.
GHOST = -1

# Negative-index translation tables for flat triangle rows: with a list
# ``tv``, ``tv[k - 2] == tv[_NXT[k]]`` and ``tv[k - 1] == tv[_PRV[k]]``.
_NXT = (1, 2, 0)
_PRV = (2, 0, 1)

# Hot-loop local aliases for the filter bounds (module constants resolve
# faster than attribute lookups and keep the loops readable).
_CCW_ERR = ORIENT_ERR_BOUND
_ICC_ERR = INCIRCLE_ERR_BOUND
_CCW_GUARD = ORIENT_UNDERFLOW_GUARD
_ICC_GUARD = INCIRCLE_UNDERFLOW_GUARD

#: Cheap first-stage incircle certificate: with ``S = alift+blift+clift``
#: the Shewchuk permanent obeys ``permanent <= S*S/3`` (AM-GM on the six
#: products), so ``|det| > _ICC_CHEAP * S * S`` certifies the sign with
#: strictly more slack than the full filter — and needs no abs() chain.
_ICC_CHEAP = INCIRCLE_ERR_BOUND / 3.0
#: ``S*S`` must stay clear of underflow for the cheap bound to be sound.
_ICC_S_GUARD = 1e-125


class TriangulationError(RuntimeError):
    """Raised for structurally invalid kernel operations."""


# ----------------------------------------------------------------------
# Insertion order
# ----------------------------------------------------------------------
def brio_order(points: np.ndarray, seed: int = 0xC0FFEE) -> np.ndarray:
    """Biased randomised insertion order: random rounds of doubling size,
    each round x-sorted — keeps the walk from the previous insert short
    (expected O(1)) while keeping cavity sizes bounded in expectation.
    The shuffle is fully determined by ``seed``."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(points))
    chunks = []
    start, size = 0, 8
    while start < len(points):
        block = perm[start:start + size]
        # Snake order within the round: x-buckets, alternating y sweep —
        # consecutive inserts are spatial neighbours, so the walk from the
        # previous insertion is O(1) expected.
        m = len(block)
        nb = max(1, int(math.sqrt(m)))
        xs = points[block, 0]
        ranks = np.argsort(np.argsort(xs, kind="stable"), kind="stable")
        bucket = np.minimum(ranks * nb // max(m, 1), nb - 1)
        ys = points[block, 1]
        y_key = np.where(bucket % 2 == 0, ys, -ys)
        order = np.lexsort((y_key, bucket))
        chunks.append(block[order])
        start += size
        size *= 2
    return np.concatenate(chunks) if chunks else np.arange(0)


# ----------------------------------------------------------------------
# Point location
# ----------------------------------------------------------------------
def walk(tri, px: float, py: float, hint: int) -> Tuple[int, bool]:
    """Walk to a live triangle whose closed region contains ``(px, py)``.

    Starts at ``hint`` when that names a live slot, else at the last
    touched triangle — no index: BRIO-ordered and hinted traffic lands
    within a few steps of one of the two (DESIGN.md, "Why the scalar
    kernel has no walk index").  Outside the hull the result is the
    ghost whose closed half-plane holds the point.  A walk that exhausts
    its step cap (adversarial degeneracies only) ends in
    :func:`locate_fallback`.

    Returns ``(t, certified)``; ``certified`` means the point is
    *strictly* inside ``t`` (strictly inside a ghost's half-plane),
    which already puts it in ``t``'s open circumdisk.
    """
    arr = tri._arr
    tvm = arr.tv
    tnm = arr.tn
    pxm = arr.px
    t = (hint if 0 <= hint < arr.n_tris and tvm[3 * hint] != DEAD
         else -1)
    if t < 0:
        t = tri._last_tri
        if t < 0 or tvm[3 * t] == DEAD:
            t = next(iter(tri.live_triangles()))
    i3 = 3 * t
    if tvm[i3] < 0 or tvm[i3 + 1] < 0 or tvm[i3 + 2] < 0:
        # Ghost start: step across its real edge into the hull.
        g = (0 if tvm[i3] < 0 else (1 if tvm[i3 + 1] < 0 else 2))
        nb = tnm[i3 + g]
        if nb >= 0:
            t = nb
    max_steps = 4 * (tri.n_live_triangles + 8)
    steps = 0
    prev = -1
    # One pseudo-random starting-edge draw per walk, rotated each step
    # — enough stochasticity to break degenerate walk cycles (and the
    # exhaustive fallback guards the rest), without an LCG step per
    # triangle.
    lcg = (tri._lcg * 1103515245 + 12345) & 0x7FFFFFFF
    tri._lcg = lcg
    k0 = lcg % 3
    n_ofast = 0
    n_oexact = 0
    t0 = -1
    certified = False
    while steps < max_steps:
        steps += 1
        i3 = 3 * t
        a0 = tvm[i3]
        a1 = tvm[i3 + 1]
        a2 = tvm[i3 + 2]
        if a0 < 0 or a1 < 0 or a2 < 0:
            # Ghost: accept if p is in its closed half-plane, else
            # continue along the hull.
            g = 0 if a0 < 0 else (1 if a1 < 0 else 2)
            j = 2 * tvm[i3 + _NXT[g]]
            ux = pxm[j]
            uy = pxm[j + 1]
            j = 2 * tvm[i3 + _PRV[g]]
            vx = pxm[j]
            vy = pxm[j + 1]
            detleft = (ux - px) * (vy - py)
            detright = (uy - py) * (vx - px)
            det = detleft - detright
            detsum = abs(detleft) + abs(detright)
            if detsum > _CCW_GUARD:
                errbound = _CCW_ERR * detsum
                # Inlined orient2d filter: shares ORIENT_ERR_BOUND, exact
                # fallback below.
                if det > errbound:
                    n_ofast += 1
                    t0 = t
                    certified = True
                    break
                if -det > errbound:
                    n_ofast += 1
                    nxt = tnm[i3 + _NXT[g]]
                    if nxt == prev:
                        nxt = tnm[i3 + _PRV[g]]
                    prev = t
                    t = nxt
                    continue
            n_oexact += 1
            o = orient2d((ux, uy), (vx, vy), (px, py))
            if o > 0:
                t0 = t
                certified = True
                break
            if o == 0:
                tri.stat_orient_zero += 1
                t0 = t
                break
            nxt = tnm[i3 + _NXT[g]]
            if nxt == prev:
                nxt = tnm[i3 + _PRV[g]]
            prev = t
            t = nxt
            continue
        k0 += 1
        if k0 > 2:
            k0 = 0
        moved = False
        strict = True
        for dk in (0, 1, 2):
            k = k0 + dk
            if k > 2:
                k -= 3
            nb = tnm[i3 + k]
            if nb == prev:
                # Entered across this edge, so p is strictly on this
                # side of it — no need to re-test.
                continue
            j = 2 * tvm[i3 + _NXT[k]]
            ux = pxm[j]
            uy = pxm[j + 1]
            j = 2 * tvm[i3 + _PRV[k]]
            vx = pxm[j]
            vy = pxm[j + 1]
            detleft = (ux - px) * (vy - py)
            detright = (uy - py) * (vx - px)
            det = detleft - detright
            detsum = abs(detleft) + abs(detright)
            if detsum > _CCW_GUARD:
                errbound = _CCW_ERR * detsum
                # Inlined orient2d filter: shares ORIENT_ERR_BOUND, exact
                # fallback below.
                if det > errbound:
                    n_ofast += 1
                    continue
                if -det > errbound:
                    n_ofast += 1
                    prev = t
                    t = nb
                    moved = True
                    break
            n_oexact += 1
            o = orient2d((ux, uy), (vx, vy), (px, py))
            if o < 0:
                prev = t
                t = nb
                moved = True
                break
            if o == 0:
                tri.stat_orient_zero += 1
                strict = False
        if not moved:
            t0 = t
            certified = strict
            break
    tri.stat_orient_fast += n_ofast
    tri.stat_orient_exact += n_oexact
    tri.stat_locates += 1
    tri.stat_walk_steps += steps
    tri.stat_walk_hist[steps if steps < 31 else 31] += 1
    if t0 < 0:
        return locate_fallback(tri, px, py), False
    tri._last_tri = t0
    return t0, certified


def locate_fallback(tri, px: float, py: float) -> int:
    """Exhaustive exact containment scan (adversarial degeneracies)."""
    tri.stat_brute_locates += 1
    p = (px, py)
    arr = tri._arr
    for t in tri.live_triangles():
        if tri.is_ghost(t):
            continue
        tv = arr.triangle(t)
        if all(
            orient2d(arr.point(tv[k - 2]), arr.point(tv[k - 1]), p) >= 0
            for k in range(3)
        ):
            tri._last_tri = t
            return t
    for t in tri.live_triangles():
        if tri.is_ghost(t) and tri._in_disk(t, px, py):
            tri._last_tri = t
            return t
    raise TriangulationError(f"point {p} could not be located")


def find_directed_edge(tri, u: int, v: int) -> Optional[Tuple[int, int]]:
    """Locate ``(triangle, edge-index)`` holding the directed edge
    ``(u, v)``, or ``None`` when the edge is not present.

    Shared by segment recovery (:mod:`repro.delaunay.constrained`) and
    refinement.
    """
    tv = tri._arr.tv
    for t in tri.triangles_around_vertex(u):
        i = 3 * t
        for k in range(3):
            if tv[i + _NXT[k]] == u and tv[i + _PRV[k]] == v:
                return t, k
    return None


# ----------------------------------------------------------------------
# Cavity carving
# ----------------------------------------------------------------------
def carve(tri, px: float, py: float, t0: int, certified: bool = False
          ) -> Tuple[Set[int], int, List[Tuple[int, int]], bool]:
    """Bowyer–Watson conflict region of ``(px, py)``, located in ``t0``
    by :func:`walk`.  Returns ``(cavity, seed, segments, wrapped)`` and
    touches nothing: the caller may inspect the region and then commit
    it (:func:`retriangulate`) or drop it.

    Where a cavity starts: at ``t0`` when the point lies in its open
    circumdisk (``certified`` — strictly inside ``t0`` — already says
    so), else the point is on the boundary of ``t0`` and ``seed`` is the
    first edge-neighbour whose disk holds it.  The cavity is the
    connected component, reached from ``seed`` without crossing a
    constrained edge, of triangles whose open circumdisk contains the
    point.  Level-order search, one scalar filtered test per candidate:
    cavities are O(1) triangles (mean 4.6–4.9 on the mesh workloads),
    so there is nothing to batch.  The order candidates are staged in
    fixes the set's iteration order, hence the fan's slot numbering and
    the pinned mesh bytes.

    The search asks every edge of a cavity triangle whether it is a
    segment, and reports it: ``segments`` lists each as the directed
    edge ``(u, v)`` of its cavity triangle, and ``wrapped`` says one has
    cavity triangles on both sides (the region went round its end).
    """
    arr = tri._arr
    tvm = arr.tv
    tnm = arr.tn
    pxm = arr.px
    if not certified and not tri._in_disk(t0, px, py):
        for k in (0, 1, 2):
            nb = tnm[3 * t0 + k]
            if nb >= 0 and tri._in_disk(nb, px, py):
                t0 = nb
                break
        else:
            raise TriangulationError(
                f"insertion point {(px, py)} in no circumdisk (duplicate?)"
            )
    constraints = tri.constraints
    segments: List[Tuple[int, int]] = []
    wrapped = False
    cavity: Set[int] = {t0}
    # seen = cavity plus rejected candidates, so a rejected triangle
    # bordering two cavity triangles is tested once, not twice.
    seen: Set[int] = {t0}
    frontier = [t0]
    n_ifast = 0
    n_iexact = 0
    while frontier:
        cand: List[int] = []
        if constraints:
            for t in frontier:
                i3 = 3 * t
                nb = tnm[i3]
                u, v = tvm[i3 + 1], tvm[i3 + 2]
                if (u >= 0 and v >= 0
                        and ((u, v) if u < v else (v, u)) in constraints):
                    segments.append((u, v))
                    wrapped = wrapped or nb in cavity
                elif nb >= 0 and nb not in seen:
                    cand.append(nb)
                nb = tnm[i3 + 1]
                u, v = tvm[i3 + 2], tvm[i3]
                if (u >= 0 and v >= 0
                        and ((u, v) if u < v else (v, u)) in constraints):
                    segments.append((u, v))
                    wrapped = wrapped or nb in cavity
                elif nb >= 0 and nb not in seen:
                    cand.append(nb)
                nb = tnm[i3 + 2]
                u, v = tvm[i3], tvm[i3 + 1]
                if (u >= 0 and v >= 0
                        and ((u, v) if u < v else (v, u)) in constraints):
                    segments.append((u, v))
                    wrapped = wrapped or nb in cavity
                elif nb >= 0 and nb not in seen:
                    cand.append(nb)
        else:
            for t in frontier:
                i3 = 3 * t
                nb = tnm[i3]
                if nb >= 0 and nb not in seen:
                    cand.append(nb)
                nb = tnm[i3 + 1]
                if nb >= 0 and nb not in seen:
                    cand.append(nb)
                nb = tnm[i3 + 2]
                if nb >= 0 and nb not in seen:
                    cand.append(nb)
        frontier = []
        for nb in cand:
            if nb in seen:
                continue  # reached via a sibling this level
            seen.add(nb)
            j3 = 3 * nb
            a = tvm[j3]
            b = tvm[j3 + 1]
            c = tvm[j3 + 2]
            if a < 0 or b < 0 or c < 0:
                if tri._in_disk(nb, px, py):
                    cavity.add(nb)
                    frontier.append(nb)
                continue
            j = 2 * a
            pax = pxm[j]
            pay = pxm[j + 1]
            j = 2 * b
            pbx = pxm[j]
            pby = pxm[j + 1]
            j = 2 * c
            pcx = pxm[j]
            pcy = pxm[j + 1]
            adx = pax - px
            ady = pay - py
            bdx = pbx - px
            bdy = pby - py
            cdx = pcx - px
            cdy = pcy - py
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
                    n_ifast += 1
                    cavity.add(nb)
                    frontier.append(nb)
                    continue
                if -det > cheap:
                    n_ifast += 1
                    continue
            # Cheap certificate inconclusive: full Shewchuk filter.
            permanent = ((abs(bdxcdy) + abs(cdxbdy)) * alift
                         + (abs(cdxady) + abs(adxcdy)) * blift
                         + (abs(adxbdy) + abs(bdxady)) * clift)
            if permanent > _ICC_GUARD:
                errbound = _ICC_ERR * permanent
                # Inlined incircle Shewchuk filter: exact escalation below.
                if det > errbound:
                    n_ifast += 1
                    cavity.add(nb)
                    frontier.append(nb)
                    continue
                if -det > errbound:
                    n_ifast += 1
                    continue
            n_iexact += 1
            side = incircle((pax, pay), (pbx, pby), (pcx, pcy), (px, py))
            if side == 0:
                tri.stat_incircle_zero += 1
            if side > 0:
                cavity.add(nb)
                frontier.append(nb)
    tri.stat_incircle_fast += n_ifast
    tri.stat_incircle_exact += n_iexact
    return cavity, t0, segments, wrapped


# ----------------------------------------------------------------------
# Insertion: walk -> duplicate check -> carve -> retriangulate
# ----------------------------------------------------------------------
def insert_point(tri, px: float, py: float, hint: int) -> int:
    """Insert ``(px, py)`` into a triangulation that already has a
    triangle: the composition of the three steps, and nothing else.
    Returns the new vertex id, or ``-2 - v`` when the point duplicates
    existing vertex ``v`` (the mesh is then untouched).
    """
    t0, certified = walk(tri, px, py, hint)
    arr = tri._arr
    tvm = arr.tv
    pxm = arr.px
    # A duplicate can only be a vertex of the containing triangle.
    i3 = 3 * t0
    for vtx in (tvm[i3], tvm[i3 + 1], tvm[i3 + 2]):
        if vtx >= 0:
            j = 2 * vtx
            if pxm[j] == px and pxm[j + 1] == py:
                tri.last_created = []
                tri.last_removed = []
                return -2 - vtx
    cavity, seed, _, wrapped = carve(tri, px, py, t0, certified)
    vid = arr.new_point(px, py)
    tri.stat_inserts += 1
    retriangulate(tri, vid, cavity, seed, wrapped)
    return vid


# ----------------------------------------------------------------------
# Retriangulation
# ----------------------------------------------------------------------
def retriangulate(tri, vid: int, cavity: Set[int], t0: int,
                  wrapped: bool) -> None:
    """Replace ``cavity`` by the star fan of ``vid``.

    The fan of a :func:`carve` cavity is constrained Delaunay as it
    stands, clipped by constraints or not: each boundary edge is a
    segment, a hull edge, or shared with a triangle that failed the
    in-disk test — and the incircle determinant is symmetric in the two
    apexes, so that edge is locally Delaunay.  No repair pass follows;
    only a cavity that ``carve`` reported ``wrapped`` round a segment's
    end — keeping it whole would delete the segment — is pruned back to
    what ``vid`` sees (``stat_visibility_prunes``) and legalised.
    """
    arr = tri._arr
    n_cavity = len(cavity)
    tvm = arr.tv
    tnm = arr.tn
    vtm = arr.vt
    tri.stat_cavity_triangles += n_cavity
    tri.stat_cavity_hist[n_cavity if n_cavity < 31 else 31] += 1
    if wrapped:
        tri.stat_visibility_prunes += 1
        cavity = prune_cavity_visibility(tri, cavity, t0, arr.point(vid))
        n_cavity = len(cavity)

    # Walk the cavity boundary in ring order, creating the fan as we
    # go: fan triangle [u, v, vid] has edge 0 = (v, vid) bordering
    # the NEXT fan triangle and edge 1 = (vid, u) bordering the
    # PREVIOUS one, so creating in ring order links the fan without
    # any vertex maps or second pass.  New slots come from the free
    # list (cavity slots are freed only afterwards, so ids never
    # collide with live ones), else are appended to the lists in place.
    free = arr.free
    new_tris: List[int] = []
    # Any cavity edge whose neighbour survives starts the ring.
    t = k = -1
    for t in cavity:
        i3 = 3 * t
        if tnm[i3] not in cavity:
            k = 0
            break
        if tnm[i3 + 1] not in cavity:
            k = 1
            break
        if tnm[i3 + 2] not in cavity:
            k = 2
            break
    if k < 0:
        raise TriangulationError("cavity has no boundary")
    start_t = t
    start_k = k
    first_nt = -1
    prev_nt = -1
    while True:
        i3 = 3 * t
        u = tvm[i3 + _NXT[k]]
        v = tvm[i3 + _PRV[k]]
        nb = tnm[i3 + k]
        nt = free.pop() if free else arr.new_triangle_slot()
        j3 = 3 * nt
        tvm[j3] = u
        tvm[j3 + 1] = v
        tvm[j3 + 2] = vid
        tnm[j3] = -1
        tnm[j3 + 1] = prev_nt
        tnm[j3 + 2] = nb
        if nb >= 0:
            # Directed edge (v, u) of nb: v appears exactly once there.
            m3 = 3 * nb
            tnm[m3 + (0 if tvm[m3 + 1] == v
                      else (1 if tvm[m3 + 2] == v else 2))] = nt
        if u >= 0:
            vtm[u] = nt
        if prev_nt >= 0:
            tnm[3 * prev_nt] = nt
        else:
            first_nt = nt
        prev_nt = nt
        new_tris.append(nt)
        # Advance to the boundary edge starting at v: pivot around v
        # through cavity triangles until an edge leaves the cavity.
        j = k + 1
        if j > 2:
            j = 0
        while True:
            nb2 = tnm[3 * t + j]
            if nb2 not in cavity:
                break
            t = nb2
            m3 = 3 * t
            # Edge (v, .) of t, i.e. the index j with tv[j - 2] == v.
            j = (0 if tvm[m3] == v else (1 if tvm[m3 + 1] == v else 2)) - 1
            if j < 0:
                j = 2
        k = j
        if t == start_t and k == start_k:
            break
    tnm[3 * prev_nt] = first_nt
    tnm[3 * first_nt + 1] = prev_nt

    tri.last_removed = list(cavity)
    for t in cavity:
        tvm[3 * t] = DEAD
    free.extend(cavity)
    tri.n_live_triangles += len(new_tris) - n_cavity
    tri._last_tri = first_nt
    tri.last_created = new_tris
    # Pick a real incident triangle as the vertex hint when available.
    vtm[vid] = new_tris[0]
    for t in new_tris:
        i3 = 3 * t
        if tvm[i3] >= 0 and tvm[i3 + 1] >= 0 and tvm[i3 + 2] >= 0:
            vtm[vid] = t
            break
    if wrapped:
        # The pruned cavity is no longer the whole conflict region, so
        # its fan need not be locally Delaunay: legalise from the edges
        # opposite the new vertex (Lawson flips, never crossing
        # constraints).  Flips reuse the two triangle slots, so
        # last_created stays valid.
        legalize_edges(tri, [(tvm[3 * t], tvm[3 * t + 1]) for t in new_tris
                             if tvm[3 * t] >= 0 and tvm[3 * t + 1] >= 0])


def prune_cavity_visibility(tri, cavity: Set[int], t0: int,
                            p: Tuple[float, float]) -> Set[int]:
    """Drop cavity triangles whose centroid p cannot see.

    Visibility is tested against the constrained edges incident to
    cavity triangles (a blocking constraint must appear there); the
    surviving set is re-restricted to the connected component of
    ``t0`` so the retriangulated fan stays star-shaped about ``p``.
    """
    from ..geometry.primitives import segments_intersect

    arr = tri._arr
    constr: Set[Tuple[int, int]] = set()
    for t in cavity:
        tv = arr.triangle(t)
        for k in range(3):
            u, v = tv[k - 2], tv[k - 1]
            if u == GHOST or v == GHOST:
                continue
            key = (u, v) if u < v else (v, u)
            if key in tri.constraints:
                constr.add(key)
    if not constr:
        return cavity

    def visible(t: int) -> bool:
        tv = arr.triangle(t)
        if GHOST in tv:
            reals = [arr.point(w) for w in tv if w != GHOST]
            cx = sum(q[0] for q in reals) / len(reals)
            cy = sum(q[1] for q in reals) / len(reals)
        else:
            cx = sum(arr.point(w)[0] for w in tv) / 3.0
            cy = sum(arr.point(w)[1] for w in tv) / 3.0
        for (u, v) in constr:
            if segments_intersect(p, (cx, cy), arr.point(u),
                                  arr.point(v), proper_only=True):
                return False
        return True

    kept = {t for t in cavity if t == t0 or visible(t)}
    # Connected component of t0 within the kept set, still never
    # crossing constrained edges.
    comp = {t0}
    stack = [t0]
    while stack:
        t = stack.pop()
        for k in range(3):
            nb = arr.tn[3 * t + k]
            if nb not in kept or nb in comp:
                continue
            u, v = tri._edge(t, k)
            if u != GHOST and v != GHOST:
                key = (u, v) if u < v else (v, u)
                if key in tri.constraints:
                    continue
            comp.add(nb)
            stack.append(nb)
    return comp


def legalize_edges(tri, edges: Sequence[Tuple[int, int]]) -> List[int]:
    """Lawson legalisation: flip non-constrained, non-locally-Delaunay
    edges, re-queueing the four edges of every flipped quad.  The one
    flip loop (segment recovery, pruned cavities, :func:`split_edge`).
    Returns the slots the flips rewrote, two per flip, in flip order."""
    arr = tri._arr
    queue: deque = deque(edges)
    flipped: List[int] = []
    ops = 0
    while queue:
        ops += 1
        if ops > 1_000_000:
            raise TriangulationError("legalisation did not terminate")
        u, v = queue.popleft()
        key = (u, v) if u < v else (v, u)
        if key in tri.constraints:
            continue
        loc = find_directed_edge(tri, u, v)
        if loc is None:
            continue
        t1, k1 = loc
        t2 = arr.tn[3 * t1 + k1]
        if t2 < 0 or tri.is_ghost(t1) or tri.is_ghost(t2):
            continue
        k2 = tri._edge_index(t2, v, u)
        tv = arr.triangle(t1)
        apex1 = tv[k1]
        apex2 = arr.tv[3 * t2 + k2]
        if incircle(arr.point(tv[0]), arr.point(tv[1]), arr.point(tv[2]),
                    arr.point(apex2)) > 0:
            if tri.edge_is_flippable(t1, k1):
                flipped += tri.flip(t1, k1)
                for e in ((apex1, u), (u, apex2), (apex2, v), (v, apex1)):
                    queue.append(e)
    return flipped


def split_edge(tri, u: int, v: int, x: float, y: float) -> int:
    """Split edge ``(u, v)`` at ``(x, y)`` on it; returns the new vertex.

    Each triangle across the edge, real or ghost, becomes two, a
    constrained edge its two halves, and :func:`legalize_edges` flips
    the real sides: a segment split never carves, so no cavity meets a
    ghost.  ``last_created`` is the four halves, then the flipped slots.
    :class:`TriangulationError`, before anything changes, when ``(u, v)``
    is no edge, has nothing across it (no ghost layer), or a real half
    would not turn strictly counter-clockwise.
    """
    arr = tri._arr
    tvm, tnm, vtm = arr.tv, arr.tn, arr.vt
    loc = find_directed_edge(tri, u, v)
    if loc is None:
        raise TriangulationError(f"({u},{v}) is not an edge")
    t1, k1 = loc
    i1 = 3 * t1
    t2 = tnm[i1 + k1]
    if t2 < 0:
        raise TriangulationError(f"({u},{v}) has nothing across it")
    i2 = 3 * t2
    k2 = 0 if tnm[i2] == t1 else (1 if tnm[i2 + 1] == t1 else 2)
    a, b = tvm[i1 + k1], tvm[i2 + k2]        # t1 = (u, v, a), t2 = (v, u, b)
    p = (x, y)
    pu, pv = arr.point(u), arr.point(v)
    for w, first, second in ((a, pu, pv), (b, pv, pu)):
        if w != GHOST:
            pw = arr.point(w)
            if orient2d(first, p, pw) <= 0 or orient2d(p, second, pw) <= 0:
                raise TriangulationError(
                    f"split of edge ({u},{v}) at {p}: a half with apex {w} "
                    "would not turn strictly counter-clockwise")
    # Outer neighbours across (v, a), (a, u) of t1 and (u, b), (b, v) of t2.
    n_va, n_au = tnm[i1 + _NXT[k1]], tnm[i1 + _PRV[k1]]
    n_ub, n_bv = tnm[i2 + _NXT[k2]], tnm[i2 + _PRV[k2]]
    m = arr.new_point(x, y)
    s1, s2 = arr.new_triangle_slot(), arr.new_triangle_slot()
    # t1 = (u, m, a), s1 = (m, v, a), t2 = (v, m, b), s2 = (m, u, b).
    tvm[i1:i1 + 3], tnm[i1:i1 + 3] = (u, m, a), (s1, n_au, s2)
    tvm[3 * s1:3 * s1 + 3], tnm[3 * s1:3 * s1 + 3] = (m, v, a), (n_va, t1, t2)
    tvm[i2:i2 + 3], tnm[i2:i2 + 3] = (v, m, b), (s2, n_bv, s1)
    tvm[3 * s2:3 * s2 + 3], tnm[3 * s2:3 * s2 + 3] = (m, u, b), (n_ub, t2, t1)
    tnm[3 * n_va + tri._edge_index(n_va, a, v)] = s1
    tnm[3 * n_ub + tri._edge_index(n_ub, b, u)] = s2
    vtm[u], vtm[v] = t1, t2
    vtm[m] = t1 if a != GHOST else t2
    tri.n_live_triangles += 2
    tri.stat_inserts += 1
    key = (u, v) if u < v else (v, u)
    if key in tri.constraints:
        tri.constraints.discard(key)
        tri.mark_constraint(u, m)
        tri.mark_constraint(m, v)
    created = [t1, s1, t2, s2]
    created += legalize_edges(tri, [e for e in ((a, u), (v, a), (b, v),
                                                (u, b)) if GHOST not in e])
    tri.last_created = list(dict.fromkeys(created))
    tri.last_removed = []
    return m


# ----------------------------------------------------------------------
# Bulk insertion
# ----------------------------------------------------------------------
def insert_all(tri, points: np.ndarray, order: Sequence[int]
               ) -> Dict[int, int]:
    """Insert ``points[order]`` one at a time through :func:`insert_point`
    and return the ``input index -> kernel vertex id`` map; a duplicate
    maps to the existing vertex.  The coordinates must be finite (the
    caller checks)."""
    coords = points.tolist()
    inserted: Dict[int, int] = {}
    # The loop allocates ~a dozen small objects per insertion and keeps
    # them all reachable; generational GC scans buy nothing here, so
    # pause collection for the loop.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        it = iter(order)
        # Until the first triangle exists the kernel's wrapper buffers
        # collinear prefixes.
        for i in it:
            i = int(i)
            x, y = coords[i]
            inserted[i] = tri.insert_point(x, y)
            if tri.n_live_triangles:
                break
        for i in it:
            i = int(i)
            x, y = coords[i]
            r = insert_point(tri, x, y, -1)
            inserted[i] = r if r >= 0 else -2 - r
    finally:
        if gc_was_enabled:
            gc.enable()
    return inserted
