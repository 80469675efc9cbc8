"""Cavity-operation engine for the incremental Delaunay kernel.

This module owns the Bowyer–Watson *algorithms*, one of each kind, as
free functions over a :class:`~repro.delaunay.kernel.Triangulation`
(which owns only state) and its SoA
:class:`~repro.delaunay.arrays.MeshArrays` storage.  An insertion is
three public steps:

* **locate** — :func:`walk` finds the triangle holding the point;
* **conflict region** — :func:`carve` returns the cavity and its seed
  (the one statement of where a cavity starts) and changes nothing, so
  a caller can inspect the region before deciding;
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

On top of the operations sit two **insertion strategies**, looked up
by name with :func:`get_strategy`: a strategy turns a bulk point set
plus an insertion order into kernel vertices.

* ``scalar`` — one point at a time through :func:`insert_point`
  (:func:`walk` → duplicate check → :func:`carve` →
  :func:`retriangulate`); the default.
* ``batch`` — independent-set insertion: BRIO rounds are binned through
  the planner's own :class:`~repro.spatial.grid.BucketGrid` snapshot of
  the vertices (:func:`_partition_grid`; one candidate per bucket per
  sub-batch, the CPAFT consistent-partitioning trick), every candidate
  walks to its containing triangle with one vectorised
  :func:`~repro.geometry.predicates.orient2d_batch3` call per step,
  cavities are carved level-by-level with
  :func:`~repro.geometry.predicates.incircle_batch`, and a greedy scan
  keeps only candidates whose cavity closed edge-neighbourhoods are
  pairwise non-overlapping (Spielman, Teng & Üngör: conflict-free
  insertion sets of bounded depth exist).  Neighbourhood-separated
  cavities commute — inserting one point never grows another accepted
  point's conflict set — so replaying the precomputed cavities
  sequentially through :func:`retriangulate` produces exactly the
  Delaunay triangulation the scalar path builds, up to vertex
  numbering.  Conflicting candidates retry in the next sub-batch and
  fall back to the scalar path after :data:`_MAX_RETRIES` rounds, as do
  walks that leave the hull, hit an exactly-degenerate orientation, or
  exceed the step cap — the batch path never *decides* a degeneracy,
  it defers it.

Strategy selection: an explicit name, else :data:`DEFAULT_STRATEGY`.
The environment is never consulted, so the triangulation is a function
of the arguments alone.
"""

from __future__ import annotations

import gc
import math
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .arrays import DEAD
from ..geometry.aabb import AABB
from ..geometry.predicates import (
    INCIRCLE_ERR_BOUND,
    INCIRCLE_UNDERFLOW_GUARD,
    ORIENT_ERR_BOUND,
    ORIENT_UNDERFLOW_GUARD,
    batch_exact_counts,
    incircle,
    incircle_batch,
    orient2d,
    orient2d_batch3,
)
from ..runtime.counters import current as counters_current
from ..spatial.grid import BucketGrid

__all__ = [
    "GHOST",
    "TriangulationError",
    "DEFAULT_STRATEGY",
    "InsertionStrategy",
    "ScalarInsertion",
    "BatchInsertion",
    "get_strategy",
    "available_strategies",
    "brio_order",
    "find_directed_edge",
    "walk",
    "locate_fallback",
    "carve",
    "insert_point",
    "retriangulate",
    "prune_cavity_visibility",
    "legalize_edges",
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

#: The strategy :func:`get_strategy` returns for ``None``.
DEFAULT_STRATEGY = "scalar"

#: Scalar insertions before the batch strategy starts batching: the
#: initial structure must exist and the grid partition must be coarser
#: than the cavity diameter for independent sets to be worth finding.
#: 120 is a BRIO round boundary, so batch windows align with rounds.
_BATCH_BOOTSTRAP = 120
#: Sub-batches smaller than this go through the scalar path — the numpy
#: call overhead would exceed the interpreter savings.
_BATCH_MIN_GROUP = 8
#: Vectorised-walk step cap; a walker still travelling defers to the
#: scalar path (its exhaustive-fallback guarantees still apply).
_WALK_STEP_CAP = 64
#: Conflicted candidates retry this many sub-batches, then go scalar.
#: Retries are cheap (they restart beside their winner's fresh fan via
#: the hint machinery), so patience beats the scalar fallback.
_MAX_RETRIES = 8
#: Window cap: one batch window never stages more points than this.
_WINDOW_CAP = 8192
#: Independence partition coarsening: one candidate per _COARSEN x
#: _COARSEN block of grid buckets.  The partition grid averages ~2-4
#: points per bucket, so adjacent-bucket candidates' cavities touch and
#: conflict; a 2x2 block balances the acceptance rate against sub-batch
#: size (coarser blocks shrink the batches until per-level numpy
#: overhead dominates, finer ones drown the planner in retries).
_COARSEN = 2


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
                if det > errbound:  # lint: disable=R1 -- inlined orient2d filter; shares ORIENT_ERR_BOUND, exact fallback below
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
                if det > errbound:  # lint: disable=R1 -- inlined orient2d filter; shares ORIENT_ERR_BOUND, exact fallback below
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
          ) -> Tuple[Set[int], int]:
    """Bowyer–Watson conflict region of ``(px, py)``, located in ``t0``
    by :func:`walk`.  Returns ``(cavity, seed)`` and touches nothing: the
    caller may inspect the region and then commit it
    (:func:`retriangulate`) or drop it.

    Where a cavity starts: at ``t0`` when the point lies in its open
    circumdisk (``certified`` — strictly inside ``t0`` — already says
    so), else the point is on the boundary of ``t0`` and ``seed`` is the
    first edge-neighbour whose disk holds it.  The cavity is the
    connected component, reached from ``seed`` without crossing a
    constrained edge, of triangles whose open circumdisk contains the
    point.  Level-order search, one scalar filtered test per candidate:
    cavities are O(1) triangles (mean 4.0–4.2 on every mesh workload),
    so there is nothing to batch.  The order candidates are staged in
    fixes the set's iteration order, hence the fan's slot numbering and
    the pinned mesh bytes.
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
                if nb >= 0 and nb not in seen:
                    u = tvm[i3 + 1]
                    v = tvm[i3 + 2]
                    if not (u >= 0 and v >= 0 and
                            ((u, v) if u < v else (v, u)) in constraints):
                        cand.append(nb)
                nb = tnm[i3 + 1]
                if nb >= 0 and nb not in seen:
                    u = tvm[i3 + 2]
                    v = tvm[i3]
                    if not (u >= 0 and v >= 0 and
                            ((u, v) if u < v else (v, u)) in constraints):
                        cand.append(nb)
                nb = tnm[i3 + 2]
                if nb >= 0 and nb not in seen:
                    u = tvm[i3]
                    v = tvm[i3 + 1]
                    if not (u >= 0 and v >= 0 and
                            ((u, v) if u < v else (v, u)) in constraints):
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
                if det > cheap:  # lint: disable=R1 -- inlined incircle cheap certificate; full filter + exact below
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
                if det > errbound:  # lint: disable=R1 -- inlined incircle Shewchuk filter; exact escalation below
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
    return cavity, t0


# ----------------------------------------------------------------------
# Scalar insertion: walk -> duplicate check -> carve -> retriangulate
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
    cavity, seed = carve(tri, px, py, t0, certified)
    vid = arr.new_point(px, py)
    tri.stat_inserts += 1
    retriangulate(tri, vid, cavity, seed)
    return vid


# ----------------------------------------------------------------------
# Retriangulation
# ----------------------------------------------------------------------
def retriangulate(tri, vid: int, cavity: Set[int], t0: int) -> None:
    """Replace ``cavity`` by the star fan of ``vid``.

    The fan of a :func:`carve` cavity is constrained Delaunay as it
    stands, clipped by constraints or not: each boundary edge is a
    segment, a hull edge, or shared with a triangle that failed the
    in-disk test — and the incircle determinant is symmetric in the two
    apexes, so that edge is locally Delaunay.  No repair pass follows;
    only a cavity that wrapped round a segment's end and was pruned
    back (``stat_visibility_prunes``) is legalised.
    """
    arr = tri._arr
    n_cavity = len(cavity)
    tvm = arr.tv
    tnm = arr.tn
    vtm = arr.vt
    tri.stat_cavity_triangles += n_cavity
    tri.stat_cavity_hist[n_cavity if n_cavity < 31 else 31] += 1

    # Constrained-Delaunay visibility pruning: with spiky constrained
    # boundaries the circumdisk BFS can wrap AROUND a constrained edge
    # (reaching both of its sides without ever crossing it).  Keeping
    # such triangles would delete the constraint during
    # retriangulation.  Detect the configuration and prune cavity
    # triangles whose centroid is not visible from p.
    wrapped_edge = False
    if tri.constraints:
        p = arr.point(vid)
        for t in cavity:
            i3 = 3 * t
            for k in range(3):
                nb = tnm[i3 + k]
                if nb not in cavity:
                    continue
                u = tvm[i3 + _NXT[k]]
                v = tvm[i3 + _PRV[k]]
                if u == GHOST or v == GHOST:
                    continue
                key = (u, v) if u < v else (v, u)
                if key in tri.constraints:
                    wrapped_edge = True
                    break
            if wrapped_edge:
                break
        if wrapped_edge:
            tri.stat_visibility_prunes += 1
            cavity = prune_cavity_visibility(tri, cavity, t0, p)
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
    if wrapped_edge:
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


def legalize_edges(tri, edges: Sequence[Tuple[int, int]]) -> None:
    """Lawson legalisation: flip non-constrained, non-locally-Delaunay
    edges, re-queueing the four edges of every flipped quad.  The one
    flip loop: segment recovery runs it over the edges its flips
    created, :func:`retriangulate` over the fan of a pruned cavity."""
    arr = tri._arr
    queue: deque = deque(edges)
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
                tri.flip(t1, k1)
                for e in ((apex1, u), (u, apex2), (apex2, v), (v, apex1)):
                    queue.append(e)


# ----------------------------------------------------------------------
# Insertion strategies
# ----------------------------------------------------------------------
class InsertionStrategy:
    """A bulk point-insertion policy over a :class:`Triangulation`.

    Concrete strategies implement :meth:`insert_points`; they receive
    the kernel, the raw ``(n, 2)`` coordinate array and the insertion
    order (input indices) and return the ``input index -> kernel
    vertex id`` map.  Duplicate inputs map to the existing vertex.
    """

    name: str = "abstract"
    description: str = ""

    def insert_points(self, tri, points: np.ndarray,
                      order: Sequence[int]) -> Dict[int, int]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Scalar strategy (behaviour-preserving default)
# ----------------------------------------------------------------------
class ScalarInsertion(InsertionStrategy):
    """One-point-at-a-time insertion through :func:`insert_point`."""

    name = "scalar"
    description = "sequential walk-and-carve insertion (default)"

    def insert_points(self, tri, points: np.ndarray,
                      order: Sequence[int]) -> Dict[int, int]:
        coords = (points.tolist() if isinstance(points, np.ndarray)
                  else [list(q) for q in points])
        inserted: Dict[int, int] = {}
        # The bulk loop allocates ~a dozen small objects per insertion
        # and keeps them all reachable; generational GC scans buy
        # nothing here, so pause collection for the loop.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            it = iter(order)
            # Until the first triangle exists the kernel's wrapper
            # buffers collinear prefixes.
            for i in it:
                i = int(i)
                x, y = coords[i]
                inserted[i] = tri.insert_point(x, y)
                if tri.n_live_triangles:
                    break
            for i in it:
                i = int(i)
                x, y = coords[i]
                # Coordinates were validated by the caller, so skip the
                # per-point wrapper (duplicates map to the existing
                # vertex).
                r = insert_point(tri, x, y, -1)
                inserted[i] = r if r >= 0 else -2 - r
        finally:
            if gc_was_enabled:
                gc.enable()
        return inserted


# ----------------------------------------------------------------------
# Batch strategy (independent-set insertion)
# ----------------------------------------------------------------------
def _scalar_insert_one(tri, x: float, y: float, hint: int = -1) -> int:
    """:func:`insert_point` with duplicates mapped to the existing
    vertex; returns the kernel vertex id.

    ``hint`` is a walk-start triangle (the batch walk's last position
    for this point) — it spares the insert the walk from the last
    touched triangle that a cold start pays, and :func:`walk`
    revalidates it, so a hint killed by an interleaved commit is merely
    ignored.  The batch path hands NumPy scalars in: they are coerced
    here, before anything reaches the kernel's lists."""
    r = insert_point(tri, float(x), float(y), int(hint))
    return r if r >= 0 else -2 - r


#: ``(tri_v, tri_n, pts)`` snapshots of a triangulation's store.
_Snapshot = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _plan_snapshot(tri) -> _Snapshot:
    """``(tri_v, tri_n, pts)`` snapshots of ``tri``'s store: one set
    serves a sub-batch's whole read-only plan (seed, walk, carve), which
    commits nothing until it is done."""
    arr = tri._arr
    return arr.tri_v(), arr.tri_n(), arr.pts()


def walk_batch(tri, snap: _Snapshot, seeds: np.ndarray, qxy: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised visibility walk for a batch of query points over the
    :func:`_plan_snapshot` ``snap``.

    One :func:`orient2d_batch3` call per step evaluates all three edge
    orientations of every still-walking record with exact escalation,
    so each step's routing decisions are exact.  Records are *located*
    when every sign is strictly positive (strictly inside a real
    triangle — which also certifies cavity membership of the containing
    triangle).  Records defer to the scalar path when they reach a
    ghost row (outside the hull), meet an exactly-zero orientation
    (on an edge or vertex: duplicate/boundary handling stays scalar),
    or survive past the straggler cutoff — once the active set shrinks
    to a sliver of the batch, each further level is numpy fixed cost
    for a handful of rows, so the tail finishes scalar instead.

    Returns ``(t0, located)`` arrays aligned with the batch.  For
    located records ``t0`` is the containing triangle; for deferred
    ones it is the record's last walk position — a warm start for the
    scalar fallback either way.
    """
    m = len(seeds)
    t0_out = np.asarray(seeds, dtype=np.int64).copy()
    located = np.zeros(m, dtype=bool)
    cutoff = max(4, m >> 5)
    act = np.arange(m, dtype=np.int64)
    cur = np.asarray(seeds, dtype=np.int64).copy()
    # Per-record deterministic LCG streams derived from the kernel LCG
    # (one global draw per batch, Knuth-hashed per record): the walk
    # stays reproducible for identical inputs and seeds.
    tri._lcg = (tri._lcg * 1103515245 + 12345) & 0x7FFFFFFF
    lcg = (tri._lcg + 2654435761 * (act + 1)) & 0x7FFFFFFF
    steps_total = 0
    n_steps = np.zeros(m, dtype=np.int64)
    col = np.arange(3, dtype=np.int64)
    tv_rows, tn_rows, coords_all = snap
    exact_before = batch_exact_counts()["orient2d"]
    entries = 0
    for _ in range(_WALK_STEP_CAP):
        if act.size == 0:
            break
        if act.size < cutoff:
            # Straggler tail: remember where each survivor got to and
            # let the scalar fallback finish from there.
            t0_out[act] = cur
            break
        rows = tv_rows[cur]                          # (ma, 3) gather
        ghost = rows.min(axis=1) < 0
        if ghost.any():
            t0_out[act[ghost]] = cur[ghost]
            keep = ~ghost
            act = act[keep]
            cur = cur[keep]
            lcg = lcg[keep]
            if act.size == 0:
                break
            rows = rows[keep]
        n_steps[act] += 1
        steps_total += act.size
        tri_xy = coords_all[rows]                    # (ma, 3, 2) gather
        p_now = qxy[act]
        # Directed edge opposite vertex k is (tv[_NXT[k]], tv[_PRV[k]]).
        signs = orient2d_batch3(tri_xy[:, (1, 2, 0), :],
                                tri_xy[:, (2, 0, 1), :], p_now)
        entries += 3 * act.size
        neg = signs < 0
        zero_any = (signs == 0).any(axis=1)
        has_neg = neg.any(axis=1)
        inside = ~has_neg & ~zero_any
        if inside.any():
            hit = act[inside]
            t0_out[hit] = cur[inside]
            located[hit] = True
        dropped = ~(has_neg & ~zero_any)
        if dropped.any():
            # Located and zero-sign records both leave here; either way
            # ``cur`` is the best-known position for this point.
            t0_out[act[dropped]] = cur[dropped]
        move = ~dropped
        if not move.any():
            break
        # Pseudo-random edge priority, rotated per record: among the
        # negative edges pick the first at-or-after k0 (the scalar
        # walk's tie-breaking, vectorised).
        lcg = (lcg * 1103515245 + 12345) & 0x7FFFFFFF
        k0 = lcg % 3
        prio = (col[None, :] - k0[:, None]) % 3
        prio = np.where(neg, prio, 4)
        ksel = prio.argmin(axis=1)
        nxt = tn_rows[cur, ksel]
        act = act[move]
        cur = nxt[move]
        lcg = lcg[move]
    if act.size:
        t0_out[act] = cur        # step-cap exhaustion: warm starts too
    n_exact = batch_exact_counts()["orient2d"] - exact_before
    tri.stat_batch_calls += 1
    tri.stat_batch_entries += entries
    tri.stat_orient_exact += n_exact
    tri.stat_orient_fast += entries - n_exact
    tri.stat_locates += m
    tri.stat_walk_steps += steps_total
    hist = tri.stat_walk_hist
    for s, c in zip(*np.unique(np.minimum(n_steps, 31),
                               return_counts=True)):
        hist[int(s)] += int(c)
    return t0_out, located


def carve_batch(tri, snap: _Snapshot, t0s: Sequence[int], qxy: np.ndarray
                ) -> Tuple[List[List[int]], List[List[int]]]:
    """Carve the Bowyer–Watson cavities of a batch of located points
    over the :func:`_plan_snapshot` ``snap``.

    Level-synchronous BFS over all records at once: each level gathers
    every record's unseen neighbour candidates, decides the real ones
    with a single :func:`incircle_batch` call (exact escalation inside)
    and the ghost ones with the scalar half-plane test, then advances.
    Per-record membership is identical to the scalar carve: the cavity
    is the connected component of triangles whose open circumdisk
    contains the point, reached from the containing triangle.  The
    cross-level "already tested" bookkeeping is a sorted array of
    ``record * n_tris + triangle`` composite keys (triangle slots are
    stable during the carve — nothing commits), so dedup is a
    ``searchsorted`` instead of a Python set probe per candidate.

    ``qxy[i]`` must lie strictly inside triangle ``t0s[i]``, which
    makes ``t0s[i]`` a cavity member for free.

    Returns ``(cavities, neighbours)``: per record the cavity as a
    duplicate-free list of triangle ids and the raw gathered adjacency
    rows of those triangles (3 entries per cavity triangle, possibly
    duplicated, cavity members and ``-1`` placeholders included).
    Together the two lists cover the closed edge-neighbourhood, which
    is all the independence selection needs — handing back plain lists
    instead of sets keeps the hot path free of per-record set
    construction (the commit path consumes the lists directly).
    """
    n_rec = len(t0s)
    if n_rec == 0:
        return [], []
    arr = tri._arr
    tv_rows, tn_rows, coords_all = snap
    tn_flat = arr.tn
    n_cap = arr.n_tris            # slot-stable for the whole carve
    f_rec = np.arange(n_rec, dtype=np.int64)
    f_tri = np.asarray(t0s, dtype=np.int64)
    acc_rec = [f_rec]
    acc_tri = [f_tri]
    seen_keys = np.sort(f_rec * n_cap + f_tri)
    q_list = qxy.tolist()
    cutoff = max(4, n_rec >> 5)
    stragglers: Optional[Tuple[List[int], List[int]]] = None
    while f_rec.size:
        if f_rec.size < cutoff:
            # Straggler tail: a few deep cavities still growing.  Each
            # numpy level now costs fixed overhead for a handful of
            # rows, so finish them scalar after the grouping below.
            stragglers = (f_rec.tolist(), f_tri.tolist())
            break
        nb3 = tn_rows[f_tri]                          # (F, 3) gather
        cand_rec = np.repeat(f_rec, 3)
        cand_tri = nb3.reshape(-1)
        valid = cand_tri >= 0
        keys = np.unique(cand_rec[valid] * n_cap + cand_tri[valid])
        pos = np.searchsorted(seen_keys, keys)
        pos_c = np.minimum(pos, seen_keys.size - 1)
        keys = keys[(seen_keys[pos_c] != keys) | (pos == seen_keys.size)]
        if keys.size == 0:
            break
        seen_keys = np.sort(np.concatenate((seen_keys, keys)))
        rec = keys // n_cap
        tids = keys % n_cap
        rows = tv_rows[tids]
        ghost = rows.min(axis=1) < 0
        keep = np.zeros(keys.size, dtype=bool)
        if ghost.any():
            in_disk = tri._in_disk
            for ii in np.flatnonzero(ghost).tolist():
                qx, qy = q_list[rec[ii]]
                if in_disk(int(tids[ii]), qx, qy):
                    keep[ii] = True
        real = ~ghost
        n_real = int(real.sum())
        if n_real:
            abc = coords_all[rows[real]]              # (m, 3, 2) gather
            before = batch_exact_counts()["incircle"]
            signs = incircle_batch(abc[:, 0], abc[:, 1], abc[:, 2],
                                   qxy[rec[real]])
            n_exact = batch_exact_counts()["incircle"] - before
            tri.stat_batch_calls += 1
            tri.stat_batch_entries += n_real
            tri.stat_incircle_exact += n_exact
            tri.stat_incircle_fast += n_real - n_exact
            keep[real] = signs > 0
        f_rec = rec[keep]
        f_tri = tids[keep]
        if f_rec.size:
            acc_rec.append(f_rec)
            acc_tri.append(f_tri)
    # Group accumulated members into per-record lists in one pass
    # (every record owns at least its t0, so every chunk exists).
    all_rec = np.concatenate(acc_rec)
    all_tri = np.concatenate(acc_tri)
    order = np.argsort(all_rec, kind="stable")
    ar = all_rec[order]
    at = all_tri[order]
    chunk = np.flatnonzero(np.diff(ar)) + 1
    starts = np.concatenate(([0], chunk))
    ends = np.concatenate((chunk, [ar.size]))
    at_l = at.tolist()
    nb_l = tn_rows[at].reshape(-1).tolist()
    cavities: List[List[int]] = [[] for _ in range(n_rec)]
    nbrs: List[List[int]] = [[] for _ in range(n_rec)]
    for r, s, e in zip(ar[starts].tolist(), starts.tolist(),
                       ends.tolist()):
        cavities[r] = at_l[s:e]
        nbrs[r] = nb_l[3 * s:3 * e]
    if stragglers is not None:
        in_disk = tri._in_disk
        s_rec, s_tri = stragglers
        touched = sorted(set(s_rec))
        # Rebuild each straggler's "seen" set from its key range (the
        # keys are sorted, so it is one contiguous slice).
        seen_of = {}
        for r in touched:
            lo = int(np.searchsorted(seen_keys, r * n_cap))
            hi = int(np.searchsorted(seen_keys, (r + 1) * n_cap))
            seen_of[r] = set((seen_keys[lo:hi] % n_cap).tolist())
        for r, t in zip(s_rec, s_tri):
            stack = [t]
            cav = cavities[r]
            sn = seen_of[r]
            qx, qy = q_list[r]
            while stack:
                i3 = 3 * stack.pop()
                for nb in (tn_flat[i3], tn_flat[i3 + 1],
                           tn_flat[i3 + 2]):
                    if nb >= 0 and nb not in sn:
                        sn.add(nb)
                        if in_disk(nb, qx, qy):
                            cav.append(nb)
                            stack.append(nb)
        for r in touched:
            nbr = []
            for t in cavities[r]:
                i3 = 3 * t
                nbr.append(tn_flat[i3])
                nbr.append(tn_flat[i3 + 1])
                nbr.append(tn_flat[i3 + 2])
            nbrs[r] = nbr
    return cavities, nbrs


_NBR8 = ((1, 0), (-1, 0), (0, 1), (0, -1),
         (1, 1), (-1, 1), (1, -1), (-1, -1))


def _near_hint(arr, h: int, qx: float, qy: float, r2: float) -> int:
    """Return ``h`` when it is a live triangle within ``sqrt(r2)`` of
    ``(qx, qy)``, else ``-1``.

    Freed triangle slots are recycled by later commits *anywhere* in
    the domain, so a stored hint can pass a liveness check yet sit far
    from the point it was recorded for — and a far seed turns the walk
    into an O(domain-diameter) march.  The distance gate keeps only
    hints that still buy something over a grid seed."""
    if h < 0 or h >= arr.n_tris:
        return -1
    i3 = 3 * h
    v = arr.tv[i3]
    if v == DEAD:
        return -1
    if v < 0:
        v = arr.tv[i3 + 1]
        if v < 0:
            return -1
    j = 2 * v
    dx = arr.px[j] - qx
    dy = arr.px[j + 1] - qy
    if dx * dx + dy * dy <= r2:
        return h
    return -1


def _partition_grid(tri) -> BucketGrid:
    """The batch planner's bucket partition of ``tri``'s vertices.

    A snapshot, cached on the triangulation being inserted into:
    inserts do not feed it (that would tax every insertion), so it is
    rebuilt when the point count outgrows the size it was laid out for
    — a stale head vertex is still a nearby walk seed, just a few steps
    further out."""
    n = tri._arr.n_pts
    cached = tri._batch_grid
    if cached is not None and n <= cached[1]:
        return cached[0]
    pts = tri._arr.pts()
    # Laid out for twice the snapshot (floor 256: the scalar bootstrap
    # hands over at ~120 vertices), so it serves until the count doubles.
    cap = max(2 * n, 256)
    grid = BucketGrid(AABB.of_points(pts), target_per_bucket=4.0,
                      expected_points=cap)
    grid.insert_many(pts)
    tri._batch_grid = (grid, cap)
    return grid


class BatchInsertion(InsertionStrategy):
    """Independent-set batched insertion (see the module docstring)."""

    name = "batch"
    description = ("BRIO-binned independent-set insertion with "
                   "vectorised predicate batches")

    # -- driver -------------------------------------------------------
    def insert_points(self, tri, points: np.ndarray,
                      order: Sequence[int]) -> Dict[int, int]:
        pts_arr = np.asarray(points, dtype=np.float64)
        order_list = [int(i) for i in order]
        inserted: Dict[int, int] = {}
        # Constraints make cavities order-dependent (clipping + Lawson
        # repair); the batch plan assumes pure Delaunay cavities, so a
        # constrained kernel takes the scalar path wholesale.  Bulk
        # insertion in triangulate()/triangulate_pslg() always runs
        # before segment recovery, so this is the cold branch.
        if tri.constraints:
            return get_strategy("scalar").insert_points(tri, points, order)
        n = len(order_list)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            pos = 0
            # Scalar bootstrap: initial structure + enough density for
            # the bucket partition to separate candidates.
            while pos < n and (pos < _BATCH_BOOTSTRAP
                               or tri.n_live_triangles == 0):
                i = order_list[pos]
                inserted[i] = tri.insert_point(pts_arr[i, 0], pts_arr[i, 1])
                pos += 1
            # Window boundaries follow the BRIO doubling rounds (8, 24,
            # 56, 120, ...): a full round is a random sample of the
            # input spread over the whole domain, so binning it yields
            # many distinct buckets (a *contiguous* slice of a round
            # would be one snake-ordered band and bin terribly).
            bound, size = 8, 8
            while bound <= pos:
                size *= 2
                bound += size
            while pos < n:
                end = min(bound, n)
                w = pos
                while w < end:
                    stop = min(w + _WINDOW_CAP, end)
                    self._process_window(tri, order_list[w:stop],
                                         pts_arr, inserted)
                    w = stop
                pos = end
                size *= 2
                bound += size
        finally:
            if gc_was_enabled:
                gc.enable()
        return inserted

    # -- one BRIO-round window ---------------------------------------
    def _process_window(self, tri, idxs: List[int], pts_arr: np.ndarray,
                        inserted: Dict[int, int]) -> None:
        arr = tri._arr
        grid = _partition_grid(tri)
        w_xy = pts_arr[np.asarray(idxs, dtype=np.int64)]
        ids = grid.cell_ids(w_xy)
        if _COARSEN > 1:
            # One candidate per _COARSEN x _COARSEN block of buckets:
            # the independence partition must be coarser than a cavity
            # diameter or same-sub-batch neighbours mostly conflict.
            ix = ids % grid.nx
            iy = ids // grid.nx
            ncx = (grid.nx + _COARSEN - 1) // _COARSEN
            ids = (iy // _COARSEN) * ncx + (ix // _COARSEN)
        n_w = len(idxs)
        pending = np.arange(n_w, dtype=np.int64)
        tries = np.zeros(n_w, dtype=np.int64)
        # Last known walk position per window record (filled in by
        # _insert_batch): retries re-seed from it and scalar fallbacks
        # start warm instead of at the last touched triangle.  Hints only
        # count when still within a few grid cells of their point
        # (_near_hint) — recycled slots otherwise send walks across
        # the whole domain.
        hints = np.full(n_w, -1, dtype=np.int64)
        cw = (grid.bounds.width or 1.0) / grid.nx
        ch = (grid.bounds.height or 1.0) / grid.ny
        r2 = 9.0 * (cw * cw + ch * ch)
        while pending.size:
            # One candidate per block and round: np.unique's
            # return_index is the first occurrence in pending order,
            # exactly the scan the scalar loop used to do.
            sel = np.zeros(pending.size, dtype=bool)
            sel[np.unique(ids[pending], return_index=True)[1]] = True
            batch = pending[sel].tolist()
            later = pending[~sel]
            conflicted = self._insert_batch(tri, grid, idxs, w_xy, batch,
                                            inserted, hints, r2)
            if conflicted:
                cf = np.asarray(conflicted, dtype=np.int64)
                tries[cf] += 1
                exhausted = tries[cf] >= _MAX_RETRIES
                for j in cf[exhausted].tolist():
                    x, y = w_xy[j, 0], w_xy[j, 1]
                    inserted[idxs[j]] = _scalar_insert_one(
                        tri, x, y, _near_hint(arr, int(hints[j]), x, y,
                                              r2))
                pending = np.sort(np.concatenate((cf[~exhausted],
                                                  later)))
            else:
                pending = later

    # -- one conflict-screened sub-batch ------------------------------
    def _insert_batch(self, tri, grid: BucketGrid, idxs: List[int],
                      w_xy: np.ndarray, batch: List[int],
                      inserted: Dict[int, int], hints: np.ndarray,
                      r2: float) -> List[int]:
        """Walk + carve + select + commit one sub-batch (one candidate
        per grid bucket).  Returns the window positions whose cavities
        conflicted (the caller retries them); ``hints`` is updated with
        each record's last walk position."""
        m = len(batch)
        arr = tri._arr
        if m < _BATCH_MIN_GROUP:
            for j in batch:
                x, y = w_xy[j, 0], w_xy[j, 1]
                inserted[idxs[j]] = _scalar_insert_one(
                    tri, x, y, _near_hint(arr, int(hints[j]), x, y, r2))
            return []
        batch_np = np.asarray(batch, dtype=np.int64)
        qxy = w_xy[batch_np]
        snap = _plan_snapshot(tri)
        seeds = self._seed_triangles(tri, snap, grid, qxy, hints[batch_np],
                                     r2)
        t0s, located = walk_batch(tri, snap, seeds, qxy)
        hints[batch_np] = t0s
        loc_pos = np.flatnonzero(located).tolist()
        cavities, nbrs = carve_batch(
            tri, snap, t0s[loc_pos],
            qxy[np.asarray(loc_pos, dtype=np.int64)])
        # Greedy independent-set selection in batch order: keep a
        # candidate only when its cavity's *closed edge-neighbourhood*
        # (cavity plus every triangle sharing an edge with it) misses
        # every cavity already claimed this sub-batch.  Disjointness of
        # the cavities alone is NOT enough: by the Clarkson–Shor
        # history lemma, a fan triangle created over cavity boundary
        # edge (u, v) has its circumdisk inside disk(destroyed inner
        # triangle) ∪ disk(surviving outer neighbour) — so a candidate
        # whose cavity *touches* an accepted cavity across an edge can
        # still gain that fan triangle as a new conflict.  With the
        # neighbourhood kept clear, no accepted point's conflict set
        # changes while the batch replays (adjacency is symmetric, so
        # the one-sided check covers both directions), and replaying
        # the precomputed cavities sequentially below is exactly
        # Delaunay.
        claimed: Set[int] = set()
        owner: Dict[int, int] = {}
        accepted: List[Tuple[int, List[int], List[int]]] = []
        conflicted: List[int] = []
        loser_owner: List[Tuple[int, int]] = []
        for k, cav, nbr in zip(loc_pos, cavities, nbrs):
            # cav plus the raw adjacency rows cover the closed
            # neighbourhood; testing the two lists separately avoids
            # materialising a per-record set on the hot path.
            if claimed.isdisjoint(cav) and claimed.isdisjoint(nbr):
                owner.update(dict.fromkeys(cav, len(accepted)))
                claimed.update(cav)
                accepted.append((k, cav, nbr))
            else:
                # The winner whose cavity intruded: its committed fan
                # will sit exactly where this loser wants to go, so it
                # becomes the retry hint once the vids are known.
                w = next((t for t in cav if t in claimed), -1)
                if w < 0:
                    w = next(t for t in nbr if t in claimed)
                loser_owner.append((batch[k], owner[w]))
                conflicted.append(batch[k])
        if accepted:
            # Commit by replay: the neighbourhoods are disjoint, so each
            # precomputed cavity is still exactly its point's conflict
            # region when its turn comes.
            q_list = qxy.tolist()
            t0_list = t0s.tolist()
            vid_list = []
            for k, cav, _ in accepted:
                vid = arr.new_point(*q_list[k])
                retriangulate(tri, vid, set(cav), t0_list[k])
                inserted[idxs[batch[k]]] = vid
                vid_list.append(vid)
            tri.stat_inserts += len(accepted)
            tri.stat_batch_points += len(accepted)
            # Losers restart from their winner's live star fan (set
            # after all commits: vt rows are final only then).
            vtm = arr.vt
            for j, oi in loser_owner:
                hints[j] = vtm[vid_list[oi]]
        # Walk deferrals (hull exits, degeneracies, step-cap) go
        # through the scalar path now, in batch order.
        for k in range(m):
            if not located[k]:
                j = batch[k]
                inserted[idxs[j]] = _scalar_insert_one(
                    tri, w_xy[j, 0], w_xy[j, 1], int(hints[j]))
        tri.stat_conflict_retries += len(conflicted)
        sink = counters_current()
        if sink is not None:
            sink.observe("kernel.batch_size", float(len(accepted)))
            sink.observe("kernel.conflict_retries", float(len(conflicted)))
        return conflicted

    @staticmethod
    def _seed_triangles(tri, snap: _Snapshot, grid: BucketGrid,
                        qxy: np.ndarray, hints: Sequence[int], r2: float
                        ) -> np.ndarray:
        """Per-record walk-start triangles: a nearby live walk hint
        from an earlier round wins (retried candidates restart next to
        their previous cavity), else the grid snapshot.  One vectorised
        pass: the hint liveness/distance gate, the bucket head lookup,
        the 8-neighbour probe for empty buckets and the ghost step-in
        are all array expressions (:func:`_near_hint` is the scalar
        reference semantics)."""
        arr = tri._arr
        tv_rows, tn_rows, coords = snap
        fallback = tri._last_tri
        if fallback < 0 or arr.tv[3 * fallback] == DEAD:
            fallback = next(iter(tri.live_triangles()))

        # Hint gate: live (first vertex not DEAD), with a real vertex
        # to measure from, within sqrt(r2) of the query.
        h = np.asarray(hints, dtype=np.int64)
        ok = (h >= 0) & (h < arr.n_tris)
        hc = np.where(ok, h, 0)
        v0 = tv_rows[hc, 0].astype(np.int64)
        v1 = tv_rows[hc, 1].astype(np.int64)
        v = np.where(v0 >= 0, v0, v1)
        ok &= (v0 != DEAD) & (v >= 0)
        d = coords[np.where(ok, v, 0)] - qxy
        ok &= (d * d).sum(axis=1) <= r2
        seeds = np.where(ok, h, np.int64(-1))

        # Grid path for the rest: bucket head, widening to the 8
        # neighbours when the bucket is empty (the snapshot averages
        # ~2 points per cell, so ~13% of buckets are empty).
        need = np.flatnonzero(~ok)
        if need.size:
            nx = grid.nx
            ny = grid.ny
            heads = grid.head_payloads()
            cells = grid.cell_ids(qxy[need])
            pay = heads[cells]
            miss = pay < 0
            if miss.any():
                cx = cells[miss] % nx
                cy = cells[miss] // nx
                pm = pay[miss]
                for dx, dy in _NBR8:
                    if not (pm < 0).any():
                        break
                    x2 = cx + dx
                    y2 = cy + dy
                    inb = (x2 >= 0) & (x2 < nx) & (y2 >= 0) & (y2 < ny)
                    cand = heads[np.where(inb, y2 * nx + x2, 0)]
                    cand = np.where(inb, cand, -1)
                    pm = np.where(pm < 0, cand, pm)
                pay[miss] = pm
            t = arr.vertex_tri()[np.maximum(pay, 0)].astype(np.int64)
            live = (pay >= 0) & (t >= 0) & (tv_rows[np.maximum(t, 0), 0]
                                            != DEAD)
            tri.stat_grid_seeds += int(live.sum())
            seeds[need] = np.where(live, t, np.int64(fallback))

        # Ghost seeds: step across the real edge into the hull.
        sv = tv_rows[seeds]
        g_rows = np.flatnonzero((sv < 0).any(axis=1))
        if g_rows.size:
            g_col = np.argmax(sv[g_rows] < 0, axis=1)
            nb = tn_rows[seeds[g_rows], g_col].astype(np.int64)
            take = nb >= 0
            seeds[g_rows[take]] = nb[take]
        return seeds


# ----------------------------------------------------------------------
# Strategies by name
# ----------------------------------------------------------------------
_STRATEGIES: Dict[str, InsertionStrategy] = {
    s.name: s for s in (ScalarInsertion(), BatchInsertion())
}


def get_strategy(name: Optional[str] = None) -> InsertionStrategy:
    """The strategy called ``name``; ``None`` means
    :data:`DEFAULT_STRATEGY` (read at call time)."""
    if name is None:
        name = DEFAULT_STRATEGY
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown insertion strategy: {name} (available: "
            f"{', '.join(available_strategies())})"
        ) from None


def available_strategies() -> List[str]:
    """Every accepted ``--insert-strategy`` value."""
    return sorted(_STRATEGIES)
