"""Structure-of-arrays mesh storage shared by the kernel and every boundary.

The paper credits its single-rank efficiency to compact array-based
triangle storage and its strong scaling to cheap subdomain handoff; this
module is that representation.  One :class:`MeshArrays` instance owns

* ``pts``        — ``float64 (cap_pts, 2)``   vertex coordinates,
* ``tri_v``      — ``int32   (cap_tris, 3)``  triangle vertex ids,
* ``tri_n``      — ``int32   (cap_tris, 3)``  triangle neighbour ids,
* ``vertex_tri`` — ``int32   (cap_pts,)``     one incident triangle per vertex,
* ``free``       — recycled triangle slots (plain list),

all preallocated with amortized-doubling growth.  It is the one read
path of a triangulation, in two forms: hot paths index the cached flat
:class:`memoryview` casts ``px[2*v]`` / ``tv[3*t+k]`` / ``tn[3*t+k]`` /
``vt[v]`` (measurably faster than list-of-lists indexing on CPython),
cold paths call :meth:`MeshArrays.point` / :meth:`MeshArrays.triangle`.
The same buffers back

* the scalar hot paths of the kernel, the refiner, segment recovery and
  the adaptor,
* vectorised batch reads (``incircle_batch`` cavity levels, grid builds),
* zero-copy finalize (:meth:`compact` fancy-indexes triangles at C speed
  and can return the point block as a *view*), and
* zero-copy serde / ``multiprocessing.shared_memory`` transport — the
  arrays are already contiguous ``float64`` / ``int32`` blocks.

Dead-triangle contract (lint-able)
----------------------------------
A recycled slot is marked dead by writing :data:`DEAD` (= ``-2``) into
``tri_v[t, 0]``; the remaining five ints are stale garbage.  ``-1`` is
*not* usable as a death marker because :data:`~repro.delaunay.kernel.GHOST`
(= ``-1``) legitimately occupies any ``tri_v`` column.  Callers must
check :meth:`is_dead` (or use :meth:`triangle`, which returns ``None``)
before interpreting a row; APIs that dereference a dead slot raise.

Growth invalidates cached memoryviews: any routine holding local aliases
of ``px``/``tv``/``tn``/``vt`` must call :meth:`reserve_points` /
:meth:`reserve_triangles` for its worst case *before* taking the aliases
(reserve-before-alias discipline).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = ["DEAD", "MeshArrays"]

#: Marker stored in ``tri_v[t, 0]`` of a dead (recycled) triangle slot.
DEAD = -2

# The flat memoryview casts assume C int == int32 and C double == float64.
if memoryview(np.zeros(1, dtype=np.int32)).cast("B").cast("i").itemsize != 4:
    raise ImportError("MeshArrays requires a 4-byte C int")


class MeshArrays:
    """Preallocated SoA storage for a mutable triangulation.

    ``n_pts`` / ``n_tris`` are high-water marks: rows beyond them are
    uninitialised capacity.  Triangle rows below ``n_tris`` are live
    unless :meth:`is_dead`.
    """

    __slots__ = ("pts", "tri_v", "tri_n", "vertex_tri", "free",
                 "n_pts", "n_tris", "px", "tv", "tn", "vt")

    def __init__(self) -> None:
        self.pts = np.empty((64, 2), dtype=np.float64)
        self.tri_v = np.full((128, 3), DEAD, dtype=np.int32)
        self.tri_n = np.full((128, 3), -1, dtype=np.int32)
        self.vertex_tri = np.full(64, -1, dtype=np.int32)
        self.free: List[int] = []
        self.n_pts = 0
        self.n_tris = 0
        self._rebind()

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    def _rebind(self) -> None:
        """Refresh the flat scalar-access views after (re)allocation."""
        self.px = memoryview(self.pts).cast("B").cast("d")
        self.tv = memoryview(self.tri_v).cast("B").cast("i")
        self.tn = memoryview(self.tri_n).cast("B").cast("i")
        self.vt = memoryview(self.vertex_tri).cast("B").cast("i")

    def reserve_points(self, k: int) -> None:
        """Guarantee capacity for ``k`` more points without reallocation."""
        need = self.n_pts + k
        cap = len(self.vertex_tri)
        if need <= cap:
            return
        new_cap = max(2 * cap, need)
        pts = np.empty((new_cap, 2), dtype=np.float64)
        pts[: self.n_pts] = self.pts[: self.n_pts]
        vt = np.full(new_cap, -1, dtype=np.int32)
        vt[: self.n_pts] = self.vertex_tri[: self.n_pts]
        self.pts = pts
        self.vertex_tri = vt
        self._rebind()

    def reserve_triangles(self, k: int) -> None:
        """Guarantee ``k`` more appended triangle slots without realloc.

        (Slots recycled from ``free`` never need capacity, so this is a
        safe upper bound.)
        """
        need = self.n_tris + k
        cap = len(self.tri_v)
        if need <= cap:
            return
        new_cap = max(2 * cap, need)
        tv = np.full((new_cap, 3), DEAD, dtype=np.int32)
        tv[: self.n_tris] = self.tri_v[: self.n_tris]
        tn = np.full((new_cap, 3), -1, dtype=np.int32)
        tn[: self.n_tris] = self.tri_n[: self.n_tris]
        self.tri_v = tv
        self.tri_n = tn
        self._rebind()

    # ------------------------------------------------------------------
    # Element lifecycle
    # ------------------------------------------------------------------
    def new_point(self, x: float, y: float) -> int:
        self.reserve_points(1)
        i = self.n_pts
        j = 2 * i
        self.px[j] = x
        self.px[j + 1] = y
        self.vt[i] = -1
        self.n_pts = i + 1
        return i

    def bulk_new_points(self, xy: np.ndarray) -> np.ndarray:
        """Append a block of points at once; returns their vertex ids.

        Vectorised sibling of :meth:`new_point` for the batch insertion
        strategy: one reserve, one slice assign, no per-point Python.
        Callers holding flat-view aliases must re-read them afterwards
        (reservation may reallocate, exactly as with ``new_point``).
        """
        xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
        m = len(xy)
        self.reserve_points(m)
        i = self.n_pts
        self.pts[i:i + m] = xy
        self.vertex_tri[i:i + m] = -1
        self.n_pts = i + m
        return np.arange(i, i + m, dtype=np.int64)

    def kill(self, t: int) -> None:
        self.tv[3 * t] = DEAD
        self.free.append(t)

    def is_dead(self, t: int) -> bool:
        """Dead-slot check — the one sanctioned way to test liveness."""
        return self.tv[3 * t] == DEAD

    def point(self, v: int) -> Tuple[float, float]:
        j = 2 * v
        return (self.px[j], self.px[j + 1])

    def triangle(self, t: int) -> Optional[Tuple[int, int, int]]:
        """Vertex triple of ``t``, or ``None`` when the slot is dead."""
        i = 3 * t
        a = self.tv[i]
        if a == DEAD:
            return None
        return (a, self.tv[i + 1], self.tv[i + 2])

    # ------------------------------------------------------------------
    # Finalize
    # ------------------------------------------------------------------
    def compact(self, keep_mask: Optional[np.ndarray] = None
                ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Vectorised compaction of the live real triangles.

        Returns ``(points, triangles, remap)`` where ``triangles`` is a
        fresh ``int32 (m, 3)`` array re-indexed against ``points`` and
        ``remap`` maps kernel vertex id -> compact id (``-1`` unused).
        When every vertex is referenced, ``points`` is a **read-only
        zero-copy view** of the underlying buffer and ``remap`` is
        ``None`` (identity); otherwise both are fancy-indexed at C speed.
        No per-triangle Python loops (lint rule R7).
        """
        n_p = self.n_pts
        tv = self.tri_v[: self.n_tris]
        # min over the row excludes DEAD (-2) and GHOST (-1) rows at once.
        mask = tv.min(axis=1) >= 0
        if keep_mask is not None:
            mask &= np.asarray(keep_mask, dtype=bool)[: self.n_tris]
        tris = tv[mask]
        if tris.size == 0:
            return (np.empty((0, 2), dtype=np.float64),
                    np.empty((0, 3), dtype=np.int32),
                    np.full(n_p, -1, dtype=np.int64))
        # Presence scatter instead of np.unique: same sorted id set,
        # O(n) instead of a sort.
        present = np.zeros(n_p, dtype=bool)
        present[tris.ravel()] = True
        n_used = int(np.count_nonzero(present))
        if n_used == n_p:
            # Dense: every vertex referenced -> the point block is the
            # finalized coordinate array already.  Freeze the view so a
            # consumer cannot silently mutate live kernel storage.
            points = self.pts[:n_p]
            points.flags.writeable = False
            return points, np.ascontiguousarray(tris), None
        used = np.flatnonzero(present)
        remap = np.full(n_p, -1, dtype=np.int64)
        remap[used] = np.arange(n_used, dtype=np.int64)
        points = np.ascontiguousarray(self.pts[used])
        return points, remap[tris].astype(np.int32), remap
