"""Flat-list mesh storage: the kernel's one store, NumPy at the boundary.

The paper credits its single-rank efficiency to compact array-based
triangle storage; this module is that representation.  One
:class:`MeshArrays` instance owns

* ``px``   — ``float``: ``x`` of vertex ``v`` at ``2*v``, ``y`` at ``2*v+1``,
* ``tv``   — ``int``: vertex ``k`` of triangle ``t`` at ``3*t+k``,
* ``tn``   — ``int``: the neighbour across the edge opposite it, same index,
* ``vt``   — ``int``: one incident triangle per vertex (``-1``: none),
* ``free`` — recycled triangle slots,

all plain Python lists.  Hot paths (the kernel, the cavity engine, the
refiner, segment recovery, the adaptor) index them directly: a list
index hands back the ``int``/``float`` it holds, several times cheaper
than a ``memoryview`` or ndarray scalar index on CPython.  Cold paths
call :meth:`MeshArrays.point` / :meth:`MeshArrays.triangle`.  A new
point or triangle slot is appended in place, so the lists are exactly
``n_pts`` / ``n_tris`` rows long and an alias of them taken before an
insertion still sees every write after it.

A list stores whatever it is given, and a NumPy scalar in it slows every
later read: only plain ``float`` / ``int`` go in, and the write sites
that can receive NumPy values (:meth:`new_point`) coerce.

NumPy lives at the boundary only.  :meth:`pts`, :meth:`tri_v` and
:meth:`tri_n` return fresh, read-only ``float64`` / ``int32``
snapshots — one C-speed conversion each — for the vectorised readers
(finalize, sizing, the adaptor's tables), and :meth:`compact` builds
the finalized mesh from them.

Dead-triangle contract
----------------------
A recycled slot is marked dead by writing :data:`DEAD` (= ``-2``) into
``tv[3*t]``; the remaining five ints are stale garbage.  ``-1`` is
*not* usable as a death marker because :data:`~repro.delaunay.kernel.GHOST`
(= ``-1``) legitimately occupies any ``tv`` column.  Callers must
check ``tv[3*t] == DEAD`` (or use :meth:`triangle`, which returns
``None``) before interpreting a row; APIs that dereference a dead slot
raise (``tests/delaunay/test_arrays.py::TestDeadSlotContract``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["DEAD", "MeshArrays"]

#: Marker stored in ``tv[3*t]`` of a dead (recycled) triangle slot.
DEAD = -2

#: The row a new triangle slot is appended as; its writer fills it in.
_NEW_ROW = (-1, -1, -1)


def _snapshot(values: Sequence, dtype, width: int) -> np.ndarray:
    out = np.array(values, dtype=dtype).reshape(-1, width)
    out.flags.writeable = False
    return out


class MeshArrays:
    """Flat-list storage for a mutable triangulation.

    ``n_pts`` / ``n_tris`` are the row counts of the lists.  Triangle
    rows are live unless ``tv[3*t]`` is :data:`DEAD`.
    """

    __slots__ = ("px", "tv", "tn", "vt", "free", "n_pts", "n_tris")

    def __init__(self) -> None:
        self.px: List[float] = []
        self.tv: List[int] = []
        self.tn: List[int] = []
        self.vt: List[int] = []
        self.free: List[int] = []
        self.n_pts = 0
        self.n_tris = 0

    # ------------------------------------------------------------------
    # Element lifecycle
    # ------------------------------------------------------------------
    def new_point(self, x: float, y: float) -> int:
        i = self.n_pts
        self.px += (float(x), float(y))
        self.vt.append(-1)
        self.n_pts = i + 1
        return i

    def new_triangle_slot(self) -> int:
        """A free slot to write a triangle row into: recycled, else
        appended."""
        if self.free:
            return self.free.pop()
        t = self.n_tris
        self.tv += _NEW_ROW
        self.tn += _NEW_ROW
        self.n_tris = t + 1
        return t

    def kill(self, t: int) -> None:
        self.tv[3 * t] = DEAD
        self.free.append(t)

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
    # Snapshots: fresh, read-only, one row per point / triangle slot
    # ------------------------------------------------------------------
    def pts(self) -> np.ndarray:
        """``float64 (n_pts, 2)`` vertex coordinates."""
        return _snapshot(self.px, np.float64, 2)

    def tri_v(self) -> np.ndarray:
        """``int32 (n_tris, 3)`` triangle vertex ids, dead rows included."""
        return _snapshot(self.tv, np.int32, 3)

    def tri_n(self) -> np.ndarray:
        """``int32 (n_tris, 3)`` neighbour ids, column k opposite vertex k."""
        return _snapshot(self.tn, np.int32, 3)

    # ------------------------------------------------------------------
    # Finalize
    # ------------------------------------------------------------------
    def compact(self, keep_mask: Optional[np.ndarray] = None
                ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Vectorised compaction of the live real triangles.

        Returns ``(points, triangles, remap)`` where ``triangles`` is a
        fresh ``int32 (m, 3)`` array re-indexed against ``points`` and
        ``remap`` maps kernel vertex id -> compact id (``-1`` unused).
        When every vertex is referenced, ``points`` is the read-only
        :meth:`pts` snapshot and ``remap`` is ``None`` (identity);
        otherwise both are fancy-indexed at C speed.  No per-triangle
        Python loops.
        """
        n_p = self.n_pts
        tv = self.tri_v()
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
            # Dense: every vertex referenced -> the coordinate snapshot
            # is the finalized point block already.
            return self.pts(), tris, None
        used = np.flatnonzero(present)
        remap = np.full(n_p, -1, dtype=np.int64)
        remap[used] = np.arange(n_used, dtype=np.int64)
        return self.pts()[used], remap[tris].astype(np.int32), remap
