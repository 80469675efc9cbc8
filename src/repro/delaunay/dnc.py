"""Divide-and-conquer style driver options for the triangulator.

Shewchuk's Triangle triangulates with divide-and-conquer; the paper makes
two Triangle-specific optimisations (Section III):

1. it removes Triangle's internal x-sort because the decomposition already
   maintains x-sorted vertices, and
2. it forces *vertical cuts only*, which is faster for the small vertex
   sets produced by over-decomposition.

Our kernel is incremental rather than D&C, so the corresponding knobs are
the **insertion order**: x-sorted insertion (``order="sorted"``, walks are
O(1) because each point lands beside its predecessor — the analogue of
reusing the maintained sort), the kernel's own biased randomised order
(``order="brio"``, robust for arbitrary inputs), or plain random — the
cold arm: the kernel keeps no walk index, so every hint-less insert walks
O(sqrt(n)) triangles from its predecessor's.  This module provides those
policies plus the benchmark hooks the ablation study uses (DESIGN.md:
"Sorted-input reuse for the triangulator").
"""

from __future__ import annotations

from typing import Dict, Iterable, Literal, Optional

import numpy as np

from .cavity import brio_order
from .kernel import Triangulation
from .mesh import TriMesh

__all__ = ["insertion_order", "triangulate_ordered"]

OrderPolicy = Literal["sorted", "random", "brio", "given"]


def insertion_order(points: np.ndarray, policy: OrderPolicy = "brio"
                    ) -> np.ndarray:
    """Compute an insertion order for ``points`` under ``policy``.

    - ``"sorted"``: lexicographic (x, y) — the paper's Triangle
      optimisation (Section III): the decomposition already maintains
      x-sorted vertices, so the sort is reused ("we removed the sorting
      step from Triangle"), and inserting in that order keeps walks
      short, each point landing next to its predecessor.
    - ``"random"``: uniform shuffle (seed 0).
    - ``"brio"``: biased randomised insertion order, the kernel's own
      (:func:`repro.delaunay.cavity.brio_order`) — random within
      geometrically growing rounds, each round in snake order; keeps
      walks short *and* cavity sizes bounded in expectation.
    - ``"given"``: identity.
    """
    n = len(points)
    if policy == "given":
        return np.arange(n)
    if policy == "sorted":
        return np.lexsort((points[:, 1], points[:, 0]))
    if policy == "random":
        return np.random.default_rng(0).permutation(n)
    if policy == "brio":
        return brio_order(points, seed=0)
    raise ValueError(f"unknown insertion-order policy: {policy}")


def triangulate_ordered(points: np.ndarray, policy: OrderPolicy = "brio"
                        ) -> TriMesh:
    """Triangulate with an explicit insertion-order policy.

    Returns a :class:`TriMesh` whose vertex indices match ``points``.
    """
    points = np.asarray(points, dtype=np.float64)
    order = insertion_order(points, policy)
    tri = Triangulation()
    kernel_id: Dict[int, int] = {}
    for i in order:
        kernel_id[int(i)] = tri.insert_point(points[i, 0], points[i, 1])
    # kernel vertex id -> smallest original index that produced it.
    arr = tri._arr
    lut = np.full(arr.n_pts, -1, dtype=np.int64)
    for i, k in kernel_id.items():
        if lut[k] < 0 or i < lut[k]:
            lut[k] = i
    # Live real rows in id order, remapped in one fancy-index pass.
    tv = arr.tri_v()
    rows = tv[tv.min(axis=1) >= 0]
    tarr = (lut[rows].astype(np.int32)
            if rows.size else np.empty((0, 3), dtype=np.int32))
    return TriMesh(points, tarr)
