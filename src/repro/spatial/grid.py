"""Uniform bucket grid: the ``batch`` insertion planner's partition.

:class:`~repro.delaunay.cavity.BatchInsertion` bins each window of
candidates by bucket (one candidate per block of buckets per round is
its independence partition) and seeds their walks from the first vertex
stored in the candidate's bucket.  Both are whole-array operations, so
the grid stores one head payload per bucket and nothing else; it has no
single-point insert and no nearest-point query.  The scalar kernel does
not use it (DESIGN.md, "Why the scalar kernel has no walk index").
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry.aabb import AABB

__all__ = ["BucketGrid"]


class BucketGrid:
    """Uniform ``nx`` x ``ny`` grid of buckets over an :class:`AABB`.

    Points outside the bounds are clamped into the border buckets (the
    structure is an accelerator, never an oracle, so clamping is safe).
    """

    def __init__(self, bounds: AABB, target_per_bucket: float = 4.0,
                 expected_points: int = 64) -> None:
        self.bounds = bounds
        n_buckets = max(1, int(expected_points / max(target_per_bucket, 1e-9)))
        aspect = max(bounds.width, 1e-300) / max(bounds.height, 1e-300)
        self.nx = max(1, int(round(math.sqrt(n_buckets * aspect))))
        self.ny = max(1, int(round(n_buckets / self.nx)))
        # Payload of the first point stored per bucket (-1 when empty).
        self._heads = np.full(self.nx * self.ny, -1, dtype=np.int64)

    def insert_many(self, pts: np.ndarray) -> None:
        """Store the rows of ``pts``; a point's payload is its row
        index, and a bucket keeps the first point it is given."""
        # np.unique's return_index is the first occurrence: the first
        # row that falls in each occupied bucket.
        occupied, first = np.unique(self.cell_ids(pts), return_index=True)
        cur = self._heads[occupied]
        self._heads[occupied] = np.where(cur >= 0, cur, first)

    def cell_ids(self, pts: np.ndarray) -> np.ndarray:
        """Vectorised bucket index per query point (``(n, 2)`` input);
        out-of-bounds queries clamp into the border buckets.  The
        Delaunay batch-insertion strategy uses the bucket id as its
        independence partition: one candidate per bucket per sub-batch.
        """
        pts = np.asarray(pts, dtype=np.float64)
        w = self.bounds.width or 1.0
        h = self.bounds.height or 1.0
        ix = ((pts[:, 0] - self.bounds.xmin) / w * self.nx).astype(np.int64)
        iy = ((pts[:, 1] - self.bounds.ymin) / h * self.ny).astype(np.int64)
        np.clip(ix, 0, self.nx - 1, out=ix)
        np.clip(iy, 0, self.ny - 1, out=iy)
        return iy * self.nx + ix

    def head_payloads(self) -> np.ndarray:
        """Flat ``nx * ny`` array: payload of the first point stored in
        each bucket, -1 for empty buckets.  Any stored point of a
        query's own bucket is within one bucket diagonal, which is all a
        walk seed needs.  Shared, not a copy — callers must not write to
        it."""
        return self._heads
