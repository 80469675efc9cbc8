"""The ``np.unique(axis=0)`` weld ``merge_meshes`` ran before its one
lexsort per key: the oracle ``tests/delaunay/test_merge.py`` compares
the merge against, byte for byte."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.delaunay.mesh import TriMesh


def unique_merge(meshes: List[TriMesh]) -> TriMesh:
    """Weld vertices by their quantised key (first appearance wins and
    numbers them), drop repeated triangles keeping first-appearance
    order, keep each segment once as sorted unique rows."""
    inv = 1e12
    all_pts = np.vstack([np.asarray(m.points, dtype=np.float64).reshape(-1, 2)
                         for m in meshes])
    keys = np.round(all_pts * inv).astype(np.int64)
    _, first_idx, inverse = np.unique(keys, axis=0, return_index=True,
                                      return_inverse=True)
    inverse = inverse.reshape(-1)
    appearance = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(first_idx), dtype=np.int64)
    rank[appearance] = np.arange(len(first_idx), dtype=np.int64)
    gid = rank[inverse]
    points = all_pts[first_idx[appearance]]

    offsets = np.cumsum([0] + [m.n_points for m in meshes])
    tri_blocks = [
        gid[offsets[i]:offsets[i + 1]][np.asarray(m.triangles, np.int64)]
        for i, m in enumerate(meshes) if m.n_triangles
    ]
    if tri_blocks:
        tris = np.vstack(tri_blocks)
        canon = np.sort(tris, axis=1)
        _, tfirst = np.unique(canon, axis=0, return_index=True)
        tris = tris[np.sort(tfirst)].astype(np.int32)
    else:
        tris = np.empty((0, 3), np.int32)

    seg_blocks = [
        gid[offsets[i]:offsets[i + 1]][np.asarray(m.segments, np.int64)]
        for i, m in enumerate(meshes) if len(m.segments)
    ]
    if seg_blocks:
        segs = np.sort(np.vstack(seg_blocks), axis=1)
        segs = np.unique(segs, axis=0).astype(np.int32)
    else:
        segs = np.empty((0, 2), np.int32)

    return TriMesh(points, tris, segs)
