"""MeshArrays SoA storage: growth, dead-slot contract, zero-copy compact.

The acceptance bar for the array-backed mesh core: finalize and serde
must not copy per triangle in Python, and the dense compaction must hand
back *views* of kernel storage (asserted on ``.base`` identity).
"""

import numpy as np
import pytest

from repro.delaunay.arrays import DEAD, MeshArrays
from repro.delaunay.kernel import (
    Triangulation,
    TriangulationError,
    triangulate,
)


class TestMeshArrays:
    def test_growth_preserves_live_prefix(self):
        tri = Triangulation()  # default capacity: 64 points, 128 slots
        a = tri._arr
        for i in range(100):
            a.new_point(float(i), float(-i))
        assert a.n_pts == 100
        assert a.point(57) == (57.0, -57.0)
        for _ in range(200):
            tri._new_triangle(0, 1, 2)
        assert a.n_tris == 200
        assert a.triangle(199) == (0, 1, 2)
        assert a.triangle(3) == (0, 1, 2)

    def test_kill_recycles_and_is_dead(self):
        tri = Triangulation()
        a = tri._arr
        for i in range(6):
            a.new_point(float(i), float(i * i))
        t = tri._new_triangle(5, 1, 2)
        assert not a.is_dead(t)
        a.kill(t)
        assert a.is_dead(t)
        assert a.triangle(t) is None
        assert tri._new_triangle(0, 1, 2) == t  # recycled from the free list

    def test_reserve_rebinds_views(self):
        a = MeshArrays()
        a.new_point(1.0, 2.0)
        old_px = a.px
        a.reserve_points(10_000)
        assert a.px is not old_px
        assert a.point(0) == (1.0, 2.0)

    def test_compact_dense_returns_view(self):
        tri = triangulate(np.random.default_rng(0).random((50, 2)))
        pts, tris, remap = tri._arr.compact()
        assert remap is None
        # Zero-copy: the point block is a read-only view of the kernel
        # buffer, not a copy.
        assert pts.base is tri._arr.pts
        assert not pts.flags.writeable
        assert tris.min() >= 0
        assert tris.max() < len(pts)

    def test_compact_sparse_remaps(self):
        tri = triangulate(np.random.default_rng(1).random((30, 2)))
        arr = tri._arr
        # Keep only the first live real triangle: most vertices drop out.
        mask = arr.tri_v[: arr.n_tris].min(axis=1) >= 0
        first = int(np.flatnonzero(mask)[0])
        keep = np.zeros(arr.n_tris, dtype=bool)
        keep[first] = True
        pts, tris, remap = arr.compact(keep)
        assert tris.shape == (1, 3)
        assert len(pts) == 3
        assert sorted(tris[0].tolist()) == [0, 1, 2]
        kernel_ids = np.flatnonzero(remap >= 0)
        assert np.array_equal(
            pts, arr.pts[kernel_ids][np.argsort(remap[kernel_ids])])

    def test_compact_empty(self):
        a = MeshArrays()
        pts, tris, remap = a.compact()
        assert pts.shape == (0, 2)
        assert tris.shape == (0, 3)
        assert np.all(remap == -1)


class TestDeadSlotContract:
    """Satellite: ``is_ghost`` liveness semantics on free-list reuse."""

    def test_is_ghost_raises_on_dead_slot(self):
        tri = triangulate(np.random.default_rng(2).random((20, 2)))
        arr = tri._arr
        live = [t for t in tri.live_triangles()][0]
        arr.kill(live)
        with pytest.raises(TriangulationError, match="dead"):
            tri.is_ghost(live)

    def test_triangle_returns_none_for_dead(self):
        tri = triangulate(np.random.default_rng(3).random((20, 2)))
        live = [t for t in tri.live_triangles()][0]
        tri._arr.kill(live)
        assert tri._arr.triangle(live) is None


class TestToMeshZeroCopy:
    def test_dense_to_mesh_shares_kernel_buffer(self):
        tri = triangulate(np.random.default_rng(4).random((200, 2)))
        mesh = tri.to_mesh()
        # Every inserted vertex is referenced -> dense path -> the mesh
        # points are a view over the kernel's point buffer.
        assert mesh.points.base is tri._arr.pts
        assert not mesh.points.flags.writeable
        assert tri.stat_finalize_ns > 0

    def test_masked_to_mesh_matches_bruteforce_export(self):
        tri = triangulate(np.random.default_rng(5).random((120, 2)))
        rng = np.random.default_rng(6)
        keep = rng.random(tri._arr.n_tris) < 0.5
        mesh = tri.to_mesh(keep_mask=keep)
        # Reference export with per-triangle Python loops.
        tris = []
        for t in tri.live_triangles():
            if tri.is_ghost(t) or not keep[t]:
                continue
            tris.append(tri._arr.triangle(t))
        used = sorted({v for tr in tris for v in tr})
        remap = {v: i for i, v in enumerate(used)}
        ref_pts = np.asarray([tri._arr.point(v) for v in used])
        ref_tris = np.asarray(
            [[remap[a], remap[b], remap[c]] for a, b, c in tris],
            dtype=np.int32)
        assert np.array_equal(mesh.points, ref_pts)
        assert np.array_equal(mesh.triangles, ref_tris)
