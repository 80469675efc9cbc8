"""MeshArrays flat-list storage: growth, dead-slot contract, snapshots.

The storage contract: the kernel's state is four flat Python lists that
grow in place (an alias held across any insertion sees every later
write) and hold plain ``float`` / ``int`` only; NumPy readers get fresh,
read-only snapshots bounded by the high-water marks; finalize hands
serde C-contiguous ``float64`` / ``int32`` blocks it packs without a
copy.
"""

import numpy as np
import pytest

from repro import BoundaryLayerConfig, MeshConfig, PSLG, generate_mesh, naca0012
from repro.delaunay import refine_pslg
from repro.delaunay.arrays import MeshArrays
from repro.delaunay.kernel import (
    Triangulation,
    TriangulationError,
    triangulate,
)
from repro.runtime import serde
from repro.solver.adapt import ShearLayerProblem, adapt_loop


class TestMeshArrays:
    def test_growth_preserves_live_prefix(self):
        tri = Triangulation()
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

    def test_alias_held_across_growth_sees_every_write(self):
        tri = triangulate(np.random.default_rng(0).random((10, 2)))
        arr = tri._arr
        px, tv = arr.px, arr.tv
        for x, y in np.random.default_rng(1).random((2000, 2)).tolist():
            tri.insert_point(x, y)
        assert arr.n_pts == 2010
        assert px is arr.px and tv is arr.tv
        assert len(px) == 2 * arr.n_pts and len(tv) == 3 * arr.n_tris
        assert np.array_equal(np.reshape(px, (-1, 2)), arr.pts())
        assert np.array_equal(np.reshape(tv, (-1, 3)), arr.tri_v())

    def test_snapshots_are_fresh_read_only_and_bounded(self):
        tri = triangulate(np.random.default_rng(2).random((50, 2)))
        arr = tri._arr
        shapes = {"pts": ((arr.n_pts, 2), np.float64, arr.px),
                  "tri_v": ((arr.n_tris, 3), np.int32, arr.tv),
                  "tri_n": ((arr.n_tris, 3), np.int32, arr.tn),
                  "vertex_tri": ((arr.n_pts,), np.int32, arr.vt)}
        before = {name: getattr(arr, name)() for name in shapes}
        for name, (shape, dtype, flat) in shapes.items():
            snap = before[name]
            assert snap.shape == shape and snap.dtype == dtype
            assert snap.flags.c_contiguous and not snap.flags.writeable
            assert snap.ravel().tolist() == flat
            with pytest.raises(ValueError):
                snap.ravel()[0] = 0
            again = getattr(arr, name)()
            assert again is not snap and not np.shares_memory(again, snap)
        frozen = {name: snap.copy() for name, snap in before.items()}
        tri.insert_point(0.5, 0.5)
        for name, snap in before.items():
            assert np.array_equal(snap, frozen[name]), name
        assert len(arr.pts()) == len(before["pts"]) + 1

    def test_compact_dense_returns_point_snapshot(self):
        tri = triangulate(np.random.default_rng(0).random((50, 2)))
        pts, tris, remap = tri._arr.compact()
        assert remap is None
        assert np.array_equal(pts, tri._arr.pts())
        assert not pts.flags.writeable
        assert tris.min() >= 0
        assert tris.max() < len(pts)

    def test_compact_sparse_remaps(self):
        tri = triangulate(np.random.default_rng(1).random((30, 2)))
        arr = tri._arr
        # Keep only the first live real triangle: most vertices drop out.
        mask = arr.tri_v().min(axis=1) >= 0
        first = int(np.flatnonzero(mask)[0])
        keep = np.zeros(arr.n_tris, dtype=bool)
        keep[first] = True
        pts, tris, remap = arr.compact(keep)
        assert tris.shape == (1, 3)
        assert len(pts) == 3
        assert sorted(tris[0].tolist()) == [0, 1, 2]
        kernel_ids = np.flatnonzero(remap >= 0)
        assert np.array_equal(
            pts, arr.pts()[kernel_ids][np.argsort(remap[kernel_ids])])

    def test_compact_empty(self):
        a = MeshArrays()
        pts, tris, remap = a.compact()
        assert pts.shape == (0, 2)
        assert tris.shape == (0, 3)
        assert np.all(remap == -1)


def quickstart_config():
    """examples/quickstart.py."""
    pslg = PSLG.from_loops([naca0012(n_points=101)], names=["naca0012"])
    config = MeshConfig(
        bl=BoundaryLayerConfig(first_spacing=1e-3, growth_ratio=1.3,
                               max_layers=40),
        farfield_chords=40.0,
        target_subdomains=16,
    )
    return pslg, config


class TestPlainScalarsOnly:
    def test_every_entry_is_a_python_float_or_int(self, monkeypatch):
        """NumPy scalars reach the store from the adaptor's smoothing
        (its target is an array), from ``insert_points`` rows and from
        the batch planner's slot arrays; every write site coerces, so
        a generate_mesh item, one adaptation cycle and a batch
        triangulation leave nothing but ``float``/``int`` behind."""
        kernels = []
        export = Triangulation.to_mesh

        def recording(self, **kwargs):
            kernels.append(self)
            return export(self, **kwargs)

        monkeypatch.setattr(Triangulation, "to_mesh", recording)
        generate_mesh(*quickstart_config(), backend="serial")
        n_mesh = len(kernels)
        square = refine_pslg(
            np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
            np.array([[0, 1], [1, 2], [2, 3], [3, 0]]), max_area=0.02)
        result = adapt_loop(square, problem=ShearLayerProblem(0.05, 0.1),
                            cycles=1, eps=4e-2, h_min=1e-3, h_max=0.3)
        assert result.history[-1].report.smooth_moves > 0
        n_adapt = len(kernels) - n_mesh
        kernels.append(triangulate(
            np.random.default_rng(4).uniform(0, 1, size=(600, 2)),
            strategy="batch"))
        assert kernels[-1].stat_batch_points > 0
        assert n_mesh > 10 and n_adapt > 0
        for tri in kernels:
            arr = tri._arr
            assert {type(x) for x in arr.px} == {float}
            for flat in (arr.tv, arr.tn, arr.vt, arr.free):
                assert {type(x) for x in flat} <= {int}


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
    def test_to_mesh_packs_by_buffer_identity(self):
        """Finalize is one C-speed conversion to contiguous float64 /
        int32 blocks, so serde transports the mesh's own arrays (DESIGN:
        "Serde is buffer identity, not copy"), dense or masked."""
        tri = triangulate(np.random.default_rng(4).random((200, 2)))
        keep = np.random.default_rng(7).random(tri._arr.n_tris) < 0.5
        for mesh in (tri.to_mesh(), tri.to_mesh(keep_mask=keep)):
            assert mesh.points.dtype == np.float64
            assert mesh.triangles.dtype == np.int32
            assert mesh.points.flags.c_contiguous
            assert mesh.triangles.flags.c_contiguous
            buffers = serde.pack_mesh(mesh)
            assert buffers["points"] is mesh.points
            tr = buffers["triangles"]
            assert tr is mesh.triangles or tr.base is mesh.triangles
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
