"""Backend parity: every executor backend produces the identical mesh.

The subdomains are decoupled and the serde transport is bit-exact, so
``serial`` and ``processes`` must agree to the last bit — not
approximately.  Meshes are compared in canonical form (points sorted
lexicographically, triangle indices remapped and rotation-normalised) so
that merge order cannot mask or fake a difference.
"""

import numpy as np
import pytest

from repro.core.bl_pipeline import BoundaryLayerConfig
from repro.core.pipeline import MeshConfig, generate_mesh
from repro.geometry.airfoils import naca0012
from repro.geometry.pslg import PSLG
from repro.runtime import executor, serde

PARALLEL_BACKENDS = ["processes"]


def canonical(mesh):
    """Order-independent canonical form of a TriMesh.

    Returns (points, triangles, segments) with points sorted
    lexicographically, indices remapped, each triangle rotated so its
    smallest vertex leads (rotation preserves orientation), segment
    endpoint pairs sorted, and all rows sorted.
    """
    order = np.lexsort((mesh.points[:, 1], mesh.points[:, 0]))
    points = mesh.points[order]
    remap = np.empty(len(order), dtype=np.int64)
    remap[order] = np.arange(len(order))
    tris = remap[mesh.triangles]
    roll = np.argmin(tris, axis=1)
    tris = np.stack([
        tris[np.arange(len(tris)), (roll + k) % 3] for k in range(3)
    ], axis=1)
    tris = tris[np.lexsort((tris[:, 2], tris[:, 1], tris[:, 0]))]
    segs = np.sort(remap[mesh.segments], axis=1) if len(mesh.segments) \
        else np.empty((0, 2), dtype=np.int64)
    if len(segs):
        segs = segs[np.lexsort((segs[:, 1], segs[:, 0]))]
    return points, tris, segs


def assert_identical(mesh_a, mesh_b):
    pa, ta, sa = canonical(mesh_a)
    pb, tb, sb = canonical(mesh_b)
    assert np.array_equal(pa, pb), "point sets differ"
    assert np.array_equal(ta, tb), "triangle connectivity differs"
    assert np.array_equal(sa, sb), "segment sets differ"


class TestPipelineParity:
    @classmethod
    def setup_class(cls):
        cls.pslg = PSLG.from_loops([naca0012(41)])
        cls.config = MeshConfig(
            bl=BoundaryLayerConfig(first_spacing=2e-3, growth_ratio=1.4,
                                   max_layers=12),
            farfield_chords=10.0,
            target_subdomains=8,
        )
        cls.reference = generate_mesh(cls.pslg, cls.config,
                                      backend="serial")

    @pytest.mark.parametrize("name", PARALLEL_BACKENDS)
    def test_identical_mesh(self, name):
        result = generate_mesh(self.pslg, self.config, backend=name,
                               n_ranks=3)
        assert_identical(result.mesh, self.reference.mesh)

    def test_rank_count_does_not_matter(self):
        result = generate_mesh(self.pslg, self.config, backend="processes",
                               n_ranks=2)
        assert_identical(result.mesh, self.reference.mesh)

    def test_subdomains_survive_serde_round_trip(self):
        """Serde on the *real* pipeline subdomains, not synthetic rings."""
        for sub in self.reference.subdomains:
            back = serde.unpack_subdomain(serde.pack_subdomain(sub))
            assert np.array_equal(back.ring, sub.ring)
            assert back.level == sub.level
            assert len(back.hole_rings) == len(sub.hole_rings)
            for a, b in zip(back.hole_rings, sub.hole_rings):
                assert np.array_equal(a, b)


class TestStreamingParity:
    """Streamed dispatch is an execution-overlap optimisation, not a
    different algorithm.  ``serial`` buffers the streamed submissions
    and maps them after decoupling finished — the barriered reference —
    and submission order is the same on every backend, so the merged
    mesh must be *byte*-identical — raw array bytes, not just canonical
    form."""

    @classmethod
    def setup_class(cls):
        cls.pslg = PSLG.from_loops([naca0012(41)])
        cls.config = MeshConfig(
            bl=BoundaryLayerConfig(first_spacing=2e-3, growth_ratio=1.4,
                                   max_layers=12),
            farfield_chords=10.0,
            target_subdomains=8,
        )
        cls.barriered = generate_mesh(cls.pslg, cls.config,
                                      backend="serial")

    def assert_bytes_identical(self, mesh):
        ref = self.barriered.mesh
        assert mesh.points.tobytes() == ref.points.tobytes()
        assert mesh.triangles.tobytes() == ref.triangles.tobytes()
        assert mesh.segments.tobytes() == ref.segments.tobytes()

    @pytest.mark.parametrize("name", PARALLEL_BACKENDS)
    def test_streamed_equals_barriered(self, name):
        streamed = generate_mesh(self.pslg, self.config, backend=name,
                                 n_ranks=3)
        self.assert_bytes_identical(streamed.mesh)
        # The streamed run discovered the same subdomain sequence.
        assert len(streamed.subdomains) == len(self.barriered.subdomains)
        for a, b in zip(streamed.subdomains, self.barriered.subdomains):
            assert np.array_equal(a.ring, b.ring)
