"""Backend parity and serde round trips for metric-adaptation items.

The metric buffers travel over the wire in the compact representation;
serde round trips are exact, so the adapt work item must produce
byte-identical meshes on every backend — the same parity contract the
refinement work item answers to.
"""

import numpy as np
import pytest

from repro.core import pipeline
from repro.delaunay import refine_pslg
from repro.metric import MetricField, tensor
from repro.runtime import executor, serde

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
SQUARE_SEGS = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])


@pytest.fixture(scope="module")
def case():
    mesh = refine_pslg(UNIT_SQUARE.copy(), SQUARE_SEGS.copy(),
                       max_area=0.02)
    h = np.where(np.abs(mesh.points[:, 1] - 0.5) < 0.15, 0.04, 0.3)
    field = MetricField(mesh.points, tensor.identity(len(h), 1.0 / (h * h)))
    return mesh, field


class TestMetricSerde:
    def test_roundtrip_exact(self, case):
        _, field = case
        out = serde.unpack_metric(serde.pack_metric(field))
        np.testing.assert_array_equal(out.points, field.points)
        np.testing.assert_array_equal(out.tensors, field.tensors)

    def test_canonical_hash_stable(self, case):
        _, field = case
        h1 = serde.canonical_hash(serde.pack_metric(field))
        h2 = serde.canonical_hash(serde.pack_metric(
            serde.unpack_metric(serde.pack_metric(field))))
        assert h1 == h2

    def test_wire_roundtrip(self, case):
        _, field = case
        blob = serde.buffers_to_bytes(serde.pack_metric(field))
        out = serde.unpack_metric(serde.bytes_to_buffers(blob))
        np.testing.assert_array_equal(out.tensors, field.tensors)


class TestAdaptWorkitem:
    def test_workitem_matches_direct_call(self, case):
        from repro.delaunay.adapt import adapt_mesh

        mesh, field = case
        payload = pipeline.pack_adapt_item(mesh, field, max_passes=2)
        out = pipeline.adapt_workitem(payload)
        got_mesh, got_report = pipeline.unpack_adapt_result(out)
        want_mesh, want_report = adapt_mesh(mesh, field, max_passes=2)
        assert (serde.canonical_hash(serde.pack_mesh(got_mesh))
                == serde.canonical_hash(serde.pack_mesh(want_mesh)))
        assert got_report.to_dict() == want_report.to_dict()
        # passes, the four operation counts, flip evaluations and sweeps
        assert out["report.counters"].shape == (7,)
        assert got_report.flip_evaluations >= got_report.flips > 0

    def test_knobs_travel(self, case):
        """The pass count and the protection flag travel; no hole seed
        does (the mesh's own triangles are the region)."""
        mesh, field = case
        payload = pipeline.pack_adapt_item(
            mesh, field, max_passes=1, protect_segments=True)
        np.testing.assert_allclose(payload["params"], [1.0, 1.0])
        assert "holes" not in payload

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_backend_parity(self, case, backend):
        mesh, field = case
        payload = pipeline.pack_adapt_item(mesh, field, max_passes=2)
        impl = executor.get_backend(backend)
        n_ranks = 2 if impl.parallel else 1
        (out,) = impl.map_workitems(pipeline.adapt_workitem, [payload],
                                    n_ranks=n_ranks)
        got, got_report = pipeline.unpack_adapt_result(out)
        ref_out = pipeline.adapt_workitem(
            pipeline.pack_adapt_item(mesh, field, max_passes=2))
        ref, ref_report = pipeline.unpack_adapt_result(ref_out)
        assert (serde.canonical_hash(serde.pack_mesh(got))
                == serde.canonical_hash(serde.pack_mesh(ref)))
        assert got_report.to_dict() == ref_report.to_dict()
