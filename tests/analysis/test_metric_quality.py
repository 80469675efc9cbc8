"""Quality-in-the-metric measures: unit-band conformity of edges."""

import numpy as np
import pytest

from repro.delaunay import adapt_mesh, refine_pslg
from repro.delaunay.adapt import HIGH_BAND, LOW_BAND, MeshAdaptor
from repro.delaunay.constrained import load_mesh
from repro.metric import MetricField, tensor

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
SQUARE_SEGS = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])


@pytest.fixture(scope="module")
def mesh():
    return refine_pslg(UNIT_SQUARE.copy(), SQUARE_SEGS.copy(),
                       max_area=0.01)


class TestMetricEdgeLengths:
    def test_counts_unique_edges(self, mesh):
        field = MetricField.uniform(mesh.points, 0.1)
        lengths = field.edge_lengths(mesh.edges())
        t = mesh.triangles
        n_edges = len(np.unique(np.sort(np.concatenate(
            [t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1), axis=0))
        assert len(lengths) == n_edges
        assert np.all(lengths > 0)

    def test_matched_metric_gives_unit_lengths(self, mesh):
        """Metric h == actual edge length -> metric lengths near 1."""
        edges = mesh.edges()
        ls = np.linalg.norm(mesh.points[edges[:, 1]]
                            - mesh.points[edges[:, 0]], axis=1)
        field = MetricField.uniform(mesh.points, np.median(ls))
        lengths = field.edge_lengths(edges)
        assert np.median(lengths) == pytest.approx(1.0, rel=0.15)


class TestMetricConformity:
    def test_band_defaults(self):
        assert LOW_BAND == pytest.approx(1.0 / np.sqrt(2.0))
        assert HIGH_BAND == pytest.approx(np.sqrt(2.0))

    def test_conformity_in_unit_interval(self, mesh):
        field = MetricField.uniform(mesh.points, 0.05)
        adaptor = MeshAdaptor(
            load_mesh(mesh.points, mesh.triangles, mesh.segments), field)
        assert 0.0 <= adaptor.conformity() <= 1.0

    def test_adaptation_raises_conformity(self, mesh):
        h = np.where(np.abs(mesh.points[:, 1] - 0.5) < 0.2, 0.05, 0.25)
        field = MetricField(mesh.points,
                            tensor.identity(len(h), 1.0 / (h * h)))
        _, report = adapt_mesh(mesh, field, max_passes=3)
        assert report.conformity_after > report.conformity_before
        assert report.conformity_after > 0.75
