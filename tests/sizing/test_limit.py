"""Hamilton-Jacobi gradient limiter: exactness, idempotence, sharing.

``limit_field`` is the gradation core —
:meth:`repro.metric.MetricField.limit_gradation` funnels its per-vertex
minimum spacing through it — so its fixed-point properties are checked
on explicit graphs where the answer is known in closed form, and on a
mesh's edge graph.
"""

import numpy as np
import pytest

from repro.sizing.limit import limit_field


def path_graph(n, length=1.0):
    edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    lengths = np.full(n - 1, length)
    return edges, lengths


class TestLimitField:
    def test_spike_relaxes_linearly(self):
        """A single small value propagates as h0 + g * distance."""
        edges, lengths = path_graph(6)
        values = np.array([0.1, 9.0, 9.0, 9.0, 9.0, 9.0])
        out = limit_field(edges, lengths, values, 0.5)
        np.testing.assert_allclose(
            out, [0.1, 0.6, 1.1, 1.6, 2.1, 2.6], rtol=1e-12)

    def test_never_increases_values(self):
        rng = np.random.default_rng(0)
        edges, lengths = path_graph(50, 0.3)
        values = rng.uniform(0.1, 5.0, 50)
        out = limit_field(edges, lengths, values, 0.4)
        assert np.all(out <= values + 1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        edges, lengths = path_graph(40, 0.2)
        values = rng.uniform(0.1, 5.0, 40)
        once = limit_field(edges, lengths, values, 0.3)
        twice = limit_field(edges, lengths, once, 0.3)
        np.testing.assert_array_equal(once, twice)

    def test_slope_bound_holds_on_every_edge(self):
        rng = np.random.default_rng(2)
        n = 60
        pts = rng.uniform(size=(n, 2))
        edges = np.unique(np.sort(
            rng.integers(0, n, size=(300, 2)), axis=1), axis=0)
        edges = edges[edges[:, 0] != edges[:, 1]]
        lengths = np.linalg.norm(pts[edges[:, 1]] - pts[edges[:, 0]],
                                 axis=1)
        keep = lengths > 0
        edges, lengths = edges[keep], lengths[keep]
        values = rng.uniform(0.01, 10.0, n)
        g = 0.25
        out = limit_field(edges, lengths, values, g)
        dh = np.abs(out[edges[:, 1]] - out[edges[:, 0]])
        assert np.all(dh <= g * lengths + 1e-9)

    def test_zero_slope_floods_minimum(self):
        edges, lengths = path_graph(5)
        values = np.array([3.0, 1.0, 4.0, 0.5, 2.0])
        out = limit_field(edges, lengths, values, 0.0)
        np.testing.assert_allclose(out, 0.5)

    def test_rejects_bad_input(self):
        edges, lengths = path_graph(3)
        with pytest.raises(ValueError):
            limit_field(edges, lengths, np.ones(3), -1.0)
        with pytest.raises(ValueError):
            limit_field(edges, np.zeros(2), np.ones(3), 0.5)


class TestMeshAndWrapper:
    def test_limit_sizing_on_mesh(self):
        from repro.delaunay import refine_pslg

        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        segs = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
        mesh = refine_pslg(pts, segs, max_area=0.02)
        h = np.full(mesh.n_points, 1.0)
        h[0] = 0.01
        edges = mesh.edges()
        lengths = np.linalg.norm(
            mesh.points[edges[:, 1]] - mesh.points[edges[:, 0]], axis=1)
        out = limit_field(edges, lengths, h, 0.3)
        dh = np.abs(out[edges[:, 1]] - out[edges[:, 0]])
        assert np.all(dh <= 0.3 * lengths + 1e-9)

    def test_metric_gradation_shares_scalar_core(self):
        """Scalar limiter == metric limiter on isotropic tensors."""
        from repro.metric import MetricField, tensor

        rng = np.random.default_rng(3)
        n = 30
        pts = rng.uniform(size=(n, 2))
        h = rng.uniform(0.05, 1.0, n)
        edges = np.unique(np.sort(
            rng.integers(0, n, size=(120, 2)), axis=1), axis=0)
        edges = edges[edges[:, 0] != edges[:, 1]]
        lengths = np.linalg.norm(pts[edges[:, 1]] - pts[edges[:, 0]],
                                 axis=1)
        keep = lengths > 0
        edges, lengths = edges[keep], lengths[keep]

        scalar = limit_field(edges, lengths, h, 0.3)
        f = MetricField(pts, tensor.identity(n, 1.0 / (h * h)))
        f = f.limit_gradation(edges, grading=0.3)
        hs, _ = f.sizes()
        np.testing.assert_allclose(hs, scalar, rtol=1e-9)
