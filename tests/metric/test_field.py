"""MetricField: construction, interpolation, Hessian recovery, gradation.

Checks the contracts the adaptation loop leans on: interpolation is
exact at sample points and SPD everywhere, Hessian recovery produces
the analytically expected eigenvalues on a quadratic, and the gradation
limiter bounds size growth along every edge.
"""

import numpy as np
import pytest

from repro.delaunay import refine_pslg
from repro.metric import MetricField, tensor

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
SQUARE_SEGS = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])


def isotropic(points, h):
    """The field prescribing edge length ``h[i]`` at ``points[i]``."""
    return MetricField(points, tensor.identity(len(h), 1.0 / (h * h)))


@pytest.fixture(scope="module")
def square_mesh():
    return refine_pslg(UNIT_SQUARE.copy(), SQUARE_SEGS.copy(),
                       max_area=0.01)


class TestConstruction:
    def test_uniform_sizes(self):
        pts = np.random.default_rng(0).uniform(size=(20, 2))
        f = MetricField.uniform(pts, 0.25)
        hs, hl = f.sizes()
        np.testing.assert_allclose(hs, 0.25)
        np.testing.assert_allclose(hl, 0.25)

    def test_from_sizes_isotropic(self):
        pts = np.zeros((3, 2))
        f = isotropic(pts, np.array([0.1, 0.2, 0.4]))
        hs, hl = f.sizes()
        np.testing.assert_allclose(hs, [0.1, 0.2, 0.4], rtol=1e-12)
        np.testing.assert_allclose(hl, hs, rtol=1e-12)

    def test_rejects_non_spd(self):
        with pytest.raises(ValueError):
            MetricField(np.zeros((1, 2)),
                        np.array([[1.0, 5.0, 1.0]]))  # det < 0

    def test_from_hessian_quadratic(self, square_mesh):
        """u = x^2 + 10 y^2 has Hessian diag(2, 20) everywhere."""
        x, y = square_mesh.points[:, 0], square_mesh.points[:, 1]
        u = x * x + 10.0 * y * y
        f = MetricField.from_hessian(square_mesh, u, eps=1e-2,
                                     h_min=1e-6, h_max=10.0)
        lam1, lam2, v1 = tensor.eig(f.tensors)
        # Interior vertices see the exact Hessian; boundary recovery is
        # one-sided, so check the interior median.
        interior = ((x > 0.2) & (x < 0.8) & (y > 0.2) & (y < 0.8))
        assert np.median(lam1[interior]) == pytest.approx(2000.0, rel=0.05)
        assert np.median(lam2[interior]) == pytest.approx(200.0, rel=0.05)
        # Strong direction is y.
        assert np.median(np.abs(v1[interior, 1])) > 0.99

    @pytest.mark.parametrize("eps, h_min, h_max", [
        (0.0, 1e-3, 1.0), (-1.0, 1e-3, 1.0), (float("nan"), 1e-3, 1.0),
        (float("inf"), 1e-3, 1.0), (1e-2, 0.0, 1.0), (1e-2, 0.5, 0.1),
        (1e-2, float("nan"), 1.0), (1e-2, 1e-3, float("nan")),
        (1e-2, 1e-3, float("inf")),
    ])
    def test_from_hessian_rejects_unusable_settings(self, square_mesh, eps,
                                                   h_min, h_max):
        """NaN passes every ``<=`` test and infinity clamps a spacing to
        0, so both are rejected with the non-positive and the inverted
        settings."""
        u = np.zeros(square_mesh.n_points)
        with pytest.raises(ValueError, match="need finite eps > 0"):
            MetricField.from_hessian(square_mesh, u, eps=eps, h_min=h_min,
                                     h_max=h_max)

    def test_from_hessian_clamps_spacing(self, square_mesh):
        u = np.zeros(square_mesh.n_points)  # zero Hessian -> h_max clamp
        f = MetricField.from_hessian(square_mesh, u, eps=1e-2,
                                     h_min=1e-3, h_max=0.5)
        hs, hl = f.sizes()
        np.testing.assert_allclose(hs, 0.5, rtol=1e-9)
        np.testing.assert_allclose(hl, 0.5, rtol=1e-9)


class TestInterpolation:
    def test_exact_at_samples(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(size=(40, 2))
        f = isotropic(pts, rng.uniform(0.05, 0.5, 40))
        out = f.interpolate(pts)
        np.testing.assert_array_equal(out, f.tensors)

    def test_interpolated_tensors_spd(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(size=(50, 2))
        f = isotropic(pts, rng.uniform(0.05, 0.5, 50))
        q = rng.uniform(-0.2, 1.2, size=(200, 2))
        out = f.interpolate(q)
        assert np.all(out[:, 0] > 0)
        assert np.all(out[:, 0] * out[:, 2] - out[:, 1] ** 2 > 0)

    def test_interpolation_between_two_sizes_geometric(self):
        """Log-Euclidean blend of isotropic h1, h2 at the midpoint is
        the geometric mean (up to IDW weighting symmetry)."""
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        f = isotropic(pts, np.array([0.1, 0.4]))
        out = f.interpolate(np.array([[0.5, 0.0]]))
        h = 1.0 / np.sqrt(out[0, 0])
        assert h == pytest.approx(np.sqrt(0.1 * 0.4), rel=1e-6)


class TestEdgeLengthsAndGradation:
    def test_alauzet_length_exact(self):
        # Edge of Euclidean length 1 between h=0.1 and h=0.2:
        # L = (1/l0) is replaced by the graded formula
        # L = l_lo (r - 1) / ln r with l_lo = 1/0.2... check against
        # direct quadrature of 1/h(t) along the edge.
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        f = isotropic(pts, np.array([0.1, 0.2]))
        L = f.edge_lengths(np.array([[0, 1]]))[0]
        l0, l1 = 10.0, 5.0  # metric lengths at the endpoints
        r = l1 / l0
        assert L == pytest.approx(l0 * (r - 1.0) / np.log(r), rel=1e-12)

    def test_gradation_limit_bounds_growth(self, square_mesh):
        rng = np.random.default_rng(3)
        h = np.where(
            np.hypot(square_mesh.points[:, 0] - 0.5,
                     square_mesh.points[:, 1] - 0.5) < 0.1,
            0.01, 0.5)
        f = isotropic(square_mesh.points, h)
        t = square_mesh.triangles
        edges = np.unique(np.sort(np.concatenate(
            [t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1), axis=0)
        g = f.limit_gradation(edges, grading=0.2)
        hs, _ = g.sizes()
        lengths = np.linalg.norm(
            square_mesh.points[edges[:, 1]]
            - square_mesh.points[edges[:, 0]], axis=1)
        dh = np.abs(hs[edges[:, 1]] - hs[edges[:, 0]])
        assert np.all(dh <= 0.2 * lengths + 1e-9)

    def test_gradation_only_refines(self, square_mesh):
        h = np.where(square_mesh.points[:, 0] < 0.5, 0.01, 0.5)
        f = isotropic(square_mesh.points, h)
        t = square_mesh.triangles
        edges = np.unique(np.sort(np.concatenate(
            [t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1), axis=0)
        g = f.limit_gradation(edges, grading=0.3)
        hs_new, _ = g.sizes()
        hs_old, _ = f.sizes()
        assert np.all(hs_new <= hs_old + 1e-12)
