"""Tests for surface resampling."""

import math

import numpy as np
import pytest

from repro.geometry.airfoils import naca0012
from repro.geometry.resample import loop_curvature, resample_curvature


def circle(n=100, r=2.0):
    th = np.linspace(0, 2 * math.pi, n, endpoint=False)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


class TestCurvature:
    def test_circle_curvature(self):
        c = circle(n=200, r=2.0)
        kappa = loop_curvature(c)
        np.testing.assert_allclose(kappa, 0.5, rtol=1e-3)

    def test_square_corners_large(self):
        sq = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
        kappa = loop_curvature(sq)
        assert np.all(kappa > 1.0)

    def test_flat_segments_zero(self):
        line = np.array([(0, 0), (1, 0), (2, 0), (2, 1), (0, 1)],
                        dtype=float)
        kappa = loop_curvature(line)
        assert kappa[1] == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_vertex_rejected(self):
        bad = np.array([(0, 0), (0, 0), (1, 0), (0, 1)], dtype=float)
        with pytest.raises(ValueError):
            loop_curvature(bad)

    def test_airfoil_le_most_curved(self):
        af = naca0012(201)
        kappa = loop_curvature(af)
        # Exclude the TE cusp vertex itself (a corner, finite but huge).
        smooth = np.abs(af[:, 0] - 1.0) > 1e-6
        le_region = af[:, 0] < 0.02
        assert kappa[smooth & le_region].max() > 5 * np.median(kappa[smooth])


def resample_uniform(coords, n_points):
    """Equal arc-length spacing: curvature resampling at zero strength."""
    return resample_curvature(coords, n_points, strength=0.0)


class TestResampleUniform:
    def test_count_and_spacing(self):
        c = circle(n=173)
        out = resample_uniform(c, 60)
        assert len(out) == 60
        d = np.linalg.norm(np.diff(np.vstack([out, out[:1]]), axis=0),
                           axis=1)
        assert d.max() / d.min() < 1.15

    def test_points_on_original_polyline(self):
        sq = np.array([(0, 0), (4, 0), (4, 4), (0, 4)], dtype=float)
        out = resample_uniform(sq, 16)
        # On the square's boundary: inside it, and on one of its sides.
        assert np.all((out >= 0.0) & (out <= 4.0))
        assert np.all(np.abs(np.minimum(out, 4.0 - out)).min(axis=1)
                      < 1e-9)

    def test_corners_preserved(self):
        sq = np.array([(0, 0), (4, 0), (4, 4), (0, 4)], dtype=float)
        out = resample_uniform(sq, 20)
        out_set = {tuple(np.round(p, 9)) for p in out}
        for corner in sq:
            assert tuple(np.round(corner, 9)) in out_set

    def test_validation(self):
        with pytest.raises(ValueError):
            resample_uniform(circle(), 2)
        sq = np.array([(0, 0), (4, 0), (4, 4), (0, 4)], dtype=float)
        with pytest.raises(ValueError):
            resample_uniform(sq, 3)  # fewer points than corners


class TestResampleCurvature:
    def test_clusters_at_leading_edge(self):
        af = naca0012(401)
        out = resample_curvature(af, 101, strength=3.0)
        assert len(out) == 101
        d = np.linalg.norm(np.diff(np.vstack([out, out[:1]]), axis=0),
                           axis=1)
        mids = 0.5 * (out + np.roll(out, -1, axis=0))
        le = mids[:, 0] < 0.1
        mid_chord = (mids[:, 0] > 0.3) & (mids[:, 0] < 0.7)
        assert d[le].mean() < 0.6 * d[mid_chord].mean()

    def test_zero_strength_is_uniform(self):
        """Without the curvature weight the leading edge gets no
        clustering: the spacing there is the mid-chord spacing."""
        af = naca0012(401)
        out = resample_curvature(af, 101, strength=0.0)
        d = np.linalg.norm(np.diff(np.vstack([out, out[:1]]), axis=0),
                           axis=1)
        mids = 0.5 * (out + np.roll(out, -1, axis=0))
        le = mids[:, 0] < 0.1
        mid_chord = (mids[:, 0] > 0.3) & (mids[:, 0] < 0.7)
        assert d[le].mean() == pytest.approx(d[mid_chord].mean(), rel=0.1)

    def test_max_ratio_bounds_starvation(self):
        af = naca0012(401)
        out = resample_curvature(af, 81, strength=10.0)
        d = np.linalg.norm(np.diff(np.vstack([out, out[:1]]), axis=0),
                           axis=1)
        # No absurdly long edges despite the strong clustering.
        assert d.max() / np.median(d) < 12.0

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            resample_curvature(circle(), 20, strength=-1.0)

    def test_meshing_pipeline_accepts_resampled_surface(self):
        from repro.core.bl_pipeline import (
            BoundaryLayerConfig,
            generate_boundary_layer,
        )
        from repro.geometry.pslg import PSLG

        out = resample_curvature(naca0012(301), 81, strength=2.0)
        pslg = PSLG.from_loops([out])
        res = generate_boundary_layer(
            pslg, BoundaryLayerConfig(first_spacing=2e-3, growth_ratio=1.4,
                                      max_layers=10))
        assert res.mesh.is_conforming()
        assert res.mesh.n_triangles > 100
