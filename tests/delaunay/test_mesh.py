"""Tests for the TriMesh data structure and quality metrics."""

import math

import numpy as np
import pytest

from repro.delaunay.mesh import TriMesh, merge_meshes


def unit_square_two_tris():
    pts = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    tris = np.array([(0, 1, 2), (0, 2, 3)])
    return TriMesh(pts, tris)


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            TriMesh(np.zeros((3, 3)), np.array([(0, 1, 2)]))
        with pytest.raises(ValueError):
            TriMesh(np.zeros((2, 2)), np.array([(0, 1, 2)]))

    def test_negative_triangle_index_rejected(self):
        # Regression: only the upper bound used to be checked, so a
        # stray GHOST (-1) id slipped through validation.
        with pytest.raises(ValueError, match="negative"):
            TriMesh(np.zeros((3, 2)), np.array([(0, 1, -1)]))

    def test_segment_indices_validated(self):
        pts = np.array([(0, 0), (1, 0), (1, 1)], dtype=float)
        tris = np.array([(0, 1, 2)])
        with pytest.raises(ValueError, match="segment"):
            TriMesh(pts, tris, np.array([(0, 3)]))
        with pytest.raises(ValueError, match="segment"):
            TriMesh(pts, tris, np.array([(-1, 1)]))
        with pytest.raises(ValueError, match="segment"):
            TriMesh(pts, tris, np.array([(0, 1, 2)]))

    def test_areas_and_centroids(self):
        m = unit_square_two_tris()
        np.testing.assert_allclose(m.areas(), [0.5, 0.5])
        np.testing.assert_allclose(m.centroids()[0], (2 / 3, 1 / 3))

    def test_edge_lengths_opposite_convention(self):
        pts = np.array([(0, 0), (3, 0), (0, 4)], dtype=float)
        m = TriMesh(pts, np.array([(0, 1, 2)]))
        ls = m.edge_lengths()[0]
        # Column k is opposite vertex k: opposite 0 is edge (1,2) len 5.
        assert ls[0] == pytest.approx(5.0)
        assert ls[1] == pytest.approx(4.0)
        assert ls[2] == pytest.approx(3.0)

    def test_circumradius_right_triangle(self):
        pts = np.array([(0, 0), (3, 0), (0, 4)], dtype=float)
        m = TriMesh(pts, np.array([(0, 1, 2)]))
        assert m.circumradii()[0] == pytest.approx(2.5)

    def test_degenerate_circumradius_inf(self):
        pts = np.array([(0, 0), (1, 0), (2, 0)], dtype=float)
        m = TriMesh(pts, np.array([(0, 1, 2)]))
        assert m.circumradii()[0] == math.inf

    def test_angles_sum(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, size=(30, 2))
        from repro.delaunay.kernel import delaunay_mesh

        m = delaunay_mesh(pts)
        np.testing.assert_allclose(m.angles().sum(axis=1), math.pi, rtol=1e-9)

    def test_equilateral_metrics(self):
        h = math.sqrt(3) / 2
        m = TriMesh(np.array([(0, 0), (1, 0), (0.5, h)]), np.array([(0, 1, 2)]))
        assert m.radius_edge_ratios()[0] == pytest.approx(1 / math.sqrt(3))
        assert math.degrees(m.min_angle()) == pytest.approx(60.0)

    def test_aspect_ratio_anisotropic(self):
        # A 1000:1 sliver, like a boundary-layer triangle.
        m = TriMesh(
            np.array([(0, 0), (1, 0), (0.5, 0.0005)]), np.array([(0, 1, 2)])
        )
        # base 1, min altitude 2*area/base = 0.0005 -> ratio 2000.
        assert m.aspect_ratios()[0] == pytest.approx(2000.0, rel=0.01)


class TestTopology:
    def test_edges_and_boundary(self):
        m = unit_square_two_tris()
        assert len(m.edges()) == 5
        be = {tuple(e) for e in m.boundary_edges().tolist()}
        assert be == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_neighbors(self):
        m = unit_square_two_tris()
        nbr = m.neighbors()
        # Triangle 0 = (0,1,2): edge opposite vertex 1 is (2,0) shared with t1.
        assert nbr[0, 1] == 1
        assert nbr[1, 2] == 0 or nbr[1].tolist().count(0) == 1

    def test_conforming(self):
        m = unit_square_two_tris()
        assert m.is_conforming()
        bad = TriMesh(
            np.array([(0, 0), (1, 0), (0, 1), (1, 1), (0.5, -1)], dtype=float),
            np.array([(0, 1, 2), (0, 1, 3), (0, 1, 4)]),
        )
        assert not bad.is_conforming()

    def test_contains_segments(self):
        m = unit_square_two_tris()
        assert m.contains_segments(np.array([(0, 1), (2, 0)]))
        assert not m.contains_segments(np.array([(1, 3)]))


class TestDelaunayCheck:
    def test_flat_quad_violation(self):
        # Choose the "wrong" diagonal of a quad: Delaunay violation.
        pts = np.array([(0, 0), (2, 0), (2.2, 1), (0, 1)], dtype=float)
        good = TriMesh(pts, np.array([(0, 1, 3), (1, 2, 3)]))
        bad = TriMesh(pts, np.array([(0, 1, 2), (0, 2, 3)]))
        total = good.delaunay_violations(respect_segments=False) + \
            bad.delaunay_violations(respect_segments=False)
        assert total == 1  # exactly one of the two diagonals violates

    def test_constrained_edge_exempt(self):
        pts = np.array([(0, 0), (2, 0), (2.2, 1), (0, 1)], dtype=float)
        for tris in ([(0, 1, 2), (0, 2, 3)], [(0, 1, 3), (1, 2, 3)]):
            m = TriMesh(pts, np.array(tris))
            if m.delaunay_violations(respect_segments=False) == 1:
                diag = (
                    np.array([(0, 2)]) if (0, 2) in
                    {tuple(sorted(e)) for e in m.edges().tolist()} else
                    np.array([(1, 3)])
                )
                m2 = TriMesh(pts, np.array(tris), segments=diag)
                assert m2.delaunay_violations(respect_segments=True) == 0
                return
        pytest.fail("no violating diagonal found")


class TestQualitySummary:
    def test_summary_keys(self):
        m = unit_square_two_tris()
        s = m.quality_summary()
        assert s["n_triangles"] == 2
        assert s["min_angle_deg"] == pytest.approx(45.0)
        assert s["total_area"] == pytest.approx(1.0)

    def test_empty_mesh(self):
        m = TriMesh(np.zeros((3, 2)), np.empty((0, 3), dtype=np.int32))
        assert m.quality_summary()["n_triangles"] == 0
        assert math.isnan(m.min_angle())


class TestMerge:
    def test_merge_shared_border(self):
        left = TriMesh(
            np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float),
            np.array([(0, 1, 2), (0, 2, 3)]),
        )
        right = TriMesh(
            np.array([(1, 0), (2, 0), (2, 1), (1, 1)], dtype=float),
            np.array([(0, 1, 2), (0, 2, 3)]),
        )
        merged = merge_meshes([left, right])
        assert merged.n_points == 6  # two shared vertices welded
        assert merged.n_triangles == 4
        assert merged.is_conforming()
        assert np.abs(merged.areas()).sum() == pytest.approx(2.0)

    def test_merge_empty_raises(self):
        with pytest.raises(ValueError):
            merge_meshes([])

    def test_merge_preserves_segments(self):
        m = TriMesh(
            np.array([(0, 0), (1, 0), (0, 1)], dtype=float),
            np.array([(0, 1, 2)]),
            segments=np.array([(0, 1)]),
        )
        merged = merge_meshes([m, m])
        assert merged.n_triangles == 1  # duplicate dropped
        assert len(merged.segments) == 1


class TestDnc:
    def test_insertion_orders(self):
        from repro.delaunay.dnc import insertion_order, triangulate_ordered

        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, size=(100, 2))
        for policy in ("sorted", "random", "brio", "given"):
            order = insertion_order(pts, policy)
            assert sorted(order.tolist()) == list(range(100))
            mesh = triangulate_ordered(pts, policy)
            assert mesh.n_triangles > 0
            assert mesh.delaunay_violations(respect_segments=False) == 0

    def test_unknown_policy(self):
        from repro.delaunay.dnc import insertion_order

        with pytest.raises(ValueError):
            insertion_order(np.zeros((4, 2)), "zigzag")

    def test_all_policies_same_triangulation(self):
        from repro.delaunay.dnc import triangulate_ordered

        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, size=(80, 2))
        meshes = [triangulate_ordered(pts, p) for p in ("sorted", "brio", "random")]
        sets = [
            {tuple(sorted(t)) for t in m.triangles.tolist()} for m in meshes
        ]
        assert sets[0] == sets[1] == sets[2]
