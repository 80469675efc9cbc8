"""Tests for the structural mesh validation report."""

import numpy as np
import pytest

from repro.delaunay.mesh import TriMesh
from repro.delaunay.refine import refine_pslg
from repro.delaunay.validate import validate_mesh


def square_mesh(max_area=0.02):
    pts = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    segs = np.array([(0, 1), (1, 2), (2, 3), (3, 0)])
    return refine_pslg(pts, segs, max_area=max_area)


class TestValidateMesh:
    def test_good_mesh(self):
        mesh = square_mesh()
        rep = validate_mesh(mesh)
        assert rep.ok
        assert rep.conforming
        assert rep.inverted_triangles == 0
        assert rep.delaunay_violations == 0
        assert rep.boundary_loops == 1
        assert rep.total_area == pytest.approx(1.0)
        assert "OK" in rep.summary()

    def test_inverted_detected(self):
        pts = np.array([(0, 0), (1, 0), (0, 1)], dtype=float)
        rep = validate_mesh(TriMesh(pts, np.array([(0, 2, 1)])))
        assert rep.inverted_triangles == 1
        assert not rep.ok

    def test_nonconforming_detected(self):
        pts = np.array([(0, 0), (1, 0), (0, 1), (1, 1), (0.5, -1)],
                       dtype=float)
        rep = validate_mesh(
            TriMesh(pts, np.array([(0, 1, 2), (0, 1, 3), (0, 1, 4)])))
        assert not rep.conforming
        assert not rep.ok

    def test_duplicate_points_detected(self):
        pts = np.array([(0, 0), (1, 0), (0, 1), (0, 0)], dtype=float)
        rep = validate_mesh(TriMesh(pts, np.array([(0, 1, 2)])))
        assert rep.duplicate_points == 1

    def test_missing_segment_detected(self):
        pts = np.array([(0, 0), (1, 0), (0, 1), (1, 1)], dtype=float)
        mesh = TriMesh(pts, np.array([(0, 1, 2)]),
                       segments=np.array([(1, 3)]))
        rep = validate_mesh(mesh)
        assert not rep.segments_present

    def test_hole_counts_two_loops(self):
        outer = [(0, 0), (4, 0), (4, 4), (0, 4)]
        inner = [(1.5, 1.5), (2.5, 1.5), (2.5, 2.5), (1.5, 2.5)]
        pts = np.array(outer + inner, dtype=float)
        segs = np.array([(i, (i + 1) % 4) for i in range(4)]
                        + [(4 + i, 4 + (i + 1) % 4) for i in range(4)])
        mesh = refine_pslg(pts, segs, holes=[(2.0, 2.0)], max_area=0.5)
        rep = validate_mesh(mesh)
        assert rep.boundary_loops == 2
        assert rep.ok

    def test_pipeline_mesh_validates(self):
        from repro import BoundaryLayerConfig, MeshConfig, PSLG, generate_mesh
        from repro.geometry.airfoils import naca0012

        pslg = PSLG.from_loops([naca0012(41)])
        res = generate_mesh(pslg, MeshConfig(
            bl=BoundaryLayerConfig(first_spacing=5e-3, growth_ratio=1.5,
                                   max_layers=8),
            farfield_chords=8.0, target_subdomains=6,
        ))
        rep = validate_mesh(res.mesh, check_delaunay=False)
        assert rep.ok
        assert rep.boundary_loops == 2  # airfoil + far field
