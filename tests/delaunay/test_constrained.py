"""Tests for constrained segment recovery and carving."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delaunay.constrained import (
    carve,
    insert_segment,
    triangulate_pslg,
)
from repro.delaunay.kernel import Triangulation, triangulate
from repro.delaunay.refine import refine_pslg

from .oracle import check_integrity, constrained_delaunay


def build(points):
    tri = Triangulation()
    ids = [tri.insert_point(x, y) for x, y in points]
    return tri, ids


class TestInsertSegment:
    def test_already_an_edge(self):
        tri, ids = build([(0, 0), (1, 0), (0, 1)])
        segs = insert_segment(tri, ids[0], ids[1])
        assert segs == [(ids[0], ids[1])]

    def test_force_missing_diagonal(self):
        # Square of 4 points plus midpoints arranged so one diagonal exists;
        # force the other.
        tri, ids = build([(0, 0), (2, 0), (2, 2), (0, 2)])
        a, c = ids[0], ids[2]
        b, d = ids[1], ids[3]
        # Whatever diagonal the kernel chose, force the other one.
        if tri.has_edge(a, c):
            insert_segment(tri, b, d)
            assert tri.has_edge(b, d)
        else:
            insert_segment(tri, a, c)
            assert tri.has_edge(a, c)
        check_integrity(tri)

    def test_long_segment_through_many_triangles(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, size=(60, 2)).tolist()
        pts.append((-0.5, 0.5))
        pts.append((1.5, 0.5))
        tri, ids = build(pts)
        insert_segment(tri, ids[-2], ids[-1])
        check_integrity(tri)
        # The segment may have been split by collinear vertices (none here
        # with random data): it must exist as an edge.
        assert tri.has_edge(ids[-2], ids[-1])

    def test_segment_through_collinear_vertex(self):
        tri, ids = build([(0, 0), (2, 0), (4, 0), (1, 1), (3, 1), (1, -1), (3, -1)])
        created = insert_segment(tri, ids[0], ids[2])
        # Vertex (2,0) lies on the segment: it must split into two.
        assert sorted(
            tuple(sorted(s)) for s in created
        ) == [(ids[0], ids[1]), (ids[1], ids[2])]
        check_integrity(tri)

    def test_degenerate_raises(self):
        tri, ids = build([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(ValueError):
            insert_segment(tri, ids[0], ids[0])

    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_random_segment_recovery(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 10, size=(30, 2))
        tri, ids = build(pts.tolist())
        i, j = int(rng.integers(0, 30)), int(rng.integers(0, 30))
        if i == j:
            return
        segs = insert_segment(tri, ids[i], ids[j])
        check_integrity(tri)
        for u, v in segs:
            assert tri.has_edge(u, v)
        mesh = tri.to_mesh()
        assert mesh.is_conforming()
        # Constrained edges are exempt; everything else stays Delaunay.
        assert mesh.delaunay_violations(respect_segments=True) == 0


class TestTriangulatePSLG:
    def test_square_boundary(self):
        pts = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
        segs = np.array([(0, 1), (1, 2), (2, 3), (3, 0)])
        tri = triangulate_pslg(pts, segs)
        check_integrity(tri)
        mesh = tri.to_mesh()
        assert mesh.contains_segments(
            np.array([[mesh_idx(mesh, pts[u]), mesh_idx(mesh, pts[v])]
                      for u, v in segs])
        )

    def test_nonconvex_polygon(self):
        # An L-shape: the reflex corner needs a constrained boundary.
        pts = np.array(
            [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], dtype=float
        )
        segs = np.array([(i, (i + 1) % 6) for i in range(6)])
        mesh = constrained_delaunay(pts, segs)
        assert mesh.is_conforming()
        # Carving must remove everything outside the L: area == 3.
        assert np.abs(mesh.areas()).sum() == pytest.approx(3.0)

    def test_square_with_square_hole(self):
        outer = [(0, 0), (4, 0), (4, 4), (0, 4)]
        inner = [(1.5, 1.5), (2.5, 1.5), (2.5, 2.5), (1.5, 2.5)]
        pts = np.array(outer + inner, dtype=float)
        segs = np.array(
            [(i, (i + 1) % 4) for i in range(4)]
            + [(4 + i, 4 + (i + 1) % 4) for i in range(4)]
        )
        mesh = constrained_delaunay(pts, segs, holes=[(2.0, 2.0)])
        assert np.abs(mesh.areas()).sum() == pytest.approx(16.0 - 1.0)
        # No triangle centroid inside the hole.
        c = mesh.centroids()
        assert not np.any(
            (c[:, 0] > 1.5) & (c[:, 0] < 2.5) & (c[:, 1] > 1.5) & (c[:, 1] < 2.5)
        )

    def test_airfoil_in_box(self):
        from repro.geometry.airfoils import naca0012

        af = naca0012(51)
        box = np.array([(-2, -2), (3, -2), (3, 2), (-2, 2)], dtype=float)
        pts = np.vstack([af, box])
        n = len(af)
        segs = np.array(
            [(i, (i + 1) % n) for i in range(n)]
            + [(n + i, n + (i + 1) % 4) for i in range(4)]
        )
        mesh = constrained_delaunay(pts, segs, holes=[(0.5, 0.0)])
        assert mesh.is_conforming()
        assert mesh.n_triangles > n
        # Hole carved: total area < box area.
        total = np.abs(mesh.areas()).sum()
        assert total < 20.0
        assert total > 19.0  # airfoil area is ~0.08
        assert mesh.delaunay_violations(respect_segments=True) == 0

    @pytest.mark.parametrize("segs, match", [
        ([(0, 1), (1, 2), (2, 5)], r"row 2: \[2, 5\] names a vertex "
                                   r"outside \[0, 4\)"),
        ([(0, 1), (-1, 2)], r"row 1: \[-1, 2\] names a vertex outside"),
        ([(0.5, 1), (1, 2)], r"row 0: \[0.5, 1.0\] is not a pair of "
                             "integral"),
        ([(0, 1, 2)], r"shape \(m, 2\), got \(1, 3\)"),
    ], ids=["past-the-end", "negative", "fractional", "three-columns"])
    def test_bad_segments_name_the_row(self, segs, match):
        """``refine_pslg`` hands its segments to ``triangulate_pslg``,
        which checks them once, before inserting anything."""
        pts = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
        with pytest.raises(ValueError, match=match):
            refine_pslg(pts, np.array(segs), max_area=0.1)

    def test_integral_float_and_empty_segments_are_accepted(self):
        pts = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
        segs = np.array([(0, 1), (1, 2), (2, 3), (3, 0)])
        want = triangulate_pslg(pts, segs).constraints
        assert triangulate_pslg(pts, segs.astype(float)).constraints == want
        assert not triangulate_pslg(pts, np.array([])).constraints


def mesh_idx(mesh, p):
    d = np.linalg.norm(mesh.points - np.asarray(p), axis=1)
    return int(np.argmin(d))


class TestCarve:
    def test_no_constraints_keeps_hull(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, size=(20, 2))
        tri = triangulate(pts)
        mask = carve(tri)
        mesh = tri.to_mesh(keep_mask=mask)
        # Without constraints everything floods from outside: empty mesh.
        assert mesh.n_triangles == 0

    def test_closed_loop_keeps_interior(self):
        pts = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)], dtype=float)
        segs = np.array([(0, 1), (1, 2), (2, 3), (3, 0)])
        tri = triangulate_pslg(pts, segs)
        mask = carve(tri)
        mesh = tri.to_mesh(keep_mask=mask)
        assert np.abs(mesh.areas()).sum() == pytest.approx(1.0)
        assert mesh.n_triangles == 4  # centre point fans to 4 corners
