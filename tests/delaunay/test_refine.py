"""Tests for Ruppert refinement."""

import math

import numpy as np
import pytest

from repro.delaunay.mesh import TriMesh
from repro.delaunay.refine import RUPPERT_BOUND, RefinementError, refine_pslg


def square_pslg(side=1.0):
    pts = np.array([(0, 0), (side, 0), (side, side), (0, side)], dtype=float)
    segs = np.array([(0, 1), (1, 2), (2, 3), (3, 0)])
    return pts, segs


class TestQualityRefinement:
    def test_square_quality(self):
        pts, segs = square_pslg()
        mesh = refine_pslg(pts, segs, quality_bound=RUPPERT_BOUND)
        assert mesh.is_conforming()
        assert np.abs(mesh.areas()).sum() == pytest.approx(1.0)
        # All radius-edge ratios below the bound.
        assert mesh.radius_edge_ratios().max() <= RUPPERT_BOUND + 1e-9
        # sqrt(2) bound <=> min angle >= 20.7 degrees.
        assert math.degrees(mesh.min_angle()) >= 20.7 - 1e-6

    def test_thin_rectangle(self):
        pts = np.array([(0, 0), (10, 0), (10, 1), (0, 1)], dtype=float)
        segs = np.array([(0, 1), (1, 2), (2, 3), (3, 0)])
        mesh = refine_pslg(pts, segs)
        assert np.abs(mesh.areas()).sum() == pytest.approx(10.0)
        assert mesh.radius_edge_ratios().max() <= RUPPERT_BOUND + 1e-9

    def test_l_shape(self):
        pts = np.array(
            [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], dtype=float
        )
        segs = np.array([(i, (i + 1) % 6) for i in range(6)])
        mesh = refine_pslg(pts, segs)
        assert np.abs(mesh.areas()).sum() == pytest.approx(3.0)
        assert mesh.radius_edge_ratios().max() <= RUPPERT_BOUND + 1e-9

    def test_no_quality_no_change(self):
        pts, segs = square_pslg()
        mesh = refine_pslg(pts, segs, quality_bound=None)
        assert mesh.n_points == 4  # nothing to do


class TestAreaRefinement:
    def test_uniform_area_bound(self):
        pts, segs = square_pslg()
        mesh = refine_pslg(pts, segs, max_area=0.01)
        assert np.abs(mesh.areas()).max() <= 0.01 + 1e-12
        assert np.abs(mesh.areas()).sum() == pytest.approx(1.0)
        # Roughly 1/0.01 * 2 triangles expected; sanity band.
        assert 100 <= mesh.n_triangles <= 800

    def test_area_halving_doubles_triangles_roughly(self):
        pts, segs = square_pslg()
        m1 = refine_pslg(pts, segs, max_area=0.02)
        m2 = refine_pslg(pts, segs, max_area=0.01)
        assert m2.n_triangles > 1.4 * m1.n_triangles

    def test_spatially_varying_sizing(self):
        pts, segs = square_pslg()

        def area_fn(x, y):
            # Fine near the left edge, coarse at the right.
            return 0.001 + 0.05 * x

        mesh = refine_pslg(pts, segs, area_fn=area_fn)
        areas = np.abs(mesh.areas())
        cents = mesh.centroids()
        left = areas[cents[:, 0] < 0.25]
        right = areas[cents[:, 0] > 0.75]
        assert left.mean() < right.mean() / 3
        for a, (cx, cy) in zip(areas, cents):
            assert a <= area_fn(cx, cy) + 1e-12

    def test_bad_max_area(self):
        pts, segs = square_pslg()
        with pytest.raises(ValueError):
            refine_pslg(pts, segs, max_area=0.0)

    def test_steiner_budget(self):
        pts, segs = square_pslg()
        with pytest.raises(RefinementError):
            refine_pslg(pts, segs, max_area=1e-5, max_steiner=50)


class TestConstraintsPreserved:
    def test_boundary_still_present_as_subsegments(self):
        pts, segs = square_pslg()
        mesh = refine_pslg(pts, segs, max_area=0.05)
        # All boundary edges must lie on the original square's sides.
        be = mesh.boundary_edges()
        P = mesh.points
        for u, v in be:
            pu, pv = P[u], P[v]
            on_side = (
                (pu[0] == 0 and pv[0] == 0) or (pu[0] == 1 and pv[0] == 1)
                or (pu[1] == 0 and pv[1] == 0) or (pu[1] == 1 and pv[1] == 1)
            )
            assert on_side, (pu, pv)

    def test_hole_preserved(self):
        outer = [(0, 0), (4, 0), (4, 4), (0, 4)]
        inner = [(1.5, 1.5), (2.5, 1.5), (2.5, 2.5), (1.5, 2.5)]
        pts = np.array(outer + inner, dtype=float)
        segs = np.array(
            [(i, (i + 1) % 4) for i in range(4)]
            + [(4 + i, 4 + (i + 1) % 4) for i in range(4)]
        )
        mesh = refine_pslg(pts, segs, holes=[(2.0, 2.0)], max_area=0.1)
        assert np.abs(mesh.areas()).sum() == pytest.approx(15.0)
        c = mesh.centroids()
        inside_hole = (
            (c[:, 0] > 1.5) & (c[:, 0] < 2.5) & (c[:, 1] > 1.5) & (c[:, 1] < 2.5)
        )
        assert not inside_hole.any()
        assert mesh.radius_edge_ratios().max() <= RUPPERT_BOUND + 1e-9

    def test_no_encroached_segments_remain(self):
        pts, segs = square_pslg()
        mesh = refine_pslg(pts, segs, max_area=0.05)
        P = mesh.points
        # For every constrained subsegment, no mesh vertex strictly inside
        # its diametral circle.
        for u, v in mesh.segments:
            mid = 0.5 * (P[u] + P[v])
            r2 = ((P[u] - P[v]) ** 2).sum() / 4.0
            d2 = ((P - mid) ** 2).sum(axis=1)
            inside = d2 < r2 * (1 - 1e-12)
            inside[[u, v]] = False
            assert not inside.any()


class TestAirfoilRefinement:
    def test_naca0012_mesh(self):
        from repro.geometry.airfoils import naca0012

        af = naca0012(61)
        box = np.array([(-1, -1.5), (2.5, -1.5), (2.5, 1.5), (-1, 1.5)])
        pts = np.vstack([af, box])
        n = len(af)
        segs = np.array(
            [(i, (i + 1) % n) for i in range(n)]
            + [(n + i, n + (i + 1) % 4) for i in range(4)]
        )
        # min_edge_floor guards the sharp trailing-edge cusp.
        mesh = refine_pslg(
            pts, segs, holes=[(0.5, 0.0)], max_area=0.05,
            min_edge_floor=1e-3,
        )
        assert mesh.is_conforming()
        assert mesh.n_triangles > 200
        total = np.abs(mesh.areas()).sum()
        assert total == pytest.approx(3.5 * 3.0 - 0.0817, abs=0.01)
        # Quality holds away from the cusp guard.
        ratios = mesh.radius_edge_ratios()
        lens = mesh.edge_lengths().min(axis=1)
        unguarded = lens > 2e-3
        assert ratios[unguarded].max() <= RUPPERT_BOUND + 1e-6


class TestPredicateAccounting:
    def test_encroachment_sweep_decisions_are_counted(self):
        """Every in-disk decision of the pre-insertion cavity sweep
        shows up in the kernel's predicate counters (they feed
        ``exact_escalation_rate``)."""
        from repro.delaunay.constrained import triangulate_pslg
        from repro.delaunay.refine import Refiner

        tri = triangulate_pslg(*square_pslg())
        refiner = Refiner(tri, area_fn=lambda x, y: 0.01)
        in_disk = tri._in_disk
        sweep = refiner._encroached_segments_near
        seen = {"decisions": 0, "counted": 0}

        def predicate_tests():
            return (tri.stat_incircle_fast + tri.stat_incircle_exact
                    + tri.stat_orient_fast + tri.stat_orient_exact)

        def counting_in_disk(t, px, py):
            seen["decisions"] += 1
            return in_disk(t, px, py)

        def measured_sweep(dest, cc):
            tri._in_disk = counting_in_disk
            before = predicate_tests()
            try:
                return sweep(dest, cc)
            finally:
                seen["counted"] += predicate_tests() - before
                del tri._in_disk

        refiner._encroached_segments_near = measured_sweep
        refiner.refine()
        assert seen["decisions"] > 0
        assert seen["counted"] >= seen["decisions"]
