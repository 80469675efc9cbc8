"""Tests for Ruppert refinement."""

import math

import numpy as np
import pytest

from repro.delaunay.constrained import triangulate_pslg
from repro.delaunay.mesh import TriMesh
from repro.delaunay.refine import (
    RUPPERT_BOUND, AreaCriterion, RefinementError, Refiner, refine_pslg)

from .fuzz_refine_digest import case_outcome
from .oracle_refine import RescanRefiner, assert_refinement_complete


def square_pslg(side=1.0):
    pts = np.array([(0, 0), (side, 0), (side, side), (0, side)], dtype=float)
    segs = np.array([(0, 1), (1, 2), (2, 3), (3, 0)])
    return pts, segs


class TestQualityRefinement:
    def test_square_quality(self):
        pts, segs = square_pslg()
        mesh = refine_pslg(pts, segs)
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
        refiner = Refiner(triangulate_pslg(pts, segs), quality_bound=None)
        refiner.refine()
        assert refiner.to_mesh().n_points == 4  # nothing to do


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
            Refiner(triangulate_pslg(pts, segs),
                    criterion=AreaCriterion(lambda x, y: 1e-5),
                    max_steiner=50).refine()


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


class TestSegmentSplits:
    def test_two_segments_encroached_at_once_split_in_cavity_order(self):
        """The circumcenter of the corner triangle of this square
        encroaches the bottom side and the lower half of the left side
        at once.  They are read off one carved cavity, depth first from
        the triangle holding the circumcenter, and split in that order;
        the vertex numbering (ids recorded at commit 6db284c, where a
        second in-disk flood produced the order) follows from it."""
        from repro.delaunay.constrained import triangulate_pslg
        from repro.delaunay.refine import Refiner

        pts, segs = square_pslg()
        tri = triangulate_pslg(np.vstack([pts, [(0.21, 0.58)]]), segs)
        refiner = Refiner(tri)
        batches = []
        split_segments = refiner._split_segments

        def recording(segments, t, work):
            batches.append([tuple(tri._arr.point(w) for w in uv)
                            for uv in segments])
            split_segments(segments, t, work)

        refiner._split_segments = recording
        refiner.refine()
        assert batches == [[((0.0, 0.0), (1.0, 0.0)),
                            ((0.0, 0.5), (0.0, 0.0))]]
        assert tri._arr.pts()[5:].tolist() == [
            [0.0, 0.5], [0.5, 0.0], [0.0, 0.25]]

    def test_unlabelled_split_is_a_typed_error_not_a_silent_hole(self):
        """New triangles that reach no labelled region mean the region
        bookkeeping is broken; labelling them exterior would drop live
        triangles from ``to_mesh()`` without a word."""
        from repro.delaunay.constrained import triangulate_pslg
        from repro.delaunay.refine import Refiner

        tri = triangulate_pslg(*square_pslg())
        refiner = Refiner(tri, quality_bound=None)
        u, v = sorted(tri.constraints)[0]
        refiner._interior.clear()
        with pytest.raises(RefinementError) as err:
            refiner._split_segment(u, v)
        pu, pv = tri._arr.point(u), tri._arr.point(v)
        mid = (0.5 * (pu[0] + pv[0]), 0.5 * (pu[1] + pv[1]))
        assert f"({u},{v})" in str(err.value)
        assert str(mid) in str(err.value)
        n_new = sum(not tri.is_ghost(t) for t in tri.last_created)
        assert f"{n_new} new triangles" in str(err.value)


#: Meshes of two ``fuzz_refine_digest.star_case`` seeds, recorded at
#: commit e3ad0f4, whose driver ended every drain of the queue with a
#: scan of the whole mesh (it lives on as ``RescanRefiner``).  In both,
#: that scan found work.  629: two survivors at one drain, recorded
#: against slot order, so the order they re-enter in shows; 1469: one
#: triangle outlives seven splits in a row, one drain apart each.
SURVIVOR_PINS = {
    629: "2b48bb4dc4215b95a7e9c0845a04b781cd48dd3dcef25940b754c9b35e862e33",
    1469: "983b73e09d3e29822bfecd79b7a608cec20b372bf9ac87019224f4668650f9d4",
}


class TestSurvivors:
    @pytest.mark.parametrize("seed", sorted(SURVIVOR_PINS))
    def test_triangle_that_outlives_its_segment_splits_is_requeued(self,
                                                                   seed):
        """A bad triangle whose circumcenter encroached segments can
        outlive their split; no insertion re-creates it, so the worklist
        takes it back when the queue has drained — the set and the order
        the whole-mesh scan found, hence the same bytes."""
        want, oracle = case_outcome(RescanRefiner, seed)
        assert oracle.rescan_found >= 2
        got, refiner = case_outcome(Refiner, seed)
        assert got == want == SURVIVOR_PINS[seed]
        assert_refinement_complete(refiner)
