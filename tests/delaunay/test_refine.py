"""Tests for Ruppert refinement."""

import math

import numpy as np
import pytest

from repro.delaunay.constrained import (
    RingError, load_mesh, triangulate_polygon, triangulate_pslg)
from repro.delaunay.cavity import split_edge
from repro.delaunay.kernel import GHOST, TriangulationError
from repro.delaunay.mesh import TriMesh
from repro.delaunay.refine import (
    RUPPERT_BOUND, AreaCriterion, RefinementError, Refiner, refine_pslg)
from repro.geometry.predicates import incircle
from repro.sizing.functions import GradedDistanceSizing

from ..pins import SURVIVOR_SEEDS, pin
from .fuzz_refine_digest import case_outcome
from .oracle import check_integrity
from .oracle_refine import RescanRefiner, assert_refinement_complete


def square_pslg(side=1.0):
    pts = np.array([(0, 0), (side, 0), (side, side), (0, side)], dtype=float)
    segs = np.array([(0, 1), (1, 2), (2, 3), (3, 0)])
    return pts, segs


def holed_square_pslg():
    """A 4 x 4 square around a 1 x 1 square hole."""
    pts = np.array([(0, 0), (4, 0), (4, 4), (0, 4),
                    (1.5, 1.5), (2.5, 1.5), (2.5, 2.5), (1.5, 2.5)],
                   dtype=float)
    segs = np.array([(0, 1), (1, 2), (2, 3), (3, 0),
                     (4, 5), (5, 6), (6, 7), (7, 4)])
    return pts, segs


def assert_cdt(tri):
    """Every edge between two real triangles that is no constraint is
    locally Delaunay (exact incircle)."""
    arr = tri._arr
    for t in tri.live_triangles():
        row = arr.triangle(t)
        if GHOST in row:
            continue
        for k in range(3):
            u, v = row[k - 2], row[k - 1]
            nb = arr.tn[3 * t + k]
            far = arr.triangle(nb)
            if (min(u, v), max(u, v)) in tri.constraints or GHOST in far:
                continue
            w = next(x for x in far if x not in (u, v))
            assert incircle(*(arr.point(x) for x in row),
                            arr.point(w)) <= 0, (row, far)


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
        refiner = Refiner(triangulate_polygon(pts), quality_bound=None)
        refiner.refine()
        assert refiner.to_mesh().n_points == 4  # nothing to do

    def test_hull_with_an_open_ghost_is_refused(self):
        """The hull of a concave PSLG has a ghost across the unconstrained
        edge that closes the notch: refined, the notch would be meshed."""
        pts = np.array([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],
                       dtype=float)
        segs = np.array([(i, (i + 1) % 6) for i in range(6)])
        with pytest.raises(ValueError, match="boundary edge .* is not a "
                                             "constraint"):
            Refiner(triangulate_pslg(pts, segs))

    def test_triangulation_without_ghosts_is_refused(self):
        """A boundary edge with nothing across it could not split: the
        refiner refuses the triangulation, the edge split the edge."""
        pts, segs = square_pslg()
        tri = load_mesh(pts, [(0, 1, 2), (0, 2, 3)], segs)
        for t in list(tri.live_triangles()):
            if tri.is_ghost(t):
                tri._kill_triangle(t)
        tri._arr.tn[:6] = [-1, 1, -1, -1, -1, 0]
        with pytest.raises(ValueError, match="no triangle or ghost"):
            Refiner(tri)
        with pytest.raises(TriangulationError, match="nothing across"):
            split_edge(tri, 0, 1, 0.5, 0.0)
        assert tri._arr.n_pts == 4


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
            Refiner(triangulate_polygon(pts),
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
        pts, segs = square_pslg()
        # Any point inside the square is inside its corners' circle, so
        # the fan round (0.21, 0.58) is the CDT.
        tri = load_mesh(np.vstack([pts, [(0.21, 0.58)]]),
                        [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)], segs)
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

    def test_segment_split_is_an_edge_split(self):
        """A boundary segment of a polygon splits as an edge: its real
        triangle and its ghost each become two, no cavity is carved, the
        halves are constrained and the result is a CDT again."""
        tri = triangulate_polygon(np.array([(0, 0), (4, 0), (4, 1), (0, 1)],
                                           dtype=float))
        refiner = Refiner(tri, quality_bound=None)
        live = tri.n_live_triangles
        mid = refiner._split_segment(0, 1)
        assert tri._arr.point(mid) == (2.0, 0.0)
        assert tri.n_live_triangles == live + 2
        assert tri.last_removed == [] and tri.stat_cavity_triangles == 0
        assert {(0, mid), (1, mid)} <= tri.constraints
        assert (0, 1) not in tri.constraints
        assert refiner.steiner_count == 1
        check_integrity(tri)
        assert_cdt(tri)

    def test_split_too_short_to_split_is_a_typed_error(self):
        """A segment whose ends are adjacent floats has no midpoint of
        its own: a typed error names it, and nothing changes."""
        a = 1.0
        b = np.nextafter(a, 2.0)
        tri = triangulate_polygon(np.array([(a, 0.0), (b, 0.0), (b, 1.0),
                                            (a, 1.0)]))
        refiner = Refiner(tri, quality_bound=None)
        before = (list(tri._arr.tv), set(tri.constraints))
        with pytest.raises(RefinementError, match=r"segment \(0,1\)"):
            refiner._split_segment(0, 1)
        assert (list(tri._arr.tv), set(tri.constraints)) == before


class TestInputRules:
    """``refine_pslg`` meshes the polygon its loops bound: the loop that
    contains the others is the outer ring, each other loop a hole its
    seed selects.  Anything else is a ``ValueError`` that names the
    vertex, point or seed."""

    @pytest.mark.parametrize("pts, segs, holes, match", [
        (square_pslg()[0], np.empty((0, 2), dtype=int), (),
         "no segments"),
        (square_pslg()[0], np.array([(0, 1), (1, 2), (2, 3)]), (),
         "vertex 0 is an end of 1 segments"),
        (square_pslg()[0], np.array([(0, 1), (1, 2), (2, 0), (0, 3),
                                     (3, 2)]), (),
         "vertex 0 is an end of 3 segments"),
        (np.vstack([square_pslg()[0], [(0.5, 0.5)]]), square_pslg()[1], (),
         r"point 4 \(0.5, 0.5\) is on no loop"),
        (*holed_square_pslg(), (), "vertex 4: its inner loop has no hole"),
        (*holed_square_pslg(), [(2.0, 2.0), (0.5, 0.5)],
         r"hole seed 1 at \(0.5, 0.5\) lies inside no inner loop"),
    ])
    def test_refused_input_is_named(self, pts, segs, holes, match):
        with pytest.raises(ValueError, match=match):
            refine_pslg(pts, segs, holes=holes, max_area=0.5)

    @pytest.mark.parametrize("case, seed", [
        ("square", (0.5, 0.5)),        # no inner loop to select
        ("holed", (0.5, 0.5)),         # in the annulus, not in the hole
        ("holed", (9.0, 9.0)),         # outside the domain
    ])
    def test_a_misplaced_seed_is_refused_not_ignored(self, case, seed):
        """A seed that selects no inner loop used to carve whatever
        region held it (the whole square: 0 triangles; the annulus: 8)
        or be ignored (outside the hull)."""
        pts, segs = square_pslg() if case == "square" else holed_square_pslg()
        with pytest.raises(ValueError, match="lies inside no inner loop"):
            refine_pslg(pts, segs, holes=[seed], max_area=0.5)

    def test_loops_in_any_order_and_direction(self):
        """The same holed square, segments shuffled and half reversed,
        the hole listed first: the same domain."""
        pts, segs = holed_square_pslg()
        order = [7, 2, 4, 0, 6, 1, 5, 3]
        segs = segs[order]
        segs[::2] = segs[::2, ::-1]
        mesh = refine_pslg(pts, segs, holes=[(2.0, 2.0)], max_area=0.5)
        assert np.abs(mesh.areas()).sum() == pytest.approx(15.0)
        assert mesh.radius_edge_ratios().max() <= RUPPERT_BOUND + 1e-9

    @pytest.mark.parametrize("outer, inner, match", [
        ((0, 0, 1), (3, 3, 1), "lies outside the loop"),
        ((0, 0, 4), (1, 1, 2), "inside the inner loop"),
    ])
    def test_loops_that_are_no_polygon_with_holes(self, outer, inner,
                                                  match):
        """Two disjoint squares, or a square nested in the hole: no
        loop contains every other, or an inner loop is no hole of the
        outer one."""
        def box(x, y, side):
            return [(x, y), (x + side, y), (x + side, y + side),
                    (x, y + side)]
        loops = [box(*outer), box(*inner)]
        if match.startswith("inside"):
            loops.insert(1, box(0.5, 0.5, 3))
        pts = np.array([p for lp in loops for p in lp], dtype=float)
        segs = np.array([(4 * i + k, 4 * i + (k + 1) % 4)
                         for i in range(len(loops)) for k in range(4)])
        holes = [(0.6, 0.6), (1.5, 1.5)][:len(loops) - 1]
        with pytest.raises(ValueError, match=match):
            refine_pslg(pts, segs, holes=holes)

    def test_crossing_loops_are_a_ring_error(self):
        pts, segs = holed_square_pslg()
        pts[5] = (4.5, 1.5)  # the hole now crosses the outer square
        with pytest.raises(RingError, match="meets edge"):
            refine_pslg(pts, segs, holes=[(2.0, 2.0)])


class TestSizeBoundRefused:
    """A size bound that is not a positive finite number is refused,
    naming the parameter or the point, instead of switching the size
    test off (NaN) or refining until the Steiner budget runs out (0, a
    negative area, an edge length under the floating-point resolution).
    Each case is tried on a Refiner with a small budget, so that code
    without the check fails fast instead of hanging."""

    @pytest.mark.parametrize("max_area", [math.nan, 0.0, -1.0, math.inf])
    def test_max_area(self, max_area):
        with pytest.raises(ValueError, match="max_area must be a positive"):
            refine_pslg(*square_pslg(), max_area=max_area)

    @pytest.mark.parametrize("area", [math.nan, 0.0, -1.0, 1e-300,
                                      math.inf])
    def test_area_fn_value(self, area):
        with pytest.raises(ValueError, match="size bound at .* is area"):
            Refiner(triangulate_polygon(square_pslg()[0]),
                    criterion=AreaCriterion(lambda x, y: area),
                    max_steiner=200).refine()

    @pytest.mark.parametrize("max_area", [None, 0.5])
    def test_nan_area_fn_through_refine_pslg(self, max_area):
        """With ``max_area`` too: ``min`` must not hide the NaN."""
        with pytest.raises(ValueError, match="size bound at"):
            refine_pslg(*square_pslg(), max_area=max_area,
                        area_fn=lambda x, y: math.nan)

    @pytest.mark.parametrize("scale", [math.nan, 0.0, -1.0])
    def test_array_call_of_prime(self, scale):
        """The Lipschitz filter primes vertex edge lengths in one
        ``area_at_many`` call: a bad value there is named as well."""
        sizing = GradedDistanceSizing(np.array([(0.0, 0.0)]), h0=0.1)
        sizing.area_at_many = lambda xy: np.full(len(xy), scale)
        criterion = AreaCriterion(sizing.area_at)
        with pytest.raises(ValueError,
                           match=r"size bound at \(0.0, 0.0\)"):
            Refiner(triangulate_polygon(square_pslg()[0]),
                    criterion=criterion, max_steiner=200).refine()


class TestSurvivors:
    """Two ``fuzz_refine_digest.star_case`` seeds whose refinement
    ``RescanRefiner`` — the driver of commit e3ad0f4, which ended every
    drain of the queue with a scan of the whole mesh — must equal, and
    in both of which that scan found work.  532: three drains in a row
    each find one survivor; 1774: two drains each find two, re-queued
    against slot order, so the order they re-enter in shows."""

    @pytest.mark.parametrize("seed", SURVIVOR_SEEDS)
    def test_triangle_that_outlives_its_segment_splits_is_requeued(self,
                                                                   seed):
        """A bad triangle whose circumcenter encroached segments can
        outlive their split; no insertion re-creates it, so the worklist
        takes it back when the queue has drained — the set and the order
        the whole-mesh scan found, hence the same bytes."""
        want, oracle = case_outcome(RescanRefiner, seed)
        assert oracle.rescan_found >= 2
        got, refiner = case_outcome(Refiner, seed)
        assert got == want == pin("survivors")[str(seed)]
        assert_refinement_complete(refiner)
