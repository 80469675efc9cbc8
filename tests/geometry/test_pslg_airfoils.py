"""Tests for the PSLG container and airfoil generators."""

import math

import numpy as np
import pytest

from repro.geometry.airfoils import (
    add_cove,
    blunt_trailing_edge,
    cosine_spacing,
    naca4,
    naca0012,
    three_element_airfoil,
    transform_coords,
)
from repro.geometry.primitives import polygon_area
from repro.geometry.pslg import PSLG, Loop


SQUARE = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)


class TestLoop:
    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            Loop([0, 1])

    def test_repeated_vertex(self):
        with pytest.raises(ValueError):
            Loop([0, 1, 1, 2])

    def test_edges_wrap(self):
        lp = Loop([3, 4, 5])
        assert list(lp.edges()) == [(3, 4), (4, 5), (5, 3)]


class TestPSLG:
    def test_basic_square(self):
        p = PSLG(SQUARE, [Loop([0, 1, 2, 3])])
        assert p.n_points == 4
        assert p.bbox().width == 1

    def test_cw_loop_reoriented(self):
        p = PSLG(SQUARE, [Loop([3, 2, 1, 0])])
        pts = p.loop_points(p.loops[0])
        assert polygon_area(pts) > 0

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            PSLG(SQUARE, [Loop([0, 1, 7])])

    def test_shared_vertices_rejected(self):
        pts = np.vstack([SQUARE, SQUARE + 2.0])
        with pytest.raises(ValueError):
            PSLG(pts, [Loop([0, 1, 2, 3]), Loop([0, 5, 6])])

    def test_nonfinite_rejected(self):
        bad = SQUARE.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            PSLG(bad, [Loop([0, 1, 2, 3])])

    def test_edge_tangents_unit(self):
        p = PSLG(SQUARE, [Loop([0, 1, 2, 3])])
        t = p.loop_edge_tangents(p.loops[0])
        np.testing.assert_allclose(np.linalg.norm(t, axis=1), 1.0)

    def test_edge_lengths(self):
        p = PSLG(SQUARE, [Loop([0, 1, 2, 3])])
        np.testing.assert_allclose(p.loop_edge_lengths(p.loops[0]), 1.0)

    def test_from_loops_drops_closing_duplicate(self):
        closed = np.vstack([SQUARE, SQUARE[:1]])
        p = PSLG.from_loops([closed])
        assert p.n_points == 4

    def test_all_segments(self):
        p = PSLG.from_loops([SQUARE, SQUARE + 5.0])
        segs = [e for lp in p.loops for e in lp.edges()]
        assert len(segs) == len(set(segs)) == 8

    def test_chord_length(self):
        p = PSLG.from_loops([naca0012(51)])
        assert p.chord_length() == pytest.approx(1.0, abs=1e-3)


class TestCosineSpacing:
    def test_endpoints_and_monotonic(self):
        x = cosine_spacing(21)
        assert x[0] == 0.0 and x[-1] == pytest.approx(1.0)
        assert np.all(np.diff(x) > 0)

    def test_clusters_at_ends(self):
        x = cosine_spacing(101)
        d = np.diff(x)
        assert d[0] < d[len(d) // 2] / 5
        assert d[-1] < d[len(d) // 2] / 5

    def test_too_few(self):
        with pytest.raises(ValueError):
            cosine_spacing(1)


class TestNACA4:
    def test_symmetric_0012(self):
        c = naca0012(101)
        # Symmetric section: for every (x, y) there's an (x, -y).
        ys = {(round(x, 9), round(y, 9)) for x, y in c}
        for x, y in c:
            assert (round(x, 9), round(-y, 9)) in ys

    def test_ccw(self):
        assert polygon_area(naca0012(51)) > 0
        assert polygon_area(naca4("4412", 51)) > 0

    def test_thickness_max(self):
        c = naca0012(201)
        thick = c[:, 1].max() - c[:, 1].min()
        assert thick == pytest.approx(0.12, abs=0.005)

    def test_closed_te_single_vertex(self):
        c = naca4("0012", 51, closed_te=True)
        te = c[np.abs(c[:, 0] - 1.0) < 1e-9]
        assert len(te) == 1

    def test_open_te_two_vertices(self):
        c = naca4("0012", 51, closed_te=False)
        te = c[np.abs(c[:, 0] - 1.0) < 1e-9]
        assert len(te) == 2

    def test_cambered_has_positive_mean_camber(self):
        c = naca4("4412", 101)
        mid = c[(c[:, 0] > 0.3) & (c[:, 0] < 0.7)]
        assert mid[:, 1].mean() > 0.02

    def test_bad_code(self):
        with pytest.raises(ValueError):
            naca4("00x2")
        with pytest.raises(ValueError):
            naca4("0000")

    def test_no_duplicate_consecutive_points(self):
        c = naca4("0012", 101)
        d = np.linalg.norm(np.diff(np.vstack([c, c[:1]]), axis=0), axis=1)
        assert d.min() > 1e-9


class TestTransforms:
    def test_scale_translate(self):
        out = transform_coords(SQUARE, scale=2.0, translate=(1, 1))
        np.testing.assert_allclose(out[0], (1, 1))
        np.testing.assert_allclose(out[2], (3, 3))

    def test_rotation_preserves_area(self):
        out = transform_coords(SQUARE, rotate_deg=37.0, pivot=(0.3, 0.3))
        assert polygon_area(out) == pytest.approx(1.0)

    def test_scale_scales_area(self):
        out = transform_coords(SQUARE, scale=3.0)
        assert polygon_area(out) == pytest.approx(9.0)


class TestCove:
    def test_cove_reduces_area(self):
        c = naca4("4412", 101)
        coved = add_cove(c, x_start=0.6, x_end=0.95, depth=0.5)
        assert polygon_area(coved) < polygon_area(c)

    def test_cove_creates_concavity(self):
        from repro.geometry.predicates import orient2d

        c = naca4("4412", 201)
        coved = add_cove(c, x_start=0.6, x_end=0.95, depth=0.8)
        n = len(coved)
        reflex = 0
        for i in range(n):
            a, b, cc = coved[i - 1], coved[i], coved[(i + 1) % n]
            if orient2d(a, b, cc) < 0:
                reflex += 1
        assert reflex >= 2  # the two cove lips at least

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            add_cove(naca0012(51), depth=0.0)


class TestBluntTE:
    def test_truncation(self):
        c = naca0012(201)
        b = blunt_trailing_edge(c, x_cut=0.95)
        assert b[:, 0].max() == pytest.approx(0.95, abs=1e-9)
        # The blunt base: two vertices at x == x_cut with distinct y.
        base = b[np.abs(b[:, 0] - 0.95) < 1e-9]
        assert len(base) == 2
        assert abs(base[0, 1] - base[1, 1]) > 1e-4

    def test_still_ccw_simple(self):
        b = blunt_trailing_edge(naca0012(101), x_cut=0.9)
        assert polygon_area(b) > 0

    def test_cut_too_aggressive(self):
        with pytest.raises(ValueError):
            blunt_trailing_edge(naca0012(51), x_cut=-1.0)


class TestThreeElement:
    def test_structure(self):
        p = three_element_airfoil(n_points=61)
        assert [lp.name for lp in p.loops] == ["slat", "main", "flap"]
        assert all(lp.is_body for lp in p.loops)

    def test_loops_disjoint_bboxes_overlap_domain(self):
        """Elements must not intersect each other (they are solid bodies)."""
        from repro.geometry.primitives import segments_intersect

        p = three_element_airfoil(n_points=61)
        loops_pts = [p.loop_points(lp) for lp in p.loops]
        for i in range(len(loops_pts)):
            for j in range(i + 1, len(loops_pts)):
                a, b = loops_pts[i], loops_pts[j]
                for k in range(len(a)):
                    a0, a1 = a[k], a[(k + 1) % len(a)]
                    for l in range(len(b)):
                        b0, b1 = b[l], b[(l + 1) % len(b)]
                        assert not segments_intersect(
                            tuple(a0), tuple(a1), tuple(b0), tuple(b1)
                        ), (i, j, k, l)

    def test_slat_ahead_flap_behind(self):
        p = three_element_airfoil(n_points=41)
        slat, main, flap = (p.loop_points(lp) for lp in p.loops)
        assert slat[:, 0].mean() < main[:, 0].mean() < flap[:, 0].mean()

    def test_ccw_loops(self):
        p = three_element_airfoil(n_points=41)
        for lp in p.loops:
            assert polygon_area(p.loop_points(lp)) > 0


class TestExtraGeometries:
    def test_circle(self):
        from repro.geometry.airfoils import circle

        c = circle(64)
        assert len(c) == 64
        r = np.hypot(c[:, 0] - 0.5, c[:, 1])
        np.testing.assert_allclose(r, 0.5)
        with pytest.raises(ValueError):
            circle(2)

    def test_flat_plate_blunt(self):
        from repro.geometry.airfoils import flat_plate

        p = flat_plate(31)
        assert polygon_area(p) > 0
        # Four corners at the two vertical bases.
        corners = p[(np.abs(p[:, 0]) < 1e-12) | (np.abs(p[:, 0] - 1) < 1e-12)]
        assert len(corners) == 4

    def test_joukowski_cusp(self):
        from repro.core.normals import VertexKind, loop_surface_vertices
        from repro.geometry.airfoils import joukowski
        from repro.geometry.pslg import PSLG

        c = joukowski(201)
        assert polygon_area(c) > 0
        assert c[:, 0].min() == pytest.approx(0.0)
        assert c[:, 0].max() == pytest.approx(1.0)
        # The conformal map produces a true cusp at the trailing edge.
        pslg = PSLG.from_loops([c])
        sv = loop_surface_vertices(pslg, pslg.loops[0])
        te = max(sv, key=lambda v: v.position[0])
        assert te.kind == VertexKind.CUSP

    def test_joukowski_validation(self):
        from repro.geometry.airfoils import joukowski

        with pytest.raises(ValueError):
            joukowski(4)

    def test_naca5_23012(self):
        from repro.geometry.airfoils import naca5

        c = naca5("23012", 101)
        assert polygon_area(c) > 0
        thick = c[:, 1].max() - c[:, 1].min()
        assert thick == pytest.approx(0.12, abs=0.01)
        # Cambered: forward camber peak (the 230xx family).
        mid = c[(c[:, 0] > 0.1) & (c[:, 0] < 0.3)]
        assert mid[:, 1].mean() > 0.0

    def test_naca5_validation(self):
        from repro.geometry.airfoils import naca5

        with pytest.raises(ValueError):
            naca5("2301")
        with pytest.raises(ValueError):
            naca5("99012")
        with pytest.raises(ValueError):
            naca5("23000")

    def test_joukowski_meshes_cleanly(self):
        from repro.core.bl_pipeline import (
            BoundaryLayerConfig,
            generate_boundary_layer,
        )
        from repro.geometry.airfoils import joukowski
        from repro.geometry.pslg import PSLG

        pslg = PSLG.from_loops([joukowski(81)])
        res = generate_boundary_layer(
            pslg, BoundaryLayerConfig(first_spacing=2e-3, growth_ratio=1.4,
                                      max_layers=10))
        assert res.mesh.is_conforming()
        assert np.all(res.mesh.areas() > 0)
