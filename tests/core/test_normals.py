"""Tests for surface normals and vertex classification."""

import math

import numpy as np
import pytest

from repro.core.normals import VertexKind, loop_surface_vertices
from repro.geometry.airfoils import naca0012, blunt_trailing_edge
from repro.geometry.pslg import PSLG


def square_pslg():
    return PSLG.from_loops([np.array([(0, 0), (1, 0), (1, 1), (0, 1)],
                                     dtype=float)])


class TestSquare:
    def test_corner_normals_are_diagonal(self):
        p = square_pslg()
        sv = loop_surface_vertices(p, p.loops[0])
        assert len(sv) == 4
        # Corner (0,0): adjacent edge normals (0,-1) and (-1,0);
        # bisector = normalize(-1,-1).
        v00 = next(v for v in sv if v.position == (0.0, 0.0))
        assert v00.normal[0] == pytest.approx(-math.sqrt(0.5))
        assert v00.normal[1] == pytest.approx(-math.sqrt(0.5))

    def test_all_corners_90_degrees_convex(self):
        p = square_pslg()
        sv = loop_surface_vertices(p, p.loops[0])
        for v in sv:
            assert v.turn == pytest.approx(math.pi / 2)
            assert v.kind == VertexKind.LARGE_ANGLE  # 90 < cusp threshold

    def test_outward_normals_point_away(self):
        p = square_pslg()
        sv = loop_surface_vertices(p, p.loops[0])
        cx, cy = 0.5, 0.5
        for v in sv:
            dx, dy = v.position[0] - cx, v.position[1] - cy
            assert dx * v.normal[0] + dy * v.normal[1] > 0


class TestConcave:
    def test_reflex_corner_classified(self):
        # L-shape: vertex (1,1) is reflex.
        pts = np.array([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],
                       dtype=float)
        p = PSLG.from_loops([pts])
        sv = loop_surface_vertices(p, p.loops[0])
        reflex = [v for v in sv if v.kind == VertexKind.CONCAVE]
        assert len(reflex) == 1
        assert reflex[0].position == (1.0, 1.0)
        assert reflex[0].turn == pytest.approx(-math.pi / 2)


class TestAirfoil:
    def test_naca0012_smooth_except_te(self):
        p = PSLG.from_loops([naca0012(201)])
        sv = loop_surface_vertices(p, p.loops[0])
        cusps = [v for v in sv if v.kind == VertexKind.CUSP]
        # The sharp trailing edge is the single cusp.
        assert len(cusps) == 1
        assert cusps[0].position[0] == pytest.approx(1.0, abs=1e-9)
        # Leading edge region is densely sampled: everything else smooth or
        # mildly large-angle.
        others = [v for v in sv if v.kind == VertexKind.CONCAVE]
        assert not others

    def test_te_cusp_normal_points_downstream(self):
        p = PSLG.from_loops([naca0012(201)])
        sv = loop_surface_vertices(p, p.loops[0])
        te = max(sv, key=lambda v: v.position[0])
        # At the trailing edge the bisector of upper/lower normals points
        # in +x (out of the cusp).
        assert te.normal[0] > 0.9

    def test_blunt_te_two_corners(self):
        coords = blunt_trailing_edge(naca0012(201), x_cut=0.9)
        p = PSLG.from_loops([coords])
        sv = loop_surface_vertices(p, p.loops[0])
        base = [v for v in sv if abs(v.position[0] - 0.9) < 1e-9]
        assert len(base) == 2
        for v in base:
            # Each base corner turns ~90 deg: a fan-worthy discontinuity.
            assert v.kind in (VertexKind.LARGE_ANGLE, VertexKind.CUSP)
            assert v.turn > math.radians(40)

    def test_unit_normals(self):
        p = PSLG.from_loops([naca0012(101)])
        sv = loop_surface_vertices(p, p.loops[0])
        for v in sv:
            assert math.hypot(*v.normal) == pytest.approx(1.0)

    def test_thresholds_validated(self):
        p = square_pslg()
        with pytest.raises(ValueError):
            loop_surface_vertices(p, p.loops[0], large_angle=0.0)
        with pytest.raises(ValueError):
            loop_surface_vertices(p, p.loops[0],
                                  large_angle=1.0, cusp_angle=0.5)


class TestZeroWidthSpike:
    def test_tip_normal_points_out_of_the_body(self):
        """A spike that doubles back on itself from the top edge of the
        unit square: at its tip (0.6, 1.9) the two edge normals cancel to
        a rounding-noise bisector (length 9.7e-17, not 0).  The cusp test
        must treat that as zero and fall back to the incoming edge's
        normal; normalising the noise instead gives (0, -1), back down
        the spike into the body."""
        pts = np.array([(0, 0), (1, 0), (1, 1), (0.525, 1.225), (0.6, 1.9),
                        (0.55, 1.45), (0, 1)])
        p = PSLG.from_loops([pts])
        sv = loop_surface_vertices(p, p.loops[0])
        tip = next(v for v in sv if v.position == (0.6, 1.9))
        assert tip.normal == pytest.approx((0.9939, -0.1104), abs=1e-4)
