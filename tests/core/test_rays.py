"""Tests for ray construction, large-angle refinement, and fans."""

import math

import numpy as np
import pytest

from repro.core.normals import VertexKind, loop_surface_vertices
from repro.core.rays import Ray, refine_rays
from repro.geometry.airfoils import naca0012
from repro.geometry.primitives import angle_between
from repro.geometry.pslg import PSLG


def surface(pts):
    p = PSLG.from_loops([np.asarray(pts, dtype=float)])
    return p, loop_surface_vertices(p, p.loops[0])


class TestBuildRays:
    def test_one_ray_per_vertex(self):
        """No neighbouring normals differ by more than the bound: one
        plain ray per surface vertex."""
        _, sv = surface([(0, 0), (1, 0), (1, 1), (0, 1)])
        rays = refine_rays(sv, max_ray_angle=math.radians(179))
        assert len(rays) == 4
        for r, v in zip(rays, sv):
            assert r.origin == v.position
            assert r.direction == v.normal
            assert r.surface_spacing == pytest.approx(1.0)
            assert r.origin_kind == "vertex"

    def test_point_at(self):
        r = Ray(origin=(1.0, 2.0), direction=(0.0, 1.0))
        assert r.point_at(3.0) == (1.0, 5.0)

    def test_tip_defaults_to_origin(self):
        r = Ray(origin=(1.0, 2.0), direction=(0.0, 1.0))
        assert r.tip() == (1.0, 2.0)
        r.heights = [0.5, 1.0]
        assert r.tip() == (1.0, 3.0)


class TestRefineRays:
    def test_no_refinement_when_smooth(self):
        # Regular 64-gon: adjacent normals differ by ~5.6 deg.
        theta = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        _, sv = surface(np.column_stack([np.cos(theta), np.sin(theta)]))
        rays = refine_rays(sv, max_ray_angle=math.radians(20))
        assert len(rays) == 64

    def test_coarse_circle_gets_interpolated_rays(self):
        # 12-gon: vertex turns are 30 deg (below the 40-deg large-angle
        # threshold, so vertices stay SMOOTH) but adjacent normals still
        # differ by 30 deg > 20 deg: the smooth-curvature interpolation
        # path (leading-edge behaviour) triggers.
        theta = np.linspace(0, 2 * math.pi, 12, endpoint=False)
        _, sv = surface(np.column_stack([np.cos(theta), np.sin(theta)]))
        rays = refine_rays(sv, max_ray_angle=math.radians(20))
        # ceil(30/20)-1 = 1 extra ray per edge.
        assert len(rays) == 12 + 12
        interp = [r for r in rays if r.origin_kind == "interpolated"]
        assert len(interp) == 12
        # Interpolated origins lie between the vertices, off the vertex set.
        for r in interp:
            assert r.surface_index == -1

    def test_octagon_discontinuities_get_fans(self):
        # 45-deg turns exceed the large-angle threshold: the vertices are
        # slope discontinuities, so extra rays fan from the vertices
        # themselves rather than new surface points.
        theta = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        _, sv = surface(np.column_stack([np.cos(theta), np.sin(theta)]))
        rays = refine_rays(sv, max_ray_angle=math.radians(20))
        assert len(rays) == 8 + 2 * 8
        assert all(r.origin_kind in ("vertex", "fan") for r in rays)

    def test_square_corner_fans(self):
        _, sv = surface([(0, 0), (4, 0), (4, 4), (0, 4)])
        rays = refine_rays(sv, max_ray_angle=math.radians(30))
        fans = [r for r in rays if r.origin_kind == "fan"]
        # Each 90-deg corner splits into two 45-deg vertex-normal gaps;
        # each gap needs ceil(45/30)-1 = 1 fan ray: 2 per corner.
        assert len(fans) == 8
        # Fan rays share their corner origin.
        for f in fans:
            assert f.origin in [v.position for v in sv]

    def test_fan_directions_interpolate(self):
        _, sv = surface([(0, 0), (4, 0), (4, 4), (0, 4)])
        rays = refine_rays(sv, max_ray_angle=math.radians(10))
        # Group by origin; within a corner's fan, directions rotate
        # monotonically (the "curving" property of paper Fig. 4).
        by_origin = {}
        for r in rays:
            by_origin.setdefault(r.origin, []).append(r)
        corner = by_origin[(4.0, 0.0)]
        assert len(corner) >= 4
        angles = [math.atan2(r.direction[1], r.direction[0]) for r in corner]
        # All directions within the corner's exterior wedge.
        for a in angles:
            assert -math.pi / 2 - 1e-9 <= a <= 0 + 1e-9

    def test_all_unit_directions(self):
        _, sv = surface(naca0012(61))
        rays = refine_rays(sv)
        for r in rays:
            assert math.hypot(*r.direction) == pytest.approx(1.0)

    def test_te_cusp_produces_fan(self):
        _, sv = surface(naca0012(121))
        rays = refine_rays(sv, max_ray_angle=math.radians(20))
        te = max((v.position for v in sv), key=lambda p: p[0])
        fan = [r for r in rays if r.origin == te]
        # The near-180-degree cusp demands a rich fan.
        assert len(fan) >= 5

    def test_adjacent_ray_angles_bounded(self):
        _, sv = surface(naca0012(61))
        max_angle = math.radians(20)
        rays = refine_rays(sv, max_ray_angle=max_angle)
        for r1, r2 in zip(rays, rays[1:]):
            angle = angle_between(r1.direction, r2.direction)
            assert angle <= max_angle + 1e-9

    def test_validation(self):
        _, sv = surface([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(ValueError):
            refine_rays(sv, max_ray_angle=0.0)
        with pytest.raises(ValueError):
            refine_rays(sv[:2])
