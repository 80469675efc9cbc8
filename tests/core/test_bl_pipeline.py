"""Integration tests for the boundary-layer pipeline."""

import math

import numpy as np
import pytest

from repro.core.bl_pipeline import (
    BoundaryLayerConfig,
    _simplify_borders,
    generate_boundary_layer,
    interior_seed,
    prepare_boundary_layer,
)
from repro.core.insertion import insert_points
from repro.core.normals import loop_surface_vertices
from repro.core.rays import Ray, refine_rays
from repro.geometry.airfoils import naca0012, three_element_airfoil
from repro.geometry.pslg import PSLG
from repro.sizing.growth import GeometricGrowth


class TestInteriorSeed:
    def test_square(self):
        seed = interior_seed(np.array([(0, 0), (1, 0), (1, 1), (0, 1)],
                                      dtype=float))
        assert 0 < seed[0] < 1 and 0 < seed[1] < 1

    def test_concave(self):
        pts = np.array([(0, 0), (4, 0), (4, 1), (1, 1), (1, 3), (0, 3)],
                       dtype=float)
        x, y = interior_seed(pts)
        from repro.geometry.primitives import point_in_polygon

        assert point_in_polygon(x, y, pts)

    def test_airfoil(self):
        pts = naca0012(101)
        x, y = interior_seed(pts)
        from repro.geometry.primitives import point_in_polygon

        assert point_in_polygon(x, y, pts)


class TestInsertion:
    def _rays(self):
        p = PSLG.from_loops([naca0012(61)])
        sv = loop_surface_vertices(p, p.loops[0])
        return refine_rays(sv)

    def test_heights_monotone_and_capped(self):
        rays = self._rays()
        growth = GeometricGrowth(1e-3, 1.4)
        insert_points(rays, growth, max_layers=30)
        for r in rays:
            hs = r.heights
            assert all(b > a for a, b in zip(hs, hs[1:]))
            if hs:
                assert hs[-1] <= min(r.max_height, growth.height(30))

    def test_isotropy_termination(self):
        rays = self._rays()
        growth = GeometricGrowth(1e-3, 1.4)
        insert_points(rays, growth, max_layers=100)
        # Rays terminate when layer spacing reaches tangential spacing, so
        # the last layer spacing should be of the order of surface spacing.
        for r in rays:
            if len(r.heights) >= 2 and math.isinf(r.max_height):
                last_spacing = r.heights[-1] - r.heights[-2]
                assert last_spacing <= 3.0 * r.surface_spacing

    def test_max_height_respected(self):
        rays = self._rays()
        for r in rays:
            r.max_height = 0.01
        growth = GeometricGrowth(1e-3, 1.4)
        insert_points(rays, growth, max_layers=100)
        for r in rays:
            for h in r.heights:
                assert h <= 0.01

    def test_point_cloud_dedupes_fan_origins(self):
        p = PSLG.from_loops([naca0012(61)])
        bl = prepare_boundary_layer(p, BoundaryLayerConfig(
            first_spacing=1e-3, growth_ratio=1.4, max_layers=10))
        cloud = bl.points
        assert len(np.unique(cloud, axis=0)) == len(cloud)
        # Fan rays share their origin: fewer points than ray origins.
        rays = bl.element_rays[0]
        assert len({r.origin for r in rays}) < len(rays)

    def test_validation(self):
        rays = self._rays()
        growth = GeometricGrowth(1e-3, 1.4)
        with pytest.raises(ValueError):
            insert_points(rays, growth, isotropy_factor=0.0)
        with pytest.raises(ValueError):
            insert_points(rays, growth, max_layers=0)


class TestSingleElementBL:
    def test_naca0012_boundary_layer(self):
        p = PSLG.from_loops([naca0012(61)])
        cfg = BoundaryLayerConfig(first_spacing=2e-3, growth_ratio=1.4,
                                  max_layers=15)
        res = generate_boundary_layer(p, cfg)
        mesh = res.mesh
        assert mesh.n_triangles > 100
        assert mesh.is_conforming()
        # Anisotropic elements present: aspect ratios well above isotropic.
        assert mesh.aspect_ratios().max() > 5.0
        # No triangles inside the airfoil: total area is the annulus only.
        assert res.stats["n_points"] == len(res.points)
        # All triangles positively oriented.
        assert np.all(mesh.areas() > 0)

    def test_outer_border_is_simple(self):
        from repro.geometry.primitives import segments_intersect

        p = PSLG.from_loops([naca0012(61)])
        cfg = BoundaryLayerConfig(first_spacing=2e-3, growth_ratio=1.4,
                                  max_layers=15)
        res = generate_boundary_layer(p, cfg)
        ob = res.outer_borders[0]
        n = len(ob)
        segs = [(tuple(ob[i]), tuple(ob[(i + 1) % n])) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                assert not segments_intersect(*segs[i], *segs[j],
                                              proper_only=True)

    def test_mesh_points_between_surface_and_border(self):
        p = PSLG.from_loops([naca0012(41)])
        cfg = BoundaryLayerConfig(first_spacing=5e-3, growth_ratio=1.5,
                                  max_layers=8)
        res = generate_boundary_layer(p, cfg)
        # BL thickness bounded by growth height: no point farther than
        # height(max_layers) from the surface.
        surf = res.surface_loops[0]
        growth = cfg.growth_function()
        limit = growth.height(cfg.max_layers) * 1.01
        for q in res.points:
            d = np.min(np.hypot(surf[:, 0] - q[0], surf[:, 1] - q[1]))
            assert d <= limit


class TestMultiElementBL:
    def test_three_element_runs_clean(self):
        pslg = three_element_airfoil(n_points=41)
        cfg = BoundaryLayerConfig(first_spacing=1.5e-3, growth_ratio=1.45,
                                  max_layers=12)
        res = generate_boundary_layer(pslg, cfg)
        assert len(res.element_rays) == 3
        assert res.mesh.n_triangles > 300
        assert res.mesh.is_conforming()
        # Multi-element clipping must have fired somewhere (slat/main and
        # main/flap gaps are tight) or at least self-intersections in coves.
        assert (res.stats["n_self_truncations"]
                + res.stats["n_multi_truncations"]) > 0

    def test_no_bl_point_inside_any_element(self):
        from repro.geometry.primitives import point_in_polygon

        pslg = three_element_airfoil(n_points=41)
        cfg = BoundaryLayerConfig(first_spacing=1.5e-3, growth_ratio=1.45,
                                  max_layers=12)
        res = generate_boundary_layer(pslg, cfg)
        loops = [pslg.loop_points(lp) for lp in pslg.body_loops]
        # Only layer points (h > 0) are meaningful: ray origins lie exactly
        # ON the surface polygons where ray casting is ill-defined.
        for rays in res.element_rays:
            for r in rays:
                for h in r.heights:
                    q = r.point_at(h)
                    for loop_pts in loops:
                        assert not point_in_polygon(q[0], q[1], loop_pts), (
                            q, r.origin)


class TestSimplifyBorders:
    """Two square bodies whose outermost layers interpenetrate."""

    @staticmethod
    def _squares(offsets):
        # Corner rays pointing diagonally out; layer k puts the border
        # ``offsets[k]`` outside the body on every side.  The second body
        # sits 0.3 to the right, nudged up so borders cross, not overlap.
        elements = []
        for el, (x0, y0) in enumerate([(0.0, 0.0), (1.3, 0.05)]):
            rays = []
            for cx, cy, dx, dy in [(0, 0, -1, -1), (1, 0, 1, -1),
                                   (1, 1, 1, 1), (0, 1, -1, 1)]:
                r = Ray(origin=(x0 + cx, y0 + cy),
                        direction=(dx / math.sqrt(2), dy / math.sqrt(2)),
                        element=el)
                r.heights = [o * math.sqrt(2) for o in offsets]
                r.max_height = r.heights[-1]
                rays.append(r)
            elements.append(rays)
        return elements

    def test_untangled_by_the_last_pass_is_clean(self):
        # Forty crossing layers (0.3 out), one per pass of the 40 the
        # untangling makes; second layers (0.1) clear the gap.
        elements = self._squares([0.05, 0.1] + [0.3] * 40)
        removed = _simplify_borders(elements)
        assert removed == 6 * 40  # three rays of each body bound a crossing
        assert _simplify_borders(elements) == 0

    def test_still_tangled_names_the_rays(self):
        # 38 passes take the 0.3 layers, the last two two of the three
        # 0.25 layers, and the third still crosses.
        elements = self._squares([0.05] + [0.25] * 3 + [0.3] * 38)
        with pytest.raises(RuntimeError, match="element, ray index") as err:
            _simplify_borders(elements)
        assert "(0, 1)" in str(err.value) and "(1, 0)" in str(err.value)

    def test_no_layer_left_to_give_raises(self):
        elements = self._squares([0.3])
        for rays in elements:
            for r in rays:
                r.heights = []  # borders are the (disjoint) bodies...
        elements[1][0].origin = (0.5, 0.5)  # ...until one pierces the other
        with pytest.raises(RuntimeError, match="could not untangle"):
            _simplify_borders(elements)
