"""Tests for graded Delaunay decoupling (Section II.E)."""

import math

import numpy as np
import pytest

from repro.core.decouple import (
    DecoupledSubdomain,
    decouple,
    decouple_stream,
    estimate_triangles,
    initial_quadrants,
    march_path,
    plus_split,
    refine_subdomain,
)
from repro.delaunay.mesh import merge_meshes
from repro.geometry.aabb import AABB
from repro.sizing.functions import (
    GradedDistanceSizing,
    RadialSizing,
    UniformSizing,
    decoupling_edge_length,
)

from tests.domains import CallableSizing

from . import oracle_estimate


class TestMarchPath:
    def test_uniform_spacing(self):
        s = UniformSizing(0.01)
        pts = march_path((0, 0), (1, 0), s)
        k = decoupling_edge_length(0.01)
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert np.allclose(pts[0], (0, 0)) and np.allclose(pts[-1], (1, 0))
        # All gaps strictly below 2k (the Delaunay-maintenance bound).
        assert gaps.max() < 2 * k
        # Interior gaps are the chosen step (1.8k) up to closure scaling.
        assert gaps[:-1].min() > 1.2 * k

    def test_graded_spacing_grows(self):
        s = RadialSizing((0, 0), h0=0.05, grading=1.0)
        pts = march_path((0.1, 0), (10, 0), s)
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        # Spacing grows toward the far field.
        assert gaps[-2] > 3 * gaps[0]
        # The D < 2 k_next rule everywhere.
        for (x0, y0), (x1, y1) in zip(pts[:-1], pts[1:]):
            k_next = decoupling_edge_length(s.area_at(x1, y1))
            d = math.hypot(x1 - x0, y1 - y0)
            assert d < 2 * k_next + 1e-12

    def test_shrinking_sizing_pulls_next_closer(self):
        # Marching toward finer sizing must still satisfy D < 2 k_next.
        s = RadialSizing((10, 0), h0=0.02, grading=0.8)  # fine near (10,0)
        pts = march_path((0, 0), (10, 0), s)
        for (x0, y0), (x1, y1) in zip(pts[:-1], pts[1:]):
            k_next = decoupling_edge_length(s.area_at(x1, y1))
            assert math.hypot(x1 - x0, y1 - y0) < 2 * k_next + 1e-12

    def test_short_path_two_points(self):
        s = UniformSizing(100.0)  # huge elements: one step covers it
        pts = march_path((0, 0), (1, 0), s)
        assert len(pts) == 2

    def test_validation(self):
        s = UniformSizing(1.0)
        with pytest.raises(ValueError):
            march_path((0, 0), (0, 0), s)


class TestInitialQuadrants:
    def test_four_quadrants_cover_annulus(self):
        s = UniformSizing(0.5)
        inner = AABB(-1, -1, 1, 1)
        outer = AABB(-5, -5, 5, 5)
        quads = initial_quadrants(inner, outer, s)
        assert len(quads) == 4
        total = sum(q.area() for q in quads)
        assert total == pytest.approx(100 - 4)

    def test_shared_borders_identical(self):
        """Quadrant borders must share identical vertex coordinates — the
        decoupling conformity contract."""
        s = RadialSizing((0, 0), h0=0.3, grading=0.3)
        quads = initial_quadrants(AABB(-1, -1, 1, 1), AABB(-6, -6, 6, 6), s)
        vertex_sets = [set(map(tuple, q.ring)) for q in quads]
        shared_counts = 0
        for i in range(4):
            for j in range(i + 1, 4):
                shared = vertex_sets[i] & vertex_sets[j]
                if shared:
                    shared_counts += 1
                    assert len(shared) >= 2  # a whole marched path
        assert shared_counts >= 4  # each quadrant touches two neighbours

    def test_inner_not_contained_raises(self):
        s = UniformSizing(1.0)
        with pytest.raises(ValueError):
            initial_quadrants(AABB(-10, -10, 10, 10), AABB(-1, -1, 1, 1), s)

    def test_rings_ccw(self):
        from repro.geometry.primitives import polygon_area

        s = UniformSizing(0.5)
        quads = initial_quadrants(AABB(-1, -1, 1, 1), AABB(-4, -4, 4, 4), s)
        for q in quads:
            assert polygon_area(q.ring) > 0


class TestPlusSplit:
    def test_four_children_tile_parent(self):
        s = UniformSizing(0.05)
        ring = march_path((0, 0), (1, 0), s)
        ring = np.vstack([
            ring[:-1],
            march_path((1, 0), (1, 1), s)[:-1],
            march_path((1, 1), (0, 1), s)[:-1],
            march_path((0, 1), (0, 0), s)[:-1],
        ])
        parent = DecoupledSubdomain(ring=ring)
        kids = plus_split(parent, s)
        assert len(kids) == 4
        assert sum(k.area() for k in kids) == pytest.approx(parent.area())
        for k in kids:
            assert k.level == 1

    def test_parent_border_untouched(self):
        """'+' splitting adds interior points only: every parent border
        vertex survives in exactly the children that touch it, and no new
        vertex appears on the parent border polyline."""
        s = UniformSizing(0.05)
        ring = np.vstack([
            march_path((0, 0), (1, 0), s)[:-1],
            march_path((1, 0), (1, 1), s)[:-1],
            march_path((1, 1), (0, 1), s)[:-1],
            march_path((0, 1), (0, 0), s)[:-1],
        ])
        parent = DecoupledSubdomain(ring=ring)
        parent_set = set(map(tuple, ring))
        kids = plus_split(parent, s)
        child_border_pts = set()
        for k in kids:
            child_border_pts |= set(map(tuple, k.ring))
        on_parent_sides = [
            p for p in child_border_pts
            if p[0] in (0.0, 1.0) or p[1] in (0.0, 1.0)
        ]
        for p in on_parent_sides:
            assert p in parent_set

    def test_too_coarse_raises(self):
        tiny = DecoupledSubdomain(
            ring=np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float))
        with pytest.raises(ValueError):
            plus_split(tiny, UniformSizing(1.0))


class TestDecouple:
    def _quads(self, sizing):
        return initial_quadrants(AABB(-1, -1, 1, 1), AABB(-8, -8, 8, 8),
                                 sizing)

    def test_reaches_target_count(self):
        s = RadialSizing((0, 0), h0=0.4, grading=0.3)
        subs = decouple(self._quads(s), s, target_count=16)
        assert len(subs) >= 13  # some splits may be blocked by coarse rings

    def test_cost_balance(self):
        s = RadialSizing((0, 0), h0=0.4, grading=0.3)
        subs = decouple(self._quads(s), s, target_count=16)
        ests = [estimate_triangles(x, s) for x in subs]
        # Balanced within an order of magnitude (paper Fig. 10: "roughly
        # the same number of triangles").
        assert max(ests) / max(min(ests), 1.0) < 12.0

    def test_estimate_scales_with_area(self):
        s = UniformSizing(0.01)
        small = DecoupledSubdomain(
            ring=np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float))
        big = DecoupledSubdomain(
            ring=np.array([(0, 0), (2, 0), (2, 2), (0, 2)], dtype=float))
        es, eb = estimate_triangles(small, s), estimate_triangles(big, s)
        assert eb == pytest.approx(4 * es, rel=0.15)

    @pytest.mark.parametrize("sizing", [
        UniformSizing(0.01),
        RadialSizing((0.3, 0.2), h0=0.05, grading=0.3),
        CallableSizing(lambda x, y: 0.01 + 0.002 * abs(x)),
        GradedDistanceSizing(np.array([(0.5, 0.5), (0.6, 0.5)]), h0=0.05),
    ], ids=lambda s: type(s).__name__)
    def test_estimate_is_the_scalar_oracles(self, sizing):
        """With or without ``area_at_many``; a thin diagonal strip takes
        several blocks of tries to collect its samples, and a ring that
        holds no sample at all falls back to its centroid."""
        rings = [
            [(0, 0), (1, 0), (1, 1), (0, 1)],
            [(0, 0), (0.02, 0), (3, 2.98), (3, 3), (2.98, 3), (0, 0.02)],
            [(0, 0), (1, 1), (2, 2), (1, 1.0000001)],
        ]
        for ring in rings:
            sub = DecoupledSubdomain(ring=np.array(ring, dtype=float))
            assert (estimate_triangles(sub, sizing)
                    == oracle_estimate.estimate_triangles(sub, sizing))

    def test_stream_yields_exact_decouple_order(self):
        """Parity-critical: the generator must produce the same
        subdomains in the same order as the barriered call — streamed
        submission order is what keeps parallel meshes byte-identical."""
        s = RadialSizing((0, 0), h0=0.4, grading=0.3)
        barriered = decouple(self._quads(s), s, target_count=16)
        streamed = list(decouple_stream(self._quads(s), s, target_count=16))
        assert len(streamed) == len(barriered)
        for a, b in zip(streamed, barriered):
            assert np.array_equal(a.ring, b.ring)
            assert a.level == b.level
            assert a.est_triangles == b.est_triangles

    def test_stream_is_incremental(self):
        """Subdomains come out while splitting is still in progress —
        the first yield must not wait for the full decomposition."""
        s = RadialSizing((0, 0), h0=0.4, grading=0.3)
        gen = decouple_stream(self._quads(s), s, target_count=16)
        first = next(gen)
        rest = list(gen)
        total = len(decouple(self._quads(s), s, target_count=16))
        assert 1 + len(rest) == total
        assert first.ring.shape[1] == 2

    def test_stream_below_target_passthrough(self):
        s = RadialSizing((0, 0), h0=0.4, grading=0.3)
        quads = self._quads(s)
        out = list(decouple_stream(quads, s, target_count=2))
        assert [id(x) for x in out] == [id(q) for q in quads]


class TestRefineConformity:
    def test_independent_refinement_conforms(self):
        """The headline decoupling property: refine each subdomain alone,
        merge, and the result is a conforming Delaunay-quality mesh with
        untouched shared borders."""
        s = RadialSizing((0, 0), h0=0.35, grading=0.35)
        quads = initial_quadrants(AABB(-1, -1, 1, 1), AABB(-6, -6, 6, 6), s)
        subs = decouple(quads, s, target_count=8)
        meshes = []
        for sub in subs:
            m = refine_subdomain(sub, s)
            assert m.n_triangles > 0
            meshes.append(m)
        merged = merge_meshes(meshes)
        assert merged.is_conforming()
        # Full annulus covered: no gaps or overlaps.
        total = sum(abs(m.areas()).sum() for m in meshes)
        assert total == pytest.approx(144 - 4, rel=1e-9)
        assert np.abs(merged.areas()).sum() == pytest.approx(144 - 4,
                                                             rel=1e-9)

    def test_quality_bound_met_interior(self):
        s = RadialSizing((0, 0), h0=0.35, grading=0.35)
        quads = initial_quadrants(AABB(-1, -1, 1, 1), AABB(-6, -6, 6, 6), s)
        sub = quads[0]
        m = refine_subdomain(sub, s)
        from repro.delaunay.refine import RUPPERT_BOUND

        ratios = m.radius_edge_ratios()
        # Locked borders may pin a few boundary triangles; the bulk must
        # meet Ruppert's bound.
        frac_ok = float((ratios <= RUPPERT_BOUND + 1e-9).mean())
        assert frac_ok > 0.95

    def test_area_bound_met(self):
        s = RadialSizing((0, 0), h0=0.35, grading=0.35)
        quads = initial_quadrants(AABB(-1, -1, 1, 1), AABB(-6, -6, 6, 6), s)
        m = refine_subdomain(quads[1], s)
        areas = np.abs(m.areas())
        cents = m.centroids()
        ok = sum(
            a <= s.area_at(cx, cy) * 1.001
            for a, (cx, cy) in zip(areas, cents)
        )
        assert ok / len(areas) > 0.98
