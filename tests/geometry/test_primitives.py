"""Tests for geometric primitives."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.delaunay.mesh import TriMesh
from repro.geometry.primitives import (
    angle_between,
    normalize,
    perp_right,
    point_on_segment,
    polygon_area,
    rotate,
    segment_intersection_point,
    segments_intersect,
    signed_turn_angle,
    slerp_unit,
)
from tests.delaunay.oracle_refine import circumcenter, distance

coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
point = st.tuples(coord, coord)


def triangle(a, b, c):
    """The one-triangle mesh ``abc``: its per-triangle measures are the
    scalar ones of the corners."""
    return TriMesh(np.array([a, b, c], dtype=float), np.array([[0, 1, 2]]))


def segment_distance(p, a, b):
    """Distance from ``p`` to the closed segment ``ab``."""
    p, a, b = (np.asarray(x, dtype=float) for x in (p, a, b))
    ab = b - a
    denom = ab @ ab
    t = 0.0 if denom == 0.0 else min(max((p - a) @ ab / denom, 0.0), 1.0)
    return float(np.hypot(*(p - a - t * ab)))


class TestVectors:
    def test_normalize(self):
        assert normalize((3, 4)) == (0.6, 0.8)

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            normalize((0, 0))

    def test_perp(self):
        assert perp_right((1, 0)) == (0, -1)
        assert perp_right((0, 1)) == (1, 0)

    def test_rotate_quarter(self):
        x, y = rotate((1, 0), math.pi / 2)
        assert abs(x) < 1e-15 and abs(y - 1) < 1e-15

    @given(point)
    def test_perp_orthogonal(self, v):
        assume(v != (0.0, 0.0))
        p = perp_right(v)
        assert abs(v[0] * p[0] + v[1] * p[1]) < 1e-9 * (v[0]**2 + v[1]**2 + 1)


class TestAngles:
    def test_angle_between_orthogonal(self):
        assert angle_between((1, 0), (0, 1)) == pytest.approx(math.pi / 2)

    def test_angle_between_opposite(self):
        assert angle_between((1, 0), (-1, 0)) == pytest.approx(math.pi)

    def test_signed_turn(self):
        assert signed_turn_angle((1, 0), (0, 1)) == pytest.approx(math.pi / 2)
        assert signed_turn_angle((1, 0), (0, -1)) == pytest.approx(-math.pi / 2)

    @given(st.floats(min_value=-3.1, max_value=3.1))
    def test_signed_turn_roundtrip(self, theta):
        v = rotate((1.0, 0.0), theta)
        assert signed_turn_angle((1.0, 0.0), v) == pytest.approx(theta, abs=1e-9)


class TestSegments:
    def test_proper_crossing(self):
        assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))

    def test_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    def test_shared_endpoint(self):
        assert segments_intersect((0, 0), (1, 0), (1, 0), (2, 1))
        assert not segments_intersect(
            (0, 0), (1, 0), (1, 0), (2, 1), proper_only=True
        )

    def test_t_junction(self):
        assert segments_intersect((0, 0), (2, 0), (1, -1), (1, 0))
        assert not segments_intersect(
            (0, 0), (2, 0), (1, -1), (1, 0), proper_only=True
        )

    def test_collinear_overlap(self):
        assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))
        assert not segments_intersect(
            (0, 0), (2, 0), (1, 0), (3, 0), proper_only=True
        )

    def test_collinear_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))

    def test_intersection_point(self):
        p = segment_intersection_point((0, 0), (2, 2), (0, 2), (2, 0))
        assert p == pytest.approx((1, 1))

    def test_intersection_point_none(self):
        assert segment_intersection_point((0, 0), (1, 0), (0, 1), (1, 1)) is None

    @given(a=point, b=point, c=point, d=point)
    @settings(max_examples=200)
    def test_symmetry(self, a, b, c, d):
        assert segments_intersect(a, b, c, d) == segments_intersect(c, d, a, b)
        assert segments_intersect(a, b, c, d) == segments_intersect(b, a, d, c)

    @given(a=point, b=point, c=point, d=point)
    @example(a=(0.0, 5.710232707477135e-08), b=(1.875, 513.0), c=(0.0, 0.0),
             d=(1.875, 513.0))  # nearly collinear, one shared end
    @settings(max_examples=100)
    def test_intersection_point_lies_on_both(self, a, b, c, d):
        p = segment_intersection_point(a, b, c, d)
        if p is None:
            return
        tol = 1e-6 * (1 + max(abs(v) for v in (*a, *b, *c, *d)))
        assert segment_distance(p, a, b) < tol
        assert segment_distance(p, c, d) < tol

    def test_segment_point_distance(self):
        """The oracle above: clamped to the ends, a point for a
        zero-length segment."""
        assert segment_distance((0, 1), (0, 0), (2, 0)) == pytest.approx(1)
        assert segment_distance((-1, 0), (0, 0), (2, 0)) == pytest.approx(1)
        assert segment_distance((3, 0), (0, 0), (2, 0)) == pytest.approx(1)
        assert segment_distance((1, 0), (1, 1), (1, 1)) == pytest.approx(1)

    def test_point_on_segment(self):
        assert point_on_segment((1, 1), (0, 0), (2, 2))
        assert not point_on_segment((3, 3), (0, 0), (2, 2))
        assert not point_on_segment((1, 1.0001), (0, 0), (2, 2))


class TestPolygons:
    def test_unit_square_area(self):
        sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert polygon_area(sq) == pytest.approx(1.0)
        assert polygon_area(sq[::-1]) == pytest.approx(-1.0)

    def test_triangle_area_matches_polygon(self):
        a, b, c = (0, 0), (3, 0), (0, 4)
        assert triangle(a, b, c).areas()[0] == pytest.approx(6.0)
        assert polygon_area([a, b, c]) == pytest.approx(6.0)


class TestCircumcircle:
    def test_right_triangle(self):
        cc = circumcenter((0, 0), (2, 0), (0, 2))
        assert cc == pytest.approx((1, 1))
        r = triangle((0, 0), (2, 0), (0, 2)).circumradii()[0]
        assert r == pytest.approx(distance(cc, (0, 0)))
        assert r == pytest.approx(math.sqrt(2))

    def test_degenerate(self):
        with pytest.raises(ValueError):
            circumcenter((0, 0), (1, 1), (2, 2))
        assert triangle((0, 0), (1, 1), (2, 2)).circumradii()[0] == math.inf

    @given(a=point, b=point, c=point)
    @settings(max_examples=100)
    def test_equidistance(self, a, b, c):
        assume(abs(polygon_area([a, b, c])) > 1e-3)
        cc = circumcenter(a, b, c)
        r = distance(cc, a)
        scale = max(1.0, r)
        assert distance(cc, b) == pytest.approx(r, rel=1e-6, abs=1e-6 * scale)
        assert distance(cc, c) == pytest.approx(r, rel=1e-6, abs=1e-6 * scale)


class TestTriangleAngles:
    def test_equilateral(self):
        h = math.sqrt(3) / 2
        angles = triangle((0, 0), (1, 0), (0.5, h)).angles()[0]
        for ang in angles:
            assert ang == pytest.approx(math.pi / 3)

    @given(a=point, b=point, c=point)
    @settings(max_examples=100)
    def test_sum_to_pi(self, a, b, c):
        assume(abs(polygon_area([a, b, c])) > 1e-3)
        assert triangle(a, b, c).angles()[0].sum() == pytest.approx(math.pi)


class TestSlerpUnit:
    def test_endpoints(self):
        u, v = (1.0, 0.0), (0.0, 1.0)
        assert slerp_unit(u, v, 0.0) == pytest.approx(u)
        assert slerp_unit(u, v, 1.0) == pytest.approx(v)

    def test_midpoint_unit_length(self):
        w = slerp_unit((1.0, 0.0), (0.0, 1.0), 0.5)
        assert math.hypot(*w) == pytest.approx(1.0)
        assert w[0] == pytest.approx(w[1])

    def test_opposite_vectors_sweep_ccw(self):
        w = slerp_unit((1.0, 0.0), (-1.0, 0.0), 0.5)
        assert w == pytest.approx((0.0, 1.0))

    @given(st.floats(min_value=0, max_value=1),
           st.floats(min_value=-3.1, max_value=3.1),
           st.floats(min_value=-3.1, max_value=3.1))
    @settings(max_examples=100)
    def test_always_unit(self, t, th1, th2):
        u = rotate((1.0, 0.0), th1)
        v = rotate((1.0, 0.0), th2)
        w = slerp_unit(u, v, t)
        assert math.hypot(*w) == pytest.approx(1.0, abs=1e-9)
