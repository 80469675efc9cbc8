"""Tests for the monotone chain convex hull and its unsorted oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.delaunay.hull import lower_hull_sorted
from repro.geometry.predicates import orient2d

from .oracle_hull import convex_hull, lower_hull, upper_hull

coord = st.floats(min_value=-100, max_value=100, allow_nan=False)


def brute_lower_hull(points):
    """O(n^3) reference: points on the lower hull are those with no point
    strictly below the hull chain — computed via the full hull."""
    from itertools import combinations

    n = len(points)
    if n == 1:
        return [0]
    # A point is on the lower hull iff it is an endpoint of an edge such
    # that all other points are strictly above (left of) the directed edge.
    on_hull = set()
    order = np.lexsort((points[:, 1], points[:, 0]))
    on_hull.add(int(order[0]))
    on_hull.add(int(order[-1]))
    for i, j in combinations(range(n), 2):
        a, b = points[i], points[j]
        if tuple(a) > tuple(b):
            i, j, a, b = j, i, b, a
        sides = [orient2d(a, b, points[k]) for k in range(n) if k not in (i, j)]
        if all(s > 0 for s in sides):
            on_hull.add(i)
            on_hull.add(j)
    return sorted(on_hull, key=lambda k: (points[k][0], points[k][1]))


class TestLowerHull:
    def test_simple_vee(self):
        pts = np.array([(0, 1), (1, 0), (2, 1)], dtype=float)
        assert lower_hull(pts) == [0, 1, 2]

    def test_collinear_dropped(self):
        pts = np.array([(0, 0), (1, 0), (2, 0)], dtype=float)
        assert lower_hull(pts) == [0, 2]

    def test_interior_point_excluded(self):
        pts = np.array([(0, 0), (1, 1), (2, 0), (1, 0.2)], dtype=float)
        hull = lower_hull(pts)
        assert 1 not in hull and 3 not in hull
        assert hull == [0, 2]

    def test_single_point(self):
        assert lower_hull(np.array([(3.0, 4.0)])) == [0]

    def test_empty(self):
        assert lower_hull(np.empty((0, 2))) == []

    @given(st.lists(st.tuples(coord, coord), min_size=1, max_size=25, unique=True))
    @settings(max_examples=120)
    def test_matches_bruteforce(self, pts):
        points = np.asarray(pts, dtype=float)
        got = lower_hull(points)
        # All points weakly above every hull edge.
        for a, b in zip(got, got[1:]):
            for k in range(len(points)):
                if k in (a, b):
                    continue
                assert orient2d(points[a], points[b], points[k]) >= 0
        # Hull is strictly convex: consecutive turns are strict lefts.
        for a, b, c in zip(got, got[1:], got[2:]):
            assert orient2d(points[a], points[b], points[c]) > 0
        # Endpoints are the lexicographic extremes.
        order = np.lexsort((points[:, 1], points[:, 0]))
        assert got[0] == order[0]
        assert got[-1] == order[-1]

    @given(st.lists(st.tuples(coord, coord), min_size=3, max_size=15, unique=True))
    @settings(max_examples=60)
    def test_linear_time_presorted_agrees(self, pts):
        points = np.asarray(pts, dtype=float)
        order = np.lexsort((points[:, 1], points[:, 0]))
        assert lower_hull_sorted(points, order) == lower_hull(points)


class TestFullHull:
    def test_square_ccw(self):
        pts = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)], dtype=float)
        h = convex_hull(pts)
        assert set(h) == {0, 1, 2, 3}
        n = len(h)
        for i in range(n):
            a, b, c = pts[h[i]], pts[h[(i + 1) % n]], pts[h[(i + 2) % n]]
            assert orient2d(a, b, c) > 0

    def test_all_collinear(self):
        pts = np.array([(0, 0), (1, 1), (2, 2), (3, 3)], dtype=float)
        h = convex_hull(pts)
        assert set(h) == {0, 3}

    @given(st.lists(st.tuples(coord, coord), min_size=3, max_size=30, unique=True))
    @settings(max_examples=80)
    def test_all_points_inside(self, pts):
        points = np.asarray(pts, dtype=float)
        h = convex_hull(points)
        assume(len(h) >= 3)
        n = len(h)
        for k in range(len(points)):
            for i in range(n):
                a, b = points[h[i]], points[h[(i + 1) % n]]
                assert orient2d(a, b, points[k]) >= 0


class TestUpperHull:
    def test_mirror_of_lower(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, size=(40, 2))
        up = upper_hull(pts)
        lo_mirror = lower_hull(pts * np.array([1.0, -1.0]))
        assert sorted(up) == sorted(lo_mirror)
