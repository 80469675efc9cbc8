"""Tests for the uniform bucket grid (the batch planner's partition)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.aabb import AABB
from repro.spatial.grid import BucketGrid

WORLD = AABB(0, 0, 10, 10)
coord = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


class TestBucketGrid:
    def test_layout_follows_expected_points_and_aspect(self):
        g = BucketGrid(AABB(0, 0, 20, 5), target_per_bucket=4.0,
                       expected_points=256)
        assert (g.nx, g.ny) == (16, 4)
        assert g.head_payloads().shape == (64,)
        assert (g.head_payloads() == -1).all()

    def test_single_point(self):
        g = BucketGrid(WORLD, expected_points=64)      # 4 x 4 buckets
        g.insert_many(np.array([[3.0, 3.0]]))
        heads = g.head_payloads()
        assert heads[5] == 0
        assert (np.delete(heads, 5) == -1).all()

    def test_cell_ids_row_major(self):
        g = BucketGrid(WORLD, expected_points=64)
        assert (g.nx, g.ny) == (4, 4)
        pts = np.array([[1, 1], [9, 1], [1, 9], [9, 9], [10, 10]],
                       dtype=float)
        assert g.cell_ids(pts).tolist() == [0, 3, 12, 15, 15]

    def test_outside_points_clamped(self):
        g = BucketGrid(WORLD, expected_points=64)
        pts = np.array([[-5, -5], [50, 3], [4, 1e9]], dtype=float)
        assert g.cell_ids(pts).tolist() == [0, 7, 13]
        g.insert_many(pts)                 # clamped into border buckets
        assert g.head_payloads()[[0, 7, 13]].tolist() == [0, 1, 2]

    def test_heads_keep_the_first_point_of_each_bucket(self):
        g = BucketGrid(WORLD, expected_points=64)
        pts = np.array([[1, 1], [2, 2], [9, 9], [1.5, 1.5], [9.5, 9]],
                       dtype=float)
        g.insert_many(pts)
        heads = g.head_payloads()
        assert heads[0] == 0 and heads[15] == 2
        assert (np.delete(heads, [0, 15]) == -1).all()
        # A later snapshot never displaces a stored head.
        g.insert_many(np.array([[1.2, 1.2], [6.0, 1.0]]))
        assert heads[0] == 0 and heads[2] == 1

    @given(pts=st.lists(st.tuples(coord, coord), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_head_is_the_lowest_row_in_its_bucket(self, pts):
        """What the batch walk seeder relies on: ``head_payloads()[c]``
        is a stored point of bucket ``c`` (the first one), and -1 iff
        the bucket is empty."""
        arr = np.array(pts, dtype=float)
        g = BucketGrid(WORLD, expected_points=len(pts))
        g.insert_many(arr)
        cells = g.cell_ids(arr)
        heads = g.head_payloads()
        for c in range(g.nx * g.ny):
            rows = np.flatnonzero(cells == c)
            assert heads[c] == (rows[0] if rows.size else -1)
