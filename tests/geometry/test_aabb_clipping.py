"""Tests for AABB boxes and the extent-box broad phase."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import aabb
from repro.geometry.aabb import AABB, boxes_from_segments, overlapping_pairs
from tests.spatial.adt import (
    ADT,
    as_4d_point,
    enclosing,
    overlaps,
    segment_extent_box,
)

coord = st.floats(min_value=-100, max_value=100, allow_nan=False)
point = st.tuples(coord, coord)

UNIT = AABB(0, 0, 1, 1)


class TestAABB:
    def test_inverted_raises(self):
        with pytest.raises(ValueError):
            AABB(1, 0, 0, 1)

    def test_of_points(self):
        b = AABB.of_points([(0, 1), (2, -1), (1, 0)])
        assert (b.xmin, b.ymin, b.xmax, b.ymax) == (0, -1, 2, 1)

    def test_of_empty_raises(self):
        with pytest.raises(ValueError):
            AABB.of_points([])

    def test_contains(self):
        assert UNIT.contains_box(AABB(0.5, 0.5, 0.5, 0.5))
        assert UNIT.contains_box(AABB(0, 0, 1, 1))  # closed box
        assert not UNIT.contains_box(AABB(0.5, 0.5, 1.1, 0.5))

    def test_overlaps(self):
        assert overlaps(UNIT, AABB(0.5, 0.5, 2, 2))
        assert overlaps(UNIT, AABB(1, 0, 2, 1))  # edge touch
        assert not overlaps(UNIT, AABB(1.01, 0, 2, 1))

    def test_union_and_expand(self):
        u = enclosing([UNIT, AABB(2, 2, 3, 3)])
        assert (u.xmin, u.ymin, u.xmax, u.ymax) == (0, 0, 3, 3)
        e = UNIT.expanded(1)
        assert (e.xmin, e.ymin, e.xmax, e.ymax) == (-1, -1, 2, 2)

    def test_4d_point(self):
        assert as_4d_point(UNIT) == (0, 0, 1, 1)

    @given(a=point, b=point)
    def test_segment_extent_contains_endpoints(self, a, b):
        box = segment_extent_box(a, b)
        assert box.contains_box(AABB(*a, *a))
        assert box.contains_box(AABB(*b, *b))

    def test_boxes_from_segments(self):
        segs = np.array([[[0, 0], [1, 2]], [[3, -1], [2, 4]]], dtype=float)
        boxes = boxes_from_segments(segs)
        assert boxes.shape == (2, 4)
        np.testing.assert_allclose(boxes[0], [0, 0, 1, 2])
        np.testing.assert_allclose(boxes[1], [2, -1, 3, 4])

    def test_boxes_from_segments_bad_shape(self):
        with pytest.raises(ValueError):
            boxes_from_segments(np.zeros((3, 2)))


# Small integer coordinates make touching, identical and zero-length
# segments common instead of measure-zero.
grid_point = st.tuples(st.integers(0, 6), st.integers(0, 6))
segment = st.tuples(grid_point, grid_point) | st.tuples(point, point)


def adt_pairs(boxes, queries):
    """{(query, stored)}: closed overlap as the ADT oracle reports it."""
    tree = ADT(AABB(-100, -100, 100, 100)).build([AABB(*b) for b in boxes])
    return {(i, j) for i, q in enumerate(queries)
            for j in tree.query(AABB(*q))}


class TestOverlappingPairs:
    @given(segs=st.lists(segment, min_size=1, max_size=40),
           block=st.sampled_from([1, 5, 1 << 20]))
    @settings(max_examples=150, deadline=None)
    def test_self_pairs_match_adt_query(self, segs, block):
        boxes = boxes_from_segments(np.array(segs, dtype=float))
        with mock.patch.object(aabb, "_SWEEP_BLOCK", block):
            i, j = overlapping_pairs(boxes)
        got = list(zip(i.tolist(), j.tolist()))
        assert len(got) == len(set(got))  # each pair once
        assert set(got) == {(a, b) for a, b in adt_pairs(boxes, boxes)
                            if a < b}

    @given(segs=st.lists(segment, min_size=1, max_size=30),
           others=st.lists(segment, min_size=1, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_two_sets_match_adt_query(self, segs, others):
        boxes = boxes_from_segments(np.array(segs, dtype=float))
        stored = boxes_from_segments(np.array(others, dtype=float))
        i, j = overlapping_pairs(boxes, stored)
        got = list(zip(i.tolist(), j.tolist()))
        assert len(got) == len(set(got))
        assert set(got) == adt_pairs(stored, boxes)

    def test_empty(self):
        i, j = overlapping_pairs(np.empty((0, 4)))
        assert len(i) == len(j) == 0
        i, j = overlapping_pairs(np.empty((0, 4)), np.array([[0., 0, 1, 1]]))
        assert len(i) == len(j) == 0

    def test_20k_segments_bounded_memory(self):
        # An all-pairs matrix of 20k boxes is 4e8 entries (400 MB as
        # bools); the sweep must stay near the size of its output.
        rng = np.random.default_rng(0)
        n = 20_000
        a = rng.uniform(0, 100, size=(n, 2))
        b = a + rng.uniform(-0.5, 0.5, size=(n, 2))
        boxes = boxes_from_segments(np.stack([a, b], axis=1))
        tracemalloc.start()
        i, j = overlapping_pairs(boxes)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 64e6
        # Spot-check against the definition on a slice of the boxes.
        k = np.flatnonzero(i < 50)
        for q in range(50):
            lo, hi = boxes[q, :2], boxes[q, 2:]
            overlap = (np.all(boxes[:, :2] <= hi, axis=1)
                       & np.all(boxes[:, 2:] >= lo, axis=1))
            overlap[:q + 1] = False
            assert set(j[k][i[k] == q]) == set(np.flatnonzero(overlap))
