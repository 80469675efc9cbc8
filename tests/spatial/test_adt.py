"""Tests for the alternating digital tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.aabb import AABB
from .adt import ADT, overlaps, segment_extent_box

coord = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


def box_strategy():
    return st.tuples(coord, coord, coord, coord).map(
        lambda t: AABB(min(t[0], t[2]), min(t[1], t[3]),
                       max(t[0], t[2]), max(t[1], t[3]))
    )


WORLD = AABB(0, 0, 100, 100)


class TestInsertQuery:
    def test_empty_query(self):
        t = ADT(WORLD)
        assert t.query(AABB(0, 0, 1, 1)) == []
        assert len(t) == 0

    def test_single_hit(self):
        t = ADT(WORLD)
        t.insert(AABB(10, 10, 20, 20), 7)
        assert t.query(AABB(15, 15, 30, 30)) == [7]
        assert t.query(AABB(30, 30, 40, 40)) == []

    def test_edge_touch_counts(self):
        t = ADT(WORLD)
        t.insert(AABB(10, 10, 20, 20), 1)
        assert t.query(AABB(20, 10, 30, 20)) == [1]
        assert t.query(AABB(20, 20, 30, 30)) == [1]  # corner touch

    def test_containment_counts(self):
        t = ADT(WORLD)
        t.insert(AABB(10, 10, 50, 50), 1)
        assert t.query(AABB(20, 20, 30, 30)) == [1]  # query inside stored
        t.insert(AABB(22, 22, 28, 28), 2)
        assert sorted(t.query(AABB(20, 20, 30, 30))) == [1, 2]

    def test_out_of_bounds_insert_raises(self):
        t = ADT(WORLD)
        with pytest.raises(ValueError):
            t.insert(AABB(-5, 0, 1, 1), 0)

    def test_degenerate_point_boxes(self):
        t = ADT(WORLD)
        for i in range(10):
            t.insert(AABB(5.0, 5.0, 5.0, 5.0), i)  # identical zero-area boxes
        assert sorted(t.query(AABB(5, 5, 5, 5))) == list(range(10))
        assert t.query(AABB(6, 6, 7, 7)) == []

    def test_from_boxes_classmethod(self):
        boxes = [AABB(i, i, i + 1, i + 1) for i in range(5)]
        t = ADT.from_boxes(boxes)
        assert len(t) == 5
        assert sorted(t.query(AABB(0.5, 0.5, 2.5, 2.5))) == [0, 1, 2]

    def test_from_boxes_empty_raises(self):
        with pytest.raises(ValueError):
            ADT.from_boxes([])


class TestAgainstBruteForce:
    @given(
        boxes=st.lists(box_strategy(), min_size=1, max_size=60),
        query=box_strategy(),
    )
    @settings(max_examples=150)
    def test_query_complete_and_sound(self, boxes, query):
        t = ADT(WORLD).build(boxes)
        got = sorted(t.query(query))
        expect = sorted(i for i, b in enumerate(boxes) if overlaps(b, query))
        assert got == expect

    @given(boxes=st.lists(box_strategy(), min_size=2, max_size=30))
    @settings(max_examples=60)
    def test_query_pairs_matches_bruteforce(self, boxes):
        t = ADT(WORLD).build(boxes)
        got = sorted(t.query_pairs())
        expect = sorted(
            (i, j)
            for i in range(len(boxes))
            for j in range(i + 1, len(boxes))
            if overlaps(boxes[i], boxes[j])
        )
        assert got == expect


class TestLogDepth:
    def test_depth_logarithmic_for_spread_boxes(self):
        rng = np.random.default_rng(0)
        n = 4096
        t = ADT(WORLD)
        for i in range(n):
            x, y = rng.uniform(0, 99, size=2)
            t.insert(AABB(x, y, x + 1, y + 1), i)
        # A digital tree over uniform data stays near-balanced: depth
        # should be O(log n) with a modest constant, far below n.
        assert t.depth() <= 4 * int(np.log2(n))

    def test_segment_extent_workflow(self):
        # The paper's usage: rays as segments -> extent boxes -> 4D points.
        rng = np.random.default_rng(1)
        segs = rng.uniform(10, 90, size=(200, 2, 2))
        boxes = [segment_extent_box(s[0], s[1]) for s in segs]
        t = ADT(WORLD).build(boxes)
        q = boxes[17]
        hits = t.query(q)
        assert 17 in hits
        for i in hits:
            assert overlaps(boxes[i], q)
