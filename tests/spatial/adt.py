"""Alternating Digital Tree (ADT) for geometric intersection searching.

Test oracle: the boundary-layer stage finds candidate pairs with the bulk
sweep :func:`repro.geometry.aabb.overlapping_pairs`; this per-query tree
(the paper's own structure) is what that sweep, and through
``tests/core/oracle_intersections.py`` the whole bulk resolution, is
compared against.

Implements the data structure of Bonet & Peraire, "An Alternating Digital
Tree (ADT) Algorithm for 3D Geometric Searching and Intersection Problems"
(1991), in the two-dimensional specialisation the paper uses (Section II.B):

* a 2D segment's *extent box* ``(xmin, ymin, xmax, ymax)`` is treated as a
  **point in 4D**;
* the tree is a binary digital tree that cycles through the 4 coordinates
  level by level, halving the coordinate's range at each level (a digital,
  i.e. *fixed*, subdivision — the split position depends on the level, not
  on the stored points);
* an overlap query for a box ``q`` becomes a 4D axis-aligned range query:
  stored box ``b`` overlaps ``q`` iff
  ``b.xmin <= q.xmax, b.ymin <= q.ymax, b.xmax >= q.xmin, b.ymax >= q.ymin``
  i.e. the 4D point of ``b`` lies in the hyper-region
  ``[lo_x, q.xmax] x [lo_y, q.ymax] x [q.xmin, hi_x] x [q.ymin, hi_y]``.

Each node stores one 4D point plus the hyper-rectangle its subtree is
confined to, so whole subtrees are pruned when their region misses the
query region — giving O(log n) behaviour for well-distributed boxes,
matching the paper's cost claims ("a line segment's extent box ... can be
tested ... in log(n) time", "checking for intersections between n rays'
extent boxes ... in n*log(n) time").
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.aabb import AABB

__all__ = ["ADT", "as_4d_point", "enclosing", "overlaps",
           "segment_extent_box"]

_DIM = 4


def as_4d_point(box: AABB) -> Tuple[float, float, float, float]:
    """Project an extent box to the 4D point ``(xmin, ymin, xmax, ymax)``:
    box-overlap queries become 4D axis-aligned range queries."""
    return (box.xmin, box.ymin, box.xmax, box.ymax)


def segment_extent_box(a, b) -> AABB:
    """Extent box of the segment ``ab``."""
    return AABB(min(a[0], b[0]), min(a[1], b[1]),
                max(a[0], b[0]), max(a[1], b[1]))


def overlaps(a: AABB, b: AABB) -> bool:
    """Closed-interval overlap (boxes touching at an edge overlap): the
    brute-force definition the tree's queries answer."""
    return not (b.xmin > a.xmax or b.xmax < a.xmin
                or b.ymin > a.ymax or b.ymax < a.ymin)


def enclosing(boxes: Sequence[AABB]) -> AABB:
    """The smallest box containing every box of ``boxes``."""
    return AABB(min(b.xmin for b in boxes), min(b.ymin for b in boxes),
                max(b.xmax for b in boxes), max(b.ymax for b in boxes))


class _Node:
    __slots__ = ("point", "payload", "left", "right")

    def __init__(self, point: np.ndarray, payload: int) -> None:
        self.point = point
        self.payload = payload
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None


class ADT:
    """Alternating digital tree over 2D extent boxes lifted to 4D points.

    Parameters
    ----------
    bounds:
        The 2D :class:`AABB` that encloses every box ever inserted.  The 4D
        root region is derived from it.  Inserting a box outside ``bounds``
        raises :class:`ValueError` (a digital tree's subdivision is fixed in
        advance, so the global extent must be known up front).

    Notes
    -----
    Payloads are integer ids supplied by the caller (typically indices into
    a ray or border-segment array), following the paper's usage where the
    tree answers "which other rays have a potential intersection".
    """

    def __init__(self, bounds: AABB) -> None:
        # 4D root region: each 2D coordinate range appears twice
        # (once for the min corner, once for the max corner).
        self._lo = np.array(
            [bounds.xmin, bounds.ymin, bounds.xmin, bounds.ymin], dtype=np.float64
        )
        self._hi = np.array(
            [bounds.xmax, bounds.ymax, bounds.xmax, bounds.ymax], dtype=np.float64
        )
        if np.any(self._lo > self._hi):
            raise ValueError("inverted bounds")
        self._root: Optional[_Node] = None
        self._size = 0
        self.bounds = bounds

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, box: AABB, payload: int) -> None:
        """Insert one extent box with an integer payload id."""
        p = np.array(as_4d_point(box), dtype=np.float64)
        if np.any(p < self._lo) or np.any(p > self._hi):
            raise ValueError(f"box {box} outside ADT bounds {self.bounds}")
        node = _Node(p, payload)
        self._size += 1
        if self._root is None:
            self._root = node
            return

        lo = self._lo.copy()
        hi = self._hi.copy()
        cur = self._root
        depth = 0
        while True:
            axis = depth % _DIM
            mid = 0.5 * (lo[axis] + hi[axis])
            # Left subtree owns [lo, mid), right owns [mid, hi].  Points
            # exactly at mid go right so the recursion always terminates
            # even with many identical coordinates.
            if p[axis] < mid:
                if cur.left is None:
                    cur.left = node
                    return
                cur = cur.left
                hi[axis] = mid
            else:
                if cur.right is None:
                    cur.right = node
                    return
                cur = cur.right
                lo[axis] = mid
            depth += 1

    def build(self, boxes: Sequence[AABB], payloads: Optional[Sequence[int]] = None
              ) -> "ADT":
        """Bulk-insert ``boxes`` (payload defaults to the index). Returns self."""
        if payloads is None:
            payloads = range(len(boxes))
        for box, pid in zip(boxes, payloads):
            self.insert(box, pid)
        return self

    @classmethod
    def from_boxes(cls, boxes: Sequence[AABB]) -> "ADT":
        """Construct with bounds inferred from the boxes themselves."""
        if not boxes:
            raise ValueError("cannot infer bounds from zero boxes")
        return cls(enclosing(boxes)).build(boxes)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, box: AABB) -> List[int]:
        """Payload ids of every stored box whose extent overlaps ``box``.

        Overlap is closed (boxes sharing only an edge or corner count), in
        keeping with the conservative pruning role the structure plays: a
        false positive costs one exact geometric test; a false negative
        would lose an intersection.
        """
        if self._root is None:
            return []
        # 4D query region for "stored box overlaps query box".
        qlo = np.array(
            [-np.inf, -np.inf, box.xmin, box.ymin], dtype=np.float64
        )
        qhi = np.array(
            [box.xmax, box.ymax, np.inf, np.inf], dtype=np.float64
        )
        out: List[int] = []
        # Iterative DFS with explicit (node, lo, hi, depth) stack.
        stack: List[Tuple[_Node, np.ndarray, np.ndarray, int]] = [
            (self._root, self._lo.copy(), self._hi.copy(), 0)
        ]
        while stack:
            node, lo, hi, depth = stack.pop()
            p = node.point
            if np.all(p >= qlo) and np.all(p <= qhi):
                out.append(node.payload)
            axis = depth % _DIM
            mid = 0.5 * (lo[axis] + hi[axis])
            if node.left is not None and qlo[axis] < mid:
                child_hi = hi.copy()
                child_hi[axis] = mid
                # Prune: subtree region [lo, child_hi] must meet [qlo, qhi].
                if np.all(lo <= qhi) and np.all(child_hi >= qlo):
                    stack.append((node.left, lo.copy(), child_hi, depth + 1))
            if node.right is not None and qhi[axis] >= mid:
                child_lo = lo.copy()
                child_lo[axis] = mid
                if np.all(child_lo <= qhi) and np.all(hi >= qlo):
                    stack.append((node.right, child_lo, hi.copy(), depth + 1))
        return out

    def query_pairs(self) -> List[Tuple[int, int]]:
        """All unordered payload pairs with overlapping extent boxes.

        This is the self-intersection pattern of Section II.B: every ray's
        extent box is both stored in the tree and queried against it.  Each
        overlapping pair is reported once with ``payload_a < payload_b``.
        """
        pairs: List[Tuple[int, int]] = []
        for node, box in self._iter_nodes_boxes():
            for other in self.query(box):
                if other > node:
                    pairs.append((node, other))
        return pairs

    def _iter_nodes_boxes(self):
        stack = [self._root] if self._root is not None else []
        while stack:
            n = stack.pop()
            p = n.point
            yield n.payload, AABB(p[0], p[1], p[2], p[3])
            if n.left is not None:
                stack.append(n.left)
            if n.right is not None:
                stack.append(n.right)

    # ------------------------------------------------------------------
    # Introspection (for tests / balance diagnostics)
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Maximum node depth (root = 0); -1 for an empty tree."""
        best = -1
        stack = [(self._root, 0)] if self._root is not None else []
        while stack:
            n, d = stack.pop()
            best = max(best, d)
            if n.left is not None:
                stack.append((n.left, d + 1))
            if n.right is not None:
                stack.append((n.right, d + 1))
        return best
