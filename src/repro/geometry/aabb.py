"""Axis-aligned bounding boxes, segment extent boxes and their broad phase.

The boundary-layer intersection machinery (paper Section II.B) prunes
candidate rays hierarchically: first against the AABB of a whole airfoil
element's boundary layer, then by the overlap of per-segment extent
boxes, and only then with exact segment tests.  This module provides the
box type and the one bulk overlap search (:func:`overlapping_pairs`)
those stages share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

__all__ = ["AABB", "boxes_from_segments", "overlapping_pairs"]


@dataclass(frozen=True)
class AABB:
    """Closed axis-aligned box ``[xmin, xmax] x [ymin, ymax]``."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(f"inverted AABB: {self}")

    @classmethod
    def of_points(cls, pts: Iterable[Tuple[float, float]]) -> "AABB":
        arr = np.asarray(list(pts) if not isinstance(pts, np.ndarray) else pts,
                         dtype=np.float64)
        if arr.size == 0:
            raise ValueError("AABB of empty point set")
        return cls(
            float(arr[:, 0].min()), float(arr[:, 1].min()),
            float(arr[:, 0].max()), float(arr[:, 1].max()),
        )

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def center(self) -> Tuple[float, float]:
        return (0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax))

    def contains_box(self, other: "AABB") -> bool:
        return (
            self.xmin <= other.xmin and other.xmax <= self.xmax
            and self.ymin <= other.ymin and other.ymax <= self.ymax
        )

    def expanded(self, margin: float) -> "AABB":
        """Box grown by ``margin`` on every side."""
        return AABB(
            self.xmin - margin, self.ymin - margin,
            self.xmax + margin, self.ymax + margin,
        )

    def corners(self) -> Iterator[Tuple[float, float]]:
        yield (self.xmin, self.ymin)
        yield (self.xmax, self.ymin)
        yield (self.xmax, self.ymax)
        yield (self.xmin, self.ymax)


def boxes_from_segments(segments: np.ndarray) -> np.ndarray:
    """Vectorised extent boxes for an ``(n, 2, 2)`` array of segments.

    Returns an ``(n, 4)`` array of ``(xmin, ymin, xmax, ymax)`` rows — the
    input of :func:`overlapping_pairs`.
    """
    segments = np.asarray(segments, dtype=np.float64)
    if segments.ndim != 3 or segments.shape[1:] != (2, 2):
        raise ValueError("expected segments of shape (n, 2, 2)")
    lo = segments.min(axis=1)
    hi = segments.max(axis=1)
    return np.concatenate([lo, hi], axis=1)


#: Pairs expanded per sweep block: bounds the scratch arrays of
#: :func:`overlapping_pairs` whatever the input (8 index/mask arrays of
#: this length, ~50 MB).
_SWEEP_BLOCK = 1 << 20


def overlapping_pairs(
    boxes: np.ndarray, others: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs of extent boxes with closed overlap (the broad phase).

    ``boxes`` and ``others`` are ``(n, 4)`` / ``(m, 4)`` arrays of
    ``(xmin, ymin, xmax, ymax)`` rows.  With ``others`` omitted the result
    is every unordered pair of ``boxes``, once, as ``(i, j)`` with
    ``i < j``; otherwise ``i`` indexes ``boxes`` and ``j`` indexes
    ``others``.  Overlap is closed — boxes sharing only an edge or a
    corner count — because the search is a conservative prune: a false
    positive costs one exact test, a false negative loses a crossing.

    Sort-and-sweep on the x-extent: with the boxes sorted by ``xmin``,
    the partners of one box are the contiguous run of later boxes whose
    ``xmin`` does not exceed its ``xmax`` (one ``searchsorted``); the
    runs are expanded block by block and filtered on the y-extent.  Time
    is O(n log n + x-overlapping pairs), memory O(n + result + block) —
    no n x m matrix is ever formed.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    n = len(boxes)
    if others is not None:
        # One sweep over the union; only pairs straddling the sets are kept.
        boxes = np.concatenate([boxes, np.asarray(others, dtype=np.float64)])
    order = np.argsort(boxes[:, 0], kind="stable")
    xmin, ymin, xmax, ymax = boxes[order].T
    first = np.arange(1, len(order) + 1)        # first later box per row
    count = np.searchsorted(xmin, xmax, side="right") - first
    ends = np.cumsum(count)
    found_i, found_j = [], []
    lo = 0
    while lo < len(order):
        done = int(ends[lo - 1]) if lo else 0
        # Whole rows up to _SWEEP_BLOCK pairs, but always at least one
        # (a single row expands to fewer than len(order) pairs).
        hi = max(lo + 1, int(np.searchsorted(ends, done + _SWEEP_BLOCK,
                                             side="right")))
        c = count[lo:hi]
        row = np.repeat(np.arange(lo, hi), c)
        col = (np.arange(int(ends[hi - 1]) - done)
               + np.repeat(first[lo:hi] - (ends[lo:hi] - c - done), c))
        keep = (ymin[row] <= ymax[col]) & (ymin[col] <= ymax[row])
        a, b = order[row[keep]], order[col[keep]]
        i, j = np.minimum(a, b), np.maximum(a, b)
        if others is not None:
            straddles = (i < n) & (j >= n)
            i, j = i[straddles], j[straddles] - n
        found_i.append(i)
        found_j.append(j)
        lo = hi
    if not found_i:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    return np.concatenate(found_i), np.concatenate(found_j)
