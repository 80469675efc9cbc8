"""Unsorted-input hulls: the reference for ``lower_hull_sorted``.

``repro.delaunay.hull`` keeps only the linear-time sweep over points the
caller has already sorted (the decomposition's case).  These wrappers
sort first and were its public front before nothing outside the tests
called them; they stay here as the oracle ``tests/delaunay/test_hull``
compares the sweep against, and as the convex hull
``tests/delaunay/test_kernel`` measures a triangulation's area with.
"""

from typing import List

import numpy as np

from repro.delaunay.hull import lower_hull_sorted


def _sorted_order(points: np.ndarray) -> np.ndarray:
    """Lexicographic (x, then y) sort order of the rows of ``points``."""
    return np.lexsort((points[:, 1], points[:, 0]))


def lower_hull(points: np.ndarray) -> List[int]:
    """Lower convex hull indices of an unsorted ``(n, 2)`` array."""
    points = np.asarray(points, dtype=np.float64)
    if len(points) == 0:
        return []
    return lower_hull_sorted(points, _sorted_order(points))


def upper_hull(points: np.ndarray) -> List[int]:
    """Upper convex hull indices: the lower hull of the reversed sweep."""
    points = np.asarray(points, dtype=np.float64)
    if len(points) == 0:
        return []
    return lower_hull_sorted(points, _sorted_order(points)[::-1])


def convex_hull(points: np.ndarray) -> List[int]:
    """Full convex hull in counter-clockwise order (no repeated endpoint).

    Degenerate inputs: fewer than 3 distinct points, or all points
    collinear, return the extreme points only (0, 1 or 2 indices).
    """
    lo = lower_hull(points)
    if len(lo) <= 1:
        return lo
    hi = upper_hull(points)
    # Concatenate, dropping the duplicated extreme points.
    return lo[:-1] + hi[:-1] if len(lo) + len(hi) > 2 else lo
