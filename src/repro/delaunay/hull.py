"""Andrew's Monotone Chain convex hull.

The projection-based decomposition (paper Section II.D, Fig. 7) computes
the *lower* convex hull of points flattened onto a vertical plane.  Because
those points arrive already sorted along the primary axis (the subdomain
maintains x- and y-sorted vertex arrays), the hull is computed in
**worst-case linear time**: one sweep, each point pushed once and popped at
most once.

:func:`lower_hull_sorted` operates on an index array into a coordinate
array so callers keep working with subdomain vertex ids.  Right-hand-turn
removal uses the robust orientation predicate.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..geometry.predicates import orient2d

__all__ = ["lower_hull_sorted"]


def lower_hull_sorted(points: np.ndarray, order: Sequence[int]) -> List[int]:
    """Lower hull of ``points[order]`` where ``order`` is already sorted
    lexicographically by (x, y).  Returns hull vertex ids (subset of
    ``order``) from the leftmost to the rightmost point.  Collinear points
    on the hull are *dropped* (strict turns only), which is what the
    dividing-path construction wants: collinear interior points would
    create zero-length-cavity path edges.

    This is the linear-time core: each element is appended once and removed
    at most once (paper Fig. 7's sweep).
    """
    hull: List[int] = []
    for idx in order:
        p = points[idx]
        while len(hull) >= 2:
            o = orient2d(points[hull[-2]], points[hull[-1]], p)
            # Keep only strict left turns on the lower hull: pop while the
            # last point makes a right turn or is collinear.
            if o <= 0:
                hull.pop()
            else:
                break
        hull.append(int(idx))
    return hull
