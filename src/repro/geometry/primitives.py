"""Low-level geometric primitives: segments, angles, normals, projections.

All routines accept plain ``(x, y)`` tuples or NumPy arrays and are written
against the robust predicates in :mod:`repro.geometry.predicates` wherever a
sign decision matters.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .predicates import ORIENT_COLLINEAR, exact_eq, orient2d, orient2d_batch

__all__ = [
    "Point",
    "normalize",
    "perp_right",
    "angle_between",
    "signed_turn_angle",
    "segments_intersect",
    "segments_intersect_batch",
    "segment_intersection_point",
    "point_on_segment",
    "polygon_area",
    "rotate",
    "slerp_unit",
]

Point = Tuple[float, float]


def normalize(v) -> Tuple[float, float]:
    """Return ``v`` scaled to unit length.

    Raises :class:`ValueError` for the zero vector — callers in the
    boundary-layer code must never emit degenerate normals silently.
    """
    n = math.hypot(v[0], v[1])
    if exact_eq(n, 0.0):
        raise ValueError("cannot normalize zero-length vector")
    return (v[0] / n, v[1] / n)


def perp_right(v) -> Tuple[float, float]:
    """The vector ``v`` rotated 90 degrees clockwise."""
    return (v[1], -v[0])


def rotate(v, theta: float) -> Tuple[float, float]:
    """Rotate vector ``v`` by ``theta`` radians counter-clockwise."""
    c, s = math.cos(theta), math.sin(theta)
    return (c * v[0] - s * v[1], s * v[0] + c * v[1])


def angle_between(u, v) -> float:
    """Unsigned angle in radians between vectors ``u`` and ``v`` in [0, pi].

    Uses ``atan2(|u x v|, u . v)`` which is numerically stable for nearly
    parallel and nearly opposite vectors (unlike the acos formulation).
    """
    cross = u[0] * v[1] - u[1] * v[0]
    dot = u[0] * v[0] + u[1] * v[1]
    return math.atan2(abs(cross), dot)


def signed_turn_angle(u, v) -> float:
    """Signed angle in radians from ``u`` to ``v`` in (-pi, pi].

    Positive when ``v`` is counter-clockwise from ``u``.
    """
    cross = u[0] * v[1] - u[1] * v[0]
    dot = u[0] * v[0] + u[1] * v[1]
    return math.atan2(cross, dot)


def point_on_segment(p, a, b) -> bool:
    """True if point ``p`` lies on the closed segment ``ab`` (exact test)."""
    if orient2d(a, b, p) != ORIENT_COLLINEAR:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segments_intersect(p1, p2, q1, q2, *, proper_only: bool = False) -> bool:
    """Exact test whether segments ``p1p2`` and ``q1q2`` intersect.

    With ``proper_only=True`` only *proper* crossings count (the segments
    cross at a single interior point of both); shared endpoints and
    collinear overlaps are ignored.  The boundary-layer intersection
    resolution uses ``proper_only=True`` because adjacent rays legitimately
    share their origin on the surface.
    """
    d1 = orient2d(q1, q2, p1)
    d2 = orient2d(q1, q2, p2)
    d3 = orient2d(p1, p2, q1)
    d4 = orient2d(p1, p2, q2)

    if d1 != d2 and d3 != d4 and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True
    if proper_only:
        return False
    # Improper cases: touching or collinear overlap.
    if d1 == 0 and point_on_segment(p1, q1, q2):
        return True
    if d2 == 0 and point_on_segment(p2, q1, q2):
        return True
    if d3 == 0 and point_on_segment(q1, p1, p2):
        return True
    if d4 == 0 and point_on_segment(q2, p1, p2):
        return True
    # General (non-collinear) crossing with an endpoint on the other segment
    # is covered above; remaining case is a strict crossing.
    return d1 != d2 and d3 != d4


def segments_intersect_batch(p1: np.ndarray, p2: np.ndarray, q1: np.ndarray,
                             q2: np.ndarray, *, proper_only: bool = False
                             ) -> np.ndarray:
    """Vectorised :func:`segments_intersect` over ``(n, 2)`` endpoint arrays.

    Pair ``k`` is ``p1[k]p2[k]`` against ``q1[k]q2[k]``.  The four
    orientation signs come from :func:`orient2d_batch` (exact by per-entry
    escalation) and are combined by the scalar function's rules, so every
    decision — proper crossing, endpoint touch, collinear overlap — equals
    the scalar one.
    """
    d1 = orient2d_batch(q1, q2, p1)
    d2 = orient2d_batch(q1, q2, p2)
    d3 = orient2d_batch(p1, p2, q1)
    d4 = orient2d_batch(p1, p2, q2)
    straddle = (d1 != d2) & (d3 != d4)
    if proper_only:
        return straddle & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)

    def on_segment(d, p, a, b):
        # point_on_segment for a point already known collinear (d == 0).
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return (d == 0) & np.all((lo <= p) & (p <= hi), axis=1)

    return (straddle
            | on_segment(d1, p1, q1, q2) | on_segment(d2, p2, q1, q2)
            | on_segment(d3, q1, p1, p2) | on_segment(d4, q2, p1, p2))


def segment_intersection_point(p1, p2, q1, q2) -> Optional[Tuple[float, float]]:
    """Intersection point of segments ``p1p2`` and ``q1q2``, or ``None``.

    Returns the crossing point for proper and endpoint-touching
    intersections.  For collinear overlaps returns an arbitrary shared
    point.  The *existence* decision is exact; the coordinates are
    computed in floating point, with the parameter along ``p1p2`` clamped
    to [0, 1], so the point never lies past either end of ``p1p2``.
    """
    if not segments_intersect(p1, p2, q1, q2):
        return None
    rx, ry = p2[0] - p1[0], p2[1] - p1[1]
    sx, sy = q2[0] - q1[0], q2[1] - q1[1]
    denom = rx * sy - ry * sx
    if exact_eq(denom, 0.0):
        # Collinear overlap: return an endpoint lying on the other segment.
        for pt in (p1, p2, q1, q2):
            if point_on_segment(pt, q1, q2) and point_on_segment(pt, p1, p2):
                return (float(pt[0]), float(pt[1]))
        return None
    t = ((q1[0] - p1[0]) * sy - (q1[1] - p1[1]) * sx) / denom
    t = min(max(t, 0.0), 1.0)
    return (p1[0] + t * rx, p1[1] + t * ry)


def polygon_area(pts) -> float:
    """Signed area of a simple polygon (positive when counter-clockwise)."""
    pts = np.asarray(pts, dtype=np.float64)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def point_in_polygon(x, y, poly: np.ndarray):
    """Even-odd ray casting (horizontal ray to +inf), vectorised over
    the edges — and over points when ``x`` and ``y`` are ``(k, 1)``
    columns (one answer per row)."""
    poly = np.asarray(poly, dtype=np.float64)
    xi, yi = poly[:, 0], poly[:, 1]
    xj, yj = np.roll(xi, 1), np.roll(yi, 1)
    straddle = (yi > y) != (yj > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = xi + (y - yi) / (yj - yi) * (xj - xi)
    return (straddle & (x < x_cross)).sum(axis=-1) % 2 == 1


def slerp_unit(u, v, t: float) -> Tuple[float, float]:
    """Spherical (constant-angular-rate) interpolation of unit vectors.

    Rotates ``u`` by ``t`` times the signed angle from ``u`` to ``v``, so a
    fan built with uniform ``t`` steps has uniform angular spacing even
    across a near-reversal cusp (where chord interpolation degenerates).
    For exactly opposite vectors the rotation sweeps counter-clockwise.
    """
    theta = signed_turn_angle(u, v)
    if exact_eq(theta, 0.0) and (u[0] * v[0] + u[1] * v[1]) < 0:
        theta = math.pi  # antipodal: atan2 gives +pi already, guard -0.0
    return rotate(u, t * theta)
