"""Ray intersection resolution: self- and multi-element (Section II.B).

After ray refinement, extrusion rays may cross — inside a concave cove
(self-intersection, Fig. 13b-c) or against a neighbouring element's
boundary layer (multi-element intersection, Fig. 13d).  An intersecting
pair would produce tangled, inverted boundary-layer elements, so each
offending ray is *truncated*: "the ray will only have points inserted up
to the intersection point."

Every crossing search is one bulk pass over arrays — the rays are
gathered once (origin, direction, allowed height), and the paper's
pruning hierarchy runs on all of them at a time:

1. **AABB stage** — for multi-element checks, rays are kept only if their
   extent box meets the axis-aligned bounding box of the other element's
   boundary layer (one array comparison);
2. **extent-box stage** — candidate pairs are the segment extent boxes
   with closed overlap, found by the sort-and-sweep of
   :func:`repro.geometry.aabb.overlapping_pairs` in O(n log n + pairs)
   time (the role the paper gives its alternating digital tree, which
   lives on as the test oracle of this module);
3. **exact stage** — :func:`crossing_pairs` decides all candidates at
   once with exact orientation signs, and each pass truncates every ray
   at its nearest crossing with one ``np.minimum.at``.

What is sequential stays sequential: the halving passes of the self
stage, and the loop over obstacle elements of the multi stage (an
element's border is built from heights the previous obstacles already
truncated).

The truncation keeps ``truncation_factor`` of the distance to the crossing
(default 0.5: each of two mutually crossing rays stops halfway, which
leaves room for the well-shaped transition triangles in Figs. 13b-e; the
paper truncates *at* the intersection point, but with both rays retained a
shared stop point would produce coincident vertices).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..geometry.aabb import boxes_from_segments, overlapping_pairs
from ..geometry.predicates import exact_eq
from ..geometry.primitives import (
    segment_intersection_point,
    segments_intersect_batch,
)
from ..runtime import counters
from .rays import Ray, dedupe_ring

__all__ = [
    "ray_segment",
    "crossing_pairs",
    "resolve_self_intersections",
    "resolve_multi_element_intersections",
]


def ray_segment(ray: Ray, default_height: float) -> Tuple[tuple, tuple]:
    """The ray as a segment from its origin to its current allowed tip."""
    h = min(ray.max_height, default_height)
    return ray.origin, ray.point_at(h)


def _gather(rays: Sequence[Ray]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Origins ``(n, 2)``, directions ``(n, 2)``, allowed heights ``(n,)``."""
    return (np.array([r.origin for r in rays], dtype=np.float64),
            np.array([r.direction for r in rays], dtype=np.float64),
            np.array([r.max_height for r in rays], dtype=np.float64))


def _segments(origins: np.ndarray, directions: np.ndarray,
              heights: np.ndarray, default_height: float) -> np.ndarray:
    """Every ray's :func:`ray_segment` as one ``(n, 2, 2)`` array."""
    h = np.minimum(heights, default_height)
    return np.stack([origins, origins + h[:, None] * directions], axis=1)


def _ring_segments(points: np.ndarray) -> np.ndarray:
    """Consecutive pairs of a closed ring as ``(n, 2, 2)`` segments."""
    return np.stack([points, np.roll(points, -1, axis=0)], axis=1)


def crossing_pairs(
    segs: np.ndarray,
    others: Optional[np.ndarray] = None,
    *,
    proper_only: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs of ``(n, 2, 2)`` segments that intersect, found in bulk.

    With ``others`` omitted the pairs are ``(i, j)``, ``i < j``, within
    ``segs``; otherwise ``i`` indexes ``segs`` and ``j`` indexes
    ``others``.  Candidates come from the extent-box broad phase and are
    decided together by :func:`segments_intersect_batch`, so the result
    equals calling ``segments_intersect`` on all pairs.  Under
    ``proper_only`` a pair sharing an endpoint (fan rays at one origin,
    neighbours on a ring) can never cross properly and skips the exact
    test.
    """
    against = segs if others is None else others
    i, j = overlapping_pairs(
        boxes_from_segments(segs),
        None if others is None else boxes_from_segments(others))
    n_candidates = len(i)
    if proper_only:
        a, b = segs[i], against[j]
        apart = np.ones(n_candidates, dtype=bool)
        for u in (0, 1):
            for v in (0, 1):
                apart &= (a[:, u] != b[:, v]).any(axis=1)
        i, j = i[apart], j[apart]
    hit = segments_intersect_batch(segs[i, 0], segs[i, 1],
                                   against[j, 0], against[j, 1],
                                   proper_only=proper_only)
    sink = counters.current()
    if sink is not None:
        sink.incr("bl.candidate_pairs", n_candidates)
        sink.incr("bl.exact_tests", len(i))
        sink.incr("bl.crossings", int(hit.sum()))
    return i[hit], j[hit]


def _crossing_points(p1: np.ndarray, p2: np.ndarray, q1: np.ndarray,
                     q2: np.ndarray) -> np.ndarray:
    """:func:`segment_intersection_point` of pairs known to intersect.

    Same float expressions as the scalar function, so the points are
    bit-identical; rows it answers ``None`` for come back as NaN.  A zero
    denominator (collinear overlap, or a crossing too flat for the
    floats) takes the scalar function's own endpoint search.
    """
    r, s = p2 - p1, q2 - q1
    denom = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((q1[:, 0] - p1[:, 0]) * s[:, 1]
             - (q1[:, 1] - p1[:, 1]) * s[:, 0]) / denom
    points = p1 + t[:, None] * r
    for k in np.flatnonzero(exact_eq(denom, 0.0)):
        p = segment_intersection_point(p1[k].tolist(), p2[k].tolist(),
                                       q1[k].tolist(), q2[k].tolist())
        points[k] = np.nan if p is None else p
    return points


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise :func:`repro.geometry.primitives.distance`."""
    d = b - a
    return np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])


def resolve_self_intersections(
    rays: Sequence[Ray],
    default_height: float,
    *,
    truncation_factor: float = 0.5,
) -> int:
    """Clip mutually crossing rays of ONE element; returns #truncations.

    Rays sharing an origin (fan members) cannot "properly" cross and are
    skipped by using proper-crossing tests only.  Each pass finds every
    crossing of the segments as they stand at its start and cuts each ray
    to ``truncation_factor`` of the distance to its nearest one; since
    segments only shrink, one pass suffices for correctness and the extra
    passes just converge the pairwise halving, so we iterate until
    stable, at most 8 passes.  A truncation is one (ray, pass) whose
    allowed height decreased (by more than a 1e-15 slack against its
    height at the start of the pass) — a count that does not depend on
    the order crossings are visited in.
    """
    if not rays:
        return 0
    if not 0 < truncation_factor <= 1.0:
        raise ValueError("truncation_factor must be in (0, 1]")
    origins, directions, heights = _gather(rays)
    total = 0
    for _ in range(8):
        segs = _segments(origins, directions, heights, default_height)
        i, j = crossing_pairs(segs, proper_only=True)
        points = _crossing_points(segs[i, 0], segs[i, 1],
                                  segs[j, 0], segs[j, 1])
        found = ~np.isnan(points[:, 0])
        ends = np.concatenate([i[found], j[found]])
        lowest = np.full(len(rays), np.inf)
        np.minimum.at(lowest, ends, truncation_factor * _distances(
            origins[ends], np.tile(points[found], (2, 1))))
        shrunk = lowest < np.minimum(heights, default_height) - 1e-15
        if not shrunk.any():
            break
        heights[shrunk] = lowest[shrunk]
        total += int(shrunk.sum())
    for ray, h in zip(rays, heights.tolist()):
        ray.max_height = h
    return total


def resolve_multi_element_intersections(
    element_rays: Sequence[Sequence[Ray]],
    default_height: float,
    *,
    truncation_factor: float = 0.5,
) -> int:
    """Clip rays of each element against every OTHER element's BL border.

    Per obstacle element, in bulk: its outer border and its surface (so
    rays cannot pierce the body) are the obstacle segments; the rays of
    all other elements are pruned against their bounding box, paired with
    them by extent-box overlap and tested exactly.  Improper (endpoint)
    touches count here: a ray grazing the other element's border corner
    must still stop.  Returns the number of rays truncated, summed over
    obstacle elements.
    """
    if not 0 < truncation_factor <= 1.0:
        raise ValueError("truncation_factor must be in (0, 1]")
    flat = [r for rays in element_rays for r in rays]
    if not flat:
        return 0
    origins, directions, heights = _gather(flat)
    element = np.repeat(np.arange(len(element_rays)),
                        [len(rays) for rays in element_rays])
    total = 0
    for other, others in enumerate(element_rays):
        if not others:
            continue
        segs = _segments(origins, directions, heights, default_height)
        own = element == other
        surface = np.array(dedupe_ring([r.origin for r in others]))
        obstacles = np.concatenate([_ring_segments(segs[own, 1]),
                                    _ring_segments(surface)])
        # Stage 1: keep the rays whose extent box meets the element's AABB.
        lo = obstacles.min(axis=(0, 1))
        hi = obstacles.max(axis=(0, 1))
        boxes = boxes_from_segments(segs)
        near = np.flatnonzero(~own
                              & np.all(boxes[:, :2] <= hi, axis=1)
                              & np.all(boxes[:, 2:] >= lo, axis=1))
        # Stages 2-3: extent-box candidates, exact tests, nearest hit.
        i, j = crossing_pairs(segs[near], obstacles)
        i = near[i]
        points = _crossing_points(segs[i, 0], segs[i, 1],
                                  obstacles[j, 0], obstacles[j, 1])
        # A hit at the ray's own origin stops nothing (NaN: no point at all).
        real = (points != origins[i]).any(axis=1) & ~np.isnan(points[:, 0])
        nearest = np.full(len(flat), np.inf)
        np.minimum.at(nearest, i[real],
                      _distances(origins[i[real]], points[real]))
        cut = np.minimum(heights, truncation_factor * nearest)
        total += int((cut < heights).sum())
        heights = cut
    for ray, h in zip(flat, heights.tolist()):
        ray.max_height = h
    return total
