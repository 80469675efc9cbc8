"""Scalar reference for ray intersection resolution (Section II.B).

This is the one-ray-at-a-time resolution ``repro.core.intersections``
shipped before the bulk stage replaced it, kept as the oracle the bulk
stage is compared against: Python Cohen–Sutherland reject against the
element AABB -> per-ray :class:`ADT` query -> scalar exact tests ->
running-minimum truncation in tree order.  ``tests/core/test_intersections``
requires every ray's ``max_height`` after the bulk stage to be
bit-identical to what these functions leave behind.

Two things differ from the bulk stage on purpose and are *not* compared:
the truncation counts these return depend on the tree's visit order (the
bulk stage counts (ray, pass) pairs), and the multi-element surface ring
here still contains the zero-length segments of fan origins.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.intersections import ray_segment
from repro.core.rays import Ray
from repro.geometry.aabb import AABB
from repro.geometry.primitives import (
    segment_intersection_point,
    segments_intersect,
)
from tests.delaunay.oracle_refine import distance
from tests.spatial.adt import ADT, enclosing, segment_extent_box

INSIDE = 0b0000
LEFT = 0b0001
RIGHT = 0b0010
BOTTOM = 0b0100
TOP = 0b1000


def outcode(p, box: AABB) -> int:
    """Cohen–Sutherland 4-bit region code of point ``p`` w.r.t. ``box``."""
    code = INSIDE
    if p[0] < box.xmin:
        code |= LEFT
    elif p[0] > box.xmax:
        code |= RIGHT
    if p[1] < box.ymin:
        code |= BOTTOM
    elif p[1] > box.ymax:
        code |= TOP
    return code


def segment_intersects_box(a, b, box: AABB) -> bool:
    """True if segment ``ab`` has any point inside (or on) ``box``.

    The iterative Cohen–Sutherland accept/reject loop: trivial accept when
    either endpoint is inside, trivial reject when both share an outside
    half-plane, otherwise clip against one box edge at a time.
    """
    x0, y0 = float(a[0]), float(a[1])
    x1, y1 = float(b[0]), float(b[1])
    code0 = outcode((x0, y0), box)
    code1 = outcode((x1, y1), box)

    while True:
        if code0 == INSIDE or code1 == INSIDE:
            return True
        if code0 & code1:
            return False
        code_out = max(code0, code1)
        # Divide before multiplying: well-scaled even for subnormal
        # coordinates, where the product-first form underflows.
        if code_out & TOP:
            x = x0 + (x1 - x0) * ((box.ymax - y0) / (y1 - y0))
            y = box.ymax
        elif code_out & BOTTOM:
            x = x0 + (x1 - x0) * ((box.ymin - y0) / (y1 - y0))
            y = box.ymin
        elif code_out & RIGHT:
            y = y0 + (y1 - y0) * ((box.xmax - x0) / (x1 - x0))
            x = box.xmax
        else:  # LEFT
            y = y0 + (y1 - y0) * ((box.xmin - x0) / (x1 - x0))
            x = box.xmin

        if code_out == code0:
            x0, y0 = x, y
            code0 = outcode((x0, y0), box)
        else:
            x1, y1 = x, y
            code1 = outcode((x1, y1), box)


def _tree(boxes: Sequence[AABB], margin: float = 0.0):
    bounds = enclosing(boxes)
    if margin:
        bounds = bounds.expanded(margin)
    tree = ADT(bounds.expanded(1e-12 + 1e-9 * max(bounds.width,
                                                  bounds.height)))
    tree.build(boxes)
    return tree, bounds


def outer_border_segments(
    rays: Sequence[Ray], default_height: float
) -> List[Tuple[tuple, tuple]]:
    """The boundary layer's enclosing outer border: tip-to-tip polyline.

    The rays are in surface order around a closed loop, so consecutive
    tips bound the outermost layer; the returned closed polyline is the
    "enclosing border segments of the airfoil component's boundary layer"
    used for multi-element checks.
    """
    tips = [r.point_at(min(r.max_height, default_height)) for r in rays]
    n = len(tips)
    return [(tips[i], tips[(i + 1) % n]) for i in range(n)]


def _truncate(ray: Ray, hit_distance: float, factor: float) -> None:
    ray.max_height = min(ray.max_height, factor * hit_distance)


def resolve_self_intersections(
    rays: Sequence[Ray],
    default_height: float,
    *,
    truncation_factor: float = 0.5,
    max_passes: int = 8,
) -> int:
    """Clip mutually crossing rays of ONE element, one pair at a time."""
    if not rays:
        return 0
    total = 0
    for _ in range(max_passes):
        segs = [ray_segment(r, default_height) for r in rays]
        boxes = [segment_extent_box(a, b) for a, b in segs]
        tree, _ = _tree(boxes)
        changed = 0
        for i, (a1, b1) in enumerate(segs):
            for j in tree.query(boxes[i]):
                if j <= i:
                    continue
                a2, b2 = segs[j]
                if rays[i].origin == rays[j].origin:
                    continue  # same fan origin
                if not segments_intersect(a1, b1, a2, b2, proper_only=True):
                    continue
                p = segment_intersection_point(a1, b1, a2, b2)
                if p is None:
                    continue
                di = distance(rays[i].origin, p)
                dj = distance(rays[j].origin, p)
                new_i = truncation_factor * di
                new_j = truncation_factor * dj
                if new_i < min(rays[i].max_height, default_height) - 1e-15:
                    _truncate(rays[i], di, truncation_factor)
                    changed += 1
                if new_j < min(rays[j].max_height, default_height) - 1e-15:
                    _truncate(rays[j], dj, truncation_factor)
                    changed += 1
        total += changed
        if changed == 0:
            break
    return total


def resolve_multi_element_intersections(
    element_rays: Sequence[Sequence[Ray]],
    default_height: float,
    *,
    truncation_factor: float = 0.5,
    margin: float = 0.0,
) -> int:
    """Clip rays of each element against every OTHER element's BL border."""
    total = 0
    n_el = len(element_rays)
    for other in range(n_el):
        others = element_rays[other]
        if not others:
            continue
        border = outer_border_segments(others, default_height)
        # Include the surface itself so rays cannot pierce the body.
        surface = [(others[i].origin, others[(i + 1) % len(others)].origin)
                   for i in range(len(others))]
        all_segs = border + surface
        boxes = [segment_extent_box(a, b) for a, b in all_segs]
        tree, el_box = _tree(boxes, margin)

        for mine in range(n_el):
            if mine == other:
                continue
            for ray in element_rays[mine]:
                a, b = ray_segment(ray, default_height)
                # Stage 1: Cohen–Sutherland against the element AABB.
                if not segment_intersects_box(a, b, el_box):
                    continue
                # Stage 2: ADT candidate segments.
                hits = tree.query(segment_extent_box(a, b))
                # Stage 3: exact intersection; truncate at nearest.
                nearest: Optional[float] = None
                for h in hits:
                    s0, s1 = all_segs[h]
                    # Improper (endpoint) touches count here: a ray grazing
                    # the other element's border corner must still stop.
                    if not segments_intersect(a, b, s0, s1):
                        continue
                    p = segment_intersection_point(a, b, s0, s1)
                    if p is None or p == (a[0], a[1]):
                        continue
                    d = distance(ray.origin, p)
                    if nearest is None or d < nearest:
                        nearest = d
                if nearest is not None:
                    before = ray.max_height
                    _truncate(ray, nearest, truncation_factor)
                    if ray.max_height < before:
                        total += 1
    return total
