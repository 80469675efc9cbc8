"""Boundary-layer point insertion along rays (Section II.C).

With intersections resolved, each ray receives points at the heights of
its growth function, stopping at the first of:

* the ray's ``max_height`` (set by intersection truncation),
* the **isotropy condition** — when the layer thickness reaches the local
  tangential spacing, further anisotropic layers would be thicker than
  wide; stopping there makes the outermost BL triangles isotropic and
  hands off smoothly to the graded inviscid region (Fig. 5),
* the configured number of layers / total height cap.

The points are stored per ray as heights (the coordinates are implied by
origin + h * direction) — this is what makes the paper's communication
trick possible: "only the coordinates need to be communicated to the
root", and in our runtime the gather sends plain float arrays.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..sizing.functions import SizingFunction
from ..sizing.growth import GeometricGrowth
from .rays import Ray

__all__ = ["insert_points"]


def insert_points(
    rays: Sequence[Ray],
    growth: GeometricGrowth,
    *,
    sizing: Optional[SizingFunction] = None,
    isotropy_factor: float = 1.0,
    max_layers: int = 200,
    max_height: float = math.inf,
) -> int:
    """Fill ``ray.heights`` for every ray; returns total points inserted.

    ``sizing`` supplies the local isotropic edge length target: the
    stopping rule is ``spacing(k) >= isotropy_factor * h_iso`` where
    ``h_iso = sqrt(4 * area / sqrt(3))`` (edge of the equilateral triangle
    with the sizing function's area).  Without a sizing function the
    tangential ray spacing (``ray.surface_spacing``) is the target: stop
    when the layers become as thick as the surface elements are wide.
    """
    if isotropy_factor <= 0:
        raise ValueError("isotropy_factor must be positive")
    if max_layers < 1:
        raise ValueError("need at least one layer")
    total = 0
    for ray in rays:
        ray.heights = []
        for k in range(1, max_layers + 1):
            h = growth.height(k)
            if h > ray.max_height or h > max_height:
                break
            x, y = ray.point_at(h)
            if sizing is not None:
                area = sizing.area_at(x, y)
                h_iso = math.sqrt(4.0 * area / math.sqrt(3.0))
            else:
                h_iso = ray.surface_spacing if ray.surface_spacing > 0 else math.inf
            spacing = growth.spacing(k)
            if spacing >= isotropy_factor * h_iso and k > 1:
                break
            ray.heights.append(h)
        total += len(ray.heights)
    return total
