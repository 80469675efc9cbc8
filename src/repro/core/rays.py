"""Extrusion rays: creation, large-angle refinement, cusp and blunt-TE fans.

Section II.A-II.B: each surface vertex is the origin of a ray along its
normal.  Where the angle between *neighbouring* rays is too large the
spacing between corresponding layer points would grow too fast, causing
interpolation error in the PDE solve; the fix is

* **between two vertices** (large angle between their normals): insert new
  uniformly spaced surface points on the connecting edge, with normals
  linearly interpolated between the two original normals;
* **at a cusp** (trailing edge, blunt-base corner): emit a *fan* of rays
  that all share the cusp vertex as origin, directions linearly
  interpolated — "the fan of rays will curve inward towards the cusp
  point" (Fig. 4): interpolating (rather than bisecting) makes consecutive
  fan rays bend progressively toward the wake direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

from ..geometry.primitives import slerp_unit
from .normals import SurfaceVertex, VertexKind

__all__ = ["Ray", "refine_rays", "dedupe_ring"]


@dataclass
class Ray:
    """One extrusion ray.

    ``max_height`` is the allowed extrusion distance (``inf`` until
    intersection resolution clips it).  ``origin_kind`` records why the
    ray exists (plain vertex, interpolated large-angle ray, fan member).
    """

    origin: tuple
    direction: tuple
    element: int = 0
    surface_index: int = -1           # PSLG vertex index (-1 for inserted)
    origin_kind: str = "vertex"       # vertex | interpolated | fan
    max_height: float = math.inf
    surface_spacing: float = 0.0      # local tangential spacing (isotropy)
    heights: List[float] = field(default_factory=list)  # filled by insertion

    def point_at(self, h: float) -> tuple:
        return (
            self.origin[0] + h * self.direction[0],
            self.origin[1] + h * self.direction[1],
        )

    def tip(self) -> tuple:
        """Endpoint of the ray at its last inserted height (or origin)."""
        return self.point_at(self.heights[-1]) if self.heights else self.origin


def dedupe_ring(points: List[tuple]) -> List[tuple]:
    """Drop consecutive duplicates (including the wrap-around pair).

    The rays of one element are in surface order, so their origins (or
    tips) form a closed ring in which fan members repeat a point; the
    deduped ring's consecutive pairs are its non-degenerate segments.
    """
    out: List[tuple] = []
    for p in points:
        if not out or p != out[-1]:
            out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def refine_rays(
    vertices: Sequence[SurfaceVertex],
    element: int = 0,
    *,
    max_ray_angle: float = math.radians(20.0),
) -> List[Ray]:
    """Build the refined ray set for one closed surface loop.

    For every pair of consecutive vertices whose normals differ by more
    than ``max_ray_angle``, new interpolated rays are added: at a cusp or
    blunt corner the fan shares the corner vertex as origin; otherwise new
    origins are spaced uniformly along the surface edge between the two
    vertices (linear interpolation of both position and normal, Section
    II.B).  Concave vertices get no extra rays — their treatment is the
    intersection clipping of :mod:`repro.core.intersections`.
    """
    if not 0 < max_ray_angle < math.pi:
        raise ValueError("max_ray_angle must be in (0, pi)")
    n = len(vertices)
    if n < 3:
        raise ValueError("need at least 3 surface vertices")
    rays: List[Ray] = []
    for i, v in enumerate(vertices):
        # 1. The vertex's own ray — for cusps this is the central fan ray.
        base = Ray(
            origin=v.position,
            direction=v.normal,
            element=element,
            surface_index=v.index,
            origin_kind="vertex",
            surface_spacing=0.5 * (v.edge_length_before + v.edge_length_after),
        )
        # 2. Fan around a cusp/large-angle vertex: rays at the SAME origin
        # interpolating from the incoming edge normal to the vertex normal
        # and on to the outgoing edge normal.  We realise this by fanning
        # between the previous vertex's normal direction and this one (and
        # symmetric on the far side) — equivalently, handle each
        # consecutive PAIR below and fan at the shared origin when the
        # vertex is a cusp.
        rays.append(base)

        w = vertices[(i + 1) % n]
        ang = _angle(v.normal, w.normal)
        if ang <= max_ray_angle:
            continue
        n_extra = int(math.ceil(ang / max_ray_angle)) - 1
        fan_at_v = v.kind in (VertexKind.CUSP, VertexKind.LARGE_ANGLE)
        fan_at_w = w.kind in (VertexKind.CUSP, VertexKind.LARGE_ANGLE)
        for j in range(1, n_extra + 1):
            t = j / (n_extra + 1)
            # Constant-angular-rate interpolation: uniform fan spacing
            # even across a near-reversal trailing-edge cusp.
            direction = slerp_unit(v.normal, w.normal, t)
            if fan_at_v and not fan_at_w:
                origin, kind, sidx = v.position, "fan", v.index
            elif fan_at_w and not fan_at_v:
                origin, kind, sidx = w.position, "fan", w.index
            elif fan_at_v and fan_at_w:
                # Split the fan between the two corners (blunt TE base).
                if t < 0.5:
                    origin, kind, sidx = v.position, "fan", v.index
                else:
                    origin, kind, sidx = w.position, "fan", w.index
            else:
                # Smooth-but-curved region (leading edge): interpolate new
                # surface origins along the edge v -> w.
                origin = (
                    v.position[0] + t * (w.position[0] - v.position[0]),
                    v.position[1] + t * (w.position[1] - v.position[1]),
                )
                kind, sidx = "interpolated", -1
            rays.append(
                Ray(
                    origin=origin,
                    direction=direction,
                    element=element,
                    surface_index=sidx,
                    origin_kind=kind,
                    surface_spacing=(
                        v.edge_length_after / (n_extra + 1)
                        if kind == "interpolated"
                        else min(v.edge_length_after, v.edge_length_before)
                    ),
                )
            )
    return rays


def _angle(u, v) -> float:
    from ..geometry.primitives import angle_between

    return angle_between(u, v)
