"""Anisotropic boundary-layer generation pipeline (Sections II.A-II.D).

Per body loop: surface normals -> refined rays (fans at cusps) ->
intersection resolution (self, then multi-element) -> growth-function
point insertion with isotropy termination -> tip-border simplification ->
constrained Delaunay triangulation of the boundary-layer annulus.

The stage has two halves.  :func:`prepare_boundary_layer` runs everything
up to the assembled PSLG of the annuli and already yields what sizing, the
near-body ring, decoupling and every refinement item read: the outer
borders (the inviscid region's inner boundaries) and the per-element ray
sets (the parallel decomposition partitions their points).
:func:`triangulate_boundary_layer` is the constrained Delaunay
triangulation of that PSLG: plain arrays in, the BL mesh out, first read
by the final merge — so :func:`repro.core.pipeline.generate_mesh` runs it
as a work item beside refinement.  :func:`generate_boundary_layer` is
their composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..delaunay.constrained import constrained_delaunay
from ..delaunay.mesh import TriMesh
from ..geometry.pslg import PSLG
from ..runtime.counters import phase
from ..sizing.growth import GeometricGrowth
from .insertion import insert_points
from .intersections import (
    crossing_pairs,
    resolve_multi_element_intersections,
    resolve_self_intersections,
)
from .normals import loop_surface_vertices
from .rays import Ray, dedupe_ring, refine_rays

__all__ = ["BoundaryLayerConfig", "BoundaryLayerResult",
           "prepare_boundary_layer", "triangulate_boundary_layer",
           "generate_boundary_layer", "interior_seed"]


@dataclass
class BoundaryLayerConfig:
    """User-facing boundary-layer parameters (the push-button inputs)."""

    first_spacing: float = 1e-3
    growth_ratio: float = 1.3
    max_layers: int = 60
    max_height: float = math.inf
    large_angle_deg: float = 40.0
    cusp_angle_deg: float = 100.0
    max_ray_angle_deg: float = 20.0
    isotropy_factor: float = 1.0
    truncation_factor: float = 0.5

    def growth_function(self) -> GeometricGrowth:
        return GeometricGrowth(self.first_spacing, self.growth_ratio)


@dataclass
class BoundaryLayerResult:
    element_rays: List[List[Ray]]
    points: np.ndarray
    #: ``None`` between the two halves of the stage: prepared, the
    #: Delaunay triangulation of the cloud still pending.
    mesh: Optional[TriMesh]
    outer_borders: List[np.ndarray]          # per element, closed (m, 2)
    surface_loops: List[np.ndarray]          # per element, closed (m, 2)
    #: the annuli's PSLG over ``points``: constrained edges (k, 2) int64
    #: and one seed (x, y) inside each body, the triangulation's input.
    segments: np.ndarray
    holes: np.ndarray
    stats: Dict[str, float] = field(default_factory=dict)

    def attach_mesh(self, mesh: TriMesh) -> None:
        """Complete a prepared result with its triangulation."""
        self.mesh = mesh
        self.stats["n_triangles"] = float(mesh.n_triangles)


def interior_seed(loop_pts: np.ndarray) -> Tuple[float, float]:
    """A point strictly inside a simple CCW polygon.

    Probes inward offsets of edge midpoints, verified by ray-casting
    point-in-polygon; robust for concave (cove) outlines where the
    centroid may fall outside.
    """
    n = len(loop_pts)
    per = np.linalg.norm(np.diff(np.vstack([loop_pts, loop_pts[:1]]),
                                 axis=0), axis=1)
    for i in range(n):
        a = loop_pts[i]
        b = loop_pts[(i + 1) % n]
        ex, ey = b[0] - a[0], b[1] - a[1]
        elen = math.hypot(ex, ey)
        if elen == 0:
            continue
        # Inward normal of a CCW loop is the LEFT perpendicular.
        nx, ny = -ey / elen, ex / elen
        mx, my = 0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1])
        for scale in (0.3, 0.1, 0.03, 0.01):
            px, py = mx + nx * scale * elen, my + ny * scale * elen
            if _point_in_polygon(px, py, loop_pts):
                return (px, py)
    raise ValueError("could not find an interior seed (degenerate loop?)")


def _point_in_polygon(x, y, poly: np.ndarray):
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


def _border_rings(element_rays: Sequence[Sequence[Ray]]
                  ) -> List[List[Tuple[tuple, int]]]:
    """Per element: deduped ring of (tip point, ray index)."""
    rings = []
    for rays in element_rays:
        ring: List[Tuple[tuple, int]] = []
        for idx, r in enumerate(rays):
            tip = r.tip()
            if not ring or tip != ring[-1][0]:
                ring.append((tip, idx))
        if len(ring) > 1 and ring[0][0] == ring[-1][0]:
            ring.pop()
        rings.append(ring)
    return rings


def _crossing_border_rays(element_rays: Sequence[Sequence[Ray]]
                          ) -> List[Tuple[int, int]]:
    """(element, ray index) of every ray bounding a crossing border segment.

    The outer-border segments of all elements are tested against each
    other and against the surfaces — immovable obstacles: a border must
    not cross any element's body either — in one bulk pass; only proper
    crossings count.  Sorted, so the shrink order is deterministic.
    """
    segs: List[Tuple[tuple, tuple]] = []
    owners: List[Tuple[int, int, int]] = []  # (element, ray_i, ray_j)
    for el, ring in enumerate(_border_rings(element_rays)):
        m = len(ring)
        if m < 2:
            continue
        for i in range(m):
            (p0, r0), (p1, r1) = ring[i], ring[(i + 1) % m]
            segs.append((p0, p1))
            owners.append((el, r0, r1))
    n_border = len(segs)
    for rays in element_rays:
        ring_pts = dedupe_ring([r.origin for r in rays])
        m = len(ring_pts)
        segs.extend((ring_pts[i], ring_pts[(i + 1) % m]) for i in range(m))
    if not segs:
        return []
    i, j = crossing_pairs(np.asarray(segs, dtype=np.float64),
                          proper_only=True)
    guilty = np.union1d(i, j)
    return sorted({(owners[g][0], r) for g in guilty[guilty < n_border]
                   for r in owners[g][1:]})


def _simplify_borders(element_rays: Sequence[List[Ray]]) -> int:
    """Shrink rays until no two outer-border segments properly cross.

    Truncation can leave tip borders that still cross (their own element's
    or another's).  Each pass pops the last layer point of every ray
    bounding a crossing segment.  Returns the number of layer points
    removed; raises if crossings remain after 40 passes or
    when no guilty ray has a layer left to give.
    """
    removed = 0
    for _ in range(40):
        guilty = _crossing_border_rays(element_rays)
        if not guilty:
            return removed
        progress = False
        for el, ridx in guilty:
            ray = element_rays[el][ridx]
            if ray.heights:
                ray.heights.pop()
                ray.max_height = (ray.heights[-1] if ray.heights else 0.0)
                removed += 1
                progress = True
        if not progress:
            break
    else:
        guilty = _crossing_border_rays(element_rays)
        if not guilty:
            return removed
    raise RuntimeError(
        "could not untangle boundary-layer borders after shrinking; "
        f"crossing border rays (element, ray index): {guilty}"
    )


def prepare_boundary_layer(
    pslg: PSLG,
    config: Optional[BoundaryLayerConfig] = None,
) -> BoundaryLayerResult:
    """The boundary-layer stage up to the assembled PSLG of the annuli.

    Rays, intersection resolution, layer points and border untangling.
    The result's ``mesh`` is ``None`` and ``points`` / ``segments`` /
    ``holes`` are the input of :func:`triangulate_boundary_layer`;
    everything else, the outer borders above all, is final.
    """
    config = config or BoundaryLayerConfig()
    growth = config.growth_function()
    default_height = min(growth.height(config.max_layers), config.max_height)

    # Sub-phases feed --profile and the simulator's serial-setup
    # breakdown (the BL stage is the paper's dominant sequential cost).
    element_rays: List[List[Ray]] = []
    with phase("bl.rays"):
        for el, loop in enumerate(pslg.body_loops):
            sv = loop_surface_vertices(
                pslg, loop,
                large_angle=math.radians(config.large_angle_deg),
                cusp_angle=math.radians(config.cusp_angle_deg),
            )
            rays = refine_rays(
                sv, element=el,
                max_ray_angle=math.radians(config.max_ray_angle_deg),
            )
            element_rays.append(rays)

    with phase("bl.intersections"):
        n_self = 0
        for rays in element_rays:
            n_self += resolve_self_intersections(
                rays, default_height,
                truncation_factor=config.truncation_factor,
            )
        n_multi = 0
        if len(element_rays) > 1:
            n_multi = resolve_multi_element_intersections(
                element_rays, default_height,
                truncation_factor=config.truncation_factor,
            )

    with phase("bl.insert_points"):
        n_points = 0
        for rays in element_rays:
            n_points += insert_points(
                rays, growth,
                isotropy_factor=config.isotropy_factor,
                max_layers=config.max_layers,
                max_height=config.max_height,
            )
        n_shrunk = _simplify_borders(element_rays)

    # ------------------------------------------------------------------
    # Assemble the PSLG of the boundary-layer annuli.
    # ------------------------------------------------------------------
    coord_id: Dict[tuple, int] = {}
    pts: List[tuple] = []

    def vid(p: tuple) -> int:
        i = coord_id.get(p)
        if i is None:
            i = len(pts)
            coord_id[p] = i
            pts.append(p)
        return i

    segments: List[Tuple[int, int]] = []
    surface_loops: List[np.ndarray] = []
    outer_borders: List[np.ndarray] = []
    holes: List[Tuple[float, float]] = []

    for el, rays in enumerate(element_rays):
        surf_ring = dedupe_ring([r.origin for r in rays])
        outer_ring = dedupe_ring([r.tip() for r in rays])
        surface_loops.append(np.asarray(surf_ring, dtype=np.float64))
        outer_borders.append(np.asarray(outer_ring, dtype=np.float64))
        for ring in (surf_ring, outer_ring):
            ids = [vid(p) for p in ring]
            m = len(ids)
            for i in range(m):
                u, v = ids[i], ids[(i + 1) % m]
                if u != v:
                    segments.append((u, v))
        holes.append(interior_seed(np.asarray(surf_ring)))
        # Interior layer points.
        for r in rays:
            for h in r.heights:
                vid(r.point_at(h))

    return BoundaryLayerResult(
        element_rays=element_rays,
        points=np.asarray(pts, dtype=np.float64),
        mesh=None,
        outer_borders=outer_borders,
        surface_loops=surface_loops,
        segments=np.asarray(segments, dtype=np.int64).reshape(-1, 2),
        holes=np.asarray(holes, dtype=np.float64).reshape(-1, 2),
        stats={
            "n_rays": float(sum(len(r) for r in element_rays)),
            "n_points": float(len(pts)),
            "n_self_truncations": float(n_self),
            "n_multi_truncations": float(n_multi),
            "n_border_shrinks": float(n_shrunk),
        },
    )


def triangulate_boundary_layer(points: np.ndarray, segments: np.ndarray,
                               holes: np.ndarray, *,
                               insert_strategy: Optional[str] = None
                               ) -> TriMesh:
    """Constrained Delaunay triangulation of the boundary-layer annuli.

    The three arrays are the ones :func:`prepare_boundary_layer` left on
    its result; ``insert_strategy`` names the cavity-engine insertion
    strategy (``None``: ``scalar``).  A function of its arguments only,
    so it runs wherever they are shipped.
    """
    with phase("bl.triangulate"):
        return constrained_delaunay(points, segments, holes,
                                    strategy=insert_strategy)


def generate_boundary_layer(
    pslg: PSLG,
    config: Optional[BoundaryLayerConfig] = None,
) -> BoundaryLayerResult:
    """Run the full anisotropic boundary-layer stage on all body loops:
    :func:`prepare_boundary_layer`, then
    :func:`triangulate_boundary_layer` on what it assembled.
    """
    bl = prepare_boundary_layer(pslg, config)
    bl.attach_mesh(triangulate_boundary_layer(bl.points, bl.segments,
                                              bl.holes))
    return bl
