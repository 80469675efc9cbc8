"""Graded Delaunay decoupling of the inviscid region (Section II.E).

The far field (30-50 chord lengths of exponentially growing element area)
is split into subdomains whose *shared borders are pre-discretised* so
finely that independent Ruppert refinement of each subdomain never needs
to touch them — the Linardakis–Chrisochoides decoupling contract.  Border
vertex spacing follows the paper's Eq. (1): at a vertex with target
element area ``A``, the decoupling edge length is ``k = 1/2 sqrt(A/sqrt 2)``
and the next vertex is placed ``D in [2k/sqrt(3), 2k)`` away, moved closer
if ``D >= 2 k_next``.

Structure:

* :func:`march_path` — the graded vertex-insertion march along a segment;
* :func:`initial_quadrants` — the four quadrants around the near-body box
  (paper Fig. 9), all borders discretised once and *shared by reference*;
* :func:`decouple` — recursive '+'-shaped splitting, largest estimated
  triangle count first, never adding points to a subdomain's outer border
  (so no communication between owners would be needed);
* :func:`refine_subdomain` — independent Ruppert refinement with locked
  borders;
* :class:`DecoupledSubdomain` — a CCW ring of border vertices ("the
  vertices are stored in counter-clockwise order, so constructing the
  border is done by iterating over the vertices in order").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..delaunay.mesh import TriMesh
from ..delaunay.refine import (MAX_STEINER, RUPPERT_BOUND, AreaCriterion,
                               Refiner)
from ..delaunay.constrained import checked_rings, triangulate_polygon
from ..geometry.aabb import AABB
from ..geometry.predicates import exact_eq
from ..geometry.primitives import point_in_polygon, polygon_area
from ..sizing.functions import (
    SizingFunction,
    areas_at,
    decoupling_edge_length,
)

__all__ = [
    "DecoupledSubdomain",
    "march_path",
    "ring_from_parts",
    "initial_quadrants",
    "decouple",
    "decouple_stream",
    "refine_subdomain",
    "estimate_triangles",
]

#: Border step ``D`` in units of the decoupling edge length ``k`` at the
#: current vertex (Eq. 1 admits ``D in [2k/sqrt(3), 2k)``).
STEP_FACTOR = 1.8
assert 2.0 / math.sqrt(3.0) <= STEP_FACTOR < 2.0
#: A ring with fewer vertices is too coarse for a '+' split.
MIN_RING = 8
#: Sizing samples (and the generator seed that places them) behind one
#: triangle-count estimate.
ESTIMATE_SAMPLES = 64
ESTIMATE_SEED = 0


@dataclass
class DecoupledSubdomain:
    """A convex-ish inviscid subdomain: a CCW ring of border vertices.

    ``hole_rings`` are used only by the near-body subdomain (the region
    between the boundary-layer outer borders and the near-body box).
    ``holes`` (seeds inside them) is read by nothing and not sent: the
    rings' triangulation covers nothing else.  The ledger's replay sets it.
    """

    ring: np.ndarray
    level: int = 0
    est_triangles: float = 0.0
    hole_rings: List[np.ndarray] = field(default_factory=list)
    holes: List[Tuple[float, float]] = field(default_factory=list)

    def area(self) -> float:
        """Unsigned: whichever way the rings turn."""
        a = abs(polygon_area(self.ring))
        for hr in self.hole_rings:
            a -= abs(polygon_area(hr))
        return a

    def centroid(self) -> Tuple[float, float]:
        c = self.ring.mean(axis=0)
        return (float(c[0]), float(c[1]))


def march_path(
    p0: Tuple[float, float],
    p1: Tuple[float, float],
    sizing: SizingFunction,
) -> np.ndarray:
    """Graded vertex march from ``p0`` to ``p1`` (both included).

    Implements Section II.E: starting at ``v_current`` with
    ``k_current = k(A(v_current))``, the next vertex is placed
    ``D = STEP_FACTOR * k_current`` ahead and pulled closer while
    ``D >= 2 k_next``, until the next step would reach ``p1``.

    A backward march from ``p1`` closes the path.  It stops where the
    gap to the forward front meets the bound at both ends, or where it
    would cross that front, so the closing edge can be far shorter than
    its neighbours (``naca_farfield``: 0.00034 beside 0.598).  Every
    border is locked, so such an edge is a sliver that no refinement
    can fix; it is not a local over-refinement.
    """
    p0 = (float(p0[0]), float(p0[1]))
    p1 = (float(p1[0]), float(p1[1]))
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    total = math.hypot(dx, dy)
    if exact_eq(total, 0.0):
        raise ValueError("degenerate path")
    ux, uy = dx / total, dy / total

    ts = [0.0]
    d = total  # overwritten unless the first step already overshoots
    while True:
        x, y = p0[0] + ux * ts[-1], p0[1] + uy * ts[-1]
        k_cur = decoupling_edge_length(sizing.area_at(x, y))
        d = STEP_FACTOR * k_cur
        # Enforce D < 2 k_next by stepping back toward the current vertex
        # until the next vertex's k admits the spacing.
        for _ in range(64):
            nx, ny = x + ux * d, y + uy * d
            k_next = decoupling_edge_length(sizing.area_at(nx, ny))
            if d < 2.0 * k_next:
                break
            d *= 0.8
        if ts[-1] + d >= total:
            break
        ts.append(ts[-1] + d)
        if len(ts) > 10_000_000:
            raise RuntimeError("march did not terminate (sizing too fine?)")

    # Close the march on p1.  The forward march guarantees D < 2k for all
    # interior edges; the *final* edge to p1 may still violate the bound
    # when the sizing shrinks toward p1 (e.g. approaching the body).  Fix
    # with a backward march from p1 until the junction gap satisfies the
    # bound at both of its endpoints.  The junction edge may end up far
    # shorter than 2k/sqrt(3): against a locked border that is a sliver
    # no refinement can fix (see the docstring).
    bs = [total]
    guard = 0
    while True:
        guard += 1
        if guard > 10_000_000:
            raise RuntimeError("backward march did not terminate")
        gap = bs[-1] - ts[-1]
        xf, yf = p0[0] + ux * ts[-1], p0[1] + uy * ts[-1]
        xb, yb = p0[0] + ux * bs[-1], p0[1] + uy * bs[-1]
        k_fw = decoupling_edge_length(sizing.area_at(xf, yf))
        k_bw = decoupling_edge_length(sizing.area_at(xb, yb))
        if gap < 2.0 * min(k_fw, k_bw):
            break
        d_b = STEP_FACTOR * k_bw
        for _ in range(64):
            px, py = xb - ux * d_b, yb - uy * d_b
            k_prev = decoupling_edge_length(sizing.area_at(px, py))
            if d_b < 2.0 * k_prev:
                break
            d_b *= 0.8
        if bs[-1] - d_b <= ts[-1]:
            break  # would cross the forward front: accept the gap
        bs.append(bs[-1] - d_b)

    ts = ts + bs[::-1]
    pts = [(p0[0] + ux * t, p0[1] + uy * t) for t in ts[:-1]]
    pts.append(p1)
    return np.asarray(pts, dtype=np.float64)


def ring_from_parts(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate polyline parts (each ordered) into a closed CCW ring,
    dropping the duplicated junction vertices."""
    out: List[Tuple[float, float]] = []
    for part in parts:
        for p in part:
            tp = (float(p[0]), float(p[1]))
            if not out or tp != out[-1]:
                out.append(tp)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    ring = np.asarray(out, dtype=np.float64)
    if polygon_area(ring) < 0:
        ring = ring[::-1].copy()
    return ring


def initial_quadrants(
    inner_box: AABB,
    outer_box: AABB,
    sizing: SizingFunction,
) -> List[DecoupledSubdomain]:
    """The four initial decoupled quadrants around the near-body box.

    Decoupling paths run from each inner-box corner to the matching
    outer-box corner (toward the far field), then the far-field border is
    marched "around the outer border" — every shared polyline is
    discretised exactly once and reused by both neighbours, which is what
    makes the subdomain borders consistent without communication.
    """
    if not outer_box.contains_box(inner_box):
        raise ValueError("outer box must contain inner box")
    I = [
        (inner_box.xmin, inner_box.ymin), (inner_box.xmax, inner_box.ymin),
        (inner_box.xmax, inner_box.ymax), (inner_box.xmin, inner_box.ymax),
    ]
    O = [
        (outer_box.xmin, outer_box.ymin), (outer_box.xmax, outer_box.ymin),
        (outer_box.xmax, outer_box.ymax), (outer_box.xmin, outer_box.ymax),
    ]
    diag = [march_path(I[c], O[c], sizing) for c in range(4)]
    outer = [march_path(O[c], O[(c + 1) % 4], sizing) for c in range(4)]
    inner = [march_path(I[c], I[(c + 1) % 4], sizing) for c in range(4)]

    quads: List[DecoupledSubdomain] = []
    for c in range(4):
        n = (c + 1) % 4
        ring = ring_from_parts([
            diag[c],                      # inner corner -> outer corner
            outer[c],                     # along the far field
            diag[n][::-1],                # back inward
            inner[c][::-1],               # along the near-body box (reversed)
        ])
        quads.append(DecoupledSubdomain(ring=ring, level=0))
    return quads


def estimate_triangles(sub: DecoupledSubdomain, sizing: SizingFunction
                       ) -> float:
    """Estimated triangle count: subdomain area over mean element area.

    Element area is taken as half the sizing bound (Ruppert refinement
    with an area bound ``A`` produces triangles with typical area ~``A/2``);
    the constant cancels in load balancing but keeps absolute estimates
    honest for the cost model.
    """
    area = sub.area()
    box = AABB.of_points(sub.ring)
    rng = np.random.default_rng(ESTIMATE_SEED)
    # Rejection sampling, a block of tries at a time: the first
    # ESTIMATE_SAMPLES points of the x, y, x, y, ... stream that fall
    # inside the ring, out of at most 50 tries per sample wanted.
    inside = np.empty((0, 2))
    for _ in range(50):
        xy = rng.uniform((box.xmin, box.ymin), (box.xmax, box.ymax),
                         size=(ESTIMATE_SAMPLES, 2))
        inside = np.vstack(
            [inside, xy[point_in_polygon(xy[:, :1], xy[:, 1:], sub.ring)]])
        if len(inside) >= ESTIMATE_SAMPLES:
            break
    samples = inside[:ESTIMATE_SAMPLES] if len(inside) else [sub.centroid()]
    mean_elem = 0.5 * float(np.mean(areas_at(sizing, samples)))
    return area / mean_elem


def _arc_positions(ring: np.ndarray) -> np.ndarray:
    d = np.linalg.norm(np.diff(np.vstack([ring, ring[:1]]), axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(d)])


def plus_split(sub: DecoupledSubdomain, sizing: SizingFunction
               ) -> List[DecoupledSubdomain]:
    """Split a subdomain into four with a '+'-shaped interior path.

    A new point is created at the subdomain centre and four graded paths
    connect it to *existing* border vertices nearest to the four quarter
    positions of the border arc — new points are only inserted in the
    interior, leaving every shared border untouched (Section II.E).
    """
    ring = sub.ring
    n = len(ring)
    if n < MIN_RING:
        raise ValueError("ring too coarse to split")
    arc = _arc_positions(ring)
    total = arc[-1]
    center = ring.mean(axis=0)
    anchors: List[int] = []
    for q in range(4):
        target = (q + 0.5) * total / 4.0
        i = int(np.argmin(np.abs(arc[:-1] - target)))
        if i in anchors:
            i = (i + 1) % n
        anchors.append(i)
    anchors = sorted(set(anchors))
    if len(anchors) < 4:
        raise ValueError("could not pick 4 distinct anchors")

    paths = [march_path((center[0], center[1]), tuple(ring[a]), sizing)
             for a in anchors]
    children: List[DecoupledSubdomain] = []
    for q in range(4):
        a0, a1 = anchors[q], anchors[(q + 1) % 4]
        if a1 > a0:
            slice_pts = ring[a0:a1 + 1]
        else:
            slice_pts = np.vstack([ring[a0:], ring[:a1 + 1]])
        child_ring = ring_from_parts([
            slice_pts,
            paths[(q + 1) % 4][::-1],   # border anchor a1 -> centre
            paths[q],                   # centre -> anchor a0
        ])
        children.append(DecoupledSubdomain(ring=child_ring,
                                           level=sub.level + 1))
    return children


def decouple_stream(
    subdomains: Sequence[DecoupledSubdomain],
    sizing: SizingFunction,
    *,
    target_count: int,
):
    """Generator form of :func:`decouple` for streamed dispatch.

    Yields each subdomain the moment it can no longer change — a
    subdomain too coarse to split (or holding hole rings) is final as
    soon as the splitter pops it, so a streaming executor can start
    refining it while the remaining splits are still running.  The
    overall yield order is *exactly* the list :func:`decouple` returns
    (finalised subdomains in pop order, then the heap's residual array
    order), which keeps streamed and barriered merges byte-identical.
    """
    import heapq

    if target_count < len(subdomains):
        yield from subdomains
        return
    heap = []
    counter = 0
    for s in subdomains:
        if exact_eq(s.est_triangles, 0.0):
            s.est_triangles = estimate_triangles(s, sizing)
        heapq.heappush(heap, (-s.est_triangles, counter, s))
        counter += 1
    n_done = 0
    while heap and len(heap) + n_done < target_count:
        _, _, sub = heapq.heappop(heap)
        if len(sub.ring) < MIN_RING or sub.hole_rings:
            n_done += 1
            yield sub
            continue
        try:
            kids = plus_split(sub, sizing)
        except ValueError:
            n_done += 1
            yield sub
            continue
        for k in kids:
            k.est_triangles = estimate_triangles(k, sizing)
            heapq.heappush(heap, (-k.est_triangles, counter, k))
            counter += 1
    for _, _, s in heap:
        yield s


def decouple(
    subdomains: Sequence[DecoupledSubdomain],
    sizing: SizingFunction,
    *,
    target_count: int,
) -> List[DecoupledSubdomain]:
    """Recursively '+'-split until ``target_count`` subdomains exist.

    The subdomain with the largest estimated triangle count splits first
    (cost-balanced decoupling, paper Fig. 10: "each subdomain has roughly
    the same number of triangles").  Subdomains whose ring is too coarse
    to split are left alone.
    """
    return list(decouple_stream(subdomains, sizing,
                                target_count=target_count))


def refine_subdomain(
    sub: DecoupledSubdomain,
    sizing: SizingFunction,
    *,
    quality_bound: float = RUPPERT_BOUND,
    max_steiner: int = MAX_STEINER,
) -> TriMesh:
    """Independently Ruppert-refine one decoupled subdomain.

    The rings are checked and triangulated as the polygon they bound
    (:mod:`repro.delaunay.constrained`).  Border segments are locked:
    the decoupling sized them so refinement terminates without touching
    them, keeping neighbouring subdomain meshes conforming with zero
    communication.
    """
    ring, hole_rings = checked_rings(sub.ring, sub.hole_rings)
    refiner = Refiner(
        triangulate_polygon(ring, hole_rings),
        quality_bound=quality_bound,
        criterion=AreaCriterion(sizing.area_at),
        lock_segments=True,
        max_steiner=max_steiner,
    )
    refiner.refine()
    return refiner.to_mesh()
