"""Anisotropic mesh quality analysis (after Loseille et al., paper ref. [8]).

The paper's motivation for projection-based decomposition is that
arbitrary dividing paths "disturb the alignment and orthogonality of the
anisotropic elements".  This module quantifies exactly those properties
so the claim is measurable:

* :func:`element_directions` — per-element stretch direction and ratio
  from the element's inertia (steiner) ellipse;
* :func:`alignment_to_surface` — how well stretched elements align with
  the nearest surface tangent (1 = perfectly aligned, 0 = orthogonal):
  equivalently how orthogonal each short axis is to the surface, the
  boundary-layer stacking property;
* :func:`size_profile` — element size vs. distance from the geometry
  (the gradation curve of paper Fig. 10);
* :func:`histogram` — fixed-width text histogram used by the reports.

Quality in a metric (the unit-mesh criterion) is the adaptor's own
:meth:`repro.delaunay.adapt.MeshAdaptor.conformity`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..delaunay.mesh import TriMesh

__all__ = [
    "element_directions",
    "alignment_to_surface",
    "size_profile",
    "histogram",
]


def element_directions(mesh: TriMesh) -> Tuple[np.ndarray, np.ndarray]:
    """Per-element stretch direction (unit vectors) and stretch ratio.

    Computed from the covariance of the vertex offsets about the
    centroid: the principal eigenvector is the stretching direction, and
    the sqrt-eigenvalue ratio the anisotropy ratio (1 = isotropic).
    """
    p = mesh.points
    t = mesh.triangles
    a, b, c = p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]
    cent = (a + b + c) / 3.0
    da, db, dc = a - cent, b - cent, c - cent
    # 2x2 covariance per element.
    xx = (da[:, 0] ** 2 + db[:, 0] ** 2 + dc[:, 0] ** 2) / 3.0
    yy = (da[:, 1] ** 2 + db[:, 1] ** 2 + dc[:, 1] ** 2) / 3.0
    xy = (da[:, 0] * da[:, 1] + db[:, 0] * db[:, 1]
          + dc[:, 0] * dc[:, 1]) / 3.0
    # Eigen-decomposition of [[xx, xy], [xy, yy]] in closed form.
    tr = xx + yy
    det = xx * yy - xy * xy
    disc = np.sqrt(np.maximum(tr * tr / 4.0 - det, 0.0))
    lam1 = tr / 2.0 + disc
    lam2 = np.maximum(tr / 2.0 - disc, 0.0)
    # Principal direction for lam1: both (lam1 - yy, xy) and
    # (xy, lam1 - xx) are valid eigenvectors; pick the better-conditioned
    # one per element (the other degenerates when lam1 ~ yy or ~ xx).
    v1 = np.column_stack([lam1 - yy, xy])
    v2 = np.column_stack([xy, lam1 - xx])
    use2 = (np.abs(v2).sum(axis=1) > np.abs(v1).sum(axis=1))
    v = np.where(use2[:, None], v2, v1)
    # Fully isotropic elements (xy = 0, xx = yy): any direction; use +x.
    norm = np.hypot(v[:, 0], v[:, 1])
    v[norm == 0, 0] = 1.0
    norm = np.where(norm == 0, 1.0, norm)
    dirs = v / norm[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sqrt(np.where(lam2 > 0, lam1 / lam2, np.inf))
    return dirs, ratio


def _nearest_surface_tangent(surface: np.ndarray, query: np.ndarray
                             ) -> np.ndarray:
    """Unit tangent of the closed surface polyline nearest to each query."""
    surface = np.asarray(surface, dtype=np.float64)
    seg_a = surface
    seg_b = np.roll(surface, -1, axis=0)
    tans = seg_b - seg_a
    lens2 = (tans**2).sum(axis=1)
    lens = np.sqrt(np.where(lens2 == 0, 1.0, lens2))
    unit = tans / lens[:, None]
    out = np.empty((len(query), 2))
    for i, q in enumerate(query):
        # True point-to-segment distances (vectorised over segments).
        ap = q[None, :] - seg_a
        t = np.clip((ap * tans).sum(axis=1)
                    / np.where(lens2 == 0, 1.0, lens2), 0.0, 1.0)
        closest = seg_a + t[:, None] * tans
        d2 = ((q[None, :] - closest) ** 2).sum(axis=1)
        out[i] = unit[int(np.argmin(d2))]
    return out


def alignment_to_surface(mesh: TriMesh, surface: np.ndarray,
                         *, min_ratio: float = 4.0) -> np.ndarray:
    """|cos| between each stretched element's long axis and the nearest
    surface tangent.  Only elements with stretch ratio >= ``min_ratio``
    are scored (isotropic elements have no meaningful direction).
    Returns the per-element scores (empty if no stretched elements)."""
    dirs, ratio = element_directions(mesh)
    sel = np.isfinite(ratio) & (ratio >= min_ratio)
    if not sel.any():
        return np.empty(0)
    cents = mesh.centroids()[sel]
    tans = _nearest_surface_tangent(surface, cents)
    cosv = np.abs((dirs[sel] * tans).sum(axis=1))
    return np.clip(cosv, 0.0, 1.0)


def size_profile(mesh: TriMesh, surface: np.ndarray,
                 bins: Sequence[float]) -> List[Dict[str, float]]:
    """Mean element area per distance band from the surface (Fig. 10)."""
    surface = np.asarray(surface, dtype=np.float64)
    cents = mesh.centroids()
    areas = np.abs(mesh.areas())
    d = np.empty(len(cents))
    # Chunked distance to the surface point cloud.
    for lo in range(0, len(cents), 2048):
        chunk = cents[lo:lo + 2048]
        dd = ((chunk[:, None, :] - surface[None, :, :]) ** 2).sum(axis=2)
        d[lo:lo + 2048] = np.sqrt(dd.min(axis=1))
    out = []
    for lo, hi in zip(bins[:-1], bins[1:]):
        sel = (d >= lo) & (d < hi)
        if sel.any():
            out.append({
                "d_lo": float(lo), "d_hi": float(hi),
                "n": int(sel.sum()),
                "mean_area": float(areas[sel].mean()),
                "mean_aspect": float(mesh.aspect_ratios()[sel].mean()),
            })
    return out


def histogram(values: np.ndarray, *, bins: int = 10,
              label: str = "") -> str:
    """Text histogram, the tallest bar 40 characters wide."""
    values = np.asarray(values, dtype=np.float64)
    values = values[np.isfinite(values)]
    if len(values) == 0:
        return f"{label}: (no data)"
    counts, edges = np.histogram(values, bins=bins)
    peak = counts.max() or 1
    rows = [f"{label} (n={len(values)})"] if label else []
    for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(40 * c / peak))
        rows.append(f"  [{lo:10.4g}, {hi:10.4g})  {c:>7}  {bar}")
    return "\n".join(rows)
