"""Full-sweep reference for the adaptation flip pass and its snapshots.

This is ``MeshAdaptor.flip_pass`` and the NumPy ``_metric_quality`` as
``repro.delaunay.adapt`` shipped them before the dirty-edge worklist
replaced them (commit c676863), moved here verbatim and kept as the
oracle the worklist pass is compared against: every sweep rebuilds the
sorted interior-edge set, finds each edge's triangle by a star walk and
scores it with four array-allocating quality calls, whether or not
anything near the edge changed.  Methods became functions of the
adaptor (``self``); the one addition is ``log``, which receives the
list of edges each sweep flipped.

``vertex_tensors``, ``interior_edges`` and ``protected_vertices`` are
the uncached snapshots of the same commit (one interpolation, one
per-triangle Python scan per call), kept for the same reason, and
``flip_edge`` the by-vertices flip the full sweep calls.

``tests/delaunay/test_adapt_flip.py`` requires the production pass to
flip the same edges in the same order in the same sweeps, and the
production quality routine to return the same float.

``smooth_pass`` is the NumPy smoothing pass and ``ear_clip`` the
point-tuple ear clipping of ``MeshAdaptor._remove_vertex`` as they
shipped before the adaptor read the flat lists as scalars (commit
9dc4cd2), moved here verbatim (``ear_clip`` returns ``None`` where the
method returned ``False``, and the triangles where it went on to commit
them).  ``tests/delaunay/test_adapt_smooth.py`` requires the scalar
pass to leave the same floats in ``px`` and the scalar ear clipping to
return the same triangles.
"""

import math

import numpy as np

from repro.delaunay.adapt import SMOOTH_RELAXATION
from repro.delaunay.kernel import GHOST
from repro.geometry.predicates import orient2d
from repro.metric import tensor as _mt


def vertex_tensors(self):
    """Metric tensors interpolated at every kernel vertex."""
    return self.field.interpolate(self.tri._arr.pts())


def interior_edges(self):
    """Sorted unique edges of the real (non-ghost) triangles: the region
    (the copy also skipped hole triangles, which a loaded mesh has
    none of)."""
    tri = self.tri
    edges = set()
    for t in tri.live_triangles():
        tv = tri._arr.triangle(t)
        if tv is None or GHOST in tv:
            continue
        for k in range(3):
            u, v = tv[k], tv[(k + 1) % 3]
            edges.add((u, v) if u < v else (v, u))
    return sorted(edges)


def protected_vertices(self):
    """Vertices that collapse/smooth must not move or remove:
    constraint endpoints and hull vertices."""
    tri = self.tri
    protected = set()
    for u, v in tri.constraints:
        protected.add(u)
        protected.add(v)
    for t in tri.live_triangles():
        tv = tri._arr.triangle(t)
        if tv is not None and GHOST in tv:
            for w in tv:
                if w != GHOST:
                    protected.add(w)
    return protected


def flip_edge(self, u, v):
    """Flip edge (u, v) when legal (convex quad, unconstrained, real on
    both sides).  Returns ``True`` on success."""
    tri = self.tri
    key = (u, v) if u < v else (v, u)
    if key in tri.constraints:
        return False
    t1 = self._find_any_edge_triangle(u, v)
    if t1 is None or tri.is_ghost(t1):
        return False
    tv = tri._arr.triangle(t1)
    k1 = next((k for k in range(3) if tv[k] not in (u, v)), None)
    if k1 is None:
        return False
    return self._flip_opposite(t1, k1)


def metric_quality(self, a, b, c, tensors):
    """Metric shape quality in [0, 1]; 1 = metric-equilateral."""
    point = self.tri._arr.point
    pa, pb, pc = point(a), point(b), point(c)
    area = 0.5 * ((pb[0] - pa[0]) * (pc[1] - pa[1])
                  - (pb[1] - pa[1]) * (pc[0] - pa[0]))
    if area <= 0.0:
        return 0.0
    m = (tensors[a] + tensors[b] + tensors[c]) / 3.0
    det_m = m[0] * m[2] - m[1] * m[1]
    if det_m <= 0.0:
        return 0.0
    vecs = np.array([
        [pb[0] - pa[0], pb[1] - pa[1]],
        [pc[0] - pb[0], pc[1] - pb[1]],
        [pa[0] - pc[0], pa[1] - pc[1]],
    ])
    l_sq = _mt.quad_form(np.repeat(m[None, :], 3, axis=0), vecs)
    denom = float(l_sq.sum())
    if denom <= 0.0:
        return 0.0
    area_m = area * math.sqrt(det_m)
    return 4.0 * math.sqrt(3.0) * area_m / denom


def flip_pass(self, *, max_sweeps=10, tol=1e-12, log=None):
    """Anisotropic Lawson sweeps: flip while the worst metric quality
    of an edge's two triangles improves."""
    tri = self.tri
    total = 0
    for _ in range(max_sweeps):
        tensors = vertex_tensors(self)
        flipped = 0
        sweep = []
        for u, v in interior_edges(self):
            key = (u, v) if u < v else (v, u)
            if key in tri.constraints:
                continue
            t1 = self._find_any_edge_triangle(u, v)
            if t1 is None or tri.is_ghost(t1):
                continue
            tv = tri._arr.triangle(t1)
            k1 = next((k for k in range(3) if tv[k] not in (u, v)), None)
            if k1 is None:
                continue
            a = tv[k1]
            t2 = tri._arr.tn[3 * t1 + k1]
            if t2 < 0 or tri.is_ghost(t2):
                continue
            tv2 = tri._arr.triangle(t2)
            b = next((w for w in tv2 if w not in (u, v)), None)
            if b is None or b == GHOST:
                continue
            q_now = min(metric_quality(self, *tv, tensors),
                        metric_quality(self, *tv2, tensors))
            q_new = min(metric_quality(self, a, u, b, tensors),
                        metric_quality(self, b, v, a, tensors))
            if q_new > q_now + tol and flip_edge(self, u, v):
                flipped += 1
                sweep.append((u, v))
        if log is not None:
            log.append(sweep)
        total += flipped
        if flipped == 0:
            break
    return total


def smooth_pass(self):
    """Move free vertices toward the metric-weighted neighbour
    centroid; each move is validated (no inverted incident triangle)
    with step halving before acceptance."""
    tri = self.tri
    tensors = self._vertex_tensors()
    protected = self._protected_vertices()
    arr = tri._arr
    px, vt = arr.px, arr.vt
    moves = 0
    for v in range(arr.n_pts):
        if v in protected or vt[v] < 0:
            continue
        star = tri.triangles_around_vertex(v)
        if not star:
            continue
        ok = True
        neighbours: set = set()
        for t in star:
            tv = arr.triangle(t)
            if tv is None or GHOST in tv:
                ok = False
                break
            for w in tv:
                if w != v:
                    neighbours.add(w)
        if not ok or len(neighbours) < 3:
            continue
        nbr = sorted(neighbours)
        old = arr.point(v)
        pv = np.array(old)
        npts = np.array([arr.point(w) for w in nbr])
        vecs = npts - pv[None, :]
        m_edge = 0.5 * (np.repeat(tensors[v][None, :], len(nbr), axis=0)
                        + tensors[nbr])
        w_len = np.sqrt(np.maximum(_mt.quad_form(m_edge, vecs), 0.0))
        wsum = float(w_len.sum())
        if wsum <= 0.0:
            continue
        target = (w_len[:, None] * npts).sum(axis=0) / wsum
        step = SMOOTH_RELAXATION
        accepted = False
        for _ in range(3):
            # target is NumPy: store plain floats (see arrays.py).
            px[2 * v] = float(old[0] + step * (target[0] - old[0]))
            px[2 * v + 1] = float(old[1] + step * (target[1] - old[1]))
            valid = True
            for t in star:
                tv = arr.triangle(t)
                if orient2d(arr.point(tv[0]), arr.point(tv[1]),
                            arr.point(tv[2])) <= 0:
                    valid = False
                    break
            if valid:
                accepted = True
                break
            step *= 0.5
        if accepted:
            moves += 1
        else:
            px[2 * v] = old[0]
            px[2 * v + 1] = old[1]
    self.report.smooth_moves += moves
    self._point_edits += moves
    return moves


def ear_clip(point, ring):
    """The star-polygon ear clipping of ``_remove_vertex``: the
    triangles of CCW ``ring``, or ``None`` where it returned ``False``.
    ``point`` is ``MeshArrays.point``."""
    poly = list(ring)
    new_tris = []
    guard = 0
    while len(poly) > 3:
        guard += 1
        if guard > 2 * len(ring) * len(ring) + 16:
            return None
        n = len(poly)
        clipped = False
        for i in range(n):
            a, b, c = poly[i - 1], poly[i], poly[(i + 1) % n]
            pa, pb, pc = point(a), point(b), point(c)
            if orient2d(pa, pb, pc) <= 0:
                continue
            ok = True
            for w in poly:
                if w in (a, b, c):
                    continue
                pw = point(w)
                if (orient2d(pa, pb, pw) >= 0
                        and orient2d(pb, pc, pw) >= 0
                        and orient2d(pc, pa, pw) >= 0):
                    ok = False
                    break
            if ok:
                new_tris.append((a, b, c))
                poly.pop(i)
                clipped = True
                break
        if not clipped:
            return None
    a, b, c = poly
    if orient2d(point(a), point(b), point(c)) <= 0:
        return None
    new_tris.append((a, b, c))
    return new_tris
