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
"""

import math

import numpy as np

from repro.delaunay.kernel import GHOST
from repro.metric import tensor as _mt


def vertex_tensors(self):
    """Metric tensors interpolated at every kernel vertex."""
    return self.field.interpolate(self.tri._arr.pts())


def interior_edges(self):
    """Sorted unique edges of interior (non-hole, non-ghost) triangles."""
    tri = self.tri
    edges = set()
    for t in tri.live_triangles():
        tv = tri._arr.triangle(t)
        if tv is None or GHOST in tv or not self._is_interior(t):
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
    """Flip edge (u, v) when legal (convex quad, unconstrained, same
    region on both sides).  Returns ``True`` on success."""
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
