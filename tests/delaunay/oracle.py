"""Exact reference for what a Bowyer–Watson cavity *is*.

No filters, no flat buffers: every decision is one call to
the exact ``incircle`` / ``orient2d`` on coordinates read through
``MeshArrays.point`` / ``triangle``.  The production ``cavity.carve`` must agree with
this cavity for cavity.

:func:`check_integrity` is the structural self-check the kernel tests
run after every edit, and :func:`constrained_delaunay` the
hull-and-carve CDT of a PSLG.
"""

import numpy as np

from repro.delaunay.arrays import DEAD
from repro.delaunay.kernel import GHOST, TriangulationError
from repro.delaunay.mesh import TriMesh
from repro.geometry.predicates import incircle, orient2d


def in_disk(tri, t, p):
    """``p`` lies in triangle ``t``'s (possibly ghost) open circumdisk."""
    arr = tri._arr
    tv = arr.triangle(t)
    if GHOST not in tv:
        return incircle(arr.point(tv[0]), arr.point(tv[1]), arr.point(tv[2]),
                        p) > 0
    # Ghost [u, v, G]: outside-hull half-plane strictly left of u->v,
    # plus the open edge uv.
    u, v = tri.ghost_edge(t)
    pu, pv = arr.point(u), arr.point(v)
    o = orient2d(pu, pv, p)
    if o != 0:
        return o > 0
    return (min(pu[0], pv[0]) <= p[0] <= max(pu[0], pv[0])
            and min(pu[1], pv[1]) <= p[1] <= max(pu[1], pv[1])
            and p != pu and p != pv)


def seed(tri, t, p):
    """``t`` or the first edge-neighbour whose open disk holds ``p``
    (``p`` on the boundary of ``t``)."""
    if in_disk(tri, t, p):
        return t
    return next(nb for nb in tri._arr.tn[3 * t:3 * t + 3]
                if nb >= 0 and in_disk(tri, nb, p))


def carve(tri, p, t0):
    """``(cavity, clipped)``: the connected component of in-disk
    triangles reached from ``t0`` without crossing a constrained edge,
    and whether a constrained edge kept out a triangle whose disk holds
    ``p`` — the cavity was truly clipped, and its star fan must be
    constrained Delaunay all the same (production repairs nothing)."""
    cavity = {t0}
    stack = [t0]
    barred = set()
    while stack:
        t = stack.pop()
        tv = tri._arr.triangle(t)
        for k in range(3):
            nb = tri._arr.tn[3 * t + k]
            if nb < 0 or nb in cavity:
                continue
            u, v = tv[k - 2], tv[k - 1]
            if (u != GHOST and v != GHOST
                    and ((u, v) if u < v else (v, u)) in tri.constraints):
                barred.add(nb)
            elif in_disk(tri, nb, p):
                cavity.add(nb)
                stack.append(nb)
    return cavity, any(in_disk(tri, nb, p) for nb in barred - cavity)


def check_integrity(tri) -> None:
    """Assert adjacency symmetry and positive orientation everywhere,
    the live-triangle count, and that every vertex hint names a live
    triangle holding its vertex."""
    arr = tri._arr
    tn = arr.tn
    for t in tri.live_triangles():
        tv = arr.triangle(t)
        if GHOST not in tv:
            o = orient2d(arr.point(tv[0]), arr.point(tv[1]),
                         arr.point(tv[2]))
            if o <= 0:
                raise TriangulationError(f"triangle {t}={tv} not CCW ({o})")
        for k in range(3):
            nb = tn[3 * t + k]
            if nb < 0:
                if tri.n_live_triangles > 1:
                    raise TriangulationError(f"triangle {t} edge {k} unlinked")
                continue
            if arr.tv[3 * nb] == DEAD:
                raise TriangulationError(f"{t} links dead triangle {nb}")
            u, v = tri._edge(t, k)
            kk = tri._edge_index(nb, v, u)
            if tn[3 * nb + kk] != t:
                raise TriangulationError(f"asymmetric adjacency {t}<->{nb}")
    rows = arr.tri_v()
    n_live = int(np.count_nonzero(rows[:, 0] != DEAD))
    if n_live != tri.n_live_triangles:
        raise TriangulationError(
            f"n_live_triangles is {tri.n_live_triangles}, "
            f"{n_live} rows are live")
    hint = np.array(arr.vt)
    hinted = np.flatnonzero(hint >= 0)
    # One DEAD row stands for every slot past n_tris.
    rows = np.vstack((rows, np.full((1, 3), DEAD, dtype=rows.dtype)))
    held = rows[np.minimum(hint[hinted], arr.n_tris)]
    stale = (held[:, 0] == DEAD) | ~(held == hinted[:, None]).any(axis=1)
    if stale.any():
        v = int(hinted[np.argmax(stale)])
        raise TriangulationError(
            f"vertex {v} hints triangle {hint[v]}, which is dead or "
            "lacks it")


def constrained_delaunay(points, segments, holes=()) -> TriMesh:
    """The PSLG's constrained Delaunay triangulation, carved: exterior
    and ``holes`` (seed points) removed.  The composition the library
    left behind when the boundary layer stopped being built this way."""
    from repro.delaunay.constrained import carve as carve_cdt
    from repro.delaunay.constrained import triangulate_pslg

    tri = triangulate_pslg(points, segments)
    return tri.to_mesh(keep_mask=carve_cdt(tri, holes))
