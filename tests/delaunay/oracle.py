"""Exact reference for what a Bowyer–Watson cavity *is*.

No filters, no batching, no flat buffers: every decision is one call to
the exact ``incircle`` / ``orient2d`` on coordinates read through
``MeshArrays.point`` / ``triangle``.  The production ``cavity.carve`` must agree with
this cavity for cavity.
"""

from repro.delaunay.kernel import GHOST
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
