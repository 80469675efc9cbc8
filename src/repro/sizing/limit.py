"""The Hamilton-Jacobi gradation limiter (scalar core of metric gradation).

A sizing field recovered from a solution (see :mod:`repro.metric`) can
vary arbitrarily fast — a spike of small target size next to a plateau
of large size makes refinement thrash and produces abrupt element-size
jumps.  pymesh2D's ``hfun_util``/``hjac_util`` pair solves this with a
Hamilton-Jacobi limiter: replace the raw field ``h`` by the largest field ``h*`` with

    h*(x) <= h(y) + g * d(x, y)        for all x, y,

i.e. the viscosity solution of ``|grad h*| <= g`` below the input data.
On a discrete vertex set connected by edges the exact solution is a
shortest-path relaxation:

    h*(v) = min_u ( h(u) + g * dist_graph(u, v) ),

which :func:`limit_field` computes with a Dijkstra sweep (deterministic,
one pass, exact fixed point — no iteration-count tuning).  The same core
is the *scalar specialization* of the metric gradation limiter
(:meth:`repro.metric.MetricField.limit_gradation` limits the per-vertex
minimum metric size through exactly this function before rescaling the
tensors), so on isotropic tensors the two limiters agree exactly.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = ["limit_field"]


def limit_field(
    edges: np.ndarray,
    lengths: np.ndarray,
    values: np.ndarray,
    slope: float,
) -> np.ndarray:
    """Largest field ``h* <= values`` with ``|grad h*| <= slope`` on a graph.

    Parameters
    ----------
    edges:
        ``(m, 2)`` int vertex index pairs (undirected).
    lengths:
        ``(m,)`` positive edge lengths.
    values:
        ``(n,)`` raw field samples (the upper bound).
    slope:
        Maximum growth rate ``g`` of the limited field per unit length;
        ``0`` collapses the field to its global minimum on each
        connected component.

    Returns the limited field (a fresh array; the input is not written).
    The relaxation is a plain Dijkstra over the graph metric, so the
    result is the exact fixed point and the pop order — hence the
    output — is deterministic (ties broken by vertex index).
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lengths = np.asarray(lengths, dtype=np.float64).reshape(-1)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if len(edges) != len(lengths):
        raise ValueError("edges and lengths disagree on edge count")
    if np.any(lengths <= 0):
        raise ValueError("edge lengths must be positive")
    if slope < 0:
        raise ValueError("slope must be non-negative")
    n = len(values)
    out = values.copy()
    if n == 0 or len(edges) == 0:
        return out

    # CSR adjacency (vectorised build): both directions of every edge.
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    wgt = np.concatenate([lengths, lengths])
    order = np.argsort(src, kind="stable")
    src, dst, wgt = src[order], dst[order], wgt[order]
    starts = np.searchsorted(src, np.arange(n + 1))

    heap = [(float(out[v]), v) for v in range(n) if np.isfinite(out[v])]
    heapq.heapify(heap)
    settled = np.zeros(n, dtype=bool)
    while heap:
        d, v = heapq.heappop(heap)
        if settled[v] or d > out[v]:
            continue
        settled[v] = True
        for j in range(starts[v], starts[v + 1]):
            u = int(dst[j])
            cand = d + slope * float(wgt[j])
            if cand < out[u]:
                out[u] = cand
                heapq.heappush(heap, (cand, u))
    return out
