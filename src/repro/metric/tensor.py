"""Vectorised algebra for fields of SPD 2x2 metric tensors.

A 2D anisotropic metric is a symmetric positive-definite 2x2 matrix
``M``; lengths are measured as ``sqrt(e^T M e)`` and a unit mesh in
``M`` has edges of metric length 1.  Every routine here operates on
*fields* of tensors in compact storage — an ``(n, 3)`` float64 array of
``[m11, m12, m22]`` rows — with closed-form 2x2 eigen-decompositions,
so whole-mesh metric operations (Hessian scaling, log-Euclidean means,
intersection, quadratic forms) are single NumPy passes with no
per-vertex Python.

Conventions
-----------
* ``eig`` returns eigenvalues sorted ``lam1 >= lam2`` with the unit
  eigenvector of ``lam1``; ``1/sqrt(lam1)`` is the *smallest* length
  the metric prescribes (the across-the-layer spacing).
* ``log``/``exp`` act on eigenvalues only (the log-Euclidean calculus
  of Arsigny et al.): interpolation and averaging happen in log space
  where SPD matrices form a vector space, so interpolated tensors are
  SPD by construction.
* ``intersect`` is the simultaneous-reduction intersection (Alauzet):
  the largest metric whose unit ball fits inside both arguments' unit
  balls.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "as_compact",
    "as_full",
    "identity",
    "eig",
    "from_eigs",
    "quad_form",
    "edge_lengths",
    "det",
    "log",
    "exp",
    "sqrtm",
    "scale",
    "intersect",
]

#: Relative floor used when a discriminant or norm underflows: below
#: this the two eigen-directions are numerically indistinguishable and
#: any orthonormal basis is valid.
_TINY = 1e-300


def as_compact(full: np.ndarray) -> np.ndarray:
    """``(n, 2, 2)`` symmetric matrices -> compact ``(n, 3)`` rows."""
    full = np.asarray(full, dtype=np.float64)
    if full.ndim == 2:
        full = full[None]
    return np.column_stack([full[:, 0, 0],
                            0.5 * (full[:, 0, 1] + full[:, 1, 0]),
                            full[:, 1, 1]])


def as_full(m: np.ndarray) -> np.ndarray:
    """Compact ``(n, 3)`` rows -> ``(n, 2, 2)`` matrices."""
    m = np.asarray(m, dtype=np.float64).reshape(-1, 3)
    out = np.empty((len(m), 2, 2))
    out[:, 0, 0] = m[:, 0]
    out[:, 0, 1] = out[:, 1, 0] = m[:, 1]
    out[:, 1, 1] = m[:, 2]
    return out


def identity(n: int, scale_value: float = 1.0) -> np.ndarray:
    """``n`` copies of ``scale_value * I`` in compact storage."""
    out = np.zeros((n, 3))
    out[:, 0] = out[:, 2] = scale_value
    return out


def eig(m: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form eigen-decomposition of compact symmetric 2x2 rows.

    Returns ``(lam1, lam2, v1)`` with ``lam1 >= lam2`` and ``v1`` the
    ``(n, 2)`` unit eigenvector of ``lam1``.  For (numerically)
    isotropic rows any direction is an eigenvector; ``+x`` is returned
    so downstream reconstruction is deterministic.
    """
    m = np.asarray(m, dtype=np.float64).reshape(-1, 3)
    a, b, c = m[:, 0], m[:, 1], m[:, 2]
    half_tr = 0.5 * (a + c)
    disc = np.sqrt(np.maximum((0.5 * (a - c)) ** 2 + b * b, 0.0))
    lam1 = half_tr + disc
    lam2 = half_tr - disc
    # Both (b, lam1 - a) and (lam1 - c, b) are eigenvectors of lam1;
    # pick the better-conditioned one per row (the other degenerates
    # when lam1 ~ a or lam1 ~ c).
    v1 = np.column_stack([b, lam1 - a])
    v2 = np.column_stack([lam1 - c, b])
    use2 = np.abs(v2).sum(axis=1) > np.abs(v1).sum(axis=1)
    v = np.where(use2[:, None], v2, v1)
    norm = np.hypot(v[:, 0], v[:, 1])
    iso = norm <= _TINY
    v[iso, 0] = 1.0
    v[iso, 1] = 0.0
    norm = np.where(iso, 1.0, norm)
    return lam1, lam2, v / norm[:, None]


def from_eigs(lam1: np.ndarray, lam2: np.ndarray, v1: np.ndarray
              ) -> np.ndarray:
    """Rebuild compact rows from ``lam1 v1 v1^T + lam2 w w^T``
    (``w`` = ``v1`` rotated 90 degrees)."""
    vx, vy = v1[:, 0], v1[:, 1]
    return np.column_stack([
        lam1 * vx * vx + lam2 * vy * vy,
        (lam1 - lam2) * vx * vy,
        lam1 * vy * vy + lam2 * vx * vx,
    ])


def quad_form(m: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``e^T M e`` per row (squared metric length of vector ``e``)."""
    m = np.asarray(m, dtype=np.float64).reshape(-1, 3)
    e = np.asarray(e, dtype=np.float64).reshape(-1, 2)
    ex, ey = e[:, 0], e[:, 1]
    return m[:, 0] * ex * ex + 2.0 * m[:, 1] * ex * ey + m[:, 2] * ey * ey


def edge_lengths(m: np.ndarray, points: np.ndarray,
                 edges: np.ndarray) -> np.ndarray:
    """Metric length of vertex-index ``edges`` under per-vertex tensors.

    With endpoint lengths ``l0 = |e|_{M_u}`` and ``l1 = |e|_{M_v}``
    the length under linearly interpolated metric is
    ``l0 (r - 1) / ln(r)`` with ``r = l1 / l0`` (Alauzet), which the
    near-isotropic limit replaces by the mean.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    e = points[edges[:, 1]] - points[edges[:, 0]]
    l0 = np.sqrt(np.maximum(quad_form(m[edges[:, 0]], e), 0.0))
    l1 = np.sqrt(np.maximum(quad_form(m[edges[:, 1]], e), 0.0))
    lo = np.minimum(l0, l1)
    hi = np.maximum(l0, l1)
    out = 0.5 * (l0 + l1)
    graded = hi > lo * (1.0 + 1e-8)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = hi[graded] / np.maximum(lo[graded], 1e-300)
        out[graded] = lo[graded] * (r - 1.0) / np.log(r)
    return out


def det(m: np.ndarray) -> np.ndarray:
    """Determinant per compact row."""
    m = np.asarray(m, dtype=np.float64).reshape(-1, 3)
    return m[:, 0] * m[:, 2] - m[:, 1] * m[:, 1]


def _map_eigs(m: np.ndarray, fn) -> np.ndarray:
    lam1, lam2, v1 = eig(m)
    return from_eigs(fn(lam1), fn(lam2), v1)


def log(m: np.ndarray) -> np.ndarray:
    """Matrix logarithm per row (requires SPD input)."""
    return _map_eigs(m, lambda lam: np.log(np.maximum(lam, _TINY)))


def exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential per row (inverse of :func:`log` on SPD)."""
    return _map_eigs(m, np.exp)


def sqrtm(m: np.ndarray) -> np.ndarray:
    """Matrix square root per row (SPD input; the map to metric space:
    ``x -> M^{1/2} x`` turns metric lengths into Euclidean ones)."""
    return _map_eigs(m, lambda lam: np.sqrt(np.maximum(lam, 0.0)))


def scale(m: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Multiply each row's tensor by a per-row scalar factor."""
    m = np.asarray(m, dtype=np.float64).reshape(-1, 3)
    return m * np.asarray(factor, dtype=np.float64).reshape(-1, 1)


def intersect(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Simultaneous-reduction intersection of two compact tensor fields.

    Row-wise largest metric finer than both inputs: diagonalise
    ``N = M1^{-1} M2`` (always real-diagonalisable for SPD pairs — it
    is similar to the SPD matrix ``M1^{-1/2} M2 M1^{-1/2}``), measure
    both metrics along the shared eigen-directions, keep the max, and
    map back.  Near-proportional pairs (``N`` ~ ``lam I``, eigenbasis
    ill-defined) mean ``M2 ~ lam M1``: the intersection is simply the
    finer input (``M2`` when ``lam >= 1``), so those rows bypass the
    reconstruction.
    """
    m1 = np.asarray(m1, dtype=np.float64).reshape(-1, 3)
    m2 = np.asarray(m2, dtype=np.float64).reshape(-1, 3)
    a1, b1, c1 = m1[:, 0], m1[:, 1], m1[:, 2]
    a2, b2, c2 = m2[:, 0], m2[:, 1], m2[:, 2]
    d1 = a1 * c1 - b1 * b1
    # N = M1^{-1} M2 entries (2x2, generally non-symmetric).
    n11 = (c1 * a2 - b1 * b2) / d1
    n12 = (c1 * b2 - b1 * c2) / d1
    n21 = (a1 * b2 - b1 * a2) / d1
    n22 = (a1 * c2 - b1 * b2) / d1
    half_tr = 0.5 * (n11 + n22)
    disc2 = np.maximum(half_tr * half_tr - (n11 * n22 - n12 * n21), 0.0)
    disc = np.sqrt(disc2)
    lam_a = half_tr + disc
    lam_b = half_tr - disc
    # N ~ lam I (M2 ~ lam M1): the eigenvector formulas below produce
    # roundoff-level garbage directions, so detect proportional pairs
    # from the eigenvalue spread itself; the bypass errs by
    # O(disc / half_tr) while a garbage basis errs by O(1).  half_tr
    # is positive because N is similar to the SPD ``M1^{-1/2} M2
    # M1^{-1/2}``.
    proportional = disc <= 1e-6 * half_tr
    # Eigenvectors of N per eigenvalue: (n12, lam - n11) or
    # (lam - n22, n21); pick the better-conditioned pair.
    def evec(lam):
        va = np.column_stack([n12, lam - n11])
        vb = np.column_stack([lam - n22, n21])
        useb = np.abs(vb).sum(axis=1) > np.abs(va).sum(axis=1)
        v = np.where(useb[:, None], vb, va)
        norm = np.hypot(v[:, 0], v[:, 1])
        bad = norm <= _TINY
        v[bad, 0] = 1.0
        v[bad, 1] = 0.0
        return v / np.where(bad, 1.0, norm)[:, None]

    pa = evec(lam_a)
    pb = evec(lam_b)
    # Degenerate rows: eigen-directions collapse.  Substitute an
    # orthonormal pair to keep the reconstruction well-posed, then
    # overwrite those rows with the finer input below.
    colinear = proportional | (
        np.abs(pa[:, 0] * pb[:, 1] - pa[:, 1] * pb[:, 0]) < 1e-6)
    pb[colinear, 0] = -pa[colinear, 1]
    pb[colinear, 1] = pa[colinear, 0]
    mu_a = np.maximum(quad_form(m1, pa), quad_form(m2, pa))
    mu_b = np.maximum(quad_form(m1, pb), quad_form(m2, pb))
    # M = P^{-T} diag(mu) P^{-1} with P = [pa | pb] columns.
    det_p = pa[:, 0] * pb[:, 1] - pa[:, 1] * pb[:, 0]
    det_p = np.where(np.abs(det_p) <= _TINY, 1.0, det_p)
    # P^{-1} rows: [pb_y, -pb_x]/det, [-pa_y, pa_x]/det.
    i11 = pb[:, 1] / det_p
    i12 = -pb[:, 0] / det_p
    i21 = -pa[:, 1] / det_p
    i22 = pa[:, 0] / det_p
    out = np.empty_like(m1)
    out[:, 0] = mu_a * i11 * i11 + mu_b * i21 * i21
    out[:, 1] = mu_a * i11 * i12 + mu_b * i21 * i22
    out[:, 2] = mu_a * i12 * i12 + mu_b * i22 * i22
    finer = np.where((lam_a >= 1.0)[:, None], m2, m1)
    out[colinear] = finer[colinear]
    return out
