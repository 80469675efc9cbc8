"""Vectorised algebra for fields of SPD 2x2 metric tensors.

A 2D anisotropic metric is a symmetric positive-definite 2x2 matrix
``M``; lengths are measured as ``sqrt(e^T M e)`` and a unit mesh in
``M`` has edges of metric length 1.  Every routine here operates on
*fields* of tensors in compact storage — an ``(n, 3)`` float64 array of
``[m11, m12, m22]`` rows — with closed-form 2x2 eigen-decompositions,
so whole-mesh metric operations (Hessian scaling, log-Euclidean means,
quadratic forms) are single NumPy passes with no per-vertex Python.

Conventions
-----------
* ``eig`` returns eigenvalues sorted ``lam1 >= lam2`` with the unit
  eigenvector of ``lam1``; ``1/sqrt(lam1)`` is the *smallest* length
  the metric prescribes (the across-the-layer spacing).
* ``log``/``exp`` act on eigenvalues only (the log-Euclidean calculus
  of Arsigny et al.): interpolation and averaging happen in log space
  where SPD matrices form a vector space, so interpolated tensors are
  SPD by construction.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "as_full",
    "identity",
    "eig",
    "from_eigs",
    "quad_form",
    "edge_lengths",
    "det",
    "log",
    "exp",
    "scale",
]

#: Relative floor used when a discriminant or norm underflows: below
#: this the two eigen-directions are numerically indistinguishable and
#: any orthonormal basis is valid.
_TINY = 1e-300


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


def scale(m: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Multiply each row's tensor by a per-row scalar factor."""
    m = np.asarray(m, dtype=np.float64).reshape(-1, 3)
    return m * np.asarray(factor, dtype=np.float64).reshape(-1, 1)
