"""Vertex-based SPD metric-tensor fields: recovery, interpolation, limits.

A :class:`MetricField` assigns one SPD 2x2 tensor to every vertex of a
mesh (or any point cloud): the anisotropic generalisation of the scalar
sizing functions in :mod:`repro.sizing`.  A mesh is *unit* with respect
to the field when every edge has metric length 1; the adaptation loop
(:mod:`repro.delaunay.adapt`, :mod:`repro.solver.adapt`) drives meshes
toward that state, with edge lengths accepted inside the classical band
``[1/sqrt(2), sqrt(2)]``.

The pieces assembled here are the standard metric-based adaptation
toolkit (Alauzet/Loseille; Tsolakis & Chrisochoides, arXiv:2404.18030):

* :meth:`MetricField.from_hessian` — recover a metric from a P1 finite
  element solution by double L2 projection of gradients (via
  :func:`repro.solver.fem.gradients`), eigenvalue scaling
  ``lam <- clip(|lam| / eps, 1/h_max^2, 1/h_min^2)``;
* log-Euclidean interpolation at arbitrary points (SPD by construction);
* metric edge lengths with the exact linear-interpolation quadrature;
* :meth:`MetricField.limit_gradation` — bounded size growth along mesh
  edges, with :func:`repro.sizing.limit.limit_field` as its scalar
  core: on isotropic tensors the two limiters agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import tensor

__all__ = ["MetricField"]


@dataclass
class MetricField:
    """SPD 2x2 tensors sampled at points (compact ``[m11, m12, m22]``).

    Attributes
    ----------
    points:
        ``(n, 2)`` float64 sample locations (mesh vertices, usually).
    tensors:
        ``(n, 3)`` float64 compact SPD rows.
    """

    points: np.ndarray
    tensors: np.ndarray

    def __post_init__(self) -> None:
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        self.tensors = np.ascontiguousarray(self.tensors, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must be (n, 2)")
        if self.tensors.shape != (len(self.points), 3):
            raise ValueError("tensors must be (n, 3) compact SPD rows")
        lam1, lam2, _ = tensor.eig(self.tensors)
        if len(lam2) and float(lam2.min()) <= 0.0:
            raise ValueError("metric tensors must be positive definite")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, points: np.ndarray, h: float) -> "MetricField":
        """Isotropic field prescribing edge length ``h`` everywhere."""
        points = np.ascontiguousarray(points, dtype=np.float64)
        if h <= 0:
            raise ValueError("h must be positive")
        return cls(points, tensor.identity(len(points), 1.0 / (h * h)))

    @classmethod
    def from_hessian(
        cls,
        mesh,
        u: np.ndarray,
        *,
        eps: float = 1e-2,
        h_min: float = 1e-4,
        h_max: float = 1.0,
    ) -> "MetricField":
        """Metric from the recovered Hessian of a P1 nodal solution.

        Gradient recovery is the classic double L2 projection: element
        gradients (from :func:`repro.solver.fem.gradients`) are
        area-averaged to vertices, the vertex-gradient field is
        differentiated again element-wise, and the element Hessians are
        area-averaged back to vertices.  The metric is then

            M = R diag(clip(|lam_i| / eps, 1/h_max^2, 1/h_min^2)) R^T

        — the interpolation-error-equidistributing metric for target
        error ``eps``, with spacing clamped to ``[h_min, h_max]``.
        """
        from ..solver.fem import gradients

        if not (eps > 0 and 0 < h_min <= h_max
                and all(map(math.isfinite, (eps, h_min, h_max)))):
            raise ValueError("need finite eps > 0 and 0 < h_min <= h_max, "
                             f"got eps={eps}, h_min={h_min}, h_max={h_max}")
        u = np.asarray(u, dtype=np.float64).reshape(-1)
        if len(u) != mesh.n_points:
            raise ValueError("solution length does not match mesh points")
        g, areas = gradients(mesh)
        tris = mesh.triangles
        n = mesh.n_points

        def to_vertices(elem_field: np.ndarray) -> np.ndarray:
            """Area-weighted average of per-element rows to vertices."""
            cols = elem_field.shape[1]
            acc = np.zeros((n, cols))
            w = np.repeat(areas, 3)
            np.add.at(acc, tris.ravel(),
                      np.repeat(elem_field, 3, axis=0) * w[:, None])
            wsum = np.zeros(n)
            np.add.at(wsum, tris.ravel(), w)
            wsum = np.where(wsum <= 0.0, 1.0, wsum)
            return acc / wsum[:, None]

        grad_e = np.einsum("tia,ti->ta", g, u[tris])        # (m, 2)
        grad_v = to_vertices(grad_e)                          # (n, 2)
        hx_e = np.einsum("tia,ti->ta", g, grad_v[tris][:, :, 0])
        hy_e = np.einsum("tia,ti->ta", g, grad_v[tris][:, :, 1])
        hess_e = np.column_stack([
            hx_e[:, 0],
            0.5 * (hx_e[:, 1] + hy_e[:, 0]),
            hy_e[:, 1],
        ])
        hess_v = to_vertices(hess_e)                          # (n, 3)

        lam1, lam2, v1 = tensor.eig(hess_v)
        lo = 1.0 / (h_max * h_max)
        hi = 1.0 / (h_min * h_min)
        lam1 = np.clip(np.abs(lam1) / eps, lo, hi)
        lam2 = np.clip(np.abs(lam2) / eps, lo, hi)
        return cls(mesh.points, tensor.from_eigs(lam1, lam2, v1))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return len(self.points)

    def full(self) -> np.ndarray:
        """Tensors as ``(n, 2, 2)`` matrices."""
        return tensor.as_full(self.tensors)

    def sizes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-vertex ``(h_small, h_large)`` spacings (``1/sqrt(lam)``)."""
        lam1, lam2, _ = tensor.eig(self.tensors)
        return 1.0 / np.sqrt(lam1), 1.0 / np.sqrt(np.maximum(lam2, 1e-300))

    def edge_lengths(self, edges: np.ndarray) -> np.ndarray:
        """Metric length of vertex-index edges
        (:func:`repro.metric.tensor.edge_lengths`)."""
        return tensor.edge_lengths(self.tensors, self.points, edges)

    def interpolate(self, query: np.ndarray) -> np.ndarray:
        """Log-Euclidean interpolation of the field at ``query`` points.

        Inverse-distance weighting over the 3 nearest samples,
        averaged in log space (Arsigny's log-Euclidean mean), so the
        result is SPD whatever the weights.  Exact sample hits return
        the sample tensor bit-for-bit.
        """
        query = np.asarray(query, dtype=np.float64).reshape(-1, 2)
        k = min(3, self.n_points)
        d, idx = self._kdtree().query(query, k=k)
        if k == 1:
            d = d[:, None]
            idx = idx[:, None]
        logs = getattr(self, "_logs", None)
        if logs is None:
            logs = tensor.log(self.tensors)
            object.__setattr__(self, "_logs", logs)
        exact = d[:, 0] <= 1e-14
        # Exact-hit rows are overwritten below; clamp so their weights
        # stay finite in the meantime.
        w = 1.0 / np.maximum(d, 1e-30) ** 2
        w /= w.sum(axis=1, keepdims=True)
        mixed = np.einsum("qk,qkc->qc", w, logs[idx])
        out = tensor.exp(mixed)
        out[exact] = self.tensors[idx[exact, 0]]
        return out

    def _kdtree(self):
        """Lazily built (and cached) KD-tree over the sample points.

        Fields are treated as immutable after construction, so the tree
        never needs invalidation; log-tensors are cached alongside.
        """
        tree = getattr(self, "_tree", None)
        if tree is None:
            from scipy.spatial import cKDTree

            tree = cKDTree(self.points)
            object.__setattr__(self, "_tree", tree)
        return tree

    def limit_gradation(self, edges: np.ndarray, *, grading: float = 0.3
                        ) -> "MetricField":
        """Bound size growth along the given edge graph.

        The per-vertex *minimum* spacing ``s = 1/sqrt(lam_max)`` is run
        through the scalar Hamilton-Jacobi limiter
        (:func:`repro.sizing.limit.limit_field` — the shared gradation
        core) over the Euclidean edge graph with slope ``grading``;
        each tensor is then scaled by ``(s / s*)^2 >= 1`` so its
        finest spacing matches the limited size while the anisotropy
        ratio and orientation are preserved.  The scalar sizing
        limiter is exactly this operation applied to isotropic tensors.
        """
        from ..sizing.limit import limit_field

        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        lengths = np.linalg.norm(
            self.points[edges[:, 1]] - self.points[edges[:, 0]], axis=1)
        keep = lengths > 0
        lam1, lam2, _ = tensor.eig(self.tensors)
        s = 1.0 / np.sqrt(lam1)
        s_lim = limit_field(edges[keep], lengths[keep], s, grading)
        factor = (s / np.maximum(s_lim, 1e-300)) ** 2
        return MetricField(self.points,
                           tensor.scale(self.tensors, np.maximum(factor, 1.0)))
