"""Iterative solvers with residual histories (paper Fig. 16).

Fig. 16 plots the residual of the conservation-of-mass equation against
solver iterations for the anisotropic vs. isotropic meshes of the same
geometry, stopping at 1e-12.  The comparison we reproduce needs an
iterative method whose per-iteration cost scales with mesh size and whose
iteration count reflects the system: Jacobi-preconditioned conjugate
gradients for the SPD diffusion systems, plus plain damped Jacobi.
Every solver records the full relative-residual history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np
import scipy.sparse as sp

__all__ = ["SolveResult", "jacobi", "pcg"]


@dataclass
class SolveResult:
    x: np.ndarray
    residuals: List[float]
    converged: bool
    iterations: int


def _rel(r: np.ndarray, b_norm: float) -> float:
    return float(np.linalg.norm(r) / b_norm)


def jacobi(A: sp.spmatrix, b: np.ndarray) -> SolveResult:
    """Jacobi iteration damped by 0.8 from zero, with residual history,
    to a relative residual of 1e-12 within 100 000 iterations."""
    A = A.tocsr()
    b = np.asarray(b, dtype=np.float64)
    d = A.diagonal()
    if np.any(d == 0.0):
        raise ValueError("zero diagonal entry: Jacobi undefined")
    x = np.zeros_like(b)
    b_norm = float(np.linalg.norm(b)) or 1.0
    hist: List[float] = []
    for it in range(1, 100_001):
        r = b - A @ x
        rel = _rel(r, b_norm)
        hist.append(rel)
        if rel <= 1e-12:
            return SolveResult(x, hist, True, it - 1)
        x = x + 0.8 * (r / d)
    return SolveResult(x, hist, False, 100_000)


def pcg(A: sp.spmatrix, b: np.ndarray, *, tol: float = 1e-12,
        max_iter: int = 100_000) -> SolveResult:
    """Jacobi-preconditioned conjugate gradients from zero, with residual
    history."""
    A = A.tocsr()
    b = np.asarray(b, dtype=np.float64)
    d = A.diagonal()
    if np.any(d <= 0.0):
        raise ValueError("non-positive diagonal: not SPD-preconditionable")
    minv = 1.0 / d
    x = np.zeros_like(b)
    b_norm = float(np.linalg.norm(b)) or 1.0
    r = b - A @ x
    z = minv * r
    p = z.copy()
    rz = float(r @ z)
    hist: List[float] = [_rel(r, b_norm)]
    if hist[0] <= tol:
        return SolveResult(x, hist, True, 0)
    for it in range(1, max_iter + 1):
        Ap = A @ p
        denom = float(p @ Ap)
        if denom <= 0.0:
            return SolveResult(x, hist, False, it)
        alpha = rz / denom
        x = x + alpha * p
        r = r - alpha * Ap
        rel = _rel(r, b_norm)
        hist.append(rel)
        if rel <= tol:
            return SolveResult(x, hist, True, it)
        z = minv * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return SolveResult(x, hist, False, max_iter)
