"""Boundary-layer model problem with an exact solution.

The quantitative argument behind the whole paper — anisotropic layers
capture boundary-layer solutions with far fewer elements — made
measurable.  The model problem is the classic 1D-structure reaction-
diffusion boundary layer posed on the unit square:

    -eps * Lap(u) + u = f,   u = g on the boundary,

with the manufactured exact solution

    u(x, y) = exp(-y / sqrt(eps))

(a layer of width ~sqrt(eps) along y = 0, constant in x — exactly the
wall-normal gradient structure of Section II.A).  Substituting gives
f = 0: u is an exact solution of the homogeneous equation, so the only
data is the boundary condition and every measured error is
discretisation error.

Helpers build matched anisotropic (layered) and isotropic meshes of the
square and report the P1 L2 error per degree of freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse.linalg as spla

from ..delaunay.mesh import TriMesh
from ..delaunay.refine import refine_pslg
from .fem import apply_dirichlet, assemble_mass, assemble_stiffness, boundary_nodes

__all__ = ["BLModelResult", "exact_solution", "layered_mesh",
           "isotropic_mesh", "solve_bl_model"]


def exact_solution(pts: np.ndarray, eps: float) -> np.ndarray:
    """u(x, y) = exp(-y / sqrt(eps))."""
    return np.exp(-pts[:, 1] / math.sqrt(eps))


def layered_mesh(eps: float, *, nx: int = 24) -> TriMesh:
    """Anisotropic layered mesh of the unit square.

    y-coordinates follow a geometric progression of ratio 1.35 resolving
    the sqrt(eps) layer (first spacing sqrt(eps)/4); x is uniform — the
    structure the BL extrusion produces.
    """
    ys = [0.0]
    h = math.sqrt(eps) / 4.0
    while ys[-1] < 1.0:
        ys.append(min(ys[-1] + h, 1.0))
        h *= 1.35
    ys = np.asarray(ys)
    xs = np.linspace(0.0, 1.0, nx + 1)
    pts = np.array([(x, y) for y in ys for x in xs])
    tris = []
    ncol = nx + 1
    for j in range(len(ys) - 1):
        for i in range(nx):
            a = j * ncol + i
            b = a + 1
            c = a + ncol
            d = c + 1
            tris.append((a, b, d))
            tris.append((a, d, c))
    return TriMesh(pts, np.asarray(tris, dtype=np.int32))


def isotropic_mesh(target_points: int) -> TriMesh:
    """Quality isotropic mesh of the unit square with ~target_points DOF."""
    # n points ~ area / (elem area / 2) -> max_area ~ 2 / target... P1
    # vertex count ~ triangles / 2; triangles ~ 2 * area / max_area.
    max_area = max(1.0 / max(target_points, 8), 1e-7)
    pts = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    segs = np.array([(0, 1), (1, 2), (2, 3), (3, 0)])
    return refine_pslg(pts, segs, max_area=max_area)


@dataclass
class BLModelResult:
    mesh: TriMesh
    l2_error: float
    n_dof: int


def solve_bl_model(mesh: TriMesh, eps: float) -> BLModelResult:
    """Solve -eps Lap(u) + u = 0 with the exact Dirichlet data; return the
    L2 error against the manufactured solution."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    K = assemble_stiffness(mesh, eps)
    M = assemble_mass(mesh)
    A = (K + M).tocsr()
    exact = exact_solution(mesh.points, eps)
    bn = boundary_nodes(mesh)
    A, b = apply_dirichlet(A, np.zeros(mesh.n_points), bn, exact[bn])
    u = spla.spsolve(A.tocsc(), b)
    err = u - exact
    l2 = math.sqrt(max(float(err @ (M @ err)), 0.0))
    return BLModelResult(mesh=mesh, l2_error=l2, n_dof=mesh.n_points)
