"""P1 finite-element assembly on triangle meshes (the flow-solver substrate).

The paper assesses its meshes with FUN3D (Figs. 14-16).  As a stand-in we
implement a compact P1 (linear-triangle) finite-element kernel sufficient
for the model problems the experiments need:

* stiffness matrices for (an)isotropic diffusion,
* lumped/consistent mass matrices,
* Dirichlet boundary condition application,

all assembled vectorised over the element arrays into scipy CSR matrices.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ..delaunay.mesh import TriMesh

__all__ = [
    "gradients",
    "assemble_stiffness",
    "assemble_mass",
    "apply_dirichlet",
    "boundary_nodes",
]


def gradients(mesh: TriMesh) -> Tuple[np.ndarray, np.ndarray]:
    """P1 basis gradients per element.

    Returns ``(grads, areas)`` with ``grads[t, i, :]`` the constant
    gradient of the hat function of local vertex ``i`` on triangle ``t``
    and ``areas`` the positive element areas.
    """
    p = mesh.points
    t = mesh.triangles
    a, b, c = p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]
    area2 = (
        (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
        - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    )
    # Degeneracy is decided by the exact predicate (a float determinant
    # near the rounding threshold can read 0.0 for a valid sliver); the
    # exact_eq guard additionally rejects underflowed float areas that
    # would poison the division below even when the exact sign is nonzero.
    from ..geometry.predicates import exact_eq, orient2d_batch

    if np.any(orient2d_batch(a, b, c) == 0) or np.any(exact_eq(area2, 0.0)):
        raise ValueError("degenerate element in FEM mesh")
    # grad phi_i = perp(edge opposite i) / (2A), with orientation so the
    # gradient points from the opposite edge toward vertex i.
    g = np.empty((len(t), 3, 2))
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        e = p[t[:, k]] - p[t[:, j]]
        g[:, i, 0] = -e[:, 1] / area2
        g[:, i, 1] = e[:, 0] / area2
    return g, np.abs(area2) / 2.0


def _accumulate(mesh: TriMesh, ke: np.ndarray) -> sp.csr_matrix:
    """Scatter per-element 3x3 blocks into a global CSR matrix."""
    t = mesh.triangles
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    return sp.csr_matrix(
        (ke.ravel(), (rows, cols)),
        shape=(mesh.n_points, mesh.n_points),
    )


def assemble_stiffness(
    mesh: TriMesh,
    diffusivity: Union[float, np.ndarray, Callable[[float, float], np.ndarray]] = 1.0,
) -> sp.csr_matrix:
    """Assemble the diffusion stiffness matrix.

    ``diffusivity`` may be a scalar, a constant 2x2 SPD tensor, or a
    callable ``(x, y) -> 2x2 tensor`` evaluated at element centroids —
    anisotropic diffusion is the model problem whose boundary-layer
    solutions motivate anisotropic meshes.
    """
    g, areas = gradients(mesh)
    n_el = mesh.n_triangles
    if callable(diffusivity):
        cents = mesh.centroids()
        D = np.stack([np.asarray(diffusivity(x, y), dtype=np.float64)
                      for x, y in cents])
    else:
        D0 = np.asarray(diffusivity, dtype=np.float64)
        if D0.ndim == 0:
            D0 = D0 * np.eye(2)
        D = np.broadcast_to(D0, (n_el, 2, 2))
    # ke[t, i, j] = area * grad_i . D . grad_j
    Dg = np.einsum("tab,tjb->tja", D, g)
    ke = np.einsum("tia,tja->tij", g, Dg) * areas[:, None, None]
    return _accumulate(mesh, ke)


def assemble_mass(mesh: TriMesh, *, lumped: bool = False) -> sp.csr_matrix:
    """Consistent (or row-lumped) P1 mass matrix."""
    _, areas = gradients(mesh)
    if lumped:
        diag = np.zeros(mesh.n_points)
        np.add.at(diag, mesh.triangles.ravel(),
                  np.repeat(areas / 3.0, 3))
        return sp.diags(diag).tocsr()
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    ke = base[None, :, :] * areas[:, None, None]
    return _accumulate(mesh, ke)


def boundary_nodes(mesh: TriMesh) -> np.ndarray:
    """Vertex indices on the mesh boundary, sorted."""
    return np.unique(mesh.boundary_edges().ravel())


def apply_dirichlet(
    A: sp.csr_matrix,
    b: np.ndarray,
    nodes: Sequence[int],
    values: Union[float, Sequence[float]],
) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Impose ``u[nodes] = values`` by row/column elimination (symmetric).

    Returns modified copies ``(A', b')``; the eliminated columns are moved
    to the right-hand side so symmetry (hence CG applicability) survives.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    vals = np.broadcast_to(np.asarray(values, dtype=np.float64), nodes.shape)
    A = A.tocsc(copy=True)
    b = np.asarray(b, dtype=np.float64).copy()

    u_bc = np.zeros(A.shape[0])
    u_bc[nodes] = vals
    b -= A @ u_bc

    mask = np.zeros(A.shape[0], dtype=bool)
    mask[nodes] = True
    A = A.tolil()
    A[nodes, :] = 0.0
    A[:, nodes] = 0.0
    for n, v in zip(nodes, vals):
        A[n, n] = 1.0
    b[nodes] = vals
    return A.tocsr(), b
