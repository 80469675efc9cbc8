"""Potential-flow solver with Kutta-condition circulation (Figs. 14-15).

FUN3D's RANS solution is replaced by the classical incompressible
potential-flow model solved with the P1 FEM kernel: the streamfunction
``psi`` satisfies Laplace's equation with

* far-field Dirichlet data ``psi_inf = U (y cos(alpha) - x sin(alpha))``,
* a constant (unknown) value on each body loop.

Lift enters through circulation: for each body we solve an auxiliary
problem (``psi = 1`` on that body, 0 elsewhere) and choose the body
constants so the flow leaves every sharp trailing edge smoothly (the
Kutta condition, imposed by equalising the tangential speed on the two
faces meeting at the trailing edge).  Post-processing gives velocity
(per element, from the gradient of psi), pressure coefficient
``Cp = 1 - |V|^2/U^2`` and a compressibility-scaled local Mach number —
the fields of paper Figs. 14-15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..delaunay.mesh import TriMesh
from .fem import apply_dirichlet, assemble_stiffness, boundary_nodes, gradients

__all__ = ["FlowResult", "solve_potential_flow"]


@dataclass
class FlowResult:
    psi: np.ndarray
    velocity: np.ndarray          # (n_el, 2) per-element
    cp: np.ndarray                # (n_el,)
    mach: np.ndarray              # (n_el,)
    circulations: np.ndarray      # per-body streamfunction constants
    u_inf: float
    alpha_deg: float
    mesh: Optional[TriMesh] = None
    body_loops: Tuple[np.ndarray, ...] = ()

    def lift_coefficient(self) -> float:
        """Cl from surface-pressure integration over a unit chord:
        Cl = -∮ Cp n_y ds.

        ``n`` is the outward normal of each (CCW) body loop; the element
        adjacent to each surface panel supplies its Cp.
        """
        if self.mesh is None or not self.body_loops:
            raise ValueError("FlowResult lacks mesh/body context")
        cents = self.mesh.centroids()
        force_y = 0.0
        for ring in self.body_loops:
            ring = np.asarray(ring)
            m = len(ring)
            for i in range(m):
                a = ring[i]
                b = ring[(i + 1) % m]
                ex, ey = b[0] - a[0], b[1] - a[1]
                ds = math.hypot(ex, ey)
                if ds == 0:
                    continue
                # CCW body loop: outward normal (into the fluid) is the
                # left perpendicular... the fluid is OUTSIDE the loop, and
                # for a CCW polygon the outward direction is the right
                # perpendicular of the edge tangent.
                nx, ny = ey / ds, -ex / ds
                mid = (0.5 * (a[0] + b[0]) + 0.05 * ds * nx,
                       0.5 * (a[1] + b[1]) + 0.05 * ds * ny)
                e = int(np.argmin((cents[:, 0] - mid[0]) ** 2
                                  + (cents[:, 1] - mid[1]) ** 2))
                # Pressure pushes on the surface along -n (fluid -> body).
                force_y += -self.cp[e] * ny * ds
        return force_y

    def stagnation_elements(self, frac: float = 0.02) -> np.ndarray:
        """Element ids whose speed is below ``frac`` of U∞."""
        speed = np.linalg.norm(self.velocity, axis=1)
        return np.flatnonzero(speed < frac * self.u_inf)


def _classify_boundary(mesh: TriMesh, body_loops: Sequence[np.ndarray]
                       ) -> Tuple[List[np.ndarray], np.ndarray]:
    """Split boundary nodes into per-body sets and the far-field set.

    ``body_loops`` are the coordinate rings of the body surfaces; nodes
    are matched by coordinates (the meshes were built from those rings,
    so matches are exact).
    """
    bnodes = boundary_nodes(mesh)
    coords = mesh.points[bnodes]
    body_sets: List[np.ndarray] = []
    claimed = np.zeros(len(bnodes), dtype=bool)
    for ring in body_loops:
        ring_set = {(float(x), float(y)) for x, y in ring}
        mask = np.array(
            [(float(x), float(y)) in ring_set for x, y in coords]
        )
        body_sets.append(bnodes[mask])
        claimed |= mask
    farfield = bnodes[~claimed]
    return body_sets, farfield


def _trailing_edge_probe(mesh: TriMesh, ring: np.ndarray
                         ) -> Tuple[int, int]:
    """Element ids just above and below a body's trailing edge."""
    te_idx = int(np.argmax(ring[:, 0]))
    te = ring[te_idx]
    cents = mesh.centroids()
    d = np.hypot(cents[:, 0] - te[0], cents[:, 1] - te[1])
    near = np.argsort(d)[:24]
    above = [e for e in near if cents[e, 1] > te[1]]
    below = [e for e in near if cents[e, 1] <= te[1]]
    if not above or not below:
        return int(near[0]), int(near[min(1, len(near) - 1)])
    return int(above[0]), int(below[0])


def solve_potential_flow(
    mesh: TriMesh,
    body_loops: Sequence[np.ndarray],
    *,
    u_inf: float = 1.0,
    alpha_deg: float = 0.0,
    mach_inf: float = 0.0,
) -> FlowResult:
    """Solve potential flow around the bodies in ``mesh``, with a Kutta
    condition at each body's trailing edge.

    ``mesh`` is the fluid-region mesh (bodies are holes);
    ``body_loops`` their surface coordinate rings.
    """
    if u_inf <= 0:
        raise ValueError("u_inf must be positive")
    alpha = math.radians(alpha_deg)
    n = mesh.n_points
    K = assemble_stiffness(mesh)
    body_sets, farfield = _classify_boundary(mesh, body_loops)
    if len(farfield) == 0:
        raise ValueError("no far-field boundary found")
    for i, s in enumerate(body_sets):
        if len(s) == 0:
            raise ValueError(f"body loop {i} not found on the mesh boundary")

    p = mesh.points
    psi_far = u_inf * (p[:, 1] * math.cos(alpha) - p[:, 0] * math.sin(alpha))

    def solve_with(body_vals: Sequence[float],
                   far_vals: np.ndarray) -> np.ndarray:
        nodes = list(farfield)
        vals = list(far_vals[farfield])
        for s, v in zip(body_sets, body_vals):
            nodes.extend(s)
            vals.extend([v] * len(s))
        A, b = apply_dirichlet(K, np.zeros(n), nodes, vals)
        return spla.spsolve(A.tocsc(), b)

    # Base solution: psi = psi_inf on the far field, 0 on all bodies.
    psi0 = solve_with([0.0] * len(body_sets), psi_far)
    # Influence solutions: psi = 1 on body j, 0 elsewhere, 0 at infinity.
    influences = []
    zero_far = np.zeros(n)
    for j in range(len(body_sets)):
        vals = [1.0 if i == j else 0.0 for i in range(len(body_sets))]
        influences.append(solve_with(vals, zero_far))

    g, _areas = gradients(mesh)

    def element_velocity(psi: np.ndarray) -> np.ndarray:
        grad = np.einsum("tia,ti->ta", g, psi[mesh.triangles])
        # v = (d psi / dy, -d psi / dx)
        return np.column_stack([grad[:, 1], -grad[:, 0]])

    if influences:
        # Kutta condition per body: equal speed on the upper/lower elements
        # at the trailing edge -> linear system in the body constants.
        v0 = element_velocity(psi0)
        vi = [element_velocity(q) for q in influences]
        m = len(body_sets)
        Amat = np.zeros((m, m))
        rhs = np.zeros(m)
        for bi, ring in enumerate(body_loops):
            e_up, e_dn = _trailing_edge_probe(mesh, np.asarray(ring))
            # Tangential direction at the TE ~ x-direction of the local
            # flow; equalise the full velocity magnitude linearised:
            # |v_up|^2 - |v_dn|^2 = 0 with v = v0 + sum c_j v_j.
            # Linearise around v0 (one Newton step is exact enough for the
            # nearly-linear dependence).
            for bj in range(m):
                Amat[bi, bj] = 2.0 * (
                    v0[e_up] @ vi[bj][e_up] - v0[e_dn] @ vi[bj][e_dn]
                )
            rhs[bi] = -(v0[e_up] @ v0[e_up] - v0[e_dn] @ v0[e_dn])
        try:
            consts = np.linalg.solve(Amat, rhs)
        except np.linalg.LinAlgError:
            consts = np.zeros(m)
        psi = psi0 + sum(c * q for c, q in zip(consts, influences))
        circulations = consts  # psi jump per body ~ circulation measure
    else:
        psi = psi0
        circulations = np.zeros(len(body_sets))

    vel = element_velocity(psi)
    speed2 = (vel**2).sum(axis=1)
    cp = 1.0 - speed2 / (u_inf * u_inf)
    mach = mach_inf * np.sqrt(speed2) / u_inf
    return FlowResult(
        psi=psi,
        velocity=vel,
        cp=cp,
        mach=mach,
        circulations=np.asarray(circulations, dtype=np.float64),
        u_inf=u_inf,
        alpha_deg=alpha_deg,
        mesh=mesh,
        body_loops=tuple(np.asarray(r) for r in body_loops),
    )
