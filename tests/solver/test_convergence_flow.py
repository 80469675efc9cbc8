"""Tests for iterative solvers and the potential-flow solver."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from repro.delaunay.refine import refine_pslg
from repro.solver.convergence import jacobi, pcg
from repro.solver.fem import apply_dirichlet, assemble_stiffness, boundary_nodes
from repro.solver.flow import solve_potential_flow


def laplace_system(max_area=0.01):
    pts = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    segs = np.array([(0, 1), (1, 2), (2, 3), (3, 0)])
    mesh = refine_pslg(pts, segs, max_area=max_area)
    K = assemble_stiffness(mesh)
    bn = boundary_nodes(mesh)
    g = mesh.points[:, 0] ** 2 - mesh.points[:, 1] ** 2  # harmonic
    A, b = apply_dirichlet(K, np.zeros(mesh.n_points), bn, g[bn])
    return mesh, A, b, g


class TestIterativeSolvers:
    def setup_method(self):
        self.mesh, self.A, self.b, self.exact = laplace_system()

    def test_pcg_converges_to_exact(self):
        res = pcg(self.A, self.b, tol=1e-12)
        assert res.converged
        # x^2 - y^2 is harmonic but not in the P1 space: the discrete
        # solution carries O(h^2) discretisation error (~2e-3 here).
        np.testing.assert_allclose(res.x, self.exact, atol=1e-2)
        # Residual history is monotone-ish and hits the tolerance.
        assert res.residuals[-1] <= 1e-12
        assert res.iterations < self.mesh.n_points

    def test_jacobi_converges_slowly(self):
        res_j = jacobi(self.A, self.b)
        res_c = pcg(self.A, self.b)
        assert res_j.converged
        assert res_j.iterations > res_c.iterations

    def test_jacobi_zero_diag_raises(self):
        A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            jacobi(A, np.ones(2))

    def test_history_tracks_budget(self):
        # An inconsistent system: the residual settles at 1 and the
        # iteration spends its whole budget.
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        res = jacobi(A, np.array([1.0, -1.0]))
        assert not res.converged
        assert len(res.residuals) == res.iterations == 100_000

    def test_iterations_scale_with_mesh_size(self):
        """The Fig. 16 mechanism: a bigger system needs more iterations
        to the same tolerance (for the same problem and solver)."""
        _, A1, b1, _ = laplace_system(max_area=0.02)
        _, A2, b2, _ = laplace_system(max_area=0.002)
        r1 = pcg(A1, b1, tol=1e-10)
        r2 = pcg(A2, b2, tol=1e-10)
        assert r2.iterations > 1.5 * r1.iterations


def airfoil_flow_mesh(n_surface=81, box=2.5, max_area=0.02):
    from repro.geometry.airfoils import naca0012

    af = naca0012(n_surface)
    corners = np.array(
        [(-box, -box), (box + 1, -box), (box + 1, box), (-box, box)])
    pts = np.vstack([af, corners])
    n = len(af)
    segs = np.array(
        [(i, (i + 1) % n) for i in range(n)]
        + [(n + i, n + (i + 1) % 4) for i in range(4)]
    )
    mesh = refine_pslg(pts, segs, holes=[(0.5, 0.0)], max_area=max_area,
                       min_edge_floor=1e-3)
    return mesh, af


class TestPotentialFlow:
    @classmethod
    def setup_class(cls):
        cls.mesh, cls.af = airfoil_flow_mesh()

    def test_zero_alpha_symmetric(self):
        res = solve_potential_flow(self.mesh, [self.af], u_inf=1.0,
                                   alpha_deg=0.0)
        # Symmetric section at zero incidence: negligible lift.
        assert abs(res.lift_coefficient()) < 0.1
        # Far from the body the speed returns to U_inf.
        cents = self.mesh.centroids()
        far = np.hypot(cents[:, 0] - 0.5, cents[:, 1]) > 2.0
        speeds = np.linalg.norm(res.velocity[far], axis=1)
        assert np.median(speeds) == pytest.approx(1.0, abs=0.15)

    def test_positive_alpha_gives_lift(self):
        res = solve_potential_flow(self.mesh, [self.af], u_inf=1.0,
                                   alpha_deg=5.0)
        assert res.lift_coefficient() > 0.1
        # Thin-airfoil theory: Cl ~ 2 pi alpha ~ 0.55 at 5 degrees.
        assert res.lift_coefficient() < 1.5

    def test_pressure_pattern_at_alpha(self):
        """Paper Fig. 14: high pressure underneath, low on top."""
        res = solve_potential_flow(self.mesh, [self.af], u_inf=1.0,
                                   alpha_deg=5.0)
        cents = self.mesh.centroids()
        near = (np.abs(cents[:, 0] - 0.4) < 0.3)
        above = near & (cents[:, 1] > 0.03) & (cents[:, 1] < 0.2)
        below = near & (cents[:, 1] < -0.03) & (cents[:, 1] > -0.2)
        assert res.cp[below].mean() > res.cp[above].mean()

    def test_stagnation_points_exist(self):
        res = solve_potential_flow(self.mesh, [self.af], u_inf=1.0,
                                   alpha_deg=5.0)
        stag = res.stagnation_elements(frac=0.25)
        assert len(stag) > 0
        # A stagnation element sits near the leading edge.
        cents = self.mesh.centroids()[stag]
        assert np.min(np.hypot(cents[:, 0], cents[:, 1])) < 0.2

    def test_mach_scaling(self):
        res = solve_potential_flow(self.mesh, [self.af], u_inf=1.0,
                                   alpha_deg=5.0, mach_inf=0.3)
        assert res.mach.max() > 0.3  # acceleration over the upper surface
        assert res.mach.min() >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_potential_flow(self.mesh, [self.af], u_inf=0.0)
