"""Tests for the P1 FEM kernel: patch tests and manufactured solutions."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.delaunay.refine import refine_pslg
from repro.solver.fem import (
    apply_dirichlet,
    assemble_mass,
    assemble_stiffness,
    boundary_nodes,
    gradients,
)


def unit_square_mesh(max_area=0.01):
    pts = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    segs = np.array([(0, 1), (1, 2), (2, 3), (3, 0)])
    return refine_pslg(pts, segs, max_area=max_area)


MESH = unit_square_mesh()


class TestGradients:
    def test_partition_of_unity(self):
        g, areas = gradients(MESH)
        # Hat-function gradients sum to zero on each element.
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12)
        assert areas.sum() == pytest.approx(1.0)

    def test_linear_exactness(self):
        # grad of u(x,y) = 3x - 2y reproduced exactly elementwise.
        g, _ = gradients(MESH)
        u = 3 * MESH.points[:, 0] - 2 * MESH.points[:, 1]
        grad_u = np.einsum("tia,ti->ta", g, u[MESH.triangles])
        np.testing.assert_allclose(grad_u[:, 0], 3.0, atol=1e-9)
        np.testing.assert_allclose(grad_u[:, 1], -2.0, atol=1e-9)


class TestStiffness:
    def test_symmetry_and_nullspace(self):
        K = assemble_stiffness(MESH)
        assert abs(K - K.T).max() < 1e-12
        # Constants are in the null space.
        ones = np.ones(MESH.n_points)
        assert np.abs(K @ ones).max() < 1e-12

    def test_energy_of_linear_field(self):
        # ∫|grad u|^2 for u = x on the unit square is 1.
        K = assemble_stiffness(MESH)
        u = MESH.points[:, 0].copy()
        assert u @ (K @ u) == pytest.approx(1.0)

    def test_anisotropic_tensor(self):
        D = np.array([[10.0, 0.0], [0.0, 0.1]])
        K = assemble_stiffness(MESH, D)
        ux = MESH.points[:, 0].copy()
        uy = MESH.points[:, 1].copy()
        assert ux @ (K @ ux) == pytest.approx(10.0)
        assert uy @ (K @ uy) == pytest.approx(0.1)

    def test_callable_diffusivity(self):
        K = assemble_stiffness(MESH, lambda x, y: (1 + x) * np.eye(2))
        u = MESH.points[:, 0].copy()
        # ∫(1+x) dx dy over [0,1]^2 = 1.5 for u = x.
        assert u @ (K @ u) == pytest.approx(1.5, rel=1e-9)


class TestMass:
    def test_total_mass(self):
        M = assemble_mass(MESH)
        ones = np.ones(MESH.n_points)
        assert ones @ (M @ ones) == pytest.approx(1.0)

    def test_lumped_equals_consistent_row_sums(self):
        M = assemble_mass(MESH)
        L = assemble_mass(MESH, lumped=True)
        np.testing.assert_allclose(
            np.asarray(M.sum(axis=1)).ravel(), L.diagonal(), rtol=1e-12
        )

    def test_linear_integral(self):
        M = assemble_mass(MESH)
        x = MESH.points[:, 0]
        ones = np.ones(MESH.n_points)
        assert ones @ (M @ x) == pytest.approx(0.5, rel=1e-9)


class TestDirichletAndSolve:
    def test_laplace_linear_exact(self):
        """Laplace with linear BCs reproduces the linear solution exactly."""
        K = assemble_stiffness(MESH)
        bn = boundary_nodes(MESH)
        g = 2 * MESH.points[:, 0] + MESH.points[:, 1]
        A, b = apply_dirichlet(K, np.zeros(MESH.n_points), bn, g[bn])
        u = spla.spsolve(A.tocsc(), b)
        np.testing.assert_allclose(u, g, atol=1e-9)

    def test_symmetry_preserved(self):
        K = assemble_stiffness(MESH)
        bn = boundary_nodes(MESH)
        A, _ = apply_dirichlet(K, np.zeros(MESH.n_points), bn, 0.0)
        assert abs(A - A.T).max() < 1e-12

    def test_poisson_manufactured_convergence(self):
        """-Δu = 2π² sin(πx)sin(πy): L2 error shrinks ~h² under refinement."""
        errors = []
        for max_area in (0.02, 0.005):
            mesh = unit_square_mesh(max_area)
            K = assemble_stiffness(mesh)
            M = assemble_mass(mesh)
            x, y = mesh.points[:, 0], mesh.points[:, 1]
            exact = np.sin(np.pi * x) * np.sin(np.pi * y)
            f = 2 * np.pi**2 * exact
            b = M @ f
            bn = boundary_nodes(mesh)
            A, bb = apply_dirichlet(K, b, bn, 0.0)
            u = spla.spsolve(A.tocsc(), bb)
            err = u - exact
            errors.append(math.sqrt(err @ (M @ err)))
        assert errors[1] < errors[0] / 2.5  # ~4x for h halving

