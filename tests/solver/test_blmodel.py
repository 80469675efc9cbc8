"""Tests for the boundary-layer model problem (manufactured solution)."""

import numpy as np
import pytest

from repro.solver.blmodel import (
    exact_solution,
    isotropic_mesh,
    layered_mesh,
    solve_bl_model,
)


class TestMeshes:
    def test_layered_mesh_structure(self):
        mesh = layered_mesh(1e-4, nx=10)
        assert mesh.is_conforming()
        assert np.all(mesh.areas() > 0)
        # First layer height ~ sqrt(eps)/4 = 2.5e-3.
        ys = np.unique(mesh.points[:, 1])
        assert ys[1] == pytest.approx(2.5e-3)
        # Strongly anisotropic near the wall.
        assert mesh.aspect_ratios().max() > 10

    def test_layered_mesh_covers_square(self):
        mesh = layered_mesh(1e-4)
        assert np.abs(mesh.areas()).sum() == pytest.approx(1.0)

    def test_isotropic_mesh_size(self):
        mesh = isotropic_mesh(800)
        assert 300 <= mesh.n_points <= 3000
        assert np.abs(mesh.areas()).sum() == pytest.approx(1.0)


class TestSolve:
    def test_exact_on_boundary(self):
        mesh = layered_mesh(1e-4)
        res = solve_bl_model(mesh, 1e-4)
        exact = exact_solution(mesh.points, 1e-4)
        # Dirichlet data reproduced exactly on the boundary.
        from repro.solver.fem import boundary_nodes

        bn = boundary_nodes(mesh)
        assert res.l2_error < 0.05

    def test_error_decreases_with_refinement(self):
        # The solution varies in y only, so refine the isotropic mesh (the
        # layered one resolves the layer at any nx).
        e_coarse = solve_bl_model(isotropic_mesh(200), 1e-2).l2_error
        e_fine = solve_bl_model(isotropic_mesh(2000), 1e-2).l2_error
        assert e_fine < e_coarse

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_bl_model(layered_mesh(1e-4), eps=0.0)

    def test_anisotropic_wins_per_dof(self):
        """The paper's quantitative motivation: at equal DOF, the layered
        anisotropic mesh resolves the boundary layer far better than the
        isotropic quality mesh."""
        eps = 1e-4
        aniso = layered_mesh(eps, nx=20)
        res_a = solve_bl_model(aniso, eps)
        iso = isotropic_mesh(res_a.n_dof)
        res_i = solve_bl_model(iso, eps)
        # Comparable DOF budgets.
        assert 0.2 <= res_i.n_dof / res_a.n_dof <= 8.0
        # Anisotropic error is at least 3x smaller at comparable size.
        assert res_a.l2_error < res_i.l2_error / 3.0

    def test_isotropic_needs_many_more_dofs(self):
        """Matching the aniso accuracy isotropically costs a multiple in
        DOF — the Fig. 16 element-count mechanism."""
        eps = 4e-4
        res_a = solve_bl_model(layered_mesh(eps, nx=16), eps)
        # Find the isotropic size that reaches the aniso error.
        needed = None
        for target in (res_a.n_dof, 4 * res_a.n_dof, 16 * res_a.n_dof):
            res_i = solve_bl_model(isotropic_mesh(target), eps)
            if res_i.l2_error <= res_a.l2_error:
                needed = res_i.n_dof
                break
        if needed is None:
            needed = float("inf")
        assert needed >= 3 * res_a.n_dof
