"""Adaptation loop: model problem exactness, error decrease, dispatch.

The shear-layer model problem has a closed-form solution, so the loop's
claims are directly measurable: the FEM solve converges to the exact
solution, each adaptation cycle reduces the L2 error (until the
eps-floor), and the executor-dispatched adapt step is byte-identical to
the in-process one.
"""

import numpy as np
import pytest

from repro.delaunay import refine_pslg
from repro.metric import MetricField
from repro.runtime import serde
from repro.solver.adapt import (
    AdaptLoopResult,
    ShearLayerProblem,
    adapt_loop,
    l2_error,
    solve_on_mesh,
)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
SQUARE_SEGS = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])


def square_mesh(max_area=0.02):
    return refine_pslg(UNIT_SQUARE.copy(), SQUARE_SEGS.copy(),
                       max_area=max_area)


class TestModelProblem:
    def test_forcing_matches_numerical_laplacian(self):
        """f = -Lap(u) checked against central differences."""
        prob = ShearLayerProblem(delta=0.2, amplitude=0.1)
        rng = np.random.default_rng(0)
        x = rng.uniform(0.1, 0.9, 50)
        y = rng.uniform(0.1, 0.9, 50)
        h = 1e-5
        lap = (prob.exact(x + h, y) + prob.exact(x - h, y)
               + prob.exact(x, y + h) + prob.exact(x, y - h)
               - 4.0 * prob.exact(x, y)) / (h * h)
        np.testing.assert_allclose(prob.forcing(x, y), -lap,
                                   rtol=1e-4, atol=1e-4)

    def test_fem_solution_converges_to_exact(self):
        """Halving h reduces the L2 error (roughly O(h^2) for P1)."""
        prob = ShearLayerProblem(delta=0.3, amplitude=0.05)
        errs = []
        for area in (0.02, 0.005):
            mesh = square_mesh(area)
            u = solve_on_mesh(mesh, prob)
            errs.append(l2_error(mesh, u, prob))
        assert errs[1] < errs[0] / 2.5

    def test_l2_error_zero_for_exact_solution(self):
        prob = ShearLayerProblem()
        mesh = square_mesh()
        u = prob.exact(mesh.points[:, 0], mesh.points[:, 1])
        assert l2_error(mesh, u, prob) < 1e-12


class TestAdaptLoop:
    @pytest.fixture(scope="class")
    def loop_result(self):
        return adapt_loop(square_mesh(0.02), cycles=3, eps=2e-2,
                          h_min=5e-3, h_max=0.3,
                          problem=ShearLayerProblem())

    def test_error_drops_sharply(self, loop_result):
        first = loop_result.history[0].error
        assert loop_result.error < first / 10.0

    def test_half_the_dof_of_uniform_refinement_at_equal_error(
            self, loop_result):
        """What the metric stack is for: uniform refinement needs at
        least twice the DOF to reach the adapted mesh's L2 error."""
        prob = ShearLayerProblem()
        for area in (0.005, 0.00125, 0.0003125, 7.8125e-05):
            mesh = square_mesh(area)
            err = l2_error(mesh, solve_on_mesh(mesh, prob), prob)
            if err <= loop_result.error:
                break
        # Past the ladder's end the uniform mesh is still short of the
        # target, which only widens the gap.
        assert 2 * loop_result.dof <= mesh.n_points

    def test_history_records_every_cycle(self, loop_result):
        assert loop_result.history[0].cycle == 0
        assert loop_result.history[0].report is None
        for i, c in enumerate(loop_result.history):
            assert c.cycle == i
            if i > 0:
                assert c.report is not None
                assert c.report.splits + c.report.collapses > 0

    def test_final_mesh_valid(self, loop_result):
        mesh = loop_result.mesh
        assert mesh.is_conforming()
        assert np.all(mesh.areas() > 0)
        assert len(loop_result.solution) == mesh.n_points

    def test_to_dict_roundtrips_counters(self, loop_result):
        d = loop_result.to_dict()
        assert len(d["history"]) == len(loop_result.history)
        assert d["history"][1]["report"]["splits"] > 0

    def test_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            adapt_loop(square_mesh(), cycles=0)

    @pytest.mark.parametrize("errors,converged", [
        ([1.0, 0.5, 0.495], True),     # improvement fell below 2 %
        ([1.0, 0.5, 0.5], True),       # exactly flat
        ([1.0, 0.5, 0.6], False),      # the error rose: stop, unconverged
        ([1.0, 0.5, 0.25], False),     # still improving at the cycle cap
    ])
    def test_converged_only_on_a_non_negative_flattening(
            self, monkeypatch, errors, converged):
        """Scripted error sequence, adapt step stubbed out: every case
        runs two cycles and returns the last mesh; only ``converged``
        tells a flattened curve from a cycle that made things worse."""
        from repro.delaunay.adapt import AdaptReport
        from repro.solver import adapt as loop_mod

        script = iter(errors)
        monkeypatch.setattr(loop_mod, "l2_error",
                            lambda mesh, u, problem: next(script))
        monkeypatch.setattr(loop_mod, "adapt_step",
                            lambda mesh, metric, **kw: (mesh, AdaptReport()))
        mesh = square_mesh(0.05)
        result = adapt_loop(mesh, cycles=2)
        assert [c.error for c in result.history] == errors
        assert result.converged is converged
        assert result.mesh is mesh


class TestExecutorDispatch:
    def test_serial_backend_matches_inprocess(self):
        """Backend-dispatched adapt step == in-process, bit for bit."""
        mesh = square_mesh()
        r_local = adapt_loop(mesh, cycles=1, eps=3e-2, h_min=1e-2,
                             h_max=0.3, backend=None)
        r_exec = adapt_loop(mesh, cycles=1, eps=3e-2, h_min=1e-2,
                            h_max=0.3, backend="serial")
        h1 = serde.canonical_hash(serde.pack_mesh(r_local.mesh))
        h2 = serde.canonical_hash(serde.pack_mesh(r_exec.mesh))
        assert h1 == h2
        assert r_local.error == r_exec.error
