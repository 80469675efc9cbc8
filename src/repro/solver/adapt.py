"""Metric-driven anisotropic adaptation loop (solve -> adapt -> re-solve).

This module closes the loop the paper's meshes exist for: a P1 FEM
solve on the current mesh feeds Hessian recovery
(:meth:`repro.metric.MetricField.from_hessian`), the recovered metric is
gradation-limited, the mesh is adapted to it with the local-operation
engine (:func:`repro.delaunay.adapt_mesh`), and the problem is re-solved
on the adapted mesh — until the error-vs-DOF curve flattens or the cycle
budget runs out.

The built-in model problem is an interior shear layer,

    u(x, y) = tanh(s / delta),   s = y - 0.5 - A sin(2 pi x),

a Poisson problem ``-Lap(u) = f`` with exact Dirichlet data whose
solution has O(delta) normal thickness along a curved front — the
canonical demonstration that an anisotropic (metric-adapted) mesh
reaches a target L2 error at far fewer DOF than uniform refinement.

The adapt step can optionally be dispatched through the runtime
executor (``backend="processes"``) using the serde-packed work item
from :mod:`repro.core.pipeline`; serde round trips are exact, so every
backend produces bit-identical adapted meshes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..delaunay.adapt import HIGH_BAND, LOW_BAND, AdaptReport, adapt_mesh
from ..delaunay.mesh import TriMesh
from ..metric import MetricField

__all__ = [
    "ShearLayerProblem",
    "AdaptCycle",
    "AdaptLoopResult",
    "solve_on_mesh",
    "l2_error",
    "adapt_step",
    "adapt_loop",
]


# ----------------------------------------------------------------------
# Model problem
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShearLayerProblem:
    """``-Lap(u) = f`` on the unit square with an interior shear layer.

    ``u = tanh(s / delta)`` with ``s = y - 0.5 - amplitude sin(2 pi x)``;
    Dirichlet data is the exact solution on the whole boundary.  The
    layer thickness ``delta`` controls how anisotropic the optimal mesh
    is (aspect ratio ~ layer curvature radius / delta).
    """

    delta: float = 0.05
    amplitude: float = 0.1

    def signed_distance(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return y - 0.5 - self.amplitude * np.sin(2.0 * np.pi * x)

    def exact(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.tanh(self.signed_distance(x, y) / self.delta)

    def forcing(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``f = -Lap(u)`` in closed form.

        With ``t = tanh(s/delta)``:  ``u_xx + u_yy =
        (1 - t^2) [ s_xx / delta - 2 t (s_x^2 + 1) / delta^2 ]``
        (``s_y = 1``, ``s_yy = 0``).
        """
        two_pi = 2.0 * np.pi
        s = self.signed_distance(x, y)
        s_x = -self.amplitude * two_pi * np.cos(two_pi * x)
        s_xx = self.amplitude * two_pi * two_pi * np.sin(two_pi * x)
        t = np.tanh(s / self.delta)
        lap = (1.0 - t * t) * (
            s_xx / self.delta
            - 2.0 * t * (s_x * s_x + 1.0) / (self.delta * self.delta)
        )
        return -lap


# ----------------------------------------------------------------------
# Solve / error
# ----------------------------------------------------------------------
def solve_on_mesh(mesh: TriMesh, problem: ShearLayerProblem) -> np.ndarray:
    """P1 FEM solution of the model problem on ``mesh``.

    Stiffness from :func:`repro.solver.fem.assemble_stiffness`, load by
    lumped-mass quadrature of the closed-form forcing, exact Dirichlet
    data on every boundary node, Jacobi-PCG solve to 1e-10.
    """
    # The solver modules load scipy.sparse; importers that only need the
    # problem classes or ``adapt_loop``'s signature do not pay for it.
    from .convergence import pcg
    from .fem import (apply_dirichlet, assemble_mass, assemble_stiffness,
                      boundary_nodes)

    x, y = mesh.points[:, 0], mesh.points[:, 1]
    A = assemble_stiffness(mesh)
    M = assemble_mass(mesh, lumped=True)
    b = M @ problem.forcing(x, y)
    nodes = boundary_nodes(mesh)
    A, b = apply_dirichlet(A, b, nodes, problem.exact(x[nodes], y[nodes]))
    res = pcg(A, b, tol=1e-10)
    return res.x


def l2_error(mesh: TriMesh, u: np.ndarray,
             problem: ShearLayerProblem) -> float:
    """Lumped-mass L2 norm of ``u - u_exact`` over the mesh."""
    from .fem import assemble_mass

    x, y = mesh.points[:, 0], mesh.points[:, 1]
    e = np.asarray(u, dtype=np.float64) - problem.exact(x, y)
    M = assemble_mass(mesh, lumped=True)
    return float(math.sqrt(max(e @ (M @ e), 0.0)))


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------
@dataclass
class AdaptCycle:
    """Per-cycle record of the adaptation loop."""

    cycle: int
    dof: int
    error: float
    conformity: float
    report: Optional[AdaptReport] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "cycle": self.cycle,
            "dof": self.dof,
            "error": self.error,
            "conformity": self.conformity,
        }
        if self.report is not None:
            out["report"] = self.report.to_dict()
        return out


@dataclass
class AdaptLoopResult:
    """Final mesh/solution plus the error-vs-DOF history."""

    mesh: TriMesh
    solution: np.ndarray
    metric: Optional[MetricField]
    history: List[AdaptCycle] = dataclass_field(default_factory=list)
    converged: bool = False

    @property
    def error(self) -> float:
        return self.history[-1].error if self.history else math.nan

    @property
    def dof(self) -> int:
        return self.history[-1].dof if self.history else 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "converged": self.converged,
            "history": [c.to_dict() for c in self.history],
        }


def adapt_step(mesh: TriMesh, metric: MetricField, *,
               holes: Sequence[Tuple[float, float]],
               max_passes: int, smooth_iterations: int,
               protect_segments: bool,
               backend: Optional[str]) -> Tuple[TriMesh, AdaptReport]:
    """Run one adapt step locally or through the runtime executor."""
    if backend is None:
        return adapt_mesh(
            mesh, metric, holes=holes, max_passes=max_passes,
            smooth_iterations=smooth_iterations,
            protect_segments=protect_segments,
        )
    from ..core import pipeline
    from ..runtime import executor

    impl = executor.get_backend(backend)
    payload = pipeline.pack_adapt_item(
        mesh, metric, holes=holes, max_passes=max_passes,
        smooth_iterations=smooth_iterations,
        protect_segments=protect_segments,
    )
    (out,) = impl.map_workitems(pipeline.adapt_workitem, [payload])
    return pipeline.unpack_adapt_result(out)


def adapt_loop(
    mesh: TriMesh,
    *,
    problem: Optional[ShearLayerProblem] = None,
    cycles: int = 5,
    eps: float = 5e-3,
    h_min: float = 1e-3,
    h_max: float = 0.5,
    grading: float = 0.5,
    max_passes: int = 3,
    smooth_iterations: int = 1,
    holes: Sequence[Tuple[float, float]] = (),
    protect_segments: bool = False,
    flatten_rtol: float = 0.02,
    backend: Optional[str] = None,
) -> AdaptLoopResult:
    """Drive solve -> recover -> limit -> adapt until the error flattens.

    Each cycle: solve the model problem on the current mesh, record
    ``(dof, L2 error)``, build the Hessian metric for target
    interpolation error ``eps`` with spacing clamped to
    ``[h_min, h_max]``, limit its gradation over the mesh edge graph
    with slope ``grading``, and adapt the mesh to the limited metric.
    The loop stops early once the relative error improvement of a cycle
    drops below ``flatten_rtol`` (the error-vs-DOF curve has flattened:
    the mesh is resolution-limited by ``eps``, not by adaptation);
    ``converged`` reports that, and stays ``False`` when the loop
    stopped because the last cycle made the error *worse*.

    ``backend`` (``None`` = in-process) dispatches the adapt step
    through the runtime executor — useful to co-schedule many loops, and
    exercised by the backend-parity tests.
    """
    if cycles < 1:
        raise ValueError("need at least one cycle")
    problem = problem or ShearLayerProblem()
    history: List[AdaptCycle] = []
    metric: Optional[MetricField] = None
    converged = False

    u = solve_on_mesh(mesh, problem)
    err = l2_error(mesh, u, problem)
    history.append(AdaptCycle(cycle=0, dof=mesh.n_points, error=err,
                              conformity=math.nan))

    for cycle in range(1, cycles + 1):
        metric = MetricField.from_hessian(
            mesh, u, eps=eps, h_min=h_min, h_max=h_max)
        metric = metric.limit_gradation(mesh.edges(), grading=grading)
        mesh, report = adapt_step(
            mesh, metric, holes=holes, max_passes=max_passes,
            smooth_iterations=smooth_iterations,
            protect_segments=protect_segments, backend=backend,
        )
        u = solve_on_mesh(mesh, problem)
        prev = err
        err = l2_error(mesh, u, problem)
        history.append(AdaptCycle(
            cycle=cycle, dof=mesh.n_points, error=err,
            conformity=report.conformity_after, report=report,
        ))
        if prev > 0 and (prev - err) < flatten_rtol * prev:
            converged = err <= prev  # a rise also stops, unconverged
            break

    return AdaptLoopResult(mesh=mesh, solution=u, metric=metric,
                           history=history, converged=converged)
