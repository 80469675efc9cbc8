"""Flow-solver substrate: P1 FEM, potential flow, iterative convergence."""

from .._lazy import lazy_exports

#: re-exported name -> defining submodule, imported on first use: only
#: what is asked for loads, so ``repro.solver.adapt``'s problem classes
#: do not cost ``scipy.sparse``.
_EXPORTS = {
    "AdaptCycle": "adapt",
    "AdaptLoopResult": "adapt",
    "ShearLayerProblem": "adapt",
    "adapt_loop": "adapt",
    "l2_error": "adapt",
    "solve_on_mesh": "adapt",
    "BLModelResult": "blmodel",
    "exact_solution": "blmodel",
    "isotropic_mesh": "blmodel",
    "layered_mesh": "blmodel",
    "solve_bl_model": "blmodel",
    "SolveResult": "convergence",
    "jacobi": "convergence",
    "pcg": "convergence",
    "apply_dirichlet": "fem",
    "assemble_mass": "fem",
    "assemble_stiffness": "fem",
    "boundary_nodes": "fem",
    "gradients": "fem",
    "FlowResult": "flow",
    "solve_potential_flow": "flow",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = sorted(_EXPORTS)
