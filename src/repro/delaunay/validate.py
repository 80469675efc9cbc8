"""Structural validation of a finished mesh.

:func:`validate_mesh` is the one-call report (conformity, exact
orientation, Delaunay violations, segment preservation, duplicate
points, area accounting, boundary loops) the analysis report, the fuzz
suites and the perf ledger's workloads assert on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

import numpy as np

from .mesh import TriMesh

__all__ = ["validate_mesh", "ValidationReport"]


@dataclass
class ValidationReport:
    n_points: int
    n_triangles: int
    conforming: bool
    inverted_triangles: int
    zero_area_triangles: int
    delaunay_violations: int
    segments_present: bool
    duplicate_points: int
    total_area: float
    boundary_loops: int

    @property
    def ok(self) -> bool:
        return (
            self.conforming
            and self.inverted_triangles == 0
            and self.segments_present
            and self.duplicate_points == 0
        )

    def summary(self) -> str:
        status = "OK" if self.ok else "INVALID"
        return (
            f"[{status}] {self.n_triangles} tris / {self.n_points} pts; "
            f"conforming={self.conforming}, inverted={self.inverted_triangles}, "
            f"zero-area={self.zero_area_triangles}, "
            f"delaunay-violations={self.delaunay_violations}, "
            f"segments-present={self.segments_present}, "
            f"dup-points={self.duplicate_points}, "
            f"boundary-loops={self.boundary_loops}, "
            f"area={self.total_area:.6g}"
        )


def validate_mesh(mesh: TriMesh, *, check_delaunay: bool = True
                  ) -> ValidationReport:
    """Structural validation report for a finished mesh."""
    areas = mesh.areas() if mesh.n_triangles else np.empty(0)
    # Orientation must be decided EXACTLY: the float area of a robustly
    # CCW sliver (boundary-layer aspect ratios, cusp-guarded corners) can
    # round to zero or slightly negative.
    from ..geometry.predicates import orient2d

    inverted = 0
    zero = 0
    suspicious = np.flatnonzero(areas <= 0)
    for t in suspicious:
        a, b, c = mesh.triangles[t]
        o = orient2d(mesh.points[a], mesh.points[b], mesh.points[c])
        if o < 0:
            inverted += 1
        elif o == 0:
            zero += 1
    uniq = np.unique(mesh.points, axis=0)
    dups = mesh.n_points - len(uniq)
    violations = (
        mesh.delaunay_violations(respect_segments=True)
        if (check_delaunay and mesh.n_triangles) else 0
    )

    # Count closed boundary loops by walking boundary edges.
    be = mesh.boundary_edges()
    loops = 0
    if len(be):
        succ: Dict[int, List[int]] = {}
        for u, v in be.tolist():
            succ.setdefault(u, []).append(v)
            succ.setdefault(v, []).append(u)
        seen: Set[int] = set()
        for start in succ:
            if start in seen:
                continue
            loops += 1
            stack = [start]
            while stack:
                n = stack.pop()
                if n in seen:
                    continue
                seen.add(n)
                stack.extend(succ[n])

    return ValidationReport(
        n_points=mesh.n_points,
        n_triangles=mesh.n_triangles,
        conforming=mesh.is_conforming(),
        inverted_triangles=inverted,
        zero_area_triangles=zero,
        delaunay_violations=violations,
        segments_present=mesh.contains_segments(mesh.segments),
        duplicate_points=dups,
        total_area=float(np.abs(areas).sum()) if len(areas) else 0.0,
        boundary_loops=loops,
    )
