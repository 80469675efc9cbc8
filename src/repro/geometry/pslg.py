"""Planar straight-line graph (PSLG) input geometry.

The mesher's input (paper Section II.A) is a PSLG: the discretised surface
of one or more airfoil elements, each a closed polygonal loop, plus an
optional far-field boundary.  This module stores the structure and provides
the loop-level accessors the boundary-layer generator needs: ordered
vertices per loop, forward/backward neighbours, edge tangents, orientation
normalisation, and bounding geometry.

Conventions
-----------
* Loops representing *solid bodies* (airfoil elements) are stored
  counter-clockwise, so the outward normal (into the fluid) at an edge is
  the left perpendicular of the edge tangent... for a CCW loop traversed in
  order, the interior is on the left, hence the *outward* normal is the
  right perpendicular.  We normalise all body loops to CCW on construction
  and compute outward normals accordingly.
* Vertex coordinates are stored in one contiguous ``(n, 2)`` float64 array
  (structure-of-arrays, cache-friendly iteration per the implementation
  notes in paper Section III).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .aabb import AABB
from .predicates import exact_eq
from .primitives import polygon_area

__all__ = ["Loop", "PSLG"]


@dataclass
class Loop:
    """A closed polygonal loop: indices into the owning PSLG's vertex array.

    ``indices[k]`` and ``indices[(k+1) % len]`` bound edge ``k``.
    """

    indices: np.ndarray
    name: str = ""
    is_body: bool = True  # solid body (airfoil element) vs far-field border

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if len(self.indices) < 3:
            raise ValueError(f"loop {self.name!r} needs >= 3 vertices")
        if len(np.unique(self.indices)) != len(self.indices):
            raise ValueError(f"loop {self.name!r} repeats a vertex")

    def __len__(self) -> int:
        return len(self.indices)

    def edges(self) -> Iterator[Tuple[int, int]]:
        n = len(self.indices)
        for k in range(n):
            yield int(self.indices[k]), int(self.indices[(k + 1) % n])


class PSLG:
    """Planar straight-line graph with named closed loops.

    Parameters
    ----------
    points:
        ``(n, 2)`` array of vertex coordinates.
    loops:
        Sequence of :class:`Loop` (or raw index sequences, promoted to
        body loops).  Body loops are re-oriented counter-clockwise.
    """

    def __init__(self, points: np.ndarray, loops: Sequence) -> None:
        self.points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must have shape (n, 2)")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("PSLG points must be finite")

        self.loops: List[Loop] = []
        for i, lp in enumerate(loops):
            if not isinstance(lp, Loop):
                lp = Loop(np.asarray(lp), name=f"loop{i}")
            if lp.indices.max() >= len(self.points) or lp.indices.min() < 0:
                raise ValueError(f"loop {lp.name!r} indexes out of range")
            pts = self.points[lp.indices]
            if polygon_area(pts) < 0:
                lp = Loop(lp.indices[::-1].copy(), name=lp.name,
                          is_body=lp.is_body)
            self.loops.append(lp)

        used = np.zeros(len(self.points), dtype=bool)
        for lp in self.loops:
            if used[lp.indices].any():
                raise ValueError("loops share vertices; PSLG loops must be disjoint")
            used[lp.indices] = True

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def body_loops(self) -> List[Loop]:
        return [lp for lp in self.loops if lp.is_body]

    def loop_points(self, loop: Loop) -> np.ndarray:
        """Coordinates of a loop's vertices in order, shape ``(m, 2)``."""
        return self.points[loop.indices]

    def bbox(self, *, bodies_only: bool = False) -> AABB:
        if bodies_only:
            idx = np.concatenate([lp.indices for lp in self.body_loops])
            return AABB.of_points(self.points[idx])
        return AABB.of_points(self.points)

    def chord_length(self) -> float:
        """Reference chord: the x-extent of the union of body loops.

        Aerospace convention — the far-field extent is expressed in chord
        lengths (paper Section II.E uses 30-50 chords).
        """
        box = self.bbox(bodies_only=True)
        return box.width

    # ------------------------------------------------------------------
    # Per-loop differential quantities
    # ------------------------------------------------------------------
    def loop_edge_tangents(self, loop: Loop) -> np.ndarray:
        """Unit tangents of each loop edge, shape ``(m, 2)``."""
        pts = self.loop_points(loop)
        nxt = np.roll(pts, -1, axis=0)
        d = nxt - pts
        lengths = np.linalg.norm(d, axis=1)
        if np.any(exact_eq(lengths, 0.0)):
            raise ValueError("zero-length edge in loop")
        return d / lengths[:, None]

    def loop_edge_lengths(self, loop: Loop) -> np.ndarray:
        pts = self.loop_points(loop)
        nxt = np.roll(pts, -1, axis=0)
        return np.linalg.norm(nxt - pts, axis=1)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_loops(cls, loop_points: Sequence[np.ndarray],
                   names: Optional[Sequence[str]] = None,
                   is_body: Optional[Sequence[bool]] = None) -> "PSLG":
        """Build a PSLG from per-loop coordinate arrays."""
        names = list(names) if names is not None else [
            f"loop{i}" for i in range(len(loop_points))
        ]
        is_body = list(is_body) if is_body is not None else [True] * len(loop_points)
        all_pts: List[np.ndarray] = []
        loops: List[Loop] = []
        offset = 0
        for pts, name, body in zip(loop_points, names, is_body):
            pts = np.asarray(pts, dtype=np.float64)
            # Drop a duplicated closing vertex if present.
            if len(pts) > 1 and np.allclose(pts[0], pts[-1]):
                pts = pts[:-1]
            all_pts.append(pts)
            loops.append(Loop(np.arange(offset, offset + len(pts)),
                              name=name, is_body=body))
            offset += len(pts)
        return cls(np.vstack(all_pts), loops)

    def __repr__(self) -> str:
        return (f"PSLG(n_points={self.n_points}, "
                f"loops={[lp.name for lp in self.loops]})")
