"""Sizing functions: target element *area* as a function of position.

The paper (Section II.E) drives both the inviscid-region Delaunay
refinement ("Triangle's ability to use a user-defined area constraint")
and the graded decoupling paths from a single sizing function, so that
element size grows smoothly "based on distance from the initial geometry
towards the far-field".  This module provides that function family plus
the decoupling edge length of Eq. (1):

    k = (1/2) * sqrt(A / sqrt(2))

where ``A`` is the desired element area at the evaluation point — the
conservative edge length such that Ruppert refinement with bound sqrt(2)
and area bound ``A`` will never need to split a border edge of length
2k or shorter.
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence, Tuple

import numpy as np

__all__ = [
    "SizingFunction",
    "UniformSizing",
    "GradedDistanceSizing",
    "RadialSizing",
    "areas_at",
    "decoupling_edge_length",
]


class SizingFunction(Protocol):
    """Protocol: ``area_at(x, y)`` returns the max triangle area there."""

    def area_at(self, x: float, y: float) -> float: ...


def areas_at(sizing: SizingFunction, xy: np.ndarray) -> Sequence[float]:
    """``sizing.area_at`` of every row of ``xy``, in one array call when
    the sizing has one (``area_at_many``: the same floats)."""
    many = getattr(sizing, "area_at_many", None)
    if many is not None:
        return many(xy)
    return [sizing.area_at(x, y) for x, y in np.asarray(xy).tolist()]


def decoupling_edge_length(area: float) -> float:
    """Eq. (1): k = 1/2 * sqrt(A / sqrt(2)).

    The length scale used when marching vertices along decoupling paths;
    spacing D is kept within [2k/sqrt(3), 2k) so that border edges satisfy
    both Ruppert's circumradius-to-shortest-edge bound sqrt(2) and the
    local area bound when the neighbouring subdomains are refined
    independently.
    """
    if not 0 < area < math.inf:
        raise ValueError(f"area must be positive and finite, got {area}")
    return 0.5 * math.sqrt(area / math.sqrt(2.0))


def _positive(name: str, value: float, cap: bool = False) -> float:
    """``value`` as a float, or ``ValueError`` naming ``name`` unless it
    is a positive finite number (or, for a ``cap``, ``inf``: no cap)."""
    if not (0.0 < value < math.inf or cap and value == math.inf):
        raise ValueError(f"{name} must be a positive finite number"
                         f"{' or inf' if cap else ''}, got {float(value)!r}")
    return float(value)


def _grading(value: float) -> float:
    if not 0.0 <= value < math.inf:
        raise ValueError(
            f"grading must be a finite number >= 0, got {float(value)!r}")
    return float(value)


class UniformSizing:
    """Constant maximum area everywhere."""

    def __init__(self, area: float) -> None:
        self.area = _positive("area", area)

    lipschitz = (0.0, 0.0)  #: see :attr:`GradedDistanceSizing.lipschitz`

    def area_at(self, x: float, y: float) -> float:
        return self.area

    def __call__(self, x: float, y: float) -> float:
        return self.area_at(x, y)


class GradedDistanceSizing:
    """Geometry-distance graded sizing (the paper's inviscid gradation).

    Element *edge length* grows linearly with distance to the body:
    ``h(d) = h0 + grading * d``, capped at ``h_max``; area is the area of
    an equilateral triangle with that edge: ``A = sqrt(3)/4 * h^2``.
    Distance is measured to a sample of body surface points (supplied as
    an ``(n, 2)`` array), queried through a vectorised min-distance — the
    dominant cost pattern is thousands of queries against a fixed point
    cloud, so the implementation stores the cloud contiguously.

    Parameters
    ----------
    surface_points:
        Points sampling the geometry (airfoil surface or BL outer border).
    h0:
        Edge length at the surface.
    grading:
        Growth rate of edge length per unit distance (dimensionless);
        values in [0.1, 0.5] give the smooth gradations of paper Fig. 10.
    h_max:
        Optional cap on edge length (far-field size).
    """

    def __init__(self, surface_points: np.ndarray, h0: float,
                 grading: float = 0.3, h_max: float = math.inf) -> None:
        pts = np.ascontiguousarray(np.asarray(surface_points, np.float64))
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
            raise ValueError("surface_points must be a nonempty (n, 2) array")
        self._pts = pts
        self.h0 = _positive("h0", h0)
        self.grading = _grading(grading)
        self.h_max = _positive("h_max", h_max, cap=True)
        # Coarse acceleration: keep a decimated cloud for the far field and
        # the exact covering radius ("pad") of the decimation — the largest
        # distance from any surface point to its nearest coarse sample.
        step = max(1, len(pts) // 256)
        coarse = pts[::step]
        if step == 1:
            self._coarse_pad = 0.0
        else:
            worst = 0.0
            for lo in range(0, len(pts), 4096):  # chunked: bounded memory
                chunk = pts[lo:lo + 4096]
                d2 = ((chunk[:, None, :] - coarse[None, :, :]) ** 2
                      ).sum(axis=2)
                worst = max(worst, float(d2.min(axis=1).max()))
            self._coarse_pad = math.sqrt(worst)
        # Both clouds as contiguous x / y columns, for the queries' hypot.
        self._px, self._py = np.ascontiguousarray(pts.T)
        self._cx, self._cy = np.ascontiguousarray(coarse.T)

    @property
    def lipschitz(self) -> Tuple[float, float]:
        """``(L, slack)`` with ``|h(p) - h(q)| <= L * |p - q| + slack``
        for the edge length ``h = sqrt(area_at / (sqrt(3)/4))``: distance
        to a point cloud is 1-Lipschitz, and the far branch of
        :meth:`distance_to_surface` is within ``pad / 2`` of the true
        distance (it jumps where it takes over), hence the slack."""
        return self.grading, self.grading * self._coarse_pad

    def distance_to_surface(self, x: float, y: float) -> float:
        dc = float(np.hypot(self._cx - x, self._cy - y).min())
        if dc > 20.0 * self._coarse_pad:
            # Far away: exact distance lies in [dc - pad, dc]; return the
            # midpoint (relative error < 3% out here, where the sizing
            # gradient is shallow anyway).
            return max(dc - 0.5 * self._coarse_pad, 0.0)
        return float(np.hypot(self._px - x, self._py - y).min())

    def edge_length_at(self, x: float, y: float) -> float:
        d = self.distance_to_surface(x, y)
        return min(self.h0 + self.grading * d, self.h_max)

    def area_at(self, x: float, y: float) -> float:
        h = self.edge_length_at(x, y)
        return math.sqrt(3.0) / 4.0 * h * h

    def area_at_many(self, xy: np.ndarray) -> np.ndarray:
        """:meth:`area_at` of every row of ``xy`` in one pass over the
        cloud — the scalar arithmetic term for term, so the same floats."""
        xy = np.asarray(xy, np.float64).reshape(-1, 2)
        rows = max(1, 2 ** 16 // len(self._px))  # chunked: bounded memory
        if len(xy) > rows:
            return np.concatenate([self.area_at_many(xy[lo:lo + rows])
                                   for lo in range(0, len(xy), rows)])
        x, y = xy[:, :1], xy[:, 1:]
        d = np.hypot(self._cx - x, self._cy - y).min(axis=1)
        far = d > 20.0 * self._coarse_pad
        d[far] = np.maximum(d[far] - 0.5 * self._coarse_pad, 0.0)
        d[~far] = np.hypot(self._px - x[~far], self._py - y[~far]
                           ).min(axis=1)
        h = np.minimum(self.h0 + self.grading * d, self.h_max)
        return math.sqrt(3.0) / 4.0 * h * h

    def __call__(self, x: float, y: float) -> float:
        return self.area_at(x, y)


class RadialSizing:
    """Sizing graded with distance from a centre point (analytic, cheap).

    Useful for tests and for the decoupling unit experiments where an
    exactly known analytic gradation is wanted.
    """

    def __init__(self, center: Tuple[float, float], h0: float,
                 grading: float = 0.3, h_max: float = math.inf) -> None:
        self.center = (float(center[0]), float(center[1]))
        self.h0 = _positive("h0", h0)
        self.grading = _grading(grading)
        self.h_max = _positive("h_max", h_max, cap=True)

    @property
    def lipschitz(self) -> Tuple[float, float]:
        """See :attr:`GradedDistanceSizing.lipschitz`."""
        return self.grading, 0.0

    def edge_length_at(self, x: float, y: float) -> float:
        d = math.hypot(x - self.center[0], y - self.center[1])
        return min(self.h0 + self.grading * d, self.h_max)

    def area_at(self, x: float, y: float) -> float:
        h = self.edge_length_at(x, y)
        return math.sqrt(3.0) / 4.0 * h * h

    def __call__(self, x: float, y: float) -> float:
        return self.area_at(x, y)
