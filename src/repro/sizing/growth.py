"""Boundary-layer growth function (normal spacing along extrusion rays).

Following Garimella & Shephard (paper ref. [1], Section II.A), a growth
function prescribes the wall-normal distance of the k-th boundary-layer
point along a ray.  The mesher's law is the *geometric* one, set by the
two numbers of :class:`~repro.core.bl_pipeline.BoundaryLayerConfig`
(``first_spacing``, ``growth_ratio``):

* ``height(k)``   — cumulative offset of the k-th layer (k = 1, 2, ...),
* ``spacing(k)``  — thickness of layer k (``height(k) - height(k-1)``),
* ``first_spacing`` attribute — the wall spacing (CFD's y-plus control).

Layer indices start at 1; ``height(0) == 0`` (the wall).
"""

from __future__ import annotations

__all__ = ["GeometricGrowth"]


class GeometricGrowth:
    """Geometric progression: spacing(k) = delta0 * ratio**(k-1).

    ``height(k) = delta0 * (ratio**k - 1) / (ratio - 1)`` for ratio != 1.
    The aerospace workhorse: a wall spacing of 1e-3..1e-6 chord and a
    ratio of 1.1-1.3.
    """

    def __init__(self, first_spacing: float, ratio: float = 1.2) -> None:
        if first_spacing <= 0:
            raise ValueError("first_spacing must be positive")
        if ratio < 1.0:
            raise ValueError("ratio must be >= 1 (shrinking layers stack up)")
        self.first_spacing = float(first_spacing)
        self.ratio = float(ratio)

    def height(self, k: int) -> float:
        if k < 0:
            raise ValueError("negative layer index")
        if k == 0:
            return 0.0
        if self.ratio == 1.0:
            return self.first_spacing * k
        return self.first_spacing * (self.ratio**k - 1.0) / (self.ratio - 1.0)

    def spacing(self, k: int) -> float:
        # Closed form (exactly monotone); the generic height difference
        # would wobble in the last ulp.
        if k < 1:
            raise ValueError("layer index starts at 1")
        return self.first_spacing * self.ratio ** (k - 1)
