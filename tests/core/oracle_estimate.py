"""``core/decouple.estimate_triangles`` as it was until ISSUE 21: one
rejection sample, one scalar point-in-polygon test and one scalar sizing
call at a time, verbatim (with the point-in-polygon test it called).
``src/`` makes the same estimate in one array pass; the estimates order
the decoupling heap, so they must be equal bit for bit
(``test_decouple.py::TestEstimateMatchesOracle``).
"""

from typing import List

import numpy as np

from repro.core.decouple import (
    ESTIMATE_SAMPLES,
    ESTIMATE_SEED,
    DecoupledSubdomain,
)
from repro.geometry.aabb import AABB
from repro.sizing.functions import SizingFunction


def _point_in_polygon(x: float, y: float, poly: np.ndarray) -> bool:
    """Even-odd ray casting (horizontal ray to +inf), vectorised."""
    poly = np.asarray(poly, dtype=np.float64)
    xi, yi = poly[:, 0], poly[:, 1]
    xj, yj = np.roll(xi, 1), np.roll(yi, 1)
    straddle = (yi > y) != (yj > y)
    if not straddle.any():
        return False
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = xi + (y - yi) / (yj - yi) * (xj - xi)
    hits = straddle & (x < x_cross)
    return bool(hits.sum() & 1)


def estimate_triangles(sub: DecoupledSubdomain, sizing: SizingFunction
                       ) -> float:
    """Estimated triangle count: subdomain area over mean element area.

    Element area is taken as half the sizing bound (Ruppert refinement
    with an area bound ``A`` produces triangles with typical area ~``A/2``);
    the constant cancels in load balancing but keeps absolute estimates
    honest for the cost model.
    """
    area = abs(sub.area())
    box = AABB.of_points(sub.ring)
    rng = np.random.default_rng(ESTIMATE_SEED)
    vals: List[float] = []
    tries = 0
    while len(vals) < ESTIMATE_SAMPLES and tries < 50 * ESTIMATE_SAMPLES:
        tries += 1
        x = rng.uniform(box.xmin, box.xmax)
        y = rng.uniform(box.ymin, box.ymax)
        if _point_in_polygon(x, y, sub.ring):
            vals.append(sizing.area_at(x, y))
    if not vals:
        vals = [sizing.area_at(*sub.centroid())]
    mean_elem = 0.5 * float(np.mean(vals))
    return area / mean_elem
