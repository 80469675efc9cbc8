"""Surface resampling: arc-length and curvature-adaptive distributions.

The mesher's input quality depends on the surface point distribution (the
paper reads "1,500 surface vertices" per configuration).  Raw coordinate
sets from airfoil databases are often too coarse at the leading edge or
unevenly spaced; this module redistributes the vertices of a closed loop:

* :func:`resample_curvature` — spacing inversely proportional to local
  curvature (clustering at leading edges and around coves) with bounds,
  the aerospace-standard distribution the cosine rule approximates for
  clean NACA sections; ``strength=0`` is equal arc-length spacing;
* :func:`loop_curvature` — discrete curvature estimate per vertex.

Resampling interpolates along the original polyline (no smoothing), so
sharp features (cusps, blunt bases) are preserved exactly: vertices whose
exterior turn reaches 40 degrees (:data:`CORNER_ANGLE`) are pinned.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from .primitives import signed_turn_angle

__all__ = ["loop_curvature", "resample_curvature"]

#: Exterior turn at which a vertex is a corner, pinned by the resampler.
CORNER_ANGLE = math.radians(40.0)


def _closed(coords: np.ndarray) -> np.ndarray:
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 2 or len(coords) < 3:
        raise ValueError("need a closed loop of >= 3 points")
    return coords


def loop_curvature(coords: np.ndarray) -> np.ndarray:
    """Discrete curvature magnitude at each vertex of a closed loop.

    Uses the turn angle over the mean adjacent edge length — exact for
    sampled circles (kappa = 1/R) and robust at corners (finite, large).
    """
    coords = _closed(coords)
    n = len(coords)
    prev = np.roll(coords, 1, axis=0)
    nxt = np.roll(coords, -1, axis=0)
    kappa = np.empty(n)
    for i in range(n):
        t_in = coords[i] - prev[i]
        t_out = nxt[i] - coords[i]
        l_in = math.hypot(*t_in)
        l_out = math.hypot(*t_out)
        if l_in == 0 or l_out == 0:
            raise ValueError("duplicate consecutive vertices")
        ang = abs(signed_turn_angle((t_in[0], t_in[1]),
                                    (t_out[0], t_out[1])))
        kappa[i] = ang / (0.5 * (l_in + l_out))
    return kappa


def _arclength(coords: np.ndarray) -> np.ndarray:
    d = np.linalg.norm(np.diff(np.vstack([coords, coords[:1]]), axis=0),
                       axis=1)
    return np.concatenate([[0.0], np.cumsum(d)])


def _interp_on_loop(coords: np.ndarray, arc: np.ndarray,
                    s: float) -> Tuple[float, float]:
    total = arc[-1]
    s = s % total
    i = int(np.searchsorted(arc, s, side="right")) - 1
    i = min(max(i, 0), len(coords) - 1)
    s0, s1 = arc[i], arc[i + 1]
    t = 0.0 if s1 == s0 else (s - s0) / (s1 - s0)
    a = coords[i]
    b = coords[(i + 1) % len(coords)]
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def _corner_indices(coords: np.ndarray) -> List[int]:
    n = len(coords)
    out = []
    prev = np.roll(coords, 1, axis=0)
    nxt = np.roll(coords, -1, axis=0)
    for i in range(n):
        t_in = coords[i] - prev[i]
        t_out = nxt[i] - coords[i]
        if abs(signed_turn_angle((t_in[0], t_in[1]),
                                 (t_out[0], t_out[1]))) >= CORNER_ANGLE:
            out.append(i)
    return out


def resample_curvature(
    coords: np.ndarray,
    n_points: int,
    *,
    strength: float = 1.0,
) -> np.ndarray:
    """Curvature-adaptive resampling of a closed loop.

    Local spacing ~ 1 / (1 + strength * kappa_hat) where ``kappa_hat`` is
    the curvature normalised by the loop's mean; the coarsest-to-finest
    spacing ratio is at most 20, so flat regions are never starved.
    """
    coords = _closed(coords)
    if strength < 0:
        raise ValueError("strength must be non-negative")
    kappa = loop_curvature(coords)
    # Normalise by the median curvature of NON-corner vertices: a single
    # sharp trailing edge must not wash out the smooth-region contrast
    # (corners are pinned exactly by the resampler anyway).
    smooth = np.ones(len(coords), dtype=bool)
    smooth[_corner_indices(coords)] = False
    ref = float(np.median(kappa[smooth])) if smooth.any() else float(
        np.median(kappa))
    ref = ref or 1.0
    density = 1.0 + strength * kappa / ref
    # Bound the finest-to-coarsest spacing contrast.
    density = np.clip(density, 1.0, 20.0)
    return _resample(coords, n_points, density)


def _resample(coords: np.ndarray, n_points: int,
              density: np.ndarray) -> np.ndarray:
    if n_points < 3:
        raise ValueError("need at least 3 output points")
    n = len(coords)
    arc = _arclength(coords)
    total = arc[-1]
    corners = _corner_indices(coords)
    if not corners:
        corners = [0]  # anchor somewhere; the loop has no sharp feature
    if len(corners) >= n_points:
        raise ValueError("more corners than output points")

    # Cumulative density integral along the loop (piecewise constant per
    # edge; edge i spans arc[i]..arc[i+1] with density averaged from its
    # endpoints).
    d_edge = 0.5 * (density + np.roll(density, -1))
    edge_w = np.diff(arc) * d_edge
    cum_w = np.concatenate([[0.0], np.cumsum(edge_w)])

    def weight_at(s: float) -> float:
        i = int(np.searchsorted(arc, s, side="right")) - 1
        i = min(max(i, 0), n - 1)
        if arc[i + 1] == arc[i]:
            return float(cum_w[i])
        t = (s - arc[i]) / (arc[i + 1] - arc[i])
        return float(cum_w[i] + t * (cum_w[i + 1] - cum_w[i]))

    # Distribute points between consecutive corners proportionally to the
    # weighted length of each segment.
    corners = sorted(corners)
    seg_bounds = [
        (arc[corners[i]], arc[corners[(i + 1) % len(corners)]]
         + (0 if i + 1 < len(corners) else total))
        for i in range(len(corners))
    ]
    seg_weights = [_segment_weight(weight_at, cum_w[-1], a, b, total)
                   for a, b in seg_bounds]
    budget = n_points - len(corners)
    counts = _apportion(seg_weights, budget)

    out: List[Tuple[float, float]] = []
    for (a, b), cnt in zip(seg_bounds, counts):
        out.append(_interp_on_loop(coords, arc, a))
        if cnt == 0:
            continue
        # Weighted positions: invert the cumulative weight on [a, b].
        w_start = weight_at(a % total)
        w_end = w_start + _segment_weight(weight_at, cum_w[-1], a, b, total)
        for j in range(1, cnt + 1):
            target = w_start + (w_end - w_start) * j / (cnt + 1)
            s = _invert_weight(weight_at, target % cum_w[-1], arc, cum_w)
            out.append(_interp_on_loop(coords, arc, s))
    return np.asarray(out, dtype=np.float64)


def _segment_weight(weight_at, w_total: float, a: float, b: float,
                    total: float) -> float:
    if b <= total:
        return weight_at(b % total if b < total else total - 1e-300) \
            - weight_at(a)
    return (w_total - weight_at(a)) + weight_at(b - total)


def _invert_weight(weight_at, target: float, arc: np.ndarray,
                   cum_w: np.ndarray) -> float:
    i = int(np.searchsorted(cum_w, target, side="right")) - 1
    i = min(max(i, 0), len(arc) - 2)
    w0, w1 = cum_w[i], cum_w[i + 1]
    t = 0.0 if w1 == w0 else (target - w0) / (w1 - w0)
    return float(arc[i] + t * (arc[i + 1] - arc[i]))


def _apportion(weights, budget: int) -> List[int]:
    """Largest-remainder apportionment of ``budget`` over ``weights``."""
    total = sum(weights) or 1.0
    raw = [budget * w / total for w in weights]
    base = [int(math.floor(r)) for r in raw]
    rem = budget - sum(base)
    order = sorted(range(len(raw)), key=lambda i: raw[i] - base[i],
                   reverse=True)
    for i in order[:rem]:
        base[i] += 1
    return base
