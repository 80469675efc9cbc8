"""The scan ``GradedDistanceSizing`` answered every query with before its
cap shortcut: the oracle ``tests/sizing/test_sizing.py`` compares the
shortcut against, bit for bit.

Both functions read only the sizing's public parameters and its
``distance_to_surface`` / cloud columns, never the box or the shortcut.
"""

from __future__ import annotations

import math

import numpy as np


def scan_area(s, x: float, y: float) -> float:
    """``area_at`` by a scan of the cloud, capped or not."""
    h = min(s.h0 + s.grading * s.distance_to_surface(x, y), s.h_max)
    return math.sqrt(3.0) / 4.0 * h * h


def scan_areas(s, xy: np.ndarray) -> np.ndarray:
    """``area_at_many`` by one chunked scan of the cloud for every row."""
    xy = np.asarray(xy, np.float64).reshape(-1, 2)
    rows = max(1, 2 ** 16 // len(s._px))
    if len(xy) > rows:
        return np.concatenate([scan_areas(s, xy[lo:lo + rows])
                               for lo in range(0, len(xy), rows)])
    x, y = xy[:, :1], xy[:, 1:]
    d = np.hypot(s._cx - x, s._cy - y).min(axis=1)
    far = d > 20.0 * s._coarse_pad
    d[far] = np.maximum(d[far] - 0.5 * s._coarse_pad, 0.0)
    d[~far] = np.hypot(s._px - x[~far], s._py - y[~far]).min(axis=1)
    h = np.minimum(s.h0 + s.grading * d, s.h_max)
    return math.sqrt(3.0) / 4.0 * h * h
