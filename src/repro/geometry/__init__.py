"""Geometric substrate: predicates, primitives, boxes, PSLG, airfoils."""

from .aabb import AABB, boxes_from_segments
from .airfoils import naca4, naca0012, three_element_airfoil
from .predicates import incircle, orient2d
from .primitives import (
    angle_between,
    normalize,
    polygon_area,
    segment_intersection_point,
    segments_intersect,
    signed_turn_angle,
)
from .pslg import PSLG, Loop
from .resample import loop_curvature, resample_curvature

__all__ = [
    "AABB",
    "Loop",
    "PSLG",
    "angle_between",
    "boxes_from_segments",
    "incircle",
    "loop_curvature",
    "naca4",
    "naca0012",
    "normalize",
    "orient2d",
    "polygon_area",
    "resample_curvature",
    "segment_intersection_point",
    "segments_intersect",
    "signed_turn_angle",
    "three_element_airfoil",
]
