"""Geometric substrate: predicates, primitives, boxes, PSLG, airfoils."""

from .aabb import AABB, boxes_from_segments, segment_extent_box
from .airfoils import (
    farfield_box,
    naca4,
    naca0012,
    three_element_airfoil,
)
from .predicates import incircle, orient2d
from .primitives import (
    angle_between,
    circumcenter,
    circumradius,
    distance,
    normalize,
    polygon_area,
    segment_intersection_point,
    segments_intersect,
    signed_turn_angle,
    triangle_angles,
    triangle_area,
)
from .pslg import PSLG, Loop
from .resample import loop_curvature, resample_curvature, resample_uniform

__all__ = [
    "AABB",
    "Loop",
    "PSLG",
    "angle_between",
    "boxes_from_segments",
    "circumcenter",
    "circumradius",
    "distance",
    "farfield_box",
    "incircle",
    "loop_curvature",
    "naca4",
    "naca0012",
    "normalize",
    "orient2d",
    "polygon_area",
    "resample_curvature",
    "resample_uniform",
    "segment_extent_box",
    "segment_intersection_point",
    "segments_intersect",
    "signed_turn_angle",
    "three_element_airfoil",
    "triangle_angles",
    "triangle_area",
]
