"""Sizing functions (element area fields) and the boundary-layer growth law."""

from .functions import (
    CallableSizing,
    GradedDistanceSizing,
    RadialSizing,
    SizingFunction,
    UniformSizing,
    decoupling_edge_length,
)
from .growth import GeometricGrowth

__all__ = [
    "CallableSizing",
    "GeometricGrowth",
    "GradedDistanceSizing",
    "RadialSizing",
    "SizingFunction",
    "UniformSizing",
    "decoupling_edge_length",
]
