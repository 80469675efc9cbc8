"""Sizing functions (element area fields) and the boundary-layer growth law."""

from .functions import (
    GradedDistanceSizing,
    RadialSizing,
    SizingFunction,
    UniformSizing,
    decoupling_edge_length,
)
from .growth import GeometricGrowth

__all__ = [
    "GeometricGrowth",
    "GradedDistanceSizing",
    "RadialSizing",
    "SizingFunction",
    "UniformSizing",
    "decoupling_edge_length",
]
