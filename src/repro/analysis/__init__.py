"""Mesh analysis: anisotropy metrics, gradation profiles, reports."""

from .metrics import (
    alignment_to_surface,
    element_directions,
    histogram,
    size_profile,
)
from .report import mesh_report

__all__ = [
    "alignment_to_surface",
    "element_directions",
    "histogram",
    "mesh_report",
    "size_profile",
]
