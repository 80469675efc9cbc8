"""Mesh and PSLG input/output."""

from .meshio import (
    read_ele,
    read_mesh_ascii,
    read_mesh_npz,
    read_node,
    read_poly,
    write_ele,
    write_mesh_ascii,
    write_mesh_npz,
    write_node,
    write_vtk,
)

__all__ = [
    "read_ele",
    "read_mesh_ascii",
    "read_mesh_npz",
    "read_node",
    "read_poly",
    "write_ele",
    "write_mesh_ascii",
    "write_mesh_npz",
    "write_node",
    "write_vtk",
]
