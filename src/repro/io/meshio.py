"""Mesh and PSLG I/O: Triangle-compatible ASCII and binary NPZ.

Section IV discusses output cost: writing the 172M-triangle mesh as ASCII
takes 9 minutes, "if a flow solver can ... read from a binary file, the
writing time will be less."  Both paths are provided (and benchmarked in
E12): Shewchuk-Triangle ``.node``/``.ele``/``.poly`` text files for
interoperability, and NumPy ``.npz`` for speed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Tuple, Union

import numpy as np

from ..delaunay.mesh import TriMesh
from ..geometry.pslg import PSLG, Loop

__all__ = [
    "write_node",
    "read_node",
    "write_ele",
    "read_ele",
    "write_mesh_ascii",
    "read_mesh_ascii",
    "write_mesh_npz",
    "read_mesh_npz",
    "read_poly",
    "write_vtk",
]

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# Triangle-format ASCII (.node / .ele / .poly)
# ----------------------------------------------------------------------
def write_node(path: PathLike, points: np.ndarray) -> None:
    """Write a Triangle ``.node`` file (1-based indices, no attributes)."""
    points = np.asarray(points, dtype=np.float64)
    with open(path, "w") as f:
        f.write(f"{len(points)} 2 0 0\n")
        # repr of a Python float round-trips exactly (shortest repr).
        lines = [
            f"{i + 1} {float(x)!r} {float(y)!r}\n"
            for i, (x, y) in enumerate(points)
        ]
        f.writelines(lines)


def read_node(path: PathLike) -> np.ndarray:
    with open(path) as f:
        header = f.readline().split()
        n = int(header[0])
        dim = int(header[1])
        if dim != 2:
            raise ValueError("only 2D .node files supported")
        pts = np.empty((n, 2), dtype=np.float64)
        for _ in range(n):
            parts = f.readline().split()
            if not parts:
                raise ValueError("truncated .node file")
            idx = int(parts[0]) - 1
            pts[idx] = (float(parts[1]), float(parts[2]))
    return pts


def write_ele(path: PathLike, triangles: np.ndarray) -> None:
    """Write a Triangle ``.ele`` file (1-based indices)."""
    triangles = np.asarray(triangles, dtype=np.int64)
    with open(path, "w") as f:
        f.write(f"{len(triangles)} 3 0\n")
        lines = [
            f"{i + 1} {a + 1} {b + 1} {c + 1}\n"
            for i, (a, b, c) in enumerate(triangles)
        ]
        f.writelines(lines)


def read_ele(path: PathLike) -> np.ndarray:
    with open(path) as f:
        header = f.readline().split()
        n = int(header[0])
        tris = np.empty((n, 3), dtype=np.int32)
        for _ in range(n):
            parts = f.readline().split()
            if not parts:
                raise ValueError("truncated .ele file")
            idx = int(parts[0]) - 1
            tris[idx] = (int(parts[1]) - 1, int(parts[2]) - 1,
                         int(parts[3]) - 1)
    return tris


def write_mesh_ascii(basepath: PathLike, mesh: TriMesh) -> Tuple[Path, Path]:
    """Write ``<base>.node`` + ``<base>.ele``; returns the two paths."""
    base = Path(basepath)
    node = base.with_suffix(".node")
    ele = base.with_suffix(".ele")
    write_node(node, mesh.points)
    write_ele(ele, mesh.triangles)
    return node, ele


def read_mesh_ascii(basepath: PathLike) -> TriMesh:
    base = Path(basepath)
    pts = read_node(base.with_suffix(".node"))
    tris = read_ele(base.with_suffix(".ele"))
    return TriMesh(pts, tris)


# ----------------------------------------------------------------------
# Binary NPZ
# ----------------------------------------------------------------------
def write_mesh_npz(path: PathLike, mesh: TriMesh) -> Path:
    path = Path(path)
    np.savez(
        path,
        points=mesh.points,
        triangles=mesh.triangles,
        segments=mesh.segments,
    )
    return path if path.suffix == ".npz" else path.with_suffix(
        path.suffix + ".npz")


def read_mesh_npz(path: PathLike) -> TriMesh:
    with np.load(path) as data:
        return TriMesh(data["points"], data["triangles"], data["segments"])


# ----------------------------------------------------------------------
# PSLG (.poly)
# ----------------------------------------------------------------------
def read_poly(path: PathLike):
    """Read a ``.poly`` file; loops are reconstructed from the segments.

    Returns ``(pslg, holes)``; a boundary-marker column is skipped.
    Segments must form disjoint closed loops (the format this package
    writes).
    """
    with open(path) as f:
        header = f.readline().split()
        if len(header) < 2:
            raise ValueError(f"{path}: malformed .poly header {header!r}")
        n, dim = int(header[0]), int(header[1])
        if dim != 2:
            raise ValueError("only 2D .poly supported")
        pts = np.empty((n, 2), dtype=np.float64)
        for _ in range(n):
            parts = f.readline().split()
            if len(parts) < 3:
                raise ValueError(f"{path}: truncated .poly vertex section")
            pts[int(parts[0]) - 1] = (float(parts[1]), float(parts[2]))
        seg_header = f.readline().split()
        if not seg_header:
            raise ValueError(f"{path}: missing .poly segment header")
        m = int(seg_header[0])
        nxt = {}
        for _ in range(m):
            parts = f.readline().split()
            if len(parts) < 3:
                raise ValueError(f"{path}: truncated .poly segment section")
            nxt[int(parts[1]) - 1] = int(parts[2]) - 1
        hole_header = f.readline().split()
        if not hole_header:
            raise ValueError(f"{path}: missing .poly hole header")
        k = int(hole_header[0])
        holes = np.empty((k, 2), dtype=np.float64)
        for i in range(k):
            parts = f.readline().split()
            if len(parts) < 3:
                raise ValueError(f"{path}: truncated .poly hole section")
            holes[int(parts[0]) - 1] = (float(parts[1]), float(parts[2]))
    # Walk the successor map into loops.
    loops = []
    remaining = dict(nxt)
    while remaining:
        start = next(iter(remaining))
        loop = [start]
        cur = remaining.pop(start)
        while cur != start:
            loop.append(cur)
            cur = remaining.pop(cur)
        loops.append(Loop(np.asarray(loop)))
    return PSLG(pts, loops), holes


# ----------------------------------------------------------------------
# VTK legacy (visualisation interop)
# ----------------------------------------------------------------------
def write_vtk(path: PathLike, mesh: TriMesh) -> Path:
    """Write a legacy ASCII VTK file (UNSTRUCTURED_GRID of triangles)."""
    path = Path(path)
    m = mesh.n_triangles
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("repro mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.n_points} double\n")
        for x, y in mesh.points:
            f.write(f"{float(x)!r} {float(y)!r} 0.0\n")
        f.write(f"CELLS {m} {4 * m}\n")
        for a, b, c in mesh.triangles:
            f.write(f"3 {a} {b} {c}\n")
        f.write(f"CELL_TYPES {m}\n")
        f.write("5\n" * m)  # VTK_TRIANGLE
    return path
