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
    Vertices and holes are numbered from 1, each number once, and the
    segments must form disjoint closed loops, one segment leaving each
    vertex (the format this package writes).  Anything else raises
    ``ValueError`` naming the file and the line.
    """
    with open(path) as f:
        lines = [line.split() for line in f]
    at = 0      # 1-based number of the line read last

    def fail(msg: str) -> ValueError:
        return ValueError(f"{path}, line {at}: {msg}")

    def fields(what: str, width: int) -> list:
        nonlocal at
        at += 1
        parts = lines[at - 1] if at <= len(lines) else []
        if len(parts) < width:
            raise fail(f"truncated .poly {what}")
        return parts

    def number(text: str, kind=float):
        try:
            return kind(text)
        except ValueError:
            raise fail(f"{text!r} is not a number") from None

    def index(text: str, n: int, what: str) -> int:
        i = number(text, int) - 1
        if not 0 <= i < n:
            raise fail(f"{what} {text} is outside 1..{n}")
        return i

    def count(text: str) -> int:
        c = number(text, int)
        if c < 0:
            raise fail(f"negative count {c}")
        return c

    def numbered_xy(n: int, what: str) -> np.ndarray:
        out = np.empty((n, 2), dtype=np.float64)
        done = np.zeros(n, dtype=bool)
        for _ in range(n):
            parts = fields(f"{what} section", 3)
            i = index(parts[0], n, f"{what} number")
            if done[i]:
                raise fail(f"{what} {parts[0]} is listed twice")
            done[i] = True
            out[i] = number(parts[1]), number(parts[2])
        return out

    header = fields("header", 2)
    n = count(header[0])
    if number(header[1], int) != 2:
        raise fail("only 2D .poly supported")
    pts = numbered_xy(n, "vertex")
    nxt = {}
    line_of = {}        # vertex -> line of the segment leaving it
    for _ in range(count(fields("segment header", 1)[0])):
        parts = fields("segment section", 3)
        u = index(parts[1], n, "segment endpoint")
        if u in nxt:
            raise fail(f"vertex {parts[1]} starts a second segment (the "
                       f"first is on line {line_of[u]})")
        nxt[u] = index(parts[2], n, "segment endpoint")
        line_of[u] = at
    holes = numbered_xy(count(fields("hole header", 1)[0]), "hole")
    # Walk the successor map into loops.
    loops = []
    remaining = dict(nxt)
    while remaining:
        start = next(iter(remaining))
        loop = [start]
        cur = remaining.pop(start)
        while cur != start:
            if cur not in remaining:
                at = line_of[loop[-1]]
                if cur in nxt:
                    raise fail(f"vertex {cur + 1} ends a second segment")
                raise fail(f"no segment leaves vertex {cur + 1}: the loop "
                           "is open")
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
