"""Tests for mesh/PSLG I/O round trips."""

import numpy as np
import pytest

from repro.delaunay.kernel import delaunay_mesh
from repro.geometry.airfoils import naca0012
from repro.geometry.pslg import PSLG
from repro.io.meshio import (
    read_mesh_ascii,
    read_mesh_npz,
    read_node,
    read_poly,
    write_mesh_ascii,
    write_mesh_npz,
    write_node,
    write_vtk,
)


def all_segments(pslg):
    """Every loop edge of ``pslg`` as an ``(m, 2)`` index array."""
    return np.asarray([e for lp in pslg.loops for e in lp.edges()],
                      dtype=np.int64)


def write_poly_text(path, pslg, holes=(), markers=None):
    """A Triangle ``.poly`` file of ``pslg`` (1-based, optional one
    boundary-marker column per segment): the input ``read_poly`` takes."""
    segs = all_segments(pslg)
    lines = [f"{pslg.n_points} 2 0 0"]
    lines += [f"{i + 1} {x!r} {y!r}" for i, (x, y) in
              enumerate(pslg.points.tolist())]
    lines.append(f"{len(segs)} {0 if markers is None else 1}")
    lines += [f"{i + 1} {u + 1} {v + 1}"
              + ("" if markers is None else f" {markers[i]}")
              for i, (u, v) in enumerate(segs.tolist())]
    lines.append(f"{len(holes)}")
    lines += [f"{i + 1} {x!r} {y!r}" for i, (x, y) in
              enumerate(np.asarray(holes, dtype=float).tolist())]
    path.write_text("\n".join(lines) + "\n")


def vtk_section(lines, header, n):
    """The ``n`` lines after the line ``header``, split into fields."""
    i = lines.index(header)
    return [line.split() for line in lines[i + 1:i + 1 + n]]


@pytest.fixture
def mesh():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-3, 7, size=(40, 2))
    return delaunay_mesh(pts)


class TestAsciiRoundTrip:
    def test_node_exact(self, tmp_path, mesh):
        p = tmp_path / "m.node"
        write_node(p, mesh.points)
        got = read_node(p)
        # repr-based writing: bit-exact round trip.
        np.testing.assert_array_equal(got, mesh.points)

    def test_mesh_round_trip(self, tmp_path, mesh):
        node, ele = write_mesh_ascii(tmp_path / "m", mesh)
        assert node.exists() and ele.exists()
        got = read_mesh_ascii(tmp_path / "m")
        np.testing.assert_array_equal(got.points, mesh.points)
        np.testing.assert_array_equal(got.triangles, mesh.triangles)

    def test_read_truncated_raises(self, tmp_path):
        p = tmp_path / "bad.node"
        p.write_text("5 2 0 0\n1 0.0 0.0\n")
        with pytest.raises(ValueError):
            read_node(p)

    def test_read_3d_rejected(self, tmp_path):
        p = tmp_path / "bad.node"
        p.write_text("1 3 0 0\n1 0 0 0\n")
        with pytest.raises(ValueError):
            read_node(p)


class TestNpzRoundTrip:
    def test_round_trip(self, tmp_path, mesh):
        p = tmp_path / "m.npz"
        write_mesh_npz(p, mesh)
        got = read_mesh_npz(p)
        np.testing.assert_array_equal(got.points, mesh.points)
        np.testing.assert_array_equal(got.triangles, mesh.triangles)

    def test_segments_preserved(self, tmp_path, mesh):
        from repro.delaunay.mesh import TriMesh

        m = TriMesh(mesh.points, mesh.triangles,
                    segments=np.array([(0, 1), (2, 3)], dtype=np.int32))
        p = tmp_path / "m.npz"
        write_mesh_npz(p, m)
        got = read_mesh_npz(p)
        np.testing.assert_array_equal(got.segments, m.segments)


class TestPoly:
    def test_poly_round_trip(self, tmp_path):
        pslg = PSLG.from_loops([naca0012(31),
                                naca0012(21) * 0.2 + np.array([3.0, 0.0])])
        holes = np.array([(0.5, 0.0), (3.1, 0.0)])
        p = tmp_path / "a.poly"
        write_poly_text(p, pslg, holes)
        got, got_holes = read_poly(p)
        assert got.n_points == pslg.n_points
        np.testing.assert_array_equal(np.sort(got.points, axis=0),
                                      np.sort(pslg.points, axis=0))
        np.testing.assert_array_equal(got_holes, holes)
        assert len(got.loops) == 2

    def test_poly_no_holes(self, tmp_path):
        pslg = PSLG.from_loops([naca0012(21)])
        p = tmp_path / "b.poly"
        write_poly_text(p, pslg)
        got, holes = read_poly(p)
        assert len(holes) == 0
        assert len(got.loops) == 1

    def test_poly_markers_round_trip(self, tmp_path):
        """A boundary-marker column is skipped: the PSLG reads back the
        same as from the marker-less file."""
        pslg = PSLG.from_loops([naca0012(21)])
        segs = all_segments(pslg)
        p = tmp_path / "c.poly"
        write_poly_text(p, pslg, markers=np.arange(100, 100 + len(segs)))
        got, _holes = read_poly(p)
        write_poly_text(tmp_path / "d.poly", pslg)
        plain, _holes = read_poly(tmp_path / "d.poly")
        np.testing.assert_array_equal(got.points, plain.points)
        np.testing.assert_array_equal(all_segments(got), all_segments(plain))
        assert ({tuple(e) for e in all_segments(got).tolist()}
                == {tuple(e) for e in segs.tolist()})

    def test_poly_malformed(self, tmp_path):
        p = tmp_path / "bad.poly"
        p.write_text("3 3 0 0\n")
        with pytest.raises(ValueError, match="2D"):
            read_poly(p)
        p.write_text("2 2 0 0\n1 0.0 0.0\n")
        with pytest.raises(ValueError, match="truncated"):
            read_poly(p)
        p.write_text("1 2 0 0\n1 0.0 0.0\n2 0\n1 1 1\n")
        with pytest.raises(ValueError, match="truncated"):
            read_poly(p)


#: A unit square, 1-based: four vertices, four segments, no holes.
SQUARE_POLY = ["4 2 0 0", "1 0 0", "2 1 0", "3 1 1", "4 0 1",
               "4 0", "1 1 2", "2 2 3", "3 3 4", "4 4 1", "0"]


def _square_with(line: int, text: str) -> str:
    """``SQUARE_POLY`` with its 1-based ``line`` replaced by ``text``."""
    lines = list(SQUARE_POLY)
    lines[line - 1] = text
    return "\n".join(lines) + "\n"


class TestPolyRejects:
    """Input ``read_poly`` cannot read as a set of closed loops is a
    ``ValueError`` naming the file and the line, never a bare
    ``KeyError`` / ``IndexError``, an uninitialised row or a silently
    different geometry."""

    @pytest.mark.parametrize("text, line, match", [
        (_square_with(3, "1 1 0"), 3, "vertex 1 is listed twice"),
        (_square_with(5, "5 0 1"), 5, "vertex number 5 is outside 1..4"),
        (_square_with(10, "4 1 3"), 10,
         "vertex 1 starts a second segment .the first is on line 7"),
        (_square_with(10, "4 4 3"), 10, "vertex 3 ends a second segment"),
        (_square_with(6, "3 0").replace("4 4 1\n", ""), 9,
         "no segment leaves vertex 4: the loop is open"),
        (_square_with(9, "3 3 5"), 9, "segment endpoint 5 is outside 1..4"),
    ], ids=["repeated-vertex", "vertex-out-of-range", "two-outgoing",
            "two-incoming", "open-chain", "endpoint-out-of-range"])
    def test_names_file_and_line(self, tmp_path, text, line, match):
        p = tmp_path / "bad.poly"
        p.write_text(text)
        with pytest.raises(ValueError, match=match) as exc:
            read_poly(p)
        assert str(exc.value).startswith(f"{p}, line {line}: ")


class TestCLI:
    def test_naca_end_to_end(self, tmp_path):
        from repro.cli import main

        rc = main([
            "--naca", "0012", "--surface-points", "41",
            "--first-spacing", "5e-3", "--growth-ratio", "1.5",
            "--max-layers", "8", "--farfield-chords", "10",
            "--subdomains", "8",
            "-o", str(tmp_path / "out" / "naca"),
            "--format", "both", "--stats-json",
        ])
        assert rc == 0
        assert (tmp_path / "out" / "naca.node").exists()
        assert (tmp_path / "out" / "naca.ele").exists()
        assert (tmp_path / "out" / "naca.npz").exists()
        got = read_mesh_ascii(tmp_path / "out" / "naca")
        assert got.is_conforming()
        assert got.n_triangles > 500

    def test_requires_geometry(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["-o", "x"])


class TestVTK:
    def test_write_vtk_structure(self, tmp_path, mesh):
        p = write_vtk(tmp_path / "m.vtk", mesh)
        text = p.read_text()
        assert "DATASET UNSTRUCTURED_GRID" in text
        assert f"POINTS {mesh.n_points} double" in text
        assert f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}" in text
        # Every cell is a VTK_TRIANGLE.
        assert text.count("\n5\n") + text.count("\n5\n") >= 1

    def test_vtk_round_trip_no_data(self, tmp_path, mesh):
        """Coordinates are written with ``repr``: the text gives every
        float back bit-exactly."""
        n, m = mesh.n_points, mesh.n_triangles
        p = write_vtk(tmp_path / "m.vtk", mesh)
        lines = p.read_text().splitlines()
        xyz = np.array(vtk_section(lines, f"POINTS {n} double", n),
                       dtype=float)
        np.testing.assert_array_equal(xyz[:, :2], mesh.points)
        assert np.all(xyz[:, 2] == 0.0)
        cells = np.array(vtk_section(lines, f"CELLS {m} {4 * m}", m),
                         dtype=np.int64)
        assert np.all(cells[:, 0] == 3)
        np.testing.assert_array_equal(cells[:, 1:], mesh.triangles)
        assert vtk_section(lines, f"CELL_TYPES {m}", m) == [["5"]] * m
        # The grid is the whole file: it ends with the cell types.
        assert lines[-(m + 1)] == f"CELL_TYPES {m}"


class TestCLIExtensions:
    @pytest.mark.parametrize("geo", [
        ["--joukowski"], ["--flat-plate"], ["--cylinder"],
        ["--naca5", "23012"],
    ])
    def test_geometry_flags(self, tmp_path, geo):
        from repro.cli import main

        rc = main(geo + [
            "--surface-points", "41", "--first-spacing", "5e-3",
            "--growth-ratio", "1.5", "--max-layers", "6",
            "--farfield-chords", "6", "--subdomains", "6",
            "-o", str(tmp_path / "m"), "--format", "npz",
        ])
        assert rc == 0
        got = read_mesh_npz(tmp_path / "m.npz")
        assert got.is_conforming()

    def test_vtk_and_report_and_resample(self, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "--naca", "0012", "--surface-points", "61", "--resample", "51",
            "--first-spacing", "5e-3", "--growth-ratio", "1.5",
            "--max-layers", "6", "--farfield-chords", "6",
            "--subdomains", "6",
            "-o", str(tmp_path / "m"), "--format", "vtk", "--report",
        ])
        assert rc == 0
        assert (tmp_path / "m.vtk").exists()
        out = capsys.readouterr().out
        assert "quality:" in out
