"""``merge_meshes`` against the ``np.unique`` weld it replaced
(``oracle_merge.unique_merge``), byte for byte: on the sub-meshes of the
pinned ``generate_mesh`` cases, whose merged bytes every mesh pin rests
on, and on random sub-mesh sets with shared border vertices, welds
within the key's resolution, a repeated triangle and repeated
segments."""

import numpy as np
import pytest

from repro import generate_mesh
from repro.delaunay.mesh import TriMesh, merge_meshes
from tests import pins
from tests.delaunay.oracle_merge import unique_merge


def assert_same_bytes(got: TriMesh, want: TriMesh) -> None:
    for name in ("points", "triangles", "segments"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("case", sorted(pins.GENERATE_MESH))
def test_pinned_generate_mesh_cases(case):
    result = generate_mesh(*pins.GENERATE_MESH[case]())
    meshes = [result.bl.mesh, result.nearbody_mesh, *result.inviscid_meshes]
    merged = merge_meshes(meshes)
    assert_same_bytes(merged, unique_merge(meshes))
    assert_same_bytes(merged, result.mesh)


def random_submeshes(seed: int):
    """3-6 sub-meshes over one shared pool of lattice points (shared
    border vertices are bit-identical), some moved by less than the
    weld's 1e-12 key resolution, plus one triangle repeated in another
    mesh (rotated) and segments repeated in both orientations."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(-6, 7, (40, 2)) * np.array([0.25, 0.125])
    pool = np.vstack([pool, pool[:5] + 1e-14])  # welds to its twin
    meshes = []
    for _ in range(rng.integers(3, 7)):
        take = rng.choice(len(pool), rng.integers(4, 15), replace=False)
        n = len(take)
        tris = np.array([rng.choice(n, 3, replace=False)
                         for _ in range(rng.integers(1, 2 * n))])
        segs = rng.integers(0, n, (rng.integers(0, n), 2))
        segs = segs[segs[:, 0] != segs[:, 1]]
        meshes.append(TriMesh(pool[take], tris, segs))
    # One triangle of mesh 0 repeated in the last mesh, rotated, and one
    # of its segments repeated reversed.
    first, last = meshes[0], meshes[-1]
    a, b, c = first.triangles[0].tolist()
    pts = np.vstack([last.points, first.points[[b, c, a]]])
    m = len(last.points)
    tris = np.vstack([last.triangles, [(m, m + 1, m + 2)]])
    segs = np.vstack([last.segments.reshape(-1, 2),
                      [(m + 1, m), (m, m + 1)]])
    meshes[-1] = TriMesh(pts, tris, segs)
    return meshes


@pytest.mark.parametrize("seed", range(40))
def test_random_submeshes(seed):
    meshes = random_submeshes(seed)
    merged = merge_meshes(meshes)
    want = unique_merge(meshes)
    assert_same_bytes(merged, want)
    # The sets exercise every kind of weld they claim to.
    total = sum(len(m.triangles) for m in meshes)
    assert merged.n_triangles < total
    assert merged.n_points < sum(m.n_points for m in meshes)
