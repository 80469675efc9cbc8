"""The boundary-layer annuli triangulated from their rays.

``constrained.triangulate_rays`` zips each pair of neighbouring ray
chains into a strip and Lawson-flips the strips into the constrained
Delaunay triangulation of the annuli's PSLG.  Over a corpus of NACA-4
sections, three-element flap angles and the hard domains of
``tests/domains.py``: every BL point is used, every triangle turns
counter-clockwise and every unconstrained edge is locally Delaunay
(exact predicates), the triangle set is the one the hull-and-carve CDT
of the same PSLG builds wherever no edge is exactly cocircular, and a
second process builds the same bytes.  Neighbour rays that cross are a
typed error naming the element and the ray pair.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bl_pipeline import (
    BoundaryLayerConfig,
    interior_seed,
    prepare_boundary_layer,
    triangulate_boundary_layer,
)
from repro.delaunay.constrained import triangulate_rays
from repro.delaunay.kernel import TriangulationError
from repro.geometry.airfoils import naca4, three_element_airfoil
from repro.geometry.predicates import incircle, orient2d
from repro.geometry.pslg import PSLG
from repro.runtime import serde

from tests.domains import DOMAINS

from .oracle import constrained_delaunay

SRC = Path(__file__).resolve().parents[2] / "src"


def triangle_set(points, triangles):
    return {tuple(sorted(map(tuple, points[t].tolist()))) for t in triangles}


def check_annuli(pslg, config):
    """Every property of ``triangulate_rays`` on one BL; returns the
    number of exactly cocircular interior edges."""
    bl = prepare_boundary_layer(pslg, config)
    tri = triangulate_rays(*bl.item())
    mesh = tri.to_mesh()
    n = len(bl.points)
    assert mesh.points.tobytes() == bl.points.tobytes()
    assert np.array_equal(np.unique(mesh.triangles), np.arange(n))
    pts = mesh.points.tolist()
    for a, b, c in mesh.triangles.tolist():
        assert orient2d(pts[a], pts[b], pts[c]) > 0
    tv, tn = tri._arr.tv, tri._arr.tn
    ties = 0
    for t in range(tri._arr.n_tris):
        for k in range(3):
            nb = tn[3 * t + k]
            if nb < t:
                continue
            apex = [v for v in tv[3 * nb:3 * nb + 3]
                    if v not in tv[3 * t:3 * t + 3]]
            side = incircle(*(pts[v] for v in tv[3 * t:3 * t + 3]),
                            pts[apex[0]])
            assert side <= 0
            ties += side == 0
    assert {tuple(sorted(s)) for s in mesh.segments.tolist()} == {
        tuple(sorted(s)) for s in bl.segments.tolist()}
    if ties == 0:
        ref = constrained_delaunay(
            bl.points, bl.segments,
            [interior_seed(loop) for loop in bl.surface_loops])
        assert (triangle_set(mesh.points, mesh.triangles)
                == triangle_set(ref.points, ref.triangles))
    return ties


@settings(max_examples=25, deadline=None)
@given(code=st.sampled_from(["0006", "0012", "0024", "2412", "4412",
                             "6409"]),
       n_points=st.sampled_from([21, 31, 41]),
       first_spacing=st.sampled_from([1e-3, 4e-3]),
       growth_ratio=st.sampled_from([1.15, 1.4]),
       max_layers=st.sampled_from([2, 7, 15]))
def test_naca4_annuli(code, n_points, first_spacing, growth_ratio,
                      max_layers):
    check_annuli(PSLG.from_loops([naca4(code, n_points)]),
                 BoundaryLayerConfig(first_spacing=first_spacing,
                                     growth_ratio=growth_ratio,
                                     max_layers=max_layers))


@settings(max_examples=10, deadline=None)
@given(flap=st.sampled_from([-10.0, -20.0, -30.0, -40.0]),
       n_points=st.sampled_from([21, 31]),
       max_layers=st.sampled_from([3, 6, 10]))
def test_three_element_annuli(flap, n_points, max_layers):
    check_annuli(three_element_airfoil(n_points=n_points,
                                       flap_deflection=flap),
                 BoundaryLayerConfig(first_spacing=1e-3,
                                     max_layers=max_layers))


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_domain_annuli(name):
    pslg, config = DOMAINS[name]()
    check_annuli(pslg, config.bl)


def test_two_processes_build_the_same_bytes():
    code = (
        "from repro.core.bl_pipeline import *\n"
        "from repro.geometry.airfoils import three_element_airfoil\n"
        "from repro.runtime import serde\n"
        "bl = prepare_boundary_layer(three_element_airfoil(n_points=25),"
        " BoundaryLayerConfig(max_layers=8))\n"
        "print(serde.canonical_hash(serde.pack_mesh("
        "triangulate_boundary_layer(*bl.item()))))\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    bl = prepare_boundary_layer(three_element_airfoil(n_points=25),
                                BoundaryLayerConfig(max_layers=8))
    here = serde.canonical_hash(serde.pack_mesh(
        triangulate_boundary_layer(*bl.item())))
    assert out.stdout.strip() == here


def triangle_body(tips):
    """One element: the CCW body (0, 0), (1, 0), (0.5, 1), one ray per
    vertex to ``tips``, both rings as segments."""
    points = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), *tips])
    segments = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    return (points, segments, [0, 3], [0, 2, 4, 6], [0, 3, 1, 4, 2, 5],
            [0.0, 1.0] * 3)


def test_outward_rays_make_the_annulus():
    tips = [(-0.7, -0.5), (1.7, -0.5), (0.5, 2.0)]
    mesh = triangulate_rays(*triangle_body(tips)).to_mesh()
    assert mesh.n_triangles == 6


def test_crossing_neighbour_rays_are_a_typed_error():
    # Rays 0 and 1 swap sides below the body's bottom edge.
    tips = [(1.5, -1.0), (-0.5, -1.0), (0.5, 2.0)]
    with pytest.raises(TriangulationError,
                       match=r"element 0, rays 0 and 1: .* not strictly "
                             "counter-clockwise"):
        triangulate_rays(*triangle_body(tips))


def test_a_segment_off_the_strips_is_a_typed_error():
    points, segments, *chains = triangle_body(
        [(-0.7, -0.5), (1.7, -0.5), (0.5, 2.0)])
    segments[3] = (3, 5)  # a chord across the tip ring, not its edge
    with pytest.raises(TriangulationError,
                       match=r"element 0, rays \d and \d: edge .* not both"):
        triangulate_rays(points, segments, *chains)
