"""Geometry fuzz corpus through the invariant harness.

Runs the hard domains from :mod:`tests.domains` (cove, multi-element,
near-tangent gap) through the exact-Delaunay / orientation /
conformity checks — once directly via :func:`generate_mesh`, and once
through the service path, asserting the served bytes are identical to
the direct result (the service must be a transparent transport, never
a different mesher).
"""

import numpy as np
import pytest

from tests.domains import DOMAINS

from repro.core.pipeline import generate_mesh
from repro.delaunay.validate import validate_mesh
from repro.runtime import serde
from repro.runtime.client import ServiceClient
from repro.runtime.service import MeshService

from tests.runtime.service_thread import ServiceThread

DOMAIN_NAMES = sorted(DOMAINS)


@pytest.fixture(scope="module")
def direct_results():
    out = {}
    for name in DOMAIN_NAMES:
        pslg, config = DOMAINS[name]()
        out[name] = generate_mesh(pslg, config, backend="serial")
    return out


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_domain_mesh_invariants(name, direct_results):
    pslg, _config = DOMAINS[name]()
    mesh = direct_results[name].mesh
    report = validate_mesh(mesh)
    assert report.ok, report.summary()
    assert report.inverted_triangles == 0
    assert report.zero_area_triangles == 0
    assert report.delaunay_violations == 0
    assert report.duplicate_points == 0
    # One outer boundary plus one loop per body.
    assert report.boundary_loops == len(pslg.body_loops) + 1
    assert report.total_area > 0.0


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_domain_bl_stats_sane(name, direct_results):
    result = direct_results[name]
    assert int(result.stats["n_bl_triangles"]) > 0
    assert int(result.stats["n_subdomains"]) >= 1
    assert result.mesh.n_triangles > 0


def test_service_path_is_byte_identical_to_direct(tmp_path,
                                                  direct_results):
    service = MeshService(f"unix:{tmp_path}/fuzz.sock", backend="serial")
    thread = ServiceThread(service)
    endpoint = thread.start()
    try:
        with ServiceClient(endpoint) as client:
            for name in DOMAIN_NAMES:
                pslg, config = DOMAINS[name]()
                reply = client.submit(pslg, config)
                assert not reply.cached
                direct_bytes = serde.buffers_to_bytes(
                    serde.pack_mesh(direct_results[name].mesh))
                assert reply.raw == direct_bytes, name
                # And the served mesh passes the same invariants.
                assert validate_mesh(reply.mesh).ok, name
                again = client.submit(pslg, config)
                assert again.cached
                assert again.raw == direct_bytes
        stats = service.stats()
        assert stats["requests"] == 2.0 * len(DOMAIN_NAMES)
        assert stats["cache_hits"] == float(len(DOMAIN_NAMES))
    finally:
        thread.stop()


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_domain_batch_strategy_differential(name, direct_results):
    """``insert_strategy="batch"`` is still accepted and changes
    nothing: ``generate_mesh`` inserts no points in bulk (the BL annuli
    are zipped from their rays, a subdomain is triangulated from its
    rings), so the mesh is the scalar run's, byte for byte.  A name the
    keyword does not know is a ``ValueError``, before any work."""
    pslg, config = DOMAINS[name]()
    with pytest.raises(ValueError, match="'nope'"):
        generate_mesh(pslg, config, backend="serial", insert_strategy="nope")
    result = generate_mesh(pslg, config, backend="serial",
                           insert_strategy="batch")
    assert "insert_strategy" not in result.stats
    assert (serde.canonical_hash(serde.pack_mesh(result.mesh))
            == serde.canonical_hash(serde.pack_mesh(
                direct_results[name].mesh)))


def test_domain_builders_are_pure():
    for name in DOMAIN_NAMES:
        pslg_a, config_a = DOMAINS[name]()
        pslg_b, config_b = DOMAINS[name]()
        assert pslg_a is not pslg_b
        np.testing.assert_array_equal(pslg_a.points, pslg_b.points)
        assert config_a == config_b
