"""A malformed ``mesh`` frame fails its own client and nobody else.

The daemon prices every cache miss with ``request_cost`` before the
request goes to the dispatch thread, and ``request_cost`` accepts
exactly the keys ``pack_mesh_request`` writes.  So a payload with a key
missing or one too many gets a typed ``err`` frame naming the keys,
while the dispatch thread, the requests in flight beside it and every
later client are served as if it had never arrived — on both backends.
A request whose layout is valid but whose geometry fails in
``generate_mesh`` fails alone too: its failure is its own item's
outcome, and the item beside it runs once.
"""
import threading

import numpy as np
import pytest

from tests.domains import small_bl

from repro.core.pipeline import MeshConfig, generate_mesh, pack_mesh_request
from repro.geometry.airfoils import naca4
from repro.geometry.pslg import PSLG
from repro.runtime import serde
from repro.runtime.client import ServiceClient
from repro.runtime.service import MeshService, ServiceError

from tests.runtime.service_thread import ServiceThread

BACKENDS = pytest.mark.parametrize("backend", ["serial", "processes"])


def _config():
    return MeshConfig(bl=small_bl(max_layers=4), farfield_chords=5.0,
                      target_subdomains=4)


def _request():
    return PSLG.from_loops([naca4("0012", 21)], names=["naca0012"]), _config()


def _flat_request():
    """A body loop of three collinear points: a valid layout that
    ``generate_mesh`` rejects (its boundary-layer strips have no area)."""
    flat = np.array([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)])
    return PSLG.from_loops([flat], names=["flat"]), _config()


@pytest.fixture(scope="module")
def direct_bytes():
    """The mesh ``generate_mesh`` makes of the valid request."""
    return serde.buffers_to_bytes(serde.pack_mesh(
        generate_mesh(*_request(), backend="serial").mesh))


def _start(tmp_path, backend):
    service = MeshService(f"unix:{tmp_path}/svc.sock", backend=backend,
                          n_ranks=2)
    thread = ServiceThread(service)
    return service, thread, thread.start()


def _without(key):
    payload = pack_mesh_request(*_request())
    del payload[key]
    return payload


def _submit_together(endpoint, sends):
    """Each ``label -> send(client)`` on its own client thread at once;
    the replies, or the :class:`ServiceError` each raised."""
    replies = {}

    def submit(label, send):
        try:
            with ServiceClient(endpoint, timeout=60.0) as client:
                replies[label] = send(client)
        except ServiceError as exc:
            replies[label] = exc

    clients = [threading.Thread(target=submit, args=item)
               for item in sends.items()]
    for t in clients:
        t.start()
    for t in clients:
        t.join(timeout=60)
    return replies


@BACKENDS
def test_missing_points_then_a_valid_request(tmp_path, backend,
                                             direct_bytes):
    service, thread, endpoint = _start(tmp_path, backend)
    try:
        with ServiceClient(endpoint, timeout=60.0) as client:
            with pytest.raises(ServiceError,
                               match=r"missing \['pslg.points'\]"):
                client.submit_packed(_without("pslg.points"))
            assert client.submit(*_request()).raw == direct_bytes
        with ServiceClient(endpoint, timeout=60.0) as later:
            assert later.submit(*_request()).raw == direct_bytes
        stats = service.stats()
        assert (stats["errors"], stats["dispatched"]) == (1.0, 1.0)
        assert service._dispatcher.is_alive()
    finally:
        thread.stop()


@BACKENDS
def test_bad_and_good_request_in_one_window(tmp_path, backend, direct_bytes):
    service, thread, endpoint = _start(tmp_path, backend)
    try:
        replies = _submit_together(endpoint, {
            "bad": lambda c: c.submit_packed(_without("config.bl.params")),
            "good": lambda c: c.submit(*_request()).raw,
        })
        assert isinstance(replies["bad"], ServiceError)
        assert "config.bl.params" in str(replies["bad"])
        assert replies["good"] == direct_bytes
        # The bad request never reached the pool the good one rode in.
        stats = service.stats()
        assert (stats["dispatched"], stats["batch_size_max"]) == (1.0, 1.0)
        assert service._dispatcher.is_alive()
    finally:
        thread.stop()


@BACKENDS
def test_request_that_fails_to_mesh_fails_alone(tmp_path, backend,
                                                direct_bytes):
    service, thread, endpoint = _start(tmp_path, backend)
    try:
        replies = _submit_together(endpoint, {
            "bad": lambda c: c.submit(*_flat_request()).raw,
            "good": lambda c: c.submit(*_request()).raw,
        })
        assert isinstance(replies["bad"], ServiceError)
        assert "not strictly counter-clockwise" in str(replies["bad"])
        assert replies["good"] == direct_bytes
        # Each meshed once, side by side: the failure ended its own
        # item only.
        stats = service.stats()
        assert stats["dispatched"] == 2.0
        assert service._dispatcher.is_alive()
        with ServiceClient(endpoint, timeout=60.0) as later:
            assert later.submit(*_request()).raw == direct_bytes
    finally:
        thread.stop()


@BACKENDS
def test_old_layout_is_an_error_not_another_mesh(tmp_path, backend,
                                                 direct_bytes):
    """A request packed with the removed BL ``triangulation`` key."""
    payload = pack_mesh_request(*_request())
    payload["config.bl.triangulation"] = np.frombuffer(
        b"structured", dtype=np.uint8).copy()
    service, thread, endpoint = _start(tmp_path, backend)
    try:
        with ServiceClient(endpoint, timeout=60.0) as client:
            with pytest.raises(
                    ServiceError,
                    match=r"unexpected \['config.bl.triangulation'\]"):
                client.submit_packed(payload)
            assert client.submit(*_request()).raw == direct_bytes
        assert service._dispatcher.is_alive()
    finally:
        thread.stop()


def test_non_finite_setting_is_an_error_not_a_hang(tmp_path, direct_bytes):
    """A request packed with ``grading = nan`` (a client that skipped
    ``MeshConfig``'s checks) gets an ``err`` frame naming the field, and
    the next valid request on the same daemon is served.  It used to
    hang its worker in the decoupling march; on ``processes`` a hung
    worker is terminated at shutdown, so a regression fails here
    instead of stalling the suite."""
    payload = pack_mesh_request(*_request())
    params = payload["config.params"].copy()
    params[serde._MESH_FIELDS.index("grading")] = np.nan
    payload["config.params"] = params
    service, thread, endpoint = _start(tmp_path, "processes")
    try:
        with ServiceClient(endpoint, timeout=30.0) as client:
            with pytest.raises(ServiceError,
                               match="grading must be a finite number"):
                client.submit_packed(payload)
            assert client.submit(*_request()).raw == direct_bytes
        assert service._dispatcher.is_alive()
    finally:
        thread.stop()
