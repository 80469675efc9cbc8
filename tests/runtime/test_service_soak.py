"""Concurrency/soak tests for the meshing service daemon.

N parallel clients hammer a live daemon with a mixed cached/uncached
workload of real mesh requests and assert:

* every served mesh is byte-identical to a direct ``generate_mesh``
  run of the same request (the service is a transport, not a mesher);
* the single-flight cache means each distinct request is meshed
  exactly once (``hits + dedup joins + distinct == requests``);
* a client disconnecting mid-request doesn't poison the daemon;
* with the processes backend and the shm threshold forced to zero, no
  ``psm_*`` segments remain in ``/dev/shm`` after shutdown (the shm
  hygiene scanner, applied to the service lifecycle);
* telemetry does not grow with uptime: past a stream's window the
  daemon keeps its latest values only, and its counts stay exact.
"""

import os
import socket
import threading

import numpy as np
import pytest

from tests.domains import small_bl

from repro.core.pipeline import MeshConfig, generate_mesh, pack_mesh_request
from repro.geometry.airfoils import naca4
from repro.geometry.pslg import PSLG
from repro.runtime import counters, serde
from repro.runtime.client import ServiceClient
from repro.runtime.service import MeshService, encode_frame

from tests.runtime.service_thread import ServiceThread

SHM_DIR = "/dev/shm"
N_CLIENTS = 4
REQUESTS_PER_CLIENT = 6


def _segments():
    """Names of live posix shared-memory segments (Python's psm_ pool)."""
    return {n for n in os.listdir(SHM_DIR) if n.startswith("psm_")}


@pytest.fixture
def shm_everything(monkeypatch):
    """Force every payload/result through shared memory (threshold 0),
    before the service forks its warm pool."""
    monkeypatch.setattr(serde, "SHM_MIN_BYTES", 0)


def _workload():
    """Three small distinct requests — the mixed cached/uncached set."""
    out = []
    for code, grading in (("0012", 0.3), ("0012", 0.35), ("2412", 0.35)):
        pslg = PSLG.from_loops([naca4(code, 21)], names=[f"naca{code}"])
        out.append((pslg, MeshConfig(bl=small_bl(max_layers=4),
                                     farfield_chords=5.0, grading=grading,
                                     target_subdomains=4)))
    return out


def _direct_bytes(workload):
    return [
        serde.buffers_to_bytes(serde.pack_mesh(
            generate_mesh(pslg, config, backend="serial").mesh))
        for pslg, config in workload
    ]


def _soak(endpoint, workload, direct, *,
          n_clients=N_CLIENTS, per_client=REQUESTS_PER_CLIENT):
    """Drive the daemon from ``n_clients`` threads; returns failures."""
    failures = []

    def client_loop(cid):
        try:
            with ServiceClient(endpoint) as client:
                for i in range(per_client):
                    j = (cid + i) % len(workload)
                    reply = client.submit(*workload[j])
                    if reply.raw != direct[j]:
                        failures.append((cid, i, "served bytes differ "
                                         "from direct generate_mesh"))
        except Exception as exc:  # noqa: BLE001 - collected for assert
            failures.append((cid, repr(exc)))

    threads = [threading.Thread(target=client_loop, args=(cid,))
               for cid in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    alive = [t for t in threads if t.is_alive()]
    if alive:
        failures.append(f"{len(alive)} client thread(s) hung")
    return failures


def test_parallel_clients_mixed_workload_serial(tmp_path):
    workload = _workload()
    direct = _direct_bytes(workload)
    service = MeshService(f"unix:{tmp_path}/soak.sock", backend="serial",
                          batch_window=0.02)
    thread = ServiceThread(service)
    endpoint = thread.start()
    try:
        failures = _soak(endpoint, workload, direct)
        assert not failures, failures
        stats = service.stats()
        total = float(N_CLIENTS * REQUESTS_PER_CLIENT)
        assert stats["requests"] == total
        # Single-flight + cache: each distinct request meshed once.
        assert stats["cache_hits"] + stats["dedup_joins"] == \
            total - len(workload)
        assert stats["latency_p50_s"] > 0.0
        assert stats["latency_p99_s"] >= stats["latency_p50_s"]
    finally:
        thread.stop()


@pytest.mark.skipif(not os.path.isdir(SHM_DIR),
                    reason="no /dev/shm to scan on this platform")
def test_soak_processes_backend_no_shm_leaks(tmp_path, shm_everything):
    """Full service lifecycle on the processes backend with every
    transfer riding shared memory: soak traffic, a mid-request client
    disconnect, graceful shutdown — and no leaked segments after."""
    before = _segments()
    workload = _workload()[:2]
    direct = _direct_bytes(workload)
    service = MeshService(f"unix:{tmp_path}/soak.sock",
                          backend="processes", n_ranks=2,
                          batch_window=0.05)
    thread = ServiceThread(service)
    endpoint = thread.start()
    try:
        # One client vanishes mid-request while the soak runs.
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(str(tmp_path / "soak.sock"))
        raw.sendall(encode_frame("mesh", serde.buffers_to_bytes(
            pack_mesh_request(*workload[0]))))
        raw.close()
        failures = _soak(endpoint, workload, direct,
                         n_clients=3, per_client=4)
        assert not failures, failures
        stats = service.stats()
        assert stats["requests"] >= 12.0
    finally:
        thread.stop()
    # The daemon owned its pool: workers are gone after shutdown ...
    assert not service._backend._workers
    assert service._backend._result_q is None
    # ... and every shm wire was attached+unlinked by exactly one side.
    assert _segments() <= before


def test_soak_survives_reconnect_churn(tmp_path):
    """Fresh connection per request (the CLI submit pattern) under
    concurrency: connection setup/teardown must not leak state."""
    workload = _workload()[:1]
    direct = _direct_bytes(workload)
    service = MeshService(f"unix:{tmp_path}/churn.sock", backend="serial",
                          batch_window=0.01)
    thread = ServiceThread(service)
    endpoint = thread.start()
    try:
        failures = []

        def churn(cid):
            try:
                for _ in range(5):
                    with ServiceClient(endpoint) as client:
                        reply = client.submit(*workload[0])
                        if reply.raw != direct[0]:
                            failures.append((cid, "bytes differ"))
            except Exception as exc:  # noqa: BLE001
                failures.append((cid, repr(exc)))

        threads = [threading.Thread(target=churn, args=(cid,))
                   for cid in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not failures, failures
        assert not any(t.is_alive() for t in threads)
        assert service.stats()["requests"] == 15.0
    finally:
        thread.stop()


def _echo(payload):
    return {"y": np.asarray(payload["x"]) * 2.0}


def _unit_cost(payload):
    return 1.0


def test_telemetry_is_bounded_and_exact(tmp_path, monkeypatch):
    """More requests than a sample stream's window: every stream keeps
    at most ``SAMPLE_WINDOW`` values, while ``hit_ratio`` and
    ``batch_size_mean`` stay exact over the whole uptime."""
    monkeypatch.setattr(counters, "SAMPLE_WINDOW", 8)
    service = MeshService(f"unix:{tmp_path}/bounded.sock", backend="serial",
                          batch_window=0.05, work_fn=_echo,
                          cost_fn=_unit_cost)
    thread = ServiceThread(service)
    endpoint = thread.start()

    def request(tag):
        with ServiceClient(endpoint) as client:
            return client.submit_packed({"x": np.full(4, float(tag))})

    try:
        # A burst of concurrent misses (batched together or not), then
        # sequential misses and hits on one connection.
        burst = [threading.Thread(target=request, args=(i,))
                 for i in range(4)]
        for t in burst:
            t.start()
        for t in burst:
            t.join(timeout=60)
        with ServiceClient(endpoint) as client:
            for i in range(4, 14):
                client.submit_packed({"x": np.full(4, float(i))})
            for i in range(30):
                kind, _ = client.submit_packed({"x": np.full(4, float(i % 3))})
                assert kind == "mesh-hit"
        stats = service.stats()
    finally:
        thread.stop()
    assert stats["requests"] == 44.0
    assert stats["hit_ratio"] == 30 / 44
    # Every distinct miss was dispatched once, in some batch.
    assert stats["batch_size_mean"] == 14 / stats["batches"]
    assert all(len(v) <= 8 for v in service.counters.samples.values())
    n_lat, _, _, window = service.counters.stream("service.latency_seconds")
    assert (n_lat, len(window)) == (44, 8)
    assert stats["latency_p99_s"] >= stats["latency_p50_s"] > 0.0
