"""Shutdown-path tests the main service suite does not cover.

Two concerns live here:

* **a backend without workers** — on ``serial``,
  ``warm_pool``/``abort``/``exclude_fds_from_workers``/``shutdown_pool``
  do nothing, so service shutdown cannot interrupt a batch: the
  in-flight batch runs out, every client still gets a definitive
  ok/err frame, and stop time stays bounded.
* **fd hygiene** — a pool worker respawned *after* the daemon has
  bound its listening socket forks with that fd open.  The pool's
  ``exclude_fds`` contract makes the worker close it at startup; the
  regression test proves the inherited duplicate would otherwise be
  there (positive control) and is gone with the contract in force.

Work functions are module-level so the processes backend's workers can
resolve them by import path (closures are rejected by design).
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.runtime import serde
from repro.runtime.client import ServiceClient
from repro.runtime.counters import monotonic
from repro.runtime.service import MeshService, ServiceError

from tests.runtime.service_thread import ServiceThread


def _buffers(tag, n=16):
    return {"x": np.full(n, float(tag)), "tag": np.asarray([float(tag)])}


def _echo_item(payload):
    return {"y": np.asarray(payload["x"]) * 2.0, "tag": payload["tag"]}


def _slow_item(payload):
    time.sleep(float(payload["delay"][0]) if "delay" in payload else 0.3)
    return {"y": np.asarray(payload["x"]) + 1.0}


def _unit_cost(payload):
    return 1.0


# -- backend without workers --------------------------------------------


def test_serial_shutdown_mid_batch_returns_frames_and_is_bounded(tmp_path):
    """The serial backend's abort does nothing: shutdown lets the
    in-flight batch finish, fails undispatched requests cleanly, and
    every client gets exactly one ok/err frame — no hung sockets."""
    svc = MeshService(f"unix:{tmp_path}/svc.sock", backend="serial",
                      n_ranks=2, batch_window=0.05, max_batch=8,
                      work_fn=_slow_item, cost_fn=_unit_cost)
    thread = ServiceThread(svc)
    endpoint = thread.start()
    oks = {}
    errors = {}

    def run(tag):
        try:
            with ServiceClient(endpoint) as client:
                payload = _buffers(tag)
                payload["delay"] = np.asarray([0.5])
                _kind, blob = client.submit_packed(payload)
                oks[tag] = serde.bytes_to_buffers(blob)
        except ServiceError as exc:
            errors[tag] = str(exc)

    clients = [threading.Thread(target=run, args=(float(i),))
               for i in range(4)]
    for t in clients:
        t.start()
    deadline = monotonic() + 20.0
    while svc.stats()["batches"] < 1.0 and monotonic() < deadline:
        time.sleep(0.02)
    t0 = monotonic()
    thread.stop()
    stop_elapsed = monotonic() - t0
    for t in clients:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in clients)
    # Every request resolved one way; the dispatched ones completed
    # with correct results despite the shutdown racing them.
    assert sorted(list(oks) + list(errors)) == [0.0, 1.0, 2.0, 3.0]
    for tag, result in oks.items():
        np.testing.assert_allclose(result["y"], np.full(16, tag) + 1.0)
    assert all("shutting down" in msg or "abort" in msg
               for msg in errors.values())
    # Bounded by the batch running out (at most 4 items x 0.5s), not by any
    # timeout: a hang here means a no-op lifecycle call regressed.
    assert stop_elapsed < 10.0


def test_serial_shutdown_idle_is_fast(tmp_path):
    """With nothing in flight, the shutdown path must not sleep on
    any lifecycle call of a backend without workers."""
    svc = MeshService(f"unix:{tmp_path}/svc.sock", backend="serial",
                      n_ranks=2, work_fn=_echo_item, cost_fn=_unit_cost)
    thread = ServiceThread(svc)
    endpoint = thread.start()
    with ServiceClient(endpoint) as client:
        _kind, blob = client.submit_packed(_buffers(3.0))
    result = serde.bytes_to_buffers(blob)
    np.testing.assert_allclose(result["y"], np.full(16, 6.0))
    t0 = monotonic()
    thread.stop()
    assert monotonic() - t0 < 5.0


# -- listening-socket fd hygiene ---------------------------------------


def _fds_linked_to_socket(pid, inode):
    """fd numbers in ``/proc/<pid>/fd`` that point at ``socket:[inode]``."""
    target = f"socket:[{inode}]"
    try:
        entries = os.listdir(f"/proc/{pid}/fd")
    except OSError:
        return None  # process already gone
    found = []
    for entry in entries:
        try:
            link = os.readlink(f"/proc/{pid}/fd/{entry}")
        except OSError:
            continue
        if link == target:
            found.append(int(entry))
    return found


def _wait_for_clean_fds(pid, inode, timeout=5.0):
    """Poll until the worker's startup close-loop has run (or fail)."""
    deadline = monotonic() + timeout
    while monotonic() < deadline:
        linked = _fds_linked_to_socket(pid, inode)
        if not linked:
            return linked
        time.sleep(0.02)
    return _fds_linked_to_socket(pid, inode)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc fd introspection")
def test_respawned_worker_does_not_inherit_listening_socket(tmp_path):
    """A worker forked after bind must not hold the listening fd.

    Warming before bind protects the initial fleet, but respawns
    (worker death mid-request) fork from a parent whose listening
    socket is open.  The daemon registers that fd for exclusion, so
    the replacement closes it at startup — otherwise the duplicate
    keeps the accept() endpoint alive past service shutdown.
    """
    svc = MeshService(f"unix:{tmp_path}/svc.sock", backend="processes",
                      n_ranks=2, work_fn=_echo_item, cost_fn=_unit_cost)
    thread = ServiceThread(svc)
    try:
        endpoint = thread.start()
        with ServiceClient(endpoint) as client:
            client.submit_packed(_buffers(1.0))
        assert svc._server is not None and svc._server.sockets
        inode = os.fstat(svc._server.sockets[0].fileno()).st_ino
        pool = svc._backend
        assert len(pool._workers) >= 2
        # Sanity: warm workers forked before bind never saw the fd.
        for handle in pool._workers.values():
            assert not _fds_linked_to_socket(handle.proc.pid, inode)
        # The daemon registered the listening fd with the backend.
        registered = pool.exclude_fds
        assert registered, "listening fd was not registered"
        # Positive control: a worker forked after bind WITHOUT the
        # exclusion inherits the listening socket — the hazard is real
        # and the /proc scan detects it.
        pool.exclude_fds = ()
        leaky = pool._spawn()
        time.sleep(0.2)  # let the child reach its recv loop
        assert _fds_linked_to_socket(leaky.proc.pid, inode), \
            "control worker should inherit the listening fd"
        # Restore the contract and respawn: the replacement closes the
        # fd at startup.
        pool.exclude_fds = registered
        clean = pool._spawn()
        assert _wait_for_clean_fds(clean.proc.pid, inode) == []
        # The service still works with the extra workers around.
        with ServiceClient(endpoint) as client:
            _kind, blob = client.submit_packed(_buffers(2.0))
        result = serde.bytes_to_buffers(blob)
        np.testing.assert_allclose(result["y"], np.full(16, 4.0))
    finally:
        thread.stop()
