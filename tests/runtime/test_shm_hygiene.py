"""Shared-memory hygiene: no orphaned segments, whatever the exit path.

Every shm segment the executor publishes (input payloads *and* result
meshes — both directions use the same wire envelope) must be unlinked by
exactly one consumer.  These tests force the threshold to zero so every
transfer rides shared memory, then scan ``/dev/shm`` for leaked
``psm_*`` segments after: a clean batch, a streamed session, a
SIGKILLed worker (the requeue path re-publishes the payload), an item
failure (the abort path discards undelivered wires), and pool shutdown.
"""

import os
import signal

import numpy as np
import pytest

from repro.runtime import serde
from repro.runtime.executor import ExecutorError, ProcessesBackend

SHM_DIR = "/dev/shm"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR),
    reason="no /dev/shm to scan on this platform")


def _segments():
    """Names of live posix shared-memory segments (Python's psm_ pool)."""
    return {n for n in os.listdir(SHM_DIR) if n.startswith("psm_")}


@pytest.fixture
def shm_everything(monkeypatch):
    """Force every payload/result through shared memory (threshold 0).

    The backend is constructed *inside* each test, after this fixture
    ran, so forked workers inherit the zeroed threshold.
    """
    monkeypatch.setattr(serde, "SHM_MIN_BYTES", 0)


def _double(payload):
    return {"x": payload["x"] * 2.0}


def _boom_on_flag(payload):
    if payload["flag"][0] > 0:
        raise ValueError("hygiene failure path")
    return {"flag": payload["flag"]}


def _kill_once_then_double(payload):
    marker = bytes(payload["marker"].astype(np.uint8)).decode()
    if payload["kill"][0] > 0 and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return {"x": payload["x"] * 2.0}


class TestShmHygiene:
    def test_clean_batch_leaves_no_segments(self, shm_everything):
        before = _segments()
        backend = ProcessesBackend()
        try:
            out = backend.map_workitems(
                _double, [{"x": np.full(64, float(i))}
                          for i in range(8)], n_ranks=3)
            assert len(out) == 8
            # Wires are consumed (attach+unlink) as they are delivered:
            # clean even before shutdown.
            assert _segments() <= before
        finally:
            backend.shutdown_pool()
        assert _segments() <= before

    def test_streamed_session_leaves_no_segments(self, shm_everything):
        before = _segments()
        backend = ProcessesBackend()
        try:
            session = backend.stream_workitems(_double, n_ranks=2)
            for i in range(6):
                session.submit({"x": np.full(32, float(i))})
            session.results()
            assert _segments() <= before
        finally:
            backend.shutdown_pool()
        assert _segments() <= before

    def test_worker_death_leaks_nothing(self, shm_everything, tmp_path):
        """The killed worker held an attached input segment; the parent
        must discard the undelivered wire before re-publishing the
        requeued payload."""
        before = _segments()
        marker = str(tmp_path / "shm-kill-once")
        payloads = [
            {"x": np.full(64, float(i)),
             "kill": np.asarray([1.0 if i == 0 else 0.0]),
             "marker": np.frombuffer(marker.encode(),
                                     dtype=np.uint8).copy()}
            for i in range(6)
        ]
        backend = ProcessesBackend()
        try:
            out = backend.map_workitems(_kill_once_then_double,
                                        payloads, n_ranks=3)
            assert backend.stats["respawns"] >= 1
            assert len(out) == 6
            assert _segments() <= before
        finally:
            backend.shutdown_pool()
        assert _segments() <= before

    def test_item_failure_abort_leaks_nothing(self, shm_everything):
        """The abort path quiesces in-flight items and discards their
        result wires; pending undelivered payload wires are freed."""
        before = _segments()
        payloads = [{"flag": np.asarray([0.0] * 32)} for _ in range(6)]
        payloads[2] = {"flag": np.asarray([1.0] * 32)}
        backend = ProcessesBackend()
        try:
            with pytest.raises(ExecutorError, match="work item 2"):
                backend.map_workitems(_boom_on_flag, payloads, n_ranks=2)
            assert _segments() <= before
        finally:
            backend.shutdown_pool()
        assert _segments() <= before
