"""Fault injection for the persistent worker pool.

The pool's crash contract: a SIGKILLed worker never loses work — the
parent detects the death, respawns a worker, requeues the in-flight
item, and the batch result is byte-identical to a serial run.  A worker
that *raises* (an item bug, not a crash) aborts the batch with an
``ExecutorError`` naming the payload index, without hanging or
poisoning the pool.  An item that kills every worker it touches is
given up on after a bounded number of dispatch attempts.  Through
``take`` each of those is the item's own outcome, and the other items
finish.

Work functions live at module scope (processes-backend contract); the
crash switch is a marker file so the first execution attempt dies and
every retry succeeds deterministically.
"""

import os
import re
import signal

import numpy as np
import pytest

from repro.runtime.executor import ExecutorError, ProcessesBackend


def _decode_path(payload) -> str:
    return bytes(payload["marker"].astype(np.uint8)).decode()


def _encode_path(path: str) -> np.ndarray:
    return np.frombuffer(path.encode(), dtype=np.uint8).copy()


# ----------------------------------------------------------------------
# Module-level work functions.
# ----------------------------------------------------------------------
def _kill_once_then_double(payload):
    """SIGKILL this worker on the first execution attempt, then behave.

    The marker file flips the switch: missing -> create it and die
    mid-item (the parent never hears back); present -> a plain doubling
    work item.  Retries after the respawn therefore succeed.
    """
    marker = _decode_path(payload)
    if payload["kill"][0] > 0 and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return {"x": payload["x"] * 2.0}


def _kill_always(payload):
    """Poison item: SIGKILL whichever worker dares to execute it."""
    os.kill(os.getpid(), signal.SIGKILL)


def _kill_on_flag(payload):
    """Poison only the items flagged ``kill``; double the rest."""
    if payload["kill"][0] > 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return {"x": payload["x"] * 2.0}


def _boom_on_flag(payload):
    if payload["flag"][0] > 0:
        raise ValueError("deliberate item failure")
    return {"flag": payload["flag"] * 3.0}


def _double(payload):
    return {"x": payload["x"] * 2.0}


# ----------------------------------------------------------------------
# Crash -> respawn -> requeue
# ----------------------------------------------------------------------
class TestWorkerCrash:
    def test_sigkill_mid_batch_respawns_and_requeues(self, tmp_path):
        """A worker SIGKILLed mid-batch costs nothing but time: the pool
        respawns, requeues the lost item, and the batch output is
        byte-identical to computing the items serially."""
        marker = str(tmp_path / "killed-once")
        payloads = [
            {"x": np.full(4, float(i)),
             "kill": np.asarray([1.0 if i == 0 else 0.0]),
             "marker": _encode_path(marker)}
            for i in range(6)
        ]
        backend = ProcessesBackend()
        try:
            results = backend.map_workitems(_kill_once_then_double,
                                            payloads, n_ranks=3)
            assert backend.stats["respawns"] >= 1
            assert os.path.exists(marker)
        finally:
            backend.shutdown_pool()
        # Byte-identical to the serial evaluation of the same items.
        assert len(results) == len(payloads)
        for i, res in enumerate(results):
            expected = {"x": payloads[i]["x"] * 2.0}
            assert set(res) == {"x"}
            assert res["x"].dtype == expected["x"].dtype
            assert res["x"].tobytes() == expected["x"].tobytes()

    def test_crash_during_streaming_session(self, tmp_path):
        """Same contract through the streaming interface."""
        marker = str(tmp_path / "killed-once-stream")
        backend = ProcessesBackend()
        try:
            session = backend.stream_workitems(_kill_once_then_double,
                                               n_ranks=2)
            for i in range(5):
                session.submit({
                    "x": np.full(3, float(i)),
                    "kill": np.asarray([1.0 if i == 0 else 0.0]),
                    "marker": _encode_path(marker)})
            results = session.results()
        finally:
            backend.shutdown_pool()
        for i, res in enumerate(results):
            assert res["x"].tobytes() == np.full(3, float(i) * 2.0).tobytes()

    def test_crash_requeues_the_item_for_take(self, tmp_path):
        """Through ``take`` the SIGKILLed item is requeued and finishes
        like the rest; no outcome is lost or doubled."""
        marker = str(tmp_path / "killed-once-take")
        backend = ProcessesBackend()
        try:
            session = backend.stream_workitems(_kill_once_then_double,
                                               n_ranks=2)
            for i in range(4):
                session.submit({
                    "x": np.full(3, float(i)),
                    "kill": np.asarray([1.0 if i == 0 else 0.0]),
                    "marker": _encode_path(marker)})
            outcomes = {}
            while (done := session.take()) is not None:
                assert done[0] not in outcomes
                outcomes[done[0]] = done
            assert backend.stats["respawns"] >= 1
        finally:
            backend.shutdown_pool()
        assert sorted(outcomes) == [0, 1, 2, 3]
        for i, (_, result, error, _) in outcomes.items():
            assert error is None
            assert result["x"].tobytes() == np.full(3, 2.0 * i).tobytes()

    def test_poison_item_is_its_own_outcome_for_take(self):
        """An item that kills every worker ends with ``ExecutorError``
        after the bounded attempts; the item beside it finishes."""
        backend = ProcessesBackend()
        try:
            session = backend.stream_workitems(_kill_on_flag, n_ranks=2)
            session.submit({"x": np.zeros(2), "kill": np.asarray([1.0])})
            session.submit({"x": np.ones(2), "kill": np.asarray([0.0])})
            outcomes = {}
            while (done := session.take()) is not None:
                outcomes[done[0]] = done
        finally:
            backend.shutdown_pool()
        assert outcomes[1][2] is None
        assert outcomes[1][1]["x"].tolist() == [2.0, 2.0]
        error = outcomes[0][2]
        assert isinstance(error, ExecutorError)
        assert re.match(r"work item 0 crashed its worker on all \d+ "
                        r"dispatch attempts", str(error))

    def test_poison_item_gives_up_after_bounded_attempts(self):
        """An item that kills every worker is abandoned with an error
        naming the item, not retried forever."""
        backend = ProcessesBackend()
        try:
            with pytest.raises(
                    ExecutorError,
                    match=r"work item 0 crashed its worker on all "
                          r"\d+ dispatch attempts"):
                backend.map_workitems(_kill_always,
                                      [{"x": np.zeros(2)}], n_ranks=2)
            # The abort did not wedge the pool: it still does real work.
            out = backend.map_workitems(
                _double, [{"x": np.asarray([2.5])}], n_ranks=2)
            assert out[0]["x"][0] == 5.0
        finally:
            backend.shutdown_pool()


# ----------------------------------------------------------------------
# Item errors (raises, not crashes)
# ----------------------------------------------------------------------
class TestItemError:
    def test_error_names_payload_index_and_pool_survives(self):
        payloads = [{"flag": np.asarray([0.0])} for _ in range(5)]
        payloads[3] = {"flag": np.asarray([1.0])}
        backend = ProcessesBackend()
        try:
            with pytest.raises(ValueError,
                               match="deliberate item failure") as info:
                backend.map_workitems(_boom_on_flag, payloads, n_ranks=2)
            assert isinstance(info.value.__cause__, ExecutorError)
            assert re.match(r"work item 3 failed in pool worker \d+",
                            str(info.value.__cause__))
            # No hang, no poisoned state: the very next batch succeeds
            # on the same pool (workers were not torn down).
            out = backend.map_workitems(
                _boom_on_flag,
                [{"flag": np.asarray([0.0])}] * 4, n_ranks=2)
            assert all(o["flag"][0] == 0.0 for o in out)
        finally:
            backend.shutdown_pool()

    def test_traceback_is_carried_in_the_error(self):
        backend = ProcessesBackend()
        try:
            with pytest.raises(ValueError) as info:
                backend.map_workitems(_boom_on_flag,
                                      [{"flag": np.asarray([1.0])}],
                                      n_ranks=1)
            worker_tb = str(info.value.__cause__)
            assert "Traceback" in worker_tb
            assert "in _boom_on_flag" in worker_tb
            assert "ValueError: deliberate item failure" in worker_tb
        finally:
            backend.shutdown_pool()


# ----------------------------------------------------------------------
# Pool lifecycle
# ----------------------------------------------------------------------
class TestPoolLifecycle:
    def test_workers_are_reused_across_calls(self):
        backend = ProcessesBackend()
        try:
            backend.map_workitems(_double, [{"x": np.ones(2)}] * 4,
                                  n_ranks=2)
            forks_after_first = backend.stats["forks"]
            backend.map_workitems(_double, [{"x": np.ones(2)}] * 4,
                                  n_ranks=2)
            assert backend.stats["forks"] == forks_after_first
            assert backend.stats["calls"] == 2
        finally:
            backend.shutdown_pool()

    def test_shutdown_is_idempotent_and_terminal(self):
        backend = ProcessesBackend()
        backend.map_workitems(_double, [{"x": np.ones(2)}], n_ranks=1)
        backend.shutdown_pool()
        assert backend._result_q is None
        assert len(backend._workers) == 0
        backend.shutdown_pool()  # second call is a no-op
        # The same backend forks afresh on demand.
        out = backend.map_workitems(_double, [{"x": np.ones(2)}],
                                    n_ranks=1)
        assert out[0]["x"][0] == 2.0
        backend.shutdown_pool()
