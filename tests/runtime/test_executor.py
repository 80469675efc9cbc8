"""The pluggable executor layer: registry, backends, pool sessions.

Work functions used with the ``processes`` backend live at module scope
— the backend rejects closures by contract (they cannot cross the
process boundary).
"""

import importlib
import inspect
import os
import pickle
import pkgutil
import re
import threading
import time

import numpy as np
import pytest

import repro
from repro.delaunay.constrained import RingError
from repro.runtime import counters as counters_mod
from repro.runtime import executor, serde
from repro.runtime.counters import monotonic
from repro.runtime.executor import ExecutorError, ProcessesBackend

ALL_BACKENDS = ["serial", "processes"]


# ----------------------------------------------------------------------
# Module-level work functions (processes-backend-portable).
# ----------------------------------------------------------------------
def _double(payload):
    return {"x": payload["x"] * 2.0}


def _maybe_boom(payload):
    if payload["flag"][0] > 0:
        raise ValueError("boom in worker")
    return {"flag": payload["flag"]}


def _not_buffers(payload):
    return 3.5


class _NeedsTwoArgs(Exception):
    """An exception ``pickle`` cannot rebuild: its ``args`` hold one
    message, its ``__init__`` wants two arguments."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def _raise_ring_error(payload):
    raise RingError(1, 4, "crosses hole ring 0")


def _raise_unpicklable(payload):
    raise _NeedsTwoArgs("stuck", 7)


def _sleep_then_double(payload):
    time.sleep(float(payload["delay"][0]))
    return {"x": payload["x"] * 2.0}


def _count_events(payload):
    sink = counters_mod.current()
    if sink is not None:
        sink.incr("test.items_seen")
    return {"x": payload["x"]}


# ----------------------------------------------------------------------
# Lookup by name
# ----------------------------------------------------------------------
class TestRegistry:
    def test_available_includes_all(self):
        assert executor.available_backends() == ["processes", "serial"]

    def test_unknown_raises(self):
        for name in ("cuda", "local", "threads"):
            with pytest.raises(
                    ValueError,
                    match=r"unknown backend.*\(available: processes, serial\)"):
                executor.get_backend(name)

    def test_resolve_precedence(self, monkeypatch):
        """The name passed is the only input: ``REPRO_BACKEND`` is read
        by nothing, and there is no default to fall back to."""
        monkeypatch.setenv("REPRO_BACKEND", "processes")
        assert executor.get_backend("serial").name == "serial"
        monkeypatch.setenv("REPRO_BACKEND", "mpi")
        assert executor.get_backend("processes").name == "processes"
        with pytest.raises(TypeError):
            executor.get_backend()
        with pytest.raises(ValueError, match="unknown backend: None"):
            executor.get_backend(None)

    def test_flags(self):
        assert not executor.get_backend("serial").parallel
        assert executor.get_backend("processes").parallel


# ----------------------------------------------------------------------
# map_workitems over every backend
# ----------------------------------------------------------------------
class TestMapWorkitems:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_results_in_payload_order(self, name):
        """Costs reorder the dispatch (largest first), never the
        results."""
        backend = executor.get_backend(name)
        session = backend.stream_workitems(_double, n_ranks=3)
        for i in range(9):
            session.submit({"x": np.full(3, float(i))}, cost=float(i),
                           eager=False)
        results = session.results()
        assert len(results) == 9
        for i, r in enumerate(results):
            assert np.array_equal(r["x"], np.full(3, 2.0 * i))

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_no_costs_given(self, name):
        backend = executor.get_backend(name)
        payloads = [{"x": np.asarray([float(i)])} for i in range(5)]
        results = backend.map_workitems(_double, payloads, n_ranks=2)
        for i, r in enumerate(results):
            assert np.array_equal(r["x"], np.asarray([2.0 * i]))

    def test_processes_empty(self):
        assert executor.get_backend("processes").map_workitems(
            _double, [], n_ranks=2) == []

    @pytest.mark.parametrize("name", ["processes"])
    def test_bad_rank_count(self, name):
        with pytest.raises(ExecutorError, match="at least one rank"):
            executor.get_backend(name).map_workitems(
                _double, [{"x": np.ones(1)}], n_ranks=0)

    def test_more_ranks_than_items(self):
        backend = executor.get_backend("processes")
        payloads = [{"x": np.asarray([1.0])}, {"x": np.asarray([2.0])}]
        results = backend.map_workitems(_double, payloads, n_ranks=8)
        assert np.array_equal(results[1]["x"], np.asarray([4.0]))


# ----------------------------------------------------------------------
# Processes-backend contracts
# ----------------------------------------------------------------------
class TestProcessesContracts:
    def test_closure_rejected(self):
        backend = executor.get_backend("processes")
        with pytest.raises(ExecutorError, match="module-level"):
            backend.map_workitems(lambda p: p, [{"x": np.ones(1)}])

    def test_non_buffer_payload_rejected(self):
        backend = executor.get_backend("processes")
        with pytest.raises(ExecutorError, match="buffer dict"):
            backend.map_workitems(_double, [{"x": [1.0, 2.0]}])

    def test_non_buffer_result_rejected(self):
        backend = executor.get_backend("processes")
        with pytest.raises(ExecutorError, match="buffer dict"):
            backend.map_workitems(_not_buffers, [{"x": np.ones(1)}])

    def test_worker_exception_propagates(self):
        """The item's own exception class reaches the caller, as on
        serial; the pool's report naming item and worker is its cause."""
        backend = executor.get_backend("processes")
        payloads = [{"flag": np.asarray([0.0])}, {"flag": np.asarray([1.0])}]
        with pytest.raises(ValueError, match="boom in worker") as info:
            backend.map_workitems(_maybe_boom, payloads, n_ranks=2)
        assert isinstance(info.value.__cause__, ExecutorError)
        assert re.match(r"work item 1 failed in pool worker \d+",
                        str(info.value.__cause__))

    def test_counter_snapshots_merge_into_parent(self):
        backend = executor.get_backend("processes")
        payloads = [{"x": np.asarray([float(i)])} for i in range(6)]
        with counters_mod.use_counters() as sink:
            backend.map_workitems(_count_events, payloads, n_ranks=2)
        # Worker-side events crossed the process boundary and merged.
        assert sink.events.get("test.items_seen", 0) == 6
        per_rank = [n for name, n in sorted(sink.events.items())
                    if name.startswith("executor.items.rank")]
        assert sum(per_rank) == 6
        assert any(name == "executor.processes.item"
                   for name in sink.phases)

    def test_spawn_context_also_works(self, monkeypatch):
        # The pool under ``spawn`` (a platform without fork): workers
        # start from a fresh interpreter and resolve the work function by
        # import path, so nothing in the dispatch protocol depends on
        # fork inheritance.
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        backend = ProcessesBackend()
        assert backend._context().get_start_method() == "spawn"
        payloads = [{"x": np.asarray([float(i)])} for i in range(4)]
        results = backend.map_workitems(_double, payloads, n_ranks=2)
        for i, r in enumerate(results):
            assert np.array_equal(r["x"], np.asarray([2.0 * i]))

    def test_eager_stream_matches_map(self):
        """A session fed item by item with ``eager=True`` (the pipeline's
        submission mode) returns exactly what the same session driven
        with ``eager=False`` (as ``map_workitems`` drives it) returns for
        the same payloads and costs, in payload order."""
        backend = executor.get_backend("processes")
        payloads = [{"x": np.full(3, float(i))} for i in range(7)]
        costs = [float(1 + (3 * i) % 7) for i in range(7)]
        queued = backend.stream_workitems(_double, n_ranks=2)
        for p, c in zip(payloads, costs):
            queued.submit(p, cost=c, eager=False)
        mapped = queued.results()
        session = backend.stream_workitems(_double, n_ranks=2)
        for i, (p, c) in enumerate(zip(payloads, costs)):
            assert session.submit(p, cost=c, eager=True) == i
        streamed = session.results()
        assert len(streamed) == len(mapped) == 7
        for a, b in zip(streamed, mapped):
            assert a.keys() == b.keys()
            assert a["x"].tobytes() == b["x"].tobytes()


# ----------------------------------------------------------------------
# The pool lifecycle, on both backends
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_serial_lifecycle_calls_do_nothing(self):
        backend = executor.get_backend("serial")
        assert backend.warm_pool(4) == 0
        backend.exclude_fds_from_workers([0])
        assert backend.abort("test") is False
        backend.shutdown_pool()
        out = backend.map_workitems(_double, [{"x": np.ones(2)}])
        assert out[0]["x"][0] == 2.0

    def test_construction_allocates_nothing(self):
        backend = ProcessesBackend()
        assert backend._result_q is None and not backend._workers
        assert backend.abort("test") is False
        backend.shutdown_pool()  # nothing to stop

    def test_shutdown_leaves_the_backend_reusable(self):
        """After ``shutdown_pool`` the same backend forks again on
        demand, and its ``stats`` keep counting across the restart."""
        backend = ProcessesBackend()
        try:
            assert backend.warm_pool(2) == 2
            backend.map_workitems(_double, [{"x": np.ones(2)}] * 3,
                                  n_ranks=2)
            assert backend.stats == {"forks": 2, "respawns": 0, "calls": 1}
            backend.shutdown_pool()
            assert backend._result_q is None and not backend._workers
            out = backend.map_workitems(_double, [{"x": np.ones(2)}] * 3,
                                        n_ranks=2)
            assert [o["x"][0] for o in out] == [2.0, 2.0, 2.0]
            assert backend.stats == {"forks": 4, "respawns": 0, "calls": 2}
            assert sorted(backend._workers) == [2, 3]  # ranks not reused
        finally:
            backend.shutdown_pool()


# ----------------------------------------------------------------------
# Item errors keep their class across the pool
# ----------------------------------------------------------------------
def _own_exception_classes():
    """Every exception class ``src/repro`` defines, by qualified name."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == info.name):
                found[f"{info.name}.{obj.__qualname__}"] = obj
    return found


class TestItemErrors:
    #: an instance of every exception class of ``src/repro`` with its own
    #: ``__init__``: ``pickle`` rebuilds an exception from its ``args``,
    #: which such an ``__init__`` may not take back.
    CUSTOM_INIT = {
        "repro.delaunay.constrained.RingError":
            RingError(0, 3, "repeats vertex 2"),
    }

    def test_every_exception_with_its_own_init_round_trips(self):
        classes = _own_exception_classes()
        assert "repro.runtime.executor.ExecutorError" in classes
        custom = {name for name, cls in classes.items()
                  if "__init__" in vars(cls)}
        assert custom == set(self.CUSTOM_INIT)
        for exc in self.CUSTOM_INIT.values():
            back = pickle.loads(pickle.dumps(exc))
            assert type(back) is type(exc)
            assert back.args == exc.args
            assert vars(back) == vars(exc)

    def test_pooled_ring_error_keeps_ring_and_vertex(self):
        backend = executor.get_backend("processes")
        with pytest.raises(RingError, match="hole ring 0, vertex 4") as info:
            backend.map_workitems(_raise_ring_error, [{"x": np.ones(1)}])
        assert (info.value.ring, info.value.vertex) == (1, 4)
        assert "work item 0 failed" in str(info.value.__cause__)

    def test_exception_that_cannot_round_trip_is_an_executor_error(self):
        backend = executor.get_backend("processes")
        with pytest.raises(ExecutorError,
                           match=r"(?s)work item 0 failed in pool worker "
                                 r"\d+:.*_NeedsTwoArgs: stuck at 7"):
            backend.map_workitems(_raise_unpicklable, [{"x": np.ones(1)}])


# ----------------------------------------------------------------------
# take(): outcomes as items finish, on both backends
# ----------------------------------------------------------------------
def _session(name, fn, n_ranks=3):
    """A fresh session: a private pool on ``processes``."""
    backend = (ProcessesBackend() if name == "processes"
               else executor.get_backend(name))
    return backend, backend.stream_workitems(fn, n_ranks=n_ranks)


def _drain(session):
    """Every outcome ``take`` hands out, up to its first None."""
    out = []
    while True:
        done = session.take()
        if done is None:
            return out
        out.append(done)


class TestTake:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_outcomes_come_in_completion_order(self, name):
        """On ``processes`` the items run at once and finish by their
        delay; on ``serial`` ``take`` runs the largest pending item
        first.  Either way ``take`` hands them out as they finish."""
        backend, session = _session(name, _sleep_then_double)
        try:
            for i, (delay, cost) in enumerate([(0.6, 1.0), (0.05, 3.0),
                                               (0.3, 2.0)]):
                assert session.submit({"x": np.full(2, float(i)),
                                       "delay": np.asarray([delay])},
                                      cost=cost) == i
            t0 = monotonic()
            outcomes = _drain(session)
        finally:
            backend.shutdown_pool()
        assert [o[0] for o in outcomes] == [1, 2, 0]
        for idx, result, error, started in outcomes:
            assert error is None
            np.testing.assert_array_equal(result["x"], np.full(2, 2.0 * idx))
            assert t0 - 5.0 < started < monotonic()

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_an_item_error_is_its_own_outcome(self, name):
        """The failing item's outcome is its own exception, whose cause
        names the item and where it ran; the others finish."""
        backend, session = _session(name, _maybe_boom, n_ranks=2)
        try:
            for flag in (0.0, 1.0, 0.0, 0.0):
                session.submit({"flag": np.asarray([flag])})
            outcomes = {o[0]: o for o in _drain(session)}
        finally:
            backend.shutdown_pool()
        assert sorted(outcomes) == [0, 1, 2, 3]
        _, result, error, _ = outcomes[1]
        assert result is None and isinstance(error, ValueError)
        assert str(error) == "boom in worker"
        assert isinstance(error.__cause__, ExecutorError)
        assert re.match(r"work item 1 failed in (pool worker \d+|the serial "
                        r"backend's calling thread):\n",
                        str(error.__cause__))
        assert "Traceback" in str(error.__cause__)
        for idx in (0, 2, 3):
            assert outcomes[idx][2] is None
            assert outcomes[idx][1]["flag"][0] == 0.0

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_nothing_outstanding_takes_none(self, name):
        backend, session = _session(name, _double)
        try:
            assert session.take() is None
            session.submit({"x": np.ones(1)})
            assert session.take()[0] == 0
            assert session.take() is None
        finally:
            backend.shutdown_pool()

    def test_wake_interrupts_a_blocked_take(self):
        backend, session = _session("processes", _sleep_then_double,
                                    n_ranks=1)
        try:
            session.submit({"x": np.ones(1), "delay": np.asarray([2.0])})
            timer = threading.Timer(0.2, session.wake)
            t0 = monotonic()
            timer.start()
            assert session.take() is None
            assert monotonic() - t0 < 1.5
            assert session.take()[0] == 0  # the item itself ran on
        finally:
            timer.cancel()
            backend.shutdown_pool()

    def test_abort_ends_every_outstanding_item(self, monkeypatch):
        """``abort`` from another thread while ``take`` blocks: every
        item in flight or pending ends with ``ExecutorError``, no shm
        segment outlives the session, and the pool runs new work."""
        monkeypatch.setattr(serde, "SHM_MIN_BYTES", 0)
        before = {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
        backend, session = _session("processes", _sleep_then_double,
                                    n_ranks=2)
        try:
            for i in range(4):
                session.submit({"x": np.full(8, float(i)),
                                "delay": np.asarray([0.5])})
            timer = threading.Timer(0.1, backend.abort, args=("test stop",))
            timer.start()
            outcomes = _drain_until_closed(session)
            assert sorted(o[0] for o in outcomes) == [0, 1, 2, 3]
            for _, result, error, _ in outcomes:
                assert result is None
                assert isinstance(error, ExecutorError)
                assert str(error) == "dispatch aborted: test stop"
            out = backend.map_workitems(_double, [{"x": np.ones(2)}],
                                        n_ranks=2)
            assert out[0]["x"][0] == 2.0
        finally:
            timer.cancel()
            backend.shutdown_pool()
        assert {n for n in os.listdir("/dev/shm")
                if n.startswith("psm_")} <= before

    def test_serial_abort_is_a_no_op_and_take_runs_on(self):
        """``serial`` has no worker to fence: ``abort`` returns False,
        and the session's pending items still run."""
        backend, session = _session("serial", _double)
        for i in range(2):
            session.submit({"x": np.full(2, float(i))})
        assert backend.abort("test stop") is False
        assert [o[0] for o in _drain(session)] == [0, 1]


def _drain_until_closed(session):
    """Every outcome of an aborted session; once none is left, ``take``
    raises the abort (after at most one ``None`` for its wake-up)."""
    out = _drain(session)
    with pytest.raises(ExecutorError, match="dispatch aborted: test stop"):
        session.take()
    return out
