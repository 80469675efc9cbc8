"""The pluggable executor layer: registry, backends, pool sessions.

Work functions used with the ``processes`` backend live at module scope
— the backend rejects closures by contract (they cannot cross the
process boundary).
"""

import numpy as np
import pytest

from repro.runtime import counters as counters_mod
from repro.runtime import executor
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
        backend = executor.get_backend(name)
        payloads = [{"x": np.full(3, float(i))} for i in range(9)]
        costs = [float(9 - i) for i in range(9)]
        results = backend.map_workitems(_double, payloads, costs=costs,
                                        n_ranks=3)
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
        backend = executor.get_backend("processes")
        payloads = [{"flag": np.asarray([0.0])}, {"flag": np.asarray([1.0])}]
        with pytest.raises(ExecutorError, match="boom in worker"):
            backend.map_workitems(_maybe_boom, payloads, n_ranks=2)

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
        submission mode) returns exactly what ``map_workitems`` (the
        same session driven with ``eager=False``) returns for the same
        payloads and costs, in payload order."""
        backend = executor.get_backend("processes")
        payloads = [{"x": np.full(3, float(i))} for i in range(7)]
        costs = [float(1 + (3 * i) % 7) for i in range(7)]
        mapped = backend.map_workitems(_double, payloads, costs=costs,
                                       n_ranks=2)
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
