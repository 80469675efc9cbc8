"""Pluggable execution backends: submit work items, collect results.

The paper's headline claim is wall-clock speedup from data decomposition
— independent subdomains refined by independent workers.  This module is
the seam that decides *what a worker is*:

``serial``
    Run every item in the calling thread.  The reference backend: zero
    scheduling, zero transport, bit-exact baseline.

``processes``
    True ``multiprocessing`` workers: :class:`ProcessesBackend` *is* the
    pool — persistent workers forked once and reused across dispatches;
    demand-driven largest-first dispatch with at most one in-flight
    item per worker, so a crashed worker maps to exactly one
    requeueable item (respawn + requeue, bounded attempts).

    Payloads and results cross the process boundary only as flat numpy
    buffer dicts (:mod:`repro.runtime.serde`), never as pickled Python
    object graphs; dicts of ≥ 64 KiB travel through refcounted
    ``multiprocessing.shared_memory`` segments in *both* directions
    (the receiver maps them zero-copy and unlinks on attach); per-item
    profiling counters are snapshotted and merged back into the
    parent's ambient sink.

Every backend implements the :class:`Backend` protocol —
``map_workitems(fn, payloads, n_ranks) -> results`` (in payload
order), ``stream_workitems(fn, n_ranks) -> session`` (submit items one
at a time as a producer discovers them; the warm pool starts refining
the first subdomain while decomposition is still splitting the rest;
collect them all with ``results`` or each as it finishes with ``take``)
and the pool lifecycle (no-ops on ``serial``) — and is looked up by
name with :func:`get_backend`; the CLI derives its ``--backend``
choices from :func:`available_backends`.
"""

from __future__ import annotations

import atexit
import bisect
import collections
import contextlib
import os
import pickle
import queue as queue_mod
import traceback
import weakref
from typing import (Any, Callable, Deque, Dict, List, Optional, Protocol,
                    Sequence, Tuple)

from . import counters as counters_mod
from . import serde
from .counters import monotonic, phase
from .serde import is_buffers

__all__ = [
    "Backend",
    "StreamSession",
    "ExecutorError",
    "SerialBackend",
    "ProcessesBackend",
    "PoolStream",
    "get_backend",
    "available_backends",
]


class ExecutorError(RuntimeError):
    """A backend could not run the submitted work."""


class StreamSession(Protocol):
    """An open streaming dispatch: submit items as they are produced.

    ``submit`` returns the item's index.  A session is consumed one of
    two ways:

    * ``results`` blocks until every submitted item finished and returns
      the results in submission order; the first item that fails fails
      the whole session with that item's exception (fail-fast);
    * ``take`` returns the next item to finish as ``(index, result,
      error, started)`` — ``error`` is the item's own exception (then
      ``result`` is None), ``started`` the :func:`monotonic` time it went
      to a worker (None if it never did) — and leaves the other items
      running when one fails.  It returns None when nothing is
      outstanding, or when ``wake`` (the one call that is safe from
      another thread) was called since the last ``take``.

    ``results`` closes the session, and so does ``cancel``, the
    producer's way out when it fails before collecting.
    """

    def submit(self, payload: Any, *, cost: float = 1.0,
               eager: bool = True) -> int: ...

    def results(self) -> List[Any]: ...

    def take(self) -> Optional[Tuple[int, Any, Optional[BaseException],
                                     Optional[float]]]: ...

    def wake(self) -> None: ...

    def cancel(self) -> None: ...


class Backend(Protocol):
    """The executor contract every backend satisfies.

    ``map_workitems`` applies a module-level function to every payload
    and returns the results *in payload order* regardless of which
    worker processed what.  ``stream_workitems`` opens a
    :class:`StreamSession` for producers that discover work
    incrementally; its per-item costs drive largest-first scheduling.
    A long-running owner (the meshing service) drives the four
    lifecycle calls.
    """

    #: the name :func:`get_backend` finds it under.
    name: str
    #: whether ``n_ranks`` changes anything.
    parallel: bool

    def map_workitems(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        *,
        n_ranks: int = 1,
    ) -> List[Any]: ...

    def stream_workitems(
        self,
        fn: Callable[[Any], Any],
        *,
        n_ranks: int = 1,
    ) -> StreamSession: ...

    def warm_pool(self, n_ranks: int) -> int: ...

    def exclude_fds_from_workers(self, fds: Sequence[int]) -> None: ...

    def abort(self, reason: str) -> bool: ...

    def shutdown_pool(self) -> None: ...


# ----------------------------------------------------------------------
# Shared validation
# ----------------------------------------------------------------------
def _check_ranks(n_ranks: int) -> int:
    if n_ranks < 1:
        raise ExecutorError(f"need at least one rank, got {n_ranks}")
    return int(n_ranks)


def _check_portable_fn(fn: Callable) -> None:
    """Process workers resolve ``fn`` by module path — reject closures."""
    qualname = getattr(fn, "__qualname__", "")
    if "<locals>" in qualname or not getattr(fn, "__module__", None):
        raise ExecutorError(
            f"work function {qualname or fn!r} must be a module-level "
            "function for the processes backend (closures cannot cross "
            "the process boundary); use the serial backend or lift it to "
            "module scope"
        )


def _check_buffer_payload(index: int, payload: Any) -> None:
    if not is_buffers(payload):
        raise ExecutorError(
            f"payload {index} is {type(payload).__name__}, not a flat "
            "dict[str, ndarray] buffer dict — pack it with "
            "repro.runtime.serde before submitting to the processes "
            "backend (no pickled object graphs on the hot path)"
        )


# ----------------------------------------------------------------------
# serial
# ----------------------------------------------------------------------
class _SerialStream:
    """Collect-then-run :class:`StreamSession` of the serial backend.

    There is no pool to feed incrementally, so streamed submission
    accumulates and ``results`` runs one ``map_workitems``: decouple
    fully, then map — the barriered reference the ``processes`` backend
    is byte-compared against.  ``take`` runs the largest pending item in
    the calling thread; nothing can interrupt it, so ``wake`` does
    nothing.
    """

    def __init__(self, backend: "SerialBackend", fn: Callable) -> None:
        self._backend = backend
        self._fn = fn
        #: submitted items not yet run, by index (submission order).
        self._payloads: Dict[int, Any] = {}
        #: the same items as (-cost, idx), largest first.
        self._pending: List[tuple] = []
        self._count = 0
        self._closed = False

    def submit(self, payload: Any, *, cost: float = 1.0,
               eager: bool = True) -> int:
        if self._closed:
            raise ExecutorError("streaming session already closed")
        idx = self._count
        self._count += 1
        self._payloads[idx] = payload
        bisect.insort(self._pending, (-float(cost), idx))
        return idx

    def results(self) -> List[Any]:
        if self._closed:
            raise ExecutorError("streaming session already closed")
        self._closed = True
        if not self._payloads:
            return []
        return self._backend.map_workitems(self._fn,
                                           list(self._payloads.values()))

    def take(self):
        if self._closed:
            raise ExecutorError("streaming session already closed")
        if not self._pending:
            return None
        _, idx = self._pending.pop(0)
        payload = self._payloads.pop(idx)
        started = monotonic()
        try:
            return idx, self._fn(payload), None, started
        except Exception as exc:  # noqa: BLE001 - the item's outcome
            exc.__cause__ = ExecutorError(
                f"work item {idx} failed in the serial backend's calling "
                f"thread:\n{traceback.format_exc()}")
            return idx, None, exc, started

    def wake(self) -> None:
        pass

    def cancel(self) -> None:
        self._closed = True
        self._payloads.clear()
        self._pending.clear()


class SerialBackend:
    """Run every item in the calling thread, in submission order.

    No workers, so the lifecycle calls do nothing: an in-flight batch
    cannot be interrupted, it runs out.
    """

    name = "serial"
    parallel = False

    def map_workitems(self, fn, payloads, *, n_ranks=1):
        with phase(f"executor.{self.name}"):
            return [fn(p) for p in payloads]

    def stream_workitems(self, fn, *, n_ranks=1):
        _check_ranks(n_ranks)
        return _SerialStream(self, fn)

    def warm_pool(self, n_ranks: int) -> int:
        return 0

    def exclude_fds_from_workers(self, fds) -> None:
        pass

    def abort(self, reason: str) -> bool:
        return False

    def shutdown_pool(self) -> None:
        pass


# ----------------------------------------------------------------------
# processes: persistent worker pool
# ----------------------------------------------------------------------
def _resolve_portable_fn(module: str, qualname: str) -> Callable:
    """Re-import a module-level function in a pool worker.

    ``_check_portable_fn`` guarantees the path resolves: no closures,
    non-empty module.  Walking the qualname supports functions nested
    inside classes (staticmethods).
    """
    import importlib

    obj: Any = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _pool_worker_main(rank: int, inbox, result_q,
                      close_fds: Sequence[int]) -> None:
    """Persistent pool worker: serve tasks until told to stop.

    Protocol (pipe in, queue out)::

        ("task", epoch, idx, fn_module, fn_qualname, wire, profile)
        ("stop",)
        -> ("ok", rank, epoch, idx, result_wire, snapshot, seconds, nbytes)
        -> ("item_err", rank, epoch, idx, pickled_error, traceback_text)

    One task is in flight per worker at any time, so the parent can map
    a dead worker to exactly one requeueable item.  A work function
    raising is an *item* error — reported and survived, the worker
    keeps serving; the exception travels pickled when it survives the
    round trip (:func:`_portable_error`).  Both payloads and results
    travel as serde wire envelopes (inline or shared-memory, by size).

    ``close_fds`` names parent fds this fork must not keep — above all
    a daemon's listening socket: a worker respawned *after* the socket
    was bound inherits its fd, and the duplicate would keep the
    endpoint half-alive after the daemon exits.
    """
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass  # already gone in this fork; nothing inherited
    fn_cache: Dict[tuple, Callable] = {}
    while True:
        try:
            msg = inbox.recv()
        except (EOFError, OSError):
            break  # parent went away; nothing left to serve
        if msg[0] == "stop":
            break
        _, epoch, idx, fn_mod, fn_qual, wire, profile = msg
        t0 = monotonic()
        try:
            key = (fn_mod, fn_qual)
            fn = fn_cache.get(key)
            if fn is None:
                fn = fn_cache[key] = _resolve_portable_fn(fn_mod, fn_qual)
            payload = serde.wire_to_buffers(wire)
            sink = counters_mod.Counters(rank) if profile else None
            with (counters_mod.use_counters(sink) if profile
                  else contextlib.nullcontext()):
                with phase("executor.processes.item"):
                    result = fn(payload)
                if not is_buffers(result):
                    raise ExecutorError(
                        f"work function {fn_qual} returned "
                        f"{type(result).__name__} for item {idx}; process "
                        "workers must return flat serde buffer dicts"
                    )
                nbytes = (serde.buffers_nbytes(payload)
                          + serde.buffers_nbytes(result))
                # Published under the sink, so the snapshot counts it.
                out_wire = serde.buffers_to_wire(result)
            try:
                snapshot = sink.snapshot() if sink is not None else None
                result_q.put(("ok", rank, epoch, idx, out_wire, snapshot,
                              monotonic() - t0, nbytes))
            except BaseException:
                # The envelope never made it onto the queue: free its
                # shm segment before reporting, or it outlives us.
                serde.discard_wire(out_wire)
                raise
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            result_q.put(("item_err", rank, epoch, idx,
                          _portable_error(exc), traceback.format_exc()))


def _portable_error(exc: BaseException) -> Optional[bytes]:
    """``exc`` pickled, if it is an ``Exception`` that survives the
    round trip; else None, and the parent raises :class:`ExecutorError`."""
    if not isinstance(exc, Exception):
        return None
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)
    except Exception:  # noqa: BLE001 - any failure means "not portable"
        return None
    return blob


class _PoolTask:
    __slots__ = ("idx", "payload", "cost", "attempts", "wire", "started")

    def __init__(self, idx: int, payload: Any, cost: float) -> None:
        self.idx = idx
        self.payload = payload
        self.cost = max(float(cost), 1e-9)
        #: dispatch attempts so far (== worker deaths survived + 1
        #: while in flight); bounded by ``ProcessesBackend.max_attempts``.
        self.attempts = 0
        #: when the first dispatch handed it to a worker.
        self.started: Optional[float] = None
        #: the wire envelope of the *current* dispatch, kept so an
        #: undelivered shm payload can be freed if its worker is retired.
        self.wire = None


class _PoolWorkerHandle:
    __slots__ = ("rank", "proc", "conn", "task")

    def __init__(self, rank, proc, conn) -> None:
        self.rank = rank
        self.proc = proc
        self.conn = conn
        #: the in-flight :class:`_PoolTask`, or None when idle.
        self.task = None


class ProcessesBackend:
    """GIL-free workers over ``multiprocessing`` (fork when available).

    The backend is the pool: it owns the result queue, the worker
    handles, the rank counter, the call epoch, the open session and the
    ``stats``.  Lifecycle:

    * **fork-once** — workers are spawned lazily, up to the rank count
      of the calls that need them, and survive between calls (the fork
      + interpreter warm-up is paid once, not per ``map_workitems``)
      until :meth:`shutdown_pool`;
    * **respawn + requeue** — each worker holds at most one in-flight
      item, so a dead worker (killed, OOM) maps to exactly one item:
      the parent forks a replacement and requeues the item, up to
      :attr:`max_attempts` dispatches before giving up with an
      :class:`ExecutorError` naming the item;
    * **epoch fencing** — every dispatch carries the backend's call
      epoch; results from an aborted call are recognised as stale and
      their shm segments freed instead of corrupting the next call.

    One backend serves one open :class:`PoolStream` at a time (the
    single-parent dispatch model needs no cross-call interleaving).
    The result queue is created on first use, so importing this module
    allocates nothing, and :meth:`shutdown_pool` closes it again.
    """

    name = "processes"
    parallel = True

    #: max dispatches of one item before the pool gives up on it.
    max_attempts = 3
    #: seconds without any worker progress before declaring a hang.
    idle_timeout = 600.0

    def __init__(self) -> None:
        self._ctx = None
        self._result_q = None
        self._workers: Dict[int, _PoolWorkerHandle] = {}
        self._next_rank = 0
        self._epoch = 0
        self._call: Optional["PoolStream"] = None
        self.stats = {"forks": 0, "respawns": 0, "calls": 0}
        #: parent fds every (re)spawned worker closes at startup —
        #: daemons register their listening sockets here so a worker
        #: forked mid-request never inherits them.
        self.exclude_fds: Tuple[int, ...] = ()
        _POOLS.add(self)

    def _context(self):
        import multiprocessing as mp

        # fork inherits payloads by address space (no serialization at
        # dispatch); fall back to spawn where fork does not exist.
        methods = mp.get_all_start_methods()
        return mp.get_context("fork" if "fork" in methods else "spawn")

    # -- worker lifecycle ----------------------------------------------
    def _open_queue(self) -> None:
        """Create the result queue if no live one exists."""
        if self._result_q is None:
            self._ctx = self._context()
            self._result_q = self._ctx.Queue()

    def _spawn(self) -> _PoolWorkerHandle:
        self._open_queue()
        recv, send = self._ctx.Pipe(duplex=False)
        rank = self._next_rank
        self._next_rank += 1
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(rank, recv, self._result_q, self.exclude_fds),
            daemon=True, name=f"repro-pool-{rank}")
        proc.start()
        recv.close()  # the parent keeps only the send end
        handle = _PoolWorkerHandle(rank, proc, send)
        self._workers[rank] = handle
        self.stats["forks"] += 1
        return handle

    def _retire(self, handle: _PoolWorkerHandle) -> None:
        """Stop one worker (idle or already dead) and forget it, freeing
        the payload wire of an item it still held (a worker unlinks a
        payload segment only when it attaches it)."""
        try:
            handle.conn.send(("stop",))
        except (OSError, BrokenPipeError, ValueError):
            pass  # already dead or pipe torn down
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.proc.join(timeout=5.0)
        if handle.proc.is_alive():
            handle.proc.terminate()
            handle.proc.join(timeout=5.0)
        self._workers.pop(handle.rank, None)
        if handle.task is not None:
            serde.discard_wire(handle.task.wire)

    def warm_pool(self, n_ranks: int) -> int:
        """Pre-fork pool workers up to ``n_ranks``; returns the count.

        Long-running daemons call this *before* opening sockets or
        files: workers forked later inherit every fd open at fork time,
        so a client connection fd duplicated into a worker keeps the
        peer from ever seeing EOF until that worker exits.  Warming
        first also moves the fork cost out of the first request.
        """
        while len(self._workers) < n_ranks:
            self._spawn()
        return len(self._workers)

    def exclude_fds_from_workers(self, fds) -> None:
        """Register parent fds that workers must close at startup.

        Warming before bind keeps the *initial* workers clean, but a
        worker respawned after the daemon's listening socket exists
        forks with that fd open.  Registering it here makes every
        future (re)spawn close it immediately, so a stuck accept()
        cannot be wedged open by a forgotten duplicate.  Pass an empty
        list to deregister (e.g. right before the socket fd is closed
        and its number becomes reusable).
        """
        self.exclude_fds = tuple(int(fd) for fd in fds)

    def abort(self, reason: str) -> bool:
        """Request abort of the open streaming session, if any.

        Thread-safe entry point for an external controller (the meshing
        service's shutdown path): the open :class:`PoolStream` is woken
        at once, quiesces in-flight items behind the epoch fence and
        ends every outstanding item with :class:`ExecutorError` —
        raised out of a blocked ``results()``, each item's outcome for
        ``take()``.  Returns whether a session was open.
        """
        call = self._call
        if call is None:
            return False
        call.request_abort(reason)
        return True

    def shutdown_pool(self) -> None:
        """Stop every worker and close the result queue (idempotent);
        the next dispatch forks afresh."""
        if self._result_q is None:
            return
        self._drain_stale()
        for rank in sorted(self._workers):
            self._retire(self._workers[rank])
        self._drain_stale()
        self._result_q.close()
        self._result_q.join_thread()
        self._result_q = None
        self._call = None

    # -- stale-result hygiene ------------------------------------------
    def _handle_stale(self, msg) -> None:
        """Free a result from an aborted epoch (its shm wire); a stale
        wake-up carries nothing."""
        if msg[0] == "ok":
            serde.discard_wire(msg[4])

    def _drain_stale(self) -> None:
        """Discard results of aborted calls still sitting in the queue."""
        while True:
            try:
                msg = self._result_q.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                return
            self._handle_stale(msg)

    # -- dispatch ------------------------------------------------------
    def map_workitems(self, fn, payloads, *, n_ranks=1):
        with phase(f"executor.{self.name}"):
            stream = self.stream_workitems(fn, n_ranks=n_ranks)
            for p in payloads:
                stream.submit(p, eager=False)
            return stream.results()

    def stream_workitems(self, fn, *, n_ranks=1):
        return PoolStream(self, fn, n_ranks, counters_mod.current())


#: every backend that may own workers, for a best-effort clean stop at
#: interpreter exit (daemon workers would die anyway; this lets them
#: exit their loop).
_POOLS: "weakref.WeakSet[ProcessesBackend]" = weakref.WeakSet()


def _shutdown_all_pools() -> None:
    for backend in list(_POOLS):
        try:
            backend.shutdown_pool()
        except Exception:
            pass


atexit.register(_shutdown_all_pools)


class PoolStream:
    """One open dispatch session against a :class:`ProcessesBackend`.

    Implements :class:`StreamSession`: the pipeline submits subdomains
    as ``decouple`` produces them and the pool starts refining
    immediately; ``map_workitems`` is the same session driven with
    ``eager=False`` (queue everything, then dispatch globally
    largest-first — LPT-like).  Dispatch is demand-driven: pending
    items are kept largest-cost-first and handed to whichever worker
    frees up, which subsumes steal-on-idle without shared state.

    Every finished item becomes an outcome — its result, its own
    exception, or the :class:`ExecutorError` of a worker it crashed
    :attr:`ProcessesBackend.max_attempts` times — in the order the
    items finish.  ``take`` hands them out one by one; ``results``
    raises the first failure.
    """

    def __init__(self, backend: ProcessesBackend, fn: Callable,
                 n_ranks: int, sink) -> None:
        _check_portable_fn(fn)
        self._n_ranks = _check_ranks(n_ranks)
        if backend._call is not None:
            raise ExecutorError(
                "worker pool already has an open streaming session — "
                "collect results() before starting another dispatch"
            )
        backend._open_queue()
        backend._epoch += 1
        backend._call = self
        backend.stats["calls"] += 1
        backend._drain_stale()
        self._backend = backend
        self._epoch = backend._epoch
        self._fn_mod = fn.__module__
        self._fn_qual = fn.__qualname__
        self._sink = sink
        #: items submitted so far; the next one's index.
        self._count = 0
        #: submitted items without an outcome yet, by index.
        self._tasks: Dict[int, _PoolTask] = {}
        #: undispatched tasks as (-cost, idx, task), kept sorted so
        #: index 0 is always the largest remaining item.
        self._pending: List[tuple] = []
        #: outcomes in finishing order, not yet taken.
        self._finished: Deque[tuple] = collections.deque()
        #: the first item failure, which ``results()`` raises.
        self._item_error: Optional[BaseException] = None
        #: seconds of result-queue silence since the last worker message.
        self._idle = 0.0
        #: a wake-up arrived since the last ``take()``.
        self._woken = False
        self._error: Optional[BaseException] = None
        self._closed = False
        #: abort reason requested by another thread (GIL-atomic write);
        #: honoured at the next wait of the dispatching thread.
        self._abort_reason: Optional[str] = None

    # -- public API ----------------------------------------------------
    def request_abort(self, reason: str = "aborted") -> None:
        """Ask the dispatching thread to abandon this session.

        Safe to call from any thread while ``results()`` or ``take()``
        blocks: every outstanding item ends with :class:`ExecutorError`,
        in-flight items are quiesced behind the pool's epoch fence
        (stale results discarded, their shm wires freed) and the pool
        stays reusable.
        """
        self._abort_reason = reason
        self.wake()

    def wake(self) -> None:
        """Make a blocked ``take()`` return None now (any thread).

        The wake-up rides the result queue, stamped with this session's
        epoch: a later session drops it as stale.
        """
        result_q = self._backend._result_q
        if result_q is not None and not self._closed:
            result_q.put(("wake", None, self._epoch))

    def submit(self, payload, *, cost: float = 1.0,
               eager: bool = True) -> int:
        """Queue one item; with ``eager`` dispatch it right away."""
        self._check_open()
        idx = self._count
        if not is_buffers(payload):
            self._fail_validation(idx, payload)
        task = _PoolTask(idx, payload, cost)
        self._count += 1
        self._tasks[idx] = task
        bisect.insort(self._pending, (-task.cost, task.idx, task))
        if eager:
            # Absorb any finished results (frees workers) then dispatch.
            while self._poll():
                pass
            self._fill()
        return idx

    def results(self) -> List[Any]:
        """Block until every submitted item finished; payload order."""
        self._check_abort()
        self._check_open()
        while self._tasks and self._item_error is None:
            self._fill()
            self._wait()
        if self._item_error is not None:
            self._fail(self._item_error)
        self._check_open()
        self._close()
        out: List[Any] = [None] * self._count
        for idx, result, _, _ in self._finished:
            out[idx] = result
        return out

    def take(self):
        """The next outcome ``(index, result, error, started)``; blocks
        while items are outstanding, None when none are or on ``wake``
        (one absorbed while submitting counts too)."""
        if not (self._finished or self._woken):
            self._check_open()
            while self._tasks and not (self._finished or self._woken):
                self._fill()
                self._wait()
            self._check_abort()  # an abort wakes it too
        if self._finished:
            return self._finished.popleft()
        self._woken = False
        return None

    def cancel(self) -> None:
        """Abandon the session from the dispatching thread, when its
        producer failed before ``results()``: in-flight items are
        quiesced behind the pool's epoch fence (their results discarded,
        shm wires freed) and the pool is free for the next session.  A
        session that already closed or failed is left as it is."""
        if self._error is None and not self._closed:
            self._error = ExecutorError("streaming session cancelled")
            self._quiesce()
            self._close()

    # -- internals -----------------------------------------------------
    def _check_open(self) -> None:
        if self._error is not None:
            raise self._error
        if self._closed:
            raise ExecutorError("streaming session already closed")

    def _check_abort(self) -> None:
        reason = self._abort_reason
        if reason is not None and self._error is None:
            self._end(ExecutorError(f"dispatch aborted: {reason}"))

    def _close(self) -> None:
        if not self._closed:
            self._closed = True
            if self._backend._call is self:
                self._backend._call = None

    def _fail_validation(self, idx: int, payload) -> None:
        try:
            _check_buffer_payload(idx, payload)
        except ExecutorError as err:
            self._fail(err)

    def _fail(self, err: BaseException) -> None:
        """Abort the session: quiesce in-flight work, close, raise."""
        self._error = err
        self._quiesce()
        self._close()
        raise err

    def _end(self, err: BaseException) -> None:
        """Close the session on ``err``: in-flight work is quiesced and
        every outstanding item ends with ``err`` as its outcome."""
        self._error = err
        self._quiesce()
        for idx in sorted(self._tasks):
            self._record(self._tasks[idx], None, err)
        self._pending.clear()
        self._close()

    def _record(self, task: _PoolTask, result, error) -> None:
        """``task``'s outcome, unless it already has one."""
        if self._tasks.pop(task.idx, None) is None:
            return
        self._finished.append((task.idx, result, error, task.started))
        if error is not None and self._item_error is None:
            self._item_error = error

    def _quiesce(self) -> None:
        """Wait out in-flight items so the pool is reusable after abort.

        Results arriving during the wait are discarded (their shm wires
        freed).  Workers that die, or refuse to finish within a bounded
        grace period and are terminated, are retired — their stale
        results, if any, are drained by the next call.
        """
        backend = self._backend
        deadline = monotonic() + 30.0
        while any(h.task is not None for h in backend._workers.values()):
            if monotonic() > deadline:
                for rank in sorted(list(backend._workers)):
                    handle = backend._workers[rank]
                    if handle.task is not None:
                        handle.proc.terminate()
                        backend._retire(handle)
                break
            try:
                msg = backend._result_q.get(timeout=0.5)
            except queue_mod.Empty:
                for rank in sorted(list(backend._workers)):
                    handle = backend._workers.get(rank)
                    if handle is not None and not handle.proc.is_alive():
                        backend._retire(handle)
                continue
            backend._handle_stale(msg)
            handle = backend._workers.get(msg[1])
            if handle is not None:
                handle.task = None

    def _idle_worker(self) -> Optional[_PoolWorkerHandle]:
        """An idle live worker within this session's rank budget, or a
        fresh one when the pool is below budget, else None."""
        backend = self._backend
        for rank in sorted(list(backend._workers)):
            handle = backend._workers[rank]
            if handle.task is None and not handle.proc.is_alive():
                backend._retire(handle)  # died while idle: just clean up
        live = [backend._workers[r] for r in sorted(backend._workers)]
        for handle in live[: self._n_ranks]:
            if handle.task is None:
                return handle
        if len(live) < self._n_ranks:
            return backend._spawn()
        return None

    def _fill(self) -> None:
        """Dispatch pending items (largest first) onto idle workers."""
        while self._pending:
            handle = self._idle_worker()
            if handle is None:
                return
            _, _, task = self._pending.pop(0)
            self._dispatch(handle, task)

    def _dispatch(self, handle: _PoolWorkerHandle, task: _PoolTask) -> None:
        # The worker unlinks the payload segment on attach; if the worker
        # is retired first (it died, or an abort or shutdown stopped
        # it), ``ProcessesBackend._retire`` frees it.
        task.wire = serde.buffers_to_wire(task.payload)
        if task.started is None:
            task.started = monotonic()
        task.attempts += 1
        try:
            handle.conn.send(("task", self._epoch, task.idx, self._fn_mod,
                              self._fn_qual, task.wire,
                              self._sink is not None))
        except (OSError, BrokenPipeError, ValueError):
            # Worker vanished between liveness check and send; mark the
            # task in flight anyway — the death sweep respawns a worker
            # and requeues it.
            pass
        handle.task = task

    def _poll(self) -> bool:
        """Absorb one waiting message without blocking; True if there
        was one."""
        try:
            msg = self._backend._result_q.get_nowait()
        except queue_mod.Empty:
            self._sweep_deaths()
            return False
        self._handle(msg)
        return True

    def _wait(self) -> None:
        """Absorb one message, or after half a second without one sweep
        for dead workers."""
        self._check_abort()
        if self._error is not None:
            return
        try:
            msg = self._backend._result_q.get(timeout=0.5)
        except queue_mod.Empty:
            self._idle += 0.5
            self._sweep_deaths()
            timeout = self._backend.idle_timeout
            if self._idle > timeout:
                self._end(ExecutorError(
                    "processes pool made no progress for "
                    f"{timeout:.0f}s — aborting"))
            return
        self._handle(msg)

    def _handle(self, msg) -> None:
        """Absorb one result-queue message."""
        backend = self._backend
        kind = msg[0]
        epoch = msg[2]
        if epoch != self._epoch:
            backend._handle_stale(msg)
            return
        if kind == "wake":
            self._woken = True
            return
        self._idle = 0.0
        rank = msg[1]
        idx = msg[3]
        handle = backend._workers.get(rank)
        if (handle is not None and handle.task is not None
                and handle.task.idx == idx):
            handle.task = None
        task = self._tasks.get(idx)
        if kind == "ok":
            _, _, _, _, wire, snapshot, elapsed, nbytes = msg
            if task is None:
                # The worker finished, queued the result, and *then*
                # died; the death sweep already requeued the item and a
                # second result arrived.  Keep the first, free this one.
                serde.discard_wire(wire)
                return
            result = serde.wire_to_buffers(wire)
            sink = self._sink
            if sink is not None:
                if snapshot is not None:
                    sink.merge_snapshot(snapshot)
                sink.incr(f"executor.items.rank{rank}")
                sink.observe("executor.item_seconds", float(elapsed))
                sink.observe("executor.item_bytes", float(nbytes))
            self._record(task, result, None)
        elif kind == "item_err":
            if task is None:
                return  # duplicate after requeue; result already good
            _, _, _, _, pickled, tb = msg
            err = ExecutorError(
                f"work item {idx} failed in pool worker {rank}:\n{tb}")
            if pickled is not None:
                # The caller catches the item's own class, as on serial.
                original = pickle.loads(pickled)
                original.__cause__ = err
                err = original
            self._record(task, None, err)
        # Unknown kinds cannot occur: the worker protocol is closed.

    def _sweep_deaths(self) -> None:
        """Retire dead workers; requeue their in-flight items, or end an
        item that crashed its worker on every allowed attempt."""
        backend = self._backend
        for rank in sorted(list(backend._workers)):
            handle = backend._workers.get(rank)
            if handle is None or handle.proc.is_alive():
                continue
            task = handle.task
            exitcode = handle.proc.exitcode
            backend._retire(handle)
            if task is None or self._tasks.get(task.idx) is not task:
                continue  # idle, or the item already has its outcome
            backend.stats["respawns"] += 1
            if self._sink is not None:
                self._sink.incr("executor.respawns")
            if task.attempts >= backend.max_attempts:
                self._record(task, None, ExecutorError(
                    f"work item {task.idx} crashed its worker on all "
                    f"{task.attempts} dispatch attempts (last exit code "
                    f"{exitcode}) — giving up"))
                continue
            bisect.insort(self._pending, (-task.cost, task.idx, task))


# ----------------------------------------------------------------------
# Backends by name
# ----------------------------------------------------------------------
_BACKENDS: Dict[str, Backend] = {
    b.name: b for b in (SerialBackend(), ProcessesBackend())
}


def get_backend(name: str) -> Backend:
    """The backend called ``name`` (one of :func:`available_backends`)."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend: {name} (available: "
            f"{', '.join(available_backends())})"
        ) from None


def available_backends() -> List[str]:
    """Every accepted ``--backend`` value."""
    return sorted(_BACKENDS)
