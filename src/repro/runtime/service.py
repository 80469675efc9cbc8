"""Meshing as a service: a resident daemon that serves mesh requests.

Everything before this module runs one job and exits: every CLI
invocation pays interpreter startup, geometry construction, executor
setup and (for the processes backend) worker forks before the first
triangle appears.  The service amortizes all of it the way the
semi-speculative distributed adapters keep workers and state resident
across operations — one long-running process owns a warm
:class:`~repro.runtime.executor.ProcessesBackend` (the worker pool) and
serves many requests:

* **Wire protocol** — length-prefixed frames over a Unix socket or
  localhost TCP.  A frame is ``magic | kind | payload`` where the
  payload is a :func:`~repro.runtime.serde.buffers_to_bytes` canonical
  stream — the same flat buffer dicts that cross process boundaries
  everywhere else in the runtime, so a request is *defined* by its
  serde bits.

* **Content-addressed cache** — a finished mesh is stored under the
  :func:`~repro.runtime.serde.canonical_hash` of its packed request
  (PSLG + full MeshConfig, BL nested).  Identical geometry + config
  bits hash identically regardless of dict order or how the arrays
  were built, and backend parity guarantees the mesh is a pure function
  of that key.  A hit replies with the stored canonical bytes — a
  pointer hand-off, no re-meshing, no reserialization.

* **Request batching** — concurrent misses are collected for a short
  batching window and dispatched through a *single*
  ``executor.map_workitems`` call (one
  :func:`~repro.core.pipeline.mesh_workitem` per request,
  largest-first by :func:`~repro.core.pipeline.request_cost`), so the
  warm pool parallelizes *across* requests.  Identical in-window
  requests are deduplicated through single-flight futures.  A request
  that fails while meshing fails alone: its window is re-dispatched one
  request at a time.

* **Shutdown discipline** — stopping the service while a batch is in
  flight aborts the dispatch through the worker pool's epoch fence
  (``Backend.abort``): in-flight results are quiesced and discarded,
  and every pending client receives a clean ``err`` frame instead of a
  hung socket.  The service drives the backend's lifecycle calls
  (``warm_pool``, ``exclude_fds_from_workers``, ``abort``,
  ``shutdown_pool``) directly; on ``serial`` they do nothing, and an
  in-flight batch runs out.

Counters: ``service.requests``, ``service.cache_hits``,
``service.batches``, ``service.batch_size`` / ``service.
latency_seconds`` sample streams, ``service.dedup_joins``,
``service.disconnects``, ``service.errors``.
"""

from __future__ import annotations

import asyncio
import math
import os
import struct
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from . import counters as counters_mod
from . import executor, serde
from .counters import Counters, monotonic

__all__ = [
    "ServiceError",
    "ServiceUnavailable",
    "FrameError",
    "FRAME_MAGIC",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "read_frame",
    "decode_kind",
    "parse_address",
    "percentile",
    "offload",
    "MeshCache",
    "MeshService",
]


class ServiceError(RuntimeError):
    """The meshing service could not handle a request."""


class ServiceUnavailable(ServiceError):
    """The service is shutting down; the request was not served."""


class FrameError(ServiceError):
    """A malformed frame arrived on the wire."""


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
#: frame magic + protocol version byte; bump on any incompatible change.
FRAME_MAGIC = b"RMS1"

#: header layout: magic (4), kind length (u8), payload length (u64).
FRAME_HEAD = struct.Struct("<4sBQ")

#: hard cap on one frame's payload — far above any real mesh, low
#: enough that a corrupt length field fails instead of allocating.
MAX_FRAME_BYTES = 1 << 36


def encode_frame(kind: str, payload: bytes = b"") -> bytes:
    """One wire frame: header + ascii kind + raw payload bytes."""
    kb = kind.encode("ascii")
    if not kb or len(kb) > 255:
        raise FrameError(f"frame kind must be 1-255 ascii bytes: {kind!r}")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame payload of {len(payload)} bytes over cap")
    return FRAME_HEAD.pack(FRAME_MAGIC, len(kb), len(payload)) + kb + payload


async def read_frame(reader: asyncio.StreamReader) -> Tuple[str, bytes]:
    """Read one frame; raises ``IncompleteReadError`` on clean EOF."""
    head = await reader.readexactly(FRAME_HEAD.size)
    magic, klen, plen = FRAME_HEAD.unpack(head)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r} (want {FRAME_MAGIC!r})")
    if plen > MAX_FRAME_BYTES:
        raise FrameError(f"frame payload of {plen} bytes over cap")
    kind = decode_kind(await reader.readexactly(klen))
    payload = await reader.readexactly(plen) if plen else b""
    return kind, payload


def decode_kind(raw: bytes) -> str:
    """A frame's kind bytes as text; bytes that are not ascii make the
    frame malformed (:class:`FrameError`), like a bad magic."""
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError:
        raise FrameError(f"frame kind {raw!r} is not ascii") from None


# ----------------------------------------------------------------------
# Event-loop hygiene
# ----------------------------------------------------------------------
async def offload(fn: Callable, *args):
    """Run a blocking callable on the loop's default thread pool.

    The sanctioned escape hatch for anything that would stall the event
    loop (pool warmup/shutdown, batch dispatch, filesystem calls): the
    callable is passed by reference, never invoked in the coroutine
    (lint rule R9 enforces exactly this shape).
    """
    return await asyncio.get_running_loop().run_in_executor(None, fn, *args)


def _remove_socket_file(path: str) -> None:
    """Unlink a unix-socket path if present (stale daemon, or teardown)."""
    if os.path.exists(path):
        os.unlink(path)


# ----------------------------------------------------------------------
# Addressing
# ----------------------------------------------------------------------
def parse_address(spec: str) -> Tuple[str, Union[str, Tuple[str, int]]]:
    """Parse an endpoint spec into ``("unix", path)`` or ``("tcp", (h, p))``.

    Accepted forms: ``unix:/run/mesh.sock``, a bare path containing a
    separator, ``tcp:127.0.0.1:7070``, and bare ``host:port``.
    """
    if spec.startswith("unix:"):
        return ("unix", spec[5:])
    if spec.startswith("tcp:"):
        host, _, port = spec[4:].rpartition(":")
        return ("tcp", (host or "127.0.0.1", _port(spec, port)))
    if "/" in spec or os.sep in spec:
        return ("unix", spec)
    if ":" in spec:
        host, _, port = spec.rpartition(":")
        return ("tcp", (host, _port(spec, port)))
    raise ServiceError(
        f"cannot parse service address {spec!r} — want unix:<path>, a "
        "socket path, or tcp:<host>:<port>")


def _port(spec: str, text: str) -> int:
    """The port of a TCP address spec: an integer in 0-65535."""
    try:
        port = int(text)
    except ValueError:
        port = -1
    if not 0 <= port <= 65535:
        raise ServiceError(
            f"bad port {text!r} in service address {spec!r} — want an "
            "integer in 0-65535")
    return port


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a sample list (0 for empty input)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = int(math.ceil(q / 100.0 * len(ordered))) - 1
    return float(ordered[min(max(rank, 0), len(ordered) - 1)])


# ----------------------------------------------------------------------
# Content-addressed mesh cache
# ----------------------------------------------------------------------
class MeshCache:
    """LRU store of finalized meshes keyed by request content hash.

    Values are the meshes' canonical byte streams — exactly what goes
    back on the wire, so a hit is served without touching serde again
    (:func:`~repro.runtime.serde.bytes_to_buffers` re-views one as
    read-only zero-copy arrays).
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("cache needs at least one entry")
        self.max_entries = int(max_entries)
        self._store: "OrderedDict[str, bytes]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def get(self, key: str) -> Optional[bytes]:
        """The canonical mesh bytes for ``key``, refreshing recency."""
        with self._lock:
            blob = self._store.get(key)
            if blob is None:
                self.misses += 1
                return None
            self._store.move_to_end(key)
            self.hits += 1
            return blob

    def put(self, key: str, blob: bytes) -> None:
        with self._lock:
            self._store[key] = blob
            self._store.move_to_end(key)
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)
                self.evictions += 1

    def nbytes(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._store.values())


# ----------------------------------------------------------------------
# The daemon
# ----------------------------------------------------------------------
class _Pending:
    """One cache-missed request waiting for a dispatch slot."""

    __slots__ = ("key", "payload", "cost", "future")

    def __init__(self, key: str, payload: serde.Buffers, cost: float,
                 future: "asyncio.Future[bytes]") -> None:
        self.key = key
        self.payload = payload
        self.cost = cost
        self.future = future


class MeshService:
    """Asyncio meshing daemon: warm executor + batcher + mesh cache.

    ``address`` is anything :func:`parse_address` accepts; TCP port 0
    binds an ephemeral port (read the bound endpoint from
    :attr:`endpoint` after :meth:`start`).  ``backend`` is a backend
    name; the processes backend gets a service-owned instance so the
    pool's lifetime is the daemon's, not the shared instance's.

    ``work_fn``/``cost_fn`` default to the whole-request pipeline work
    item (:func:`repro.core.pipeline.mesh_workitem`); tests substitute
    module-level stand-ins to probe scheduling without meshing.
    """

    def __init__(
        self,
        address: str,
        *,
        backend: str = "serial",
        n_ranks: int = 4,
        batch_window: float = 0.005,
        max_batch: int = 16,
        cache_entries: int = 256,
        work_fn: Optional[Callable] = None,
        cost_fn: Optional[Callable] = None,
    ) -> None:
        self.address = parse_address(address)
        self._backend: executor.Backend = executor.get_backend(backend)
        self.backend_name = self._backend.name
        if self.backend_name == "processes":
            # Service-owned pool: shutdown() must be able to stop the
            # workers without tearing down the shared instance.
            self._backend = executor.ProcessesBackend()
        self.n_ranks = int(n_ranks)
        self.batch_window = float(batch_window)
        self.max_batch = max(int(max_batch), 1)
        self.cache = MeshCache(cache_entries)
        self.counters = Counters()
        if work_fn is None or cost_fn is None:
            from ..core import pipeline as _pipeline

            work_fn = work_fn or _pipeline.mesh_workitem
            cost_fn = cost_fn or _pipeline.request_cost
        self._work_fn = work_fn
        self._cost_fn = cost_fn
        self._queue: "asyncio.Queue[Optional[_Pending]]" = asyncio.Queue()
        self._inflight: Dict[str, "asyncio.Future[bytes]"] = {}
        self._conns: Dict[int, "asyncio.Task"] = {}
        self._next_conn = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._batcher: Optional["asyncio.Task"] = None
        self._shutdown_task: Optional["asyncio.Task"] = None
        self._stopping = False
        self._started = False
        self._done_event: Optional[asyncio.Event] = None
        self._t_start = 0.0

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Bind the endpoint and start the batching scheduler."""
        if self._started:
            raise ServiceError("service already started")
        self._done_event = asyncio.Event()
        # Fork the worker pool BEFORE any connection fd exists: workers
        # forked mid-traffic would inherit open connection fds, and a
        # duplicated fd keeps the peer from seeing EOF until the worker
        # exits (also moves the fork cost out of the first request).
        await offload(self._backend.warm_pool, self.n_ranks)
        kind, where = self.address
        if kind == "unix":
            await offload(_remove_socket_file, where)
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=where)
        else:
            host, port = where
            self._server = await asyncio.start_server(
                self._handle_connection, host=host, port=port)
        # Workers respawned from here on fork with the listening socket
        # open; register its fd so they close it at startup instead of
        # keeping a duplicate accept() endpoint alive.
        self._backend.exclude_fds_from_workers(
            [s.fileno() for s in self._server.sockets])
        self._batcher = asyncio.get_running_loop().create_task(
            self._batch_loop())
        self._started = True
        self._t_start = monotonic()

    @property
    def endpoint(self) -> str:
        """The connectable endpoint spec (ephemeral TCP port resolved)."""
        kind, where = self.address
        if kind == "unix":
            return f"unix:{where}"
        if self._server is not None and self._server.sockets:
            host, port = self._server.sockets[0].getsockname()[:2]
            return f"tcp:{host}:{port}"
        host, port = where
        return f"tcp:{host}:{port}"

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes (from any trigger)."""
        if not self._started:
            await self.start()
        assert self._done_event is not None
        await self._done_event.wait()

    async def shutdown(self) -> None:
        """Stop accepting, fail pending work cleanly, stop the pool.

        Queued-but-undispatched requests fail with
        :class:`ServiceUnavailable`; an in-flight batch is aborted
        through the worker pool's epoch fence so its clients get an
        ``err`` frame promptly instead of waiting the batch out.
        Idempotent; concurrent calls await the first one.
        """
        if self._stopping:
            if self._done_event is not None:
                await self._done_event.wait()
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Fail everything still waiting for a dispatch slot.
        drained: List[_Pending] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not None:
                drained.append(item)
        self._queue.put_nowait(None)  # wake/stop the batcher
        for item in drained:
            if not item.future.done():
                item.future.set_exception(
                    ServiceUnavailable("service is shutting down"))
        # Abort the in-flight dispatch behind the pool's epoch fence.
        self._backend.abort("service is shutting down")
        if self._batcher is not None:
            await self._batcher
        # Stop the pool BEFORE draining connections: a worker that was
        # (re)forked while a connection was open holds a duplicate of
        # its fd, and the handler can't see the client's EOF until
        # every duplicate is closed.
        # The listening fd is closed now and its number is about to be
        # reusable — deregister it before any future pool respawn.
        self._backend.exclude_fds_from_workers([])
        await offload(self._backend.shutdown_pool)
        # Let connection handlers flush their final ok/err frames.
        live = [t for t in list(self._conns.values()) if not t.done()]
        if live:
            await asyncio.wait(live, timeout=10.0)
        kind, where = self.address
        if kind == "unix":
            await offload(_remove_socket_file, where)
        assert self._done_event is not None
        self._done_event.set()

    # -- stats ---------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """A plain scalar snapshot of the service counters.

        Counts, means and the batch-size max are exact over the uptime;
        the latency percentiles are taken over the latest
        :data:`~repro.runtime.counters.SAMPLE_WINDOW` requests.
        """
        events = self.counters.events
        n_lat, lat_total, _, lat = self.counters.stream(
            "service.latency_seconds")
        n_batches, size_total, size_max, _ = self.counters.stream(
            "service.batch_size")
        requests = float(events.get("service.requests", 0))
        hits = float(events.get("service.cache_hits", 0))
        return {
            "uptime_s": monotonic() - self._t_start,
            "requests": requests,
            "cache_hits": hits,
            "hit_ratio": hits / requests if requests else 0.0,
            "dedup_joins": float(events.get("service.dedup_joins", 0)),
            "batches": float(events.get("service.batches", 0)),
            "batch_size_mean": size_total / n_batches if n_batches else 0.0,
            "batch_size_max": size_max,
            "cache_entries": float(len(self.cache)),
            "cache_evictions": float(self.cache.evictions),
            "cache_nbytes": float(self.cache.nbytes()),
            "latency_p50_s": percentile(lat, 50.0),
            "latency_p99_s": percentile(lat, 99.0),
            "latency_mean_s": lat_total / n_lat if n_lat else 0.0,
            "disconnects": float(events.get("service.disconnects", 0)),
            "errors": float(events.get("service.errors", 0)),
        }

    def _stats_buffers(self) -> serde.Buffers:
        return {k: np.asarray([v], dtype=np.float64)
                for k, v in self.stats().items()}

    # -- connection handling -------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn_id = self._next_conn
        self._next_conn += 1
        task = asyncio.current_task()
        if task is not None:
            self._conns[conn_id] = task
        try:
            while True:
                try:
                    kind, payload = await read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break  # client hung up between requests: normal
                except FrameError as exc:
                    self.counters.incr("service.errors")
                    await self._send(writer, "err", str(exc).encode())
                    break
                if not await self._serve_one(kind, payload, writer):
                    break
        except (ConnectionResetError, BrokenPipeError, OSError):
            # Client vanished mid-reply; the batch (if any) still ran
            # and populated the cache — only this socket is affected.
            self.counters.incr("service.disconnects")
        finally:
            self._conns.pop(conn_id, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_one(self, kind: str, payload: bytes,
                         writer: asyncio.StreamWriter) -> bool:
        """Serve one frame; False ends the connection loop."""
        if kind == "mesh":
            await self._handle_mesh(payload, writer)
            return True
        if kind == "ping":
            await self._send(writer, "pong", b"")
            return True
        if kind == "stats":
            await self._send(writer, "stats",
                             serde.buffers_to_bytes(self._stats_buffers()))
            return True
        if kind == "shutdown":
            await self._send(writer, "bye", b"")
            self._shutdown_task = asyncio.get_running_loop().create_task(
                self.shutdown())
            return False
        self.counters.incr("service.errors")
        await self._send(writer, "err",
                         f"unknown request kind {kind!r}".encode())
        return True

    async def _handle_mesh(self, payload_bytes: bytes,
                           writer: asyncio.StreamWriter) -> None:
        t0 = monotonic()
        sink = self.counters
        sink.incr("service.requests")
        try:
            payload = serde.bytes_to_buffers(payload_bytes)
        except serde.SerdeError as exc:
            sink.incr("service.errors")
            await self._send(writer, "err", f"bad request: {exc}".encode())
            return
        key = serde.canonical_hash(payload)
        blob = self.cache.get(key)
        if blob is not None:
            sink.incr("service.cache_hits")
            sink.observe("service.latency_seconds", monotonic() - t0)
            await self._send(writer, "mesh-hit", blob)
            return
        future = self._inflight.get(key)
        if future is None:
            if self._stopping:
                sink.incr("service.errors")
                await self._send(writer, "err",
                                 b"service is shutting down")
                return
            # Priced before it queues: a payload the cost function
            # rejects fails here, alone, instead of with its batch.
            try:
                cost = self._cost_fn(payload)
            except serde.SerdeError as exc:
                sink.incr("service.errors")
                await self._send(writer, "err",
                                 f"bad request: {exc}".encode())
                return
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = future
            future.add_done_callback(
                lambda _fut, _key=key: self._inflight.pop(_key, None))
            self._queue.put_nowait(_Pending(key, payload, cost, future))
        else:
            # Identical request already queued/dispatching: join it
            # instead of meshing twice (single-flight).
            sink.incr("service.dedup_joins")
        try:
            blob = await future
        except (ServiceError, executor.ExecutorError) as exc:
            sink.incr("service.errors")
            await self._send(writer, "err", str(exc).encode())
            return
        sink.observe("service.latency_seconds", monotonic() - t0)
        await self._send(writer, "mesh-ok", blob)

    async def _send(self, writer: asyncio.StreamWriter, kind: str,
                    payload: bytes) -> None:
        writer.write(encode_frame(kind, payload))
        await writer.drain()

    # -- batching scheduler --------------------------------------------
    async def _batch_loop(self) -> None:
        """Collect misses for one batching window, dispatch, repeat."""
        while True:
            item = await self._queue.get()
            if item is None:
                return
            batch = [item]
            deadline = monotonic() + self.batch_window
            stop_after = False
            while len(batch) < self.max_batch:
                remaining = deadline - monotonic()
                if remaining <= 0.0:
                    break
                try:
                    nxt = await asyncio.wait_for(self._queue.get(),
                                                 timeout=remaining)
                except asyncio.TimeoutError:
                    break
                if nxt is None:
                    stop_after = True
                    break
                batch.append(nxt)
            await self._dispatch(batch)
            if stop_after:
                return

    async def _dispatch(self, batch: List[_Pending]) -> None:
        """One ``map_workitems`` window over the whole batch.

        When the window fails, each of its requests is dispatched again
        on its own, so only the one that fails gets the error.
        """
        sink = self.counters
        if self._stopping:
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(
                        ServiceUnavailable("service is shutting down"))
            return
        sink.incr("service.batches")
        sink.observe("service.batch_size", float(len(batch)))
        payloads = [item.payload for item in batch]
        costs = [item.cost for item in batch]

        def run() -> List[serde.Buffers]:
            # The dispatch thread installs the service sink so executor
            # and worker counters merge into the same report the stats
            # frame serves.
            with counters_mod.use_counters(sink):
                with sink.phase("service.dispatch"):
                    return self._backend.map_workitems(
                        self._work_fn, payloads, costs=costs,
                        n_ranks=self.n_ranks)

        try:
            results = await offload(run)
        except BaseException as exc:  # noqa: BLE001 - forwarded to clients
            if (len(batch) > 1 and isinstance(exc, Exception)
                    and not self._stopping):
                for item in batch:
                    await self._dispatch([item])
                return
            err = exc if isinstance(exc, (ServiceError,
                                          executor.ExecutorError)) \
                else ServiceError(f"batch dispatch failed: {exc}")
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(err)
            return
        for item, result in zip(batch, results):
            blob = serde.buffers_to_bytes(result)
            self.cache.put(item.key, blob)
            if not item.future.done():
                item.future.set_result(blob)
