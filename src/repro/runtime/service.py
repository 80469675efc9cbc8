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
  of that key.  The decoder accepts only canonical streams, whose
  SHA-256 is that hash, so the daemon keys a request by the digest of
  its raw bytes before decoding it: a hit is one digest, one lookup and
  one write of the stored bytes — no decoding, no re-meshing, no
  reserialization, no copy into a new frame.  Only a miss is decoded;
  a stream that is not canonical gets an ``err`` frame.

* **Streamed dispatch** — one long-lived dispatch thread owns a
  stream session (``executor.stream_workitems``) on the daemon's pool.
  Each decoded miss goes to it the moment it arrives (one
  :func:`~repro.core.pipeline.mesh_workitem` per request; misses that
  find every worker busy wait largest-first by
  :func:`~repro.core.pipeline.request_cost`), and each is answered —
  encoded, cached, its future resolved on the event loop — when its own
  mesh is done, as ``take`` hands the outcome back.  Identical
  in-flight requests are deduplicated through single-flight futures.
  A request that fails while meshing, or whose reply cannot be
  encoded, fails alone; the others in flight run on.

* **Shutdown discipline** — stopping the service with misses in flight
  aborts the session through the worker pool's epoch fence
  (``Backend.abort``): in-flight results are quiesced and discarded,
  and every pending client receives a clean ``err`` frame instead of a
  hung socket.  The service drives the backend's lifecycle calls
  (``warm_pool``, ``exclude_fds_from_workers``, ``abort``,
  ``shutdown_pool``) directly; on ``serial`` they do nothing, the item
  running runs out and the misses not yet started fail.

Counters: ``service.requests``, ``service.cache_hits`` (the stats
frame adds the cache's ``cache_misses``), ``service.dispatched``,
``service.batch_size`` (per answered miss: the most misses in flight at
once while it was), ``service.dispatch_wait_seconds`` (arrival to
worker) and ``service.latency_seconds`` sample streams,
``service.dedup_joins``, ``service.disconnects``, ``service.errors``.
The stats frame is versioned: :data:`STATS_SCHEMA_VERSION`.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import os
import queue
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
    "STATS_SCHEMA_VERSION",
    "frame_head",
    "encode_frame",
    "read_frame",
    "decode_head",
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

#: version of the stats frame's key set; bump when a key changes
#: meaning or goes.  2: streamed dispatch (``batches`` gave way to
#: ``dispatched``; ``inflight`` and the dispatch-wait percentiles came).
STATS_SCHEMA_VERSION = 2


def frame_head(kind: str, size: int) -> bytes:
    """A frame up to its payload: header + ascii kind, for a payload
    of ``size`` bytes."""
    kb = kind.encode("ascii")
    if not kb or len(kb) > 255:
        raise FrameError(f"frame kind must be 1-255 ascii bytes: {kind!r}")
    if size > MAX_FRAME_BYTES:
        raise FrameError(f"frame payload of {size} bytes over cap")
    return FRAME_HEAD.pack(FRAME_MAGIC, len(kb), size) + kb


def encode_frame(kind: str, payload: bytes = b"") -> bytes:
    """One wire frame: header + ascii kind + raw payload bytes."""
    return frame_head(kind, len(payload)) + payload


async def read_frame(reader: asyncio.StreamReader) -> Tuple[str, bytes]:
    """Read one frame; raises ``IncompleteReadError`` on clean EOF."""
    klen, plen = decode_head(await reader.readexactly(FRAME_HEAD.size))
    kind = decode_kind(await reader.readexactly(klen))
    payload = await reader.readexactly(plen) if plen else b""
    return kind, payload


def decode_head(head: bytes) -> Tuple[int, int]:
    """``(kind length, payload length)`` of a frame header, for both
    readers; a bad magic or a payload over the cap makes the frame
    malformed (:class:`FrameError`) before anything is allocated."""
    magic, klen, plen = FRAME_HEAD.unpack(head)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r} (want {FRAME_MAGIC!r})")
    if plen > MAX_FRAME_BYTES:
        raise FrameError(f"frame payload of {plen} bytes over cap")
    return klen, plen


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
    loop (pool warmup/shutdown, joining the dispatch thread, filesystem
    calls): the callable is passed by reference, never invoked in the
    coroutine.
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
        if not spec[5:]:
            raise ServiceError(
                f"empty socket path in service address {spec!r} — want "
                "unix:<path>")
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
    back on the wire, so a hit is written out as the stored object,
    without touching serde.  ``hits + misses`` counts the lookups: one
    per mesh request.
    """

    def __init__(self, max_entries: int = 256) -> None:
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
class _Miss:
    """One cache-missed request, from its arrival to its reply."""

    __slots__ = ("key", "payload", "cost", "future", "arrived", "peak")

    def __init__(self, key: str, payload: serde.Buffers, cost: float,
                 future: "asyncio.Future[bytes]", arrived: float) -> None:
        self.key = key
        self.payload = payload
        self.cost = cost
        self.future = future
        self.arrived = arrived
        #: the most misses in flight at once while this one was.
        self.peak = 0


def _settle(future: "asyncio.Future[bytes]", blob: Optional[bytes],
            error: Optional[BaseException]) -> None:
    """Resolve a miss's future on the event loop (once)."""
    if future.done():
        return
    if error is None:
        future.set_result(blob)
    else:
        future.set_exception(error)


class MeshService:
    """Asyncio meshing daemon: warm executor + dispatch thread + cache.

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
        cache_entries: int = 256,
        work_fn: Optional[Callable] = None,
        cost_fn: Optional[Callable] = None,
    ) -> None:
        self.address = parse_address(address)
        self._backend: executor.Backend = executor.get_backend(backend)
        self.backend_name = self._backend.name
        for name, value in (("n_ranks", n_ranks),
                            ("cache_entries", cache_entries)):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.backend_name == "processes":
            # Service-owned pool: shutdown() must be able to stop the
            # workers without tearing down the shared instance.
            self._backend = executor.ProcessesBackend()
        self.n_ranks = int(n_ranks)
        self.cache = MeshCache(cache_entries)
        self.counters = Counters()
        if work_fn is None or cost_fn is None:
            from ..core import pipeline as _pipeline

            work_fn = work_fn or _pipeline.mesh_workitem
            cost_fn = cost_fn or _pipeline.request_cost
        self._work_fn = work_fn
        self._cost_fn = cost_fn
        #: decoded misses on their way to the dispatch thread; None
        #: stops it.
        self._arrivals: "queue.SimpleQueue[Optional[_Miss]]" = \
            queue.SimpleQueue()
        #: the dispatch thread's misses in its session, by item index.
        self._running: Dict[int, _Miss] = {}
        self._session: Optional[executor.StreamSession] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._inflight: Dict[str, "asyncio.Future[bytes]"] = {}
        self._conns: Dict[int, "asyncio.Task"] = {}
        self._next_conn = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown_task: Optional["asyncio.Task"] = None
        self._stopping = False
        self._started = False
        self._done_event: Optional[asyncio.Event] = None
        self._t_start = 0.0

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Bind the endpoint and start the dispatch thread."""
        if self._started:
            raise ServiceError("service already started")
        self._done_event = asyncio.Event()
        self._loop = asyncio.get_running_loop()
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
        self._open_session()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-mesh-dispatch",
            daemon=True)
        self._dispatcher.start()
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

        Misses the pool has not started fail with
        :class:`ServiceUnavailable`; the ones in flight are aborted
        through the worker pool's epoch fence so their clients get an
        ``err`` frame promptly instead of waiting their meshes out.
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
        # Stop the dispatch thread and abort its session behind the
        # pool's epoch fence.
        self._arrivals.put(None)
        self._backend.abort("service is shutting down")
        if self._dispatcher is not None:
            await offload(self._dispatcher.join)
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
        the latency and dispatch-wait percentiles are taken over the
        latest :data:`~repro.runtime.counters.SAMPLE_WINDOW` requests.
        """
        events = self.counters.events
        n_lat, lat_total, _, lat = self.counters.stream(
            "service.latency_seconds")
        n_done, size_total, size_max, _ = self.counters.stream(
            "service.batch_size")
        _, _, _, wait = self.counters.stream("service.dispatch_wait_seconds")
        requests = float(events.get("service.requests", 0))
        hits = float(events.get("service.cache_hits", 0))
        return {
            "schema_version": float(STATS_SCHEMA_VERSION),
            "uptime_s": monotonic() - self._t_start,
            "requests": requests,
            "cache_hits": hits,
            "cache_misses": float(self.cache.misses),
            "hit_ratio": hits / requests if requests else 0.0,
            "dedup_joins": float(events.get("service.dedup_joins", 0)),
            "dispatched": float(events.get("service.dispatched", 0)),
            "inflight": float(len(self._running)),
            "batch_size_mean": size_total / n_done if n_done else 0.0,
            "batch_size_max": size_max,
            "cache_entries": float(len(self.cache)),
            "cache_evictions": float(self.cache.evictions),
            "cache_nbytes": float(self.cache.nbytes()),
            "latency_p50_s": percentile(lat, 50.0),
            "latency_p99_s": percentile(lat, 99.0),
            "latency_mean_s": lat_total / n_lat if n_lat else 0.0,
            "dispatch_wait_p50_s": percentile(wait, 50.0),
            "dispatch_wait_p99_s": percentile(wait, 99.0),
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
        # Only canonical streams decode, and the digest of one is its
        # canonical_hash: the raw bytes key the request, so a hit is
        # served without decoding anything.
        key = hashlib.sha256(payload_bytes).hexdigest()
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
            # Decoded and priced before it queues: a stream that is not
            # canonical, or a payload the cost function rejects, fails
            # here, alone, and never reaches the pool.
            try:
                payload = serde.bytes_to_buffers(payload_bytes)
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
            self._arrivals.put(_Miss(key, payload, cost, future, t0))
            # The dispatch thread may be waiting on the pool: wake it to
            # hand this miss to a free worker now.
            self._session.wake()
        else:
            # Identical request already in flight: join it instead of
            # meshing twice (single-flight).
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
        # The payload object itself goes to the transport: a cached mesh
        # is not copied into a new frame.
        writer.write(frame_head(kind, len(payload)))
        writer.write(payload)
        await writer.drain()

    # -- dispatch thread -----------------------------------------------
    def _open_session(self) -> executor.StreamSession:
        """A stream session on the daemon's pool; worker counters merge
        into the service sink."""
        with counters_mod.use_counters(self.counters):
            self._session = self._backend.stream_workitems(
                self._work_fn, n_ranks=self.n_ranks)
        return self._session

    def _dispatch_loop(self) -> None:
        """Hand each miss to the session as it arrives and answer each
        when its own item finishes; blocks, with no timed polling,
        while nothing is in flight."""
        session = self._session
        while True:
            arrivals = [] if self._running else [self._arrivals.get()]
            while True:
                try:
                    arrivals.append(self._arrivals.get_nowait())
                except queue.Empty:
                    break
            if None in arrivals:
                break
            try:
                while arrivals:
                    self._submit(session, arrivals[0])
                    del arrivals[0]
                done = session.take()
            except Exception as exc:  # noqa: BLE001 - the session failed
                # Its misses fail with it; a fresh session serves on.
                for miss in list(self._running.values()) + arrivals:
                    self._answer(miss, None, exc)
                self._running.clear()
                session.cancel()
                session = self._open_session()
                continue
            if done is not None:
                self._deliver(*done)
        session.cancel()
        gone = ServiceUnavailable("service is shutting down")
        for miss in list(self._running.values()) + arrivals:
            if miss is not None:
                self._answer(miss, None, gone)
        self._running.clear()

    def _submit(self, session: executor.StreamSession, miss: _Miss) -> None:
        idx = session.submit(miss.payload, cost=miss.cost)
        self.counters.incr("service.dispatched")
        self._running[idx] = miss
        count = len(self._running)
        for other in self._running.values():
            other.peak = max(other.peak, count)

    def _deliver(self, idx: int, result, error: Optional[BaseException],
                 started: Optional[float]) -> None:
        """Encode, cache and answer one finished miss; a reply that
        cannot be encoded is that request's error alone."""
        miss = self._running.pop(idx)
        sink = self.counters
        sink.observe("service.batch_size", float(miss.peak))
        if started is not None:
            sink.observe("service.dispatch_wait_seconds",
                         started - miss.arrived)
        blob = None
        if error is None:
            try:
                blob = serde.buffers_to_bytes(result)
            except Exception as exc:  # noqa: BLE001 - answered as err
                error = ServiceError(
                    f"the mesh reply could not be encoded: {exc}")
            else:
                self.cache.put(miss.key, blob)
        self._answer(miss, blob, error)

    def _answer(self, miss: _Miss, blob: Optional[bytes],
                error: Optional[BaseException]) -> None:
        """Resolve ``miss``'s future on the event loop."""
        if error is not None and not isinstance(
                error, (ServiceError, executor.ExecutorError)):
            wrapped = ServiceError(f"meshing failed: {error}")
            wrapped.__cause__ = error
            error = wrapped
        assert self._loop is not None
        self._loop.call_soon_threadsafe(_settle, miss.future, blob, error)
