"""Synchronous client for the meshing service daemon.

:class:`ServiceClient` speaks the length-prefixed frame protocol of
:mod:`repro.runtime.service` over a plain blocking socket — no asyncio
on the consumer side, so CLI invocations, benchmarks and test threads
can all talk to the daemon with ordinary calls:

>>> with ServiceClient("unix:/run/mesh.sock") as client:
...     reply = client.submit(pslg, config)
...     mesh, was_cached = reply.mesh, reply.cached

One request is in flight per connection at a time (submit blocks until
the reply frame arrives); open one client per thread for concurrency.
"""

from __future__ import annotations

import hashlib
import socket
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from . import serde
from .counters import monotonic
from .service import (
    FRAME_HEAD,
    ServiceError,
    decode_head,
    decode_kind,
    encode_frame,
    parse_address,
)

__all__ = ["MeshReply", "ServiceClient", "recv_exact", "read_frame_blocking"]


def recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes; raises on EOF mid-message."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError(
                f"connection closed with {remaining} bytes outstanding")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_blocking(sock: socket.socket) -> Tuple[str, bytes]:
    """Blocking twin of :func:`repro.runtime.service.read_frame`."""
    klen, plen = decode_head(recv_exact(sock, FRAME_HEAD.size))
    kind = decode_kind(recv_exact(sock, klen))
    payload = recv_exact(sock, plen) if plen else b""
    return kind, payload


@dataclass
class MeshReply:
    """One served mesh: the result plus how it was produced."""

    mesh: object  #: :class:`repro.delaunay.mesh.TriMesh`
    cached: bool  #: True when the reply came out of the content cache
    key: str  #: canonical request hash (the cache key)
    elapsed_s: float  #: client-observed round-trip seconds
    raw: bytes  #: canonical mesh bytes exactly as they crossed the wire


class ServiceClient:
    """Blocking socket client for a :class:`MeshService` daemon."""

    def __init__(self, address: str, *, timeout: Optional[float] = 120.0,
                 connect_retries: int = 0, retry_delay: float = 0.1) -> None:
        self.address = parse_address(address)
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._connect(connect_retries, retry_delay)

    def _connect(self, retries: int, delay: float) -> None:
        kind, where = self.address
        last: Optional[Exception] = None
        for attempt in range(retries + 1):
            if attempt:
                time.sleep(delay)
            sock: Optional[socket.socket] = None
            try:
                if kind == "unix":
                    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    sock.settimeout(self.timeout)
                    sock.connect(where)
                else:
                    host, port = where
                    sock = socket.create_connection(
                        (host, port), timeout=self.timeout)
                self._sock = sock
                return
            except OSError as exc:
                last = exc
                if sock is not None:
                    sock.close()
        raise ServiceError(f"cannot connect to {self.address}: {last}")

    # -- plumbing ------------------------------------------------------
    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @property
    def sock(self) -> socket.socket:
        if self._sock is None:
            raise ServiceError("client is closed")
        return self._sock

    def request(self, kind: str, payload: bytes = b"") -> Tuple[str, bytes]:
        """Send one frame and block for the reply frame."""
        self.sock.sendall(encode_frame(kind, payload))
        return read_frame_blocking(self.sock)

    # -- protocol verbs ------------------------------------------------
    def ping(self) -> float:
        """Round-trip a ping; returns the RTT in seconds."""
        t0 = monotonic()
        kind, _payload = self.request("ping")
        if kind != "pong":
            raise ServiceError(f"unexpected reply to ping: {kind!r}")
        return monotonic() - t0

    def submit_packed(self, payload: Union[serde.Buffers, bytes]
                      ) -> Tuple[str, bytes]:
        """Submit an already-packed mesh request, as a buffer dict or
        as its canonical stream; returns (kind, bytes).

        The reply kind is ``mesh-ok`` (freshly meshed), ``mesh-hit``
        (served from the content cache) or raises :class:`ServiceError`
        with the daemon's message for an ``err`` frame.
        """
        if not isinstance(payload, bytes):
            payload = serde.buffers_to_bytes(payload)
        kind, blob = self.request("mesh", payload)
        if kind == "err":
            raise ServiceError(blob.decode("utf-8", "replace"))
        if kind not in ("mesh-ok", "mesh-hit"):
            raise ServiceError(f"unexpected reply kind {kind!r}")
        return kind, blob

    def submit(self, pslg, config=None) -> MeshReply:
        """Mesh one (PSLG, MeshConfig) request on the daemon."""
        from ..core.pipeline import pack_mesh_request

        # Encoded once: the digest of the stream is its canonical_hash.
        stream = serde.buffers_to_bytes(pack_mesh_request(pslg, config))
        t0 = monotonic()
        kind, blob = self.submit_packed(stream)
        elapsed = monotonic() - t0
        mesh = serde.unpack_mesh(serde.bytes_to_buffers(blob))
        return MeshReply(mesh=mesh, cached=(kind == "mesh-hit"),
                         key=hashlib.sha256(stream).hexdigest(),
                         elapsed_s=elapsed, raw=blob)

    def stats(self) -> Dict[str, float]:
        """The daemon's counter snapshot as plain floats."""
        kind, blob = self.request("stats")
        if kind != "stats":
            raise ServiceError(f"unexpected reply to stats: {kind!r}")
        buffers = serde.bytes_to_buffers(blob)
        return {key: float(buffers[key][0]) for key in sorted(buffers)}

    def shutdown_server(self) -> None:
        """Ask the daemon to shut down gracefully (waits for 'bye')."""
        kind, _payload = self.request("shutdown")
        if kind != "bye":
            raise ServiceError(f"unexpected reply to shutdown: {kind!r}")
        self.close()
