"""Test harness: run a :class:`MeshService` on a private event loop in a
daemon thread, next to synchronous client code.

>>> st = ServiceThread(MeshService("tcp:127.0.0.1:0"))
>>> endpoint = st.start()          # connectable spec
>>> ...                            # ServiceClient(endpoint) traffic
>>> st.stop()                      # graceful shutdown, thread joined
"""

import asyncio
import threading
from typing import Optional

from repro.runtime.service import MeshService, ServiceError


class ServiceThread:
    """Own a :class:`MeshService` on a daemon thread's event loop."""

    def __init__(self, service: MeshService) -> None:
        self.service = service
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> str:
        """Start the daemon (within 30 s); returns the connectable
        endpoint spec."""
        if self._thread is not None:
            raise ServiceError("service thread already started")
        self._thread = threading.Thread(target=self._run,
                                        name="repro-mesh-service",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(30.0):
            raise ServiceError("service failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self.service.endpoint

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.service.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced in start()
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._loop = loop
        self._ready.set()
        try:
            loop.run_until_complete(self.service.serve_forever())
        finally:
            loop.close()

    def stop(self) -> None:
        """Graceful shutdown, waiting up to 60 s for the drain and again
        for the join; joins the loop thread (idempotent)."""
        if self._thread is None or self._loop is None:
            return
        if self._thread.is_alive():
            fut = asyncio.run_coroutine_threadsafe(
                self.service.shutdown(), self._loop)
            fut.result(timeout=60.0)
        self._thread.join(timeout=60.0)
        if self._thread.is_alive():
            raise ServiceError("service thread did not stop")
        self._thread = None
        self._loop = None
