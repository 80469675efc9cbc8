"""Unit and end-to-end tests for the meshing service daemon.

Covers the wire frame codec, address parsing, the content-addressed
cache, streamed dispatch and dedup through a live daemon, error frames,
client disconnects, the stats frame's schema, and the shutdown abort
path through the worker pool's epoch fence (the processes-backend tests
at the bottom).

Work functions are module-level so the processes backend's workers can
resolve them by import path (closures are rejected by design).
"""

import asyncio
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.pipeline import MeshConfig, pack_mesh_request
from repro.geometry.airfoils import naca4
from repro.geometry.pslg import PSLG
from repro.runtime import serde
from repro.runtime.client import ServiceClient, read_frame_blocking
from repro.runtime.counters import monotonic
from repro.runtime.executor import PoolStream
from repro.runtime.service import (
    FRAME_HEAD,
    FRAME_MAGIC,
    FrameError,
    MeshCache,
    MeshService,
    ServiceError,
    encode_frame,
    parse_address,
    percentile,
    read_frame,
    STATS_SCHEMA_VERSION,
)

from tests.runtime.service_thread import ServiceThread


def _buffers(tag, n=16):
    return {"x": np.full(n, float(tag)), "tag": np.asarray([float(tag)])}


_ECHO_CALLS = []
_SLOW_CALLS = []


def _echo_item(payload):
    _ECHO_CALLS.append(float(payload["tag"][0]))
    return {"y": np.asarray(payload["x"]) * 2.0, "tag": payload["tag"]}


def _slow_counted_item(payload):
    _SLOW_CALLS.append(float(payload["tag"][0]))
    time.sleep(float(payload["delay"][0]) if "delay" in payload else 0.3)
    return {"y": np.asarray(payload["x"]) + 1.0}


def _boom_item(payload):
    raise ValueError("boom in work item")


def _big_item(payload):
    """A reply far larger than a socket buffer holds."""
    return {"y": np.full(1 << 20, float(payload["tag"][0]))}


def _one_triangle_item(payload):
    return {"points": np.asarray([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            "triangles": np.asarray([[0, 1, 2]], dtype=np.int32),
            "segments": np.asarray([[0, 1]], dtype=np.int32)}


def _bad_reply_for_tag_one(payload):
    """A reply the daemon cannot encode (an int key) for tag 1."""
    if float(payload["tag"][0]) == 1.0:
        return {1: np.zeros(1)}
    return _echo_item(payload)


def _log_path(path):
    return np.frombuffer(str(path).encode(), dtype=np.uint8).copy()


def _timed_item(payload):
    """Sleep ``delay`` s, or raise when ``boom`` is set; each call is
    appended to the ``log`` file (pool workers are other processes).
    The reply carries the item's start and end on the system clock."""
    started = time.monotonic()
    tag = float(payload["tag"][0])
    with open(bytes(payload["log"]).decode(), "a") as log:
        log.write(f"{tag}\n")
    if payload["boom"][0] > 0:
        raise ValueError(f"boom in item {tag}")
    time.sleep(float(payload["delay"][0]))
    return {"tag": payload["tag"],
            "span": np.asarray([started, time.monotonic()])}


def _unit_cost(payload):
    return 1.0


def _start(tmp_path, **kw):
    kw.setdefault("backend", "serial")
    kw.setdefault("work_fn", _echo_item)
    kw.setdefault("cost_fn", _unit_cost)
    svc = MeshService(f"unix:{tmp_path}/svc.sock", **kw)
    thread = ServiceThread(svc)
    endpoint = thread.start()
    return svc, thread, endpoint


def _decode_frames(data, count):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return [await read_frame(reader) for _ in range(count)]

    return asyncio.run(go())


def _read_blocking(data, count):
    left, right = socket.socketpair()
    try:
        left.sendall(data)
        left.shutdown(socket.SHUT_WR)
        return [read_frame_blocking(right) for _ in range(count)]
    finally:
        left.close()
        right.close()


#: every key of the stats frame (schema version 2).
STATS_KEYS = {
    "schema_version", "uptime_s", "requests", "cache_hits", "cache_misses",
    "hit_ratio", "dedup_joins", "dispatched", "inflight", "batch_size_mean",
    "batch_size_max", "cache_entries", "cache_evictions", "cache_nbytes",
    "latency_p50_s", "latency_p99_s", "latency_mean_s",
    "dispatch_wait_p50_s", "dispatch_wait_p99_s", "disconnects", "errors",
}

#: both frame readers: the daemon's and the client's blocking twin.
READERS = pytest.mark.parametrize("read", [_decode_frames, _read_blocking],
                                  ids=["async", "blocking"])


class TestFrameCodec:
    def test_round_trip_stream(self):
        wire = (encode_frame("mesh", b"abc") + encode_frame("ping")
                + encode_frame("stats", b"\x00" * 100))
        frames = _decode_frames(wire, 3)
        assert frames == [("mesh", b"abc"), ("ping", b""),
                          ("stats", b"\x00" * 100)]

    @READERS
    def test_bad_magic_rejected(self, read):
        wire = b"XXXX" + encode_frame("ping")[4:]
        with pytest.raises(FrameError, match="magic"):
            read(wire, 1)

    @READERS
    def test_oversize_length_rejected_before_allocation(self, read):
        head = FRAME_HEAD.pack(FRAME_MAGIC, 4, 1 << 62)
        with pytest.raises(FrameError, match="over cap"):
            read(head + b"mesh", 1)

    def test_non_ascii_kind_is_a_frame_error(self):
        wire = FRAME_HEAD.pack(FRAME_MAGIC, 2, 0) + b"\xff\xfe"
        with pytest.raises(FrameError, match="not ascii"):
            _decode_frames(wire, 1)

    def test_blocking_reader_rejects_non_ascii_kind(self):
        left, right = socket.socketpair()
        try:
            left.sendall(FRAME_HEAD.pack(FRAME_MAGIC, 2, 0) + b"\xff\xfe")
            with pytest.raises(FrameError, match="not ascii"):
                read_frame_blocking(right)
        finally:
            left.close()
            right.close()

    def test_kind_validation(self):
        with pytest.raises(FrameError):
            encode_frame("")
        with pytest.raises(FrameError):
            encode_frame("k" * 256)

    def test_truncated_stream_is_incomplete_read(self):
        wire = encode_frame("mesh", b"abcdef")[:-2]
        with pytest.raises(asyncio.IncompleteReadError):
            _decode_frames(wire, 1)


class TestAddressing:
    def test_unix_forms(self):
        assert parse_address("unix:/run/m.sock") == ("unix", "/run/m.sock")
        assert parse_address("/tmp/m.sock") == ("unix", "/tmp/m.sock")

    def test_tcp_forms(self):
        assert parse_address("tcp:127.0.0.1:7070") == \
            ("tcp", ("127.0.0.1", 7070))
        assert parse_address("localhost:0") == ("tcp", ("localhost", 0))
        assert parse_address("tcp::9000") == ("tcp", ("127.0.0.1", 9000))

    def test_empty_unix_path_is_rejected(self):
        with pytest.raises(ServiceError, match="empty socket path"):
            parse_address("unix:")

    def test_unparseable(self):
        with pytest.raises(ServiceError, match="cannot parse"):
            parse_address("nonsense")

    @pytest.mark.parametrize("spec", ["tcp:localhost", "tcp:127.0.0.1:http",
                                      "127.0.0.1:99999", "tcp:h:-1"])
    def test_bad_port_names_the_spec(self, spec):
        with pytest.raises(ServiceError, match=f"address '{spec}'"):
            parse_address(spec)


class TestClientConnect:
    def test_failed_attempt_closes_its_socket_and_does_not_sleep(
            self, tmp_path):
        """One attempt at a missing socket path: the typed error comes
        well inside ``retry_delay`` (no sleep after the last attempt),
        and the attempt's socket is closed, not left to the collector."""
        import gc
        import warnings

        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            t0 = monotonic()
            with pytest.raises(ServiceError, match="cannot connect"):
                ServiceClient(f"unix:{tmp_path}/missing.sock",
                              connect_retries=0, retry_delay=2.0)
            elapsed = monotonic() - t0
            gc.collect()
        assert elapsed < 0.5
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]


class TestPercentile:
    def test_empty(self):
        assert percentile([], 50.0) == 0.0

    def test_nearest_rank(self):
        vals = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(vals, 50.0) == 3.0
        assert percentile(vals, 99.0) == 5.0
        assert percentile(vals, 1.0) == 1.0


class TestMeshCache:
    def test_put_get_and_counters(self):
        cache = MeshCache(4)
        assert cache.get("a") is None
        cache.put("a", b"blob-a")
        assert cache.get("a") == b"blob-a"
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_respects_recency(self):
        cache = MeshCache(2)
        cache.put("a", b"A")
        cache.put("b", b"B")
        assert cache.get("a") == b"A"  # refresh a; b is now oldest
        cache.put("c", b"C")
        assert cache.get("b") is None
        assert cache.get("a") == b"A"
        assert cache.get("c") == b"C"
        assert cache.evictions == 1

    def test_get_buffers_zero_copy_readonly(self):
        cache = MeshCache(2)
        buffers = _buffers(3.0)
        blob = serde.buffers_to_bytes(buffers)
        cache.put("k", blob)
        views = serde.bytes_to_buffers(cache.get("k"))
        assert set(views) == {"x", "tag"}
        np.testing.assert_array_equal(views["x"], buffers["x"])
        assert not views["x"].flags.writeable
        assert cache.nbytes() == len(blob)


class TestServiceEndToEnd:
    def test_miss_then_hit_byte_identical(self, tmp_path):
        svc, thread, endpoint = _start(tmp_path)
        try:
            with ServiceClient(endpoint) as client:
                kind1, blob1 = client.submit_packed(_buffers(1.0))
                kind2, blob2 = client.submit_packed(_buffers(1.0))
            assert (kind1, kind2) == ("mesh-ok", "mesh-hit")
            assert blob1 == blob2
            out = serde.bytes_to_buffers(blob1)
            np.testing.assert_array_equal(out["y"], np.full(16, 2.0))
            stats = svc.stats()
            assert stats["requests"] == 2.0
            assert stats["cache_hits"] == 1.0
        finally:
            thread.stop()

    def test_hit_neither_decodes_nor_rehashes(self, tmp_path, monkeypatch):
        """A hit is one digest of the raw bytes, one lookup, one write."""
        calls = []
        for name in ("bytes_to_buffers", "canonical_hash"):
            def spy(*args, _real=getattr(serde, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(serde, name, spy)
        svc, thread, endpoint = _start(tmp_path)
        try:
            with ServiceClient(endpoint) as client:
                assert client.submit_packed(_buffers(1.0))[0] == "mesh-ok"
                assert calls == ["bytes_to_buffers"]  # only a miss decodes
                del calls[:]
                assert client.submit_packed(_buffers(1.0))[0] == "mesh-hit"
                assert calls == []
        finally:
            thread.stop()

    def test_hits_plus_misses_are_the_mesh_requests(self, tmp_path):
        svc, thread, endpoint = _start(tmp_path)
        try:
            with ServiceClient(endpoint) as client:
                for tag in (1.0, 1.0, 2.0, 1.0):
                    client.submit_packed(_buffers(tag))
                assert client.request("mesh", b"junk")[0] == "err"
                stats = client.stats()
            assert stats["requests"] == 5.0
            assert stats["cache_hits"] == 2.0
            assert stats["cache_hits"] + stats["cache_misses"] == \
                stats["requests"]
        finally:
            thread.stop()

    def test_stats_frame_carries_the_daemon_floats_exactly(self, tmp_path):
        """The stats frame is float64 end to end: after one miss and two
        hits a client reads ``hit_ratio`` as the daemon computes it,
        2/3 to the last bit (a float32 frame reads 0.6666666865348816),
        and every other entry but the running uptime equals the daemon's
        own."""
        svc, thread, endpoint = _start(tmp_path)
        try:
            with ServiceClient(endpoint) as client:
                for _ in range(3):
                    client.submit_packed(_buffers(1.0))
                stats = client.stats()
                now = svc.stats()
            assert stats["hit_ratio"] == 2 / 3
            assert stats.pop("uptime_s") <= now.pop("uptime_s")
            assert stats == now
            assert set(stats) | {"uptime_s"} == STATS_KEYS
        finally:
            thread.stop()

    def test_stats_frame_keeps_the_keys_the_ledger_reads(self, tmp_path):
        """``requests``, ``hit_ratio``, ``cache_evictions`` and
        ``batch_size_mean`` are read by the benchmark ledger; the frame
        says which schema it is, and one miss observes its batch size
        and its wait from arrival to a worker once each."""
        svc, thread, endpoint = _start(tmp_path, cache_entries=1)
        try:
            with ServiceClient(endpoint) as client:
                for tag in (1.0, 2.0, 2.0):
                    client.submit_packed(_buffers(tag))
                stats = client.stats()
        finally:
            thread.stop()
        assert stats["schema_version"] == float(STATS_SCHEMA_VERSION) == 2.0
        assert (stats["requests"], stats["hit_ratio"],
                stats["cache_evictions"], stats["batch_size_mean"]) == \
            (3.0, 1 / 3, 1.0, 1.0)
        assert (stats["dispatched"], stats["inflight"]) == (2.0, 0.0)
        n_wait, _, _, waits = svc.counters.stream(
            "service.dispatch_wait_seconds")
        assert n_wait == 2 and all(w >= 0.0 for w in waits)
        assert stats["dispatch_wait_p99_s"] == max(waits)

    def test_a_reply_that_cannot_be_encoded_fails_alone(self, tmp_path):
        """A work function whose result the daemon cannot encode answers
        that request with ``err``; the daemon goes on serving, and the
        same request sent again fails again instead of joining a future
        that never resolves."""
        svc, thread, endpoint = _start(tmp_path,
                                       work_fn=_bad_reply_for_tag_one)
        try:
            with ServiceClient(endpoint, timeout=10.0) as client:
                with pytest.raises(ServiceError, match="could not be encoded"):
                    client.submit_packed(_buffers(1.0))
            with ServiceClient(endpoint, timeout=10.0) as client:
                assert client.submit_packed(_buffers(2.0))[0] == "mesh-ok"
            with ServiceClient(endpoint, timeout=10.0) as client:
                with pytest.raises(ServiceError, match="could not be encoded"):
                    client.submit_packed(_buffers(1.0))
            stats = svc.stats()
            assert (stats["errors"], stats["inflight"]) == (2.0, 0.0)
            assert svc._dispatcher.is_alive()
        finally:
            thread.stop()

    def test_non_canonical_request_err_frame_then_next_request(
            self, tmp_path):
        """A stream the encoder would not write (here a dtype alias) is
        refused on its own; the connection goes on."""
        canonical = serde.buffers_to_bytes(_buffers(1.0))
        alias = canonical.replace(b"<f8", b"=f8", 1)
        svc, thread, endpoint = _start(tmp_path)
        try:
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(str(tmp_path / "svc.sock"))
            try:
                raw.sendall(encode_frame("mesh", alias))
                kind, payload = read_frame_blocking(raw)
                assert kind == "err"
                assert b"bad request" in payload
                assert b"'=f8' is not canonical" in payload
                raw.sendall(encode_frame("mesh", canonical))
                assert read_frame_blocking(raw)[0] == "mesh-ok"
            finally:
                raw.close()
        finally:
            thread.stop()

    def test_eviction_while_a_hit_reply_is_in_flight(self, tmp_path):
        """A hit's reply is written from the cached object itself; its
        bytes survive the eviction of that entry mid-write."""
        a, b = _buffers(1.0), _buffers(2.0)
        svc, thread, endpoint = _start(tmp_path, work_fn=_big_item,
                                       cache_entries=1)
        try:
            with ServiceClient(endpoint) as client:
                kind, first_a = client.submit_packed(a)
            assert kind == "mesh-ok"
            slow = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            slow.connect(str(tmp_path / "svc.sock"))
            try:
                slow.sendall(encode_frame("mesh", serde.buffers_to_bytes(a)))
                deadline = monotonic() + 30.0
                while svc.stats()["cache_hits"] < 1.0:
                    assert monotonic() < deadline, "the hit never came"
                    time.sleep(0.01)
                with ServiceClient(endpoint) as client:
                    assert client.submit_packed(b)[0] == "mesh-ok"
                assert svc.stats()["cache_evictions"] == 1.0
                kind, blob = read_frame_blocking(slow)  # read it now
            finally:
                slow.close()
            assert kind == "mesh-hit"
            assert blob == first_a
            with ServiceClient(endpoint) as client:
                kind, again = client.submit_packed(a)
            assert kind == "mesh-ok"
            assert again == first_a
        finally:
            thread.stop()

    def test_submit_encodes_its_request_once(self, tmp_path, monkeypatch):
        """``ServiceClient.submit`` encodes the request once and keys the
        reply by the digest of those bytes: ``canonical_hash``."""
        pslg = PSLG.from_loops([naca4("0012", 21)], names=["naca0012"])
        config = MeshConfig()
        client_calls = []
        real = serde.buffers_to_bytes

        def spy(buffers):
            if threading.current_thread() is threading.main_thread():
                client_calls.append(sorted(buffers))
            return real(buffers)

        svc, thread, endpoint = _start(tmp_path, work_fn=_one_triangle_item)
        try:
            monkeypatch.setattr(serde, "buffers_to_bytes", spy)
            with ServiceClient(endpoint) as client:
                replies = [client.submit(pslg, config) for _ in range(2)]
            monkeypatch.undo()
        finally:
            thread.stop()
        assert len(client_calls) == 2
        assert [r.cached for r in replies] == [False, True]
        key = serde.canonical_hash(pack_mesh_request(pslg, config))
        assert [r.key for r in replies] == [key, key]
        assert replies[0].mesh.n_triangles == 1

    def test_tcp_ephemeral_port(self, tmp_path):
        svc = MeshService("tcp:127.0.0.1:0", backend="serial",
                          work_fn=_echo_item, cost_fn=_unit_cost)
        thread = ServiceThread(svc)
        endpoint = thread.start()
        try:
            assert endpoint.startswith("tcp:127.0.0.1:")
            assert not endpoint.endswith(":0")
            with ServiceClient(endpoint) as client:
                assert client.ping() >= 0.0
                kind, _blob = client.submit_packed(_buffers(9.0))
                assert kind == "mesh-ok"
        finally:
            thread.stop()

    def test_identical_inflight_requests_deduplicate(self, tmp_path):
        del _SLOW_CALLS[:]
        svc, thread, endpoint = _start(
            tmp_path, work_fn=_slow_counted_item)
        try:
            payload = _buffers(7.0)
            payload["delay"] = np.asarray([0.5])
            blobs = {}

            def run(label, delay):
                time.sleep(delay)
                with ServiceClient(endpoint) as client:
                    blobs[label] = client.submit_packed(payload)

            threads = [threading.Thread(target=run, args=("a", 0.0)),
                       threading.Thread(target=run, args=("b", 0.2))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            # One execution served both clients (single-flight join).
            assert _SLOW_CALLS.count(7.0) == 1
            assert blobs["a"][1] == blobs["b"][1]
            stats = svc.stats()
            assert stats["requests"] == 2.0
            assert stats["dedup_joins"] == 1.0
        finally:
            thread.stop()

    def test_work_error_becomes_err_frame(self, tmp_path):
        svc, thread, endpoint = _start(tmp_path, work_fn=_boom_item)
        try:
            with ServiceClient(endpoint) as client:
                with pytest.raises(ServiceError, match="boom"):
                    client.submit_packed(_buffers(1.0))
                # The connection survives an err frame.
                assert client.ping() >= 0.0
            assert svc.stats()["errors"] >= 1.0
        finally:
            thread.stop()

    def test_unknown_kind_and_bad_payload_err_frames(self, tmp_path):
        svc, thread, endpoint = _start(tmp_path)
        try:
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(str(tmp_path / "svc.sock"))
            try:
                raw.sendall(encode_frame("bogus"))
                kind, payload = read_frame_blocking(raw)
                assert kind == "err"
                assert b"unknown request kind" in payload
                raw.sendall(encode_frame("mesh", b"not a serde stream"))
                kind, payload = read_frame_blocking(raw)
                assert kind == "err"
                assert b"bad request" in payload
            finally:
                raw.close()
        finally:
            thread.stop()

    def test_non_ascii_kind_err_frame_then_next_request(self, tmp_path):
        svc, thread, endpoint = _start(tmp_path)
        try:
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(str(tmp_path / "svc.sock"))
            try:
                raw.sendall(FRAME_HEAD.pack(FRAME_MAGIC, 2, 0) + b"\xff\xfe")
                kind, payload = read_frame_blocking(raw)
                assert kind == "err"
                assert b"not ascii" in payload
            finally:
                raw.close()
            assert svc.stats()["errors"] == 1.0
            with ServiceClient(endpoint) as client:
                assert client.submit_packed(_buffers(1.0))[0] == "mesh-ok"
        finally:
            thread.stop()

    def test_client_disconnect_mid_request_is_graceful(self, tmp_path):
        del _SLOW_CALLS[:]
        svc, thread, endpoint = _start(
            tmp_path, work_fn=_slow_counted_item)
        try:
            payload = _buffers(5.0)
            payload["delay"] = np.asarray([0.5])
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(str(tmp_path / "svc.sock"))
            raw.sendall(encode_frame("mesh", serde.buffers_to_bytes(payload)))
            raw.close()  # vanish while the batch is in flight
            time.sleep(0.1)
            with ServiceClient(endpoint) as client:
                kind, blob = client.submit_packed(payload)
                assert kind in ("mesh-ok", "mesh-hit")
                out = serde.bytes_to_buffers(blob)
                np.testing.assert_array_equal(out["y"], payload["x"] + 1.0)
                # The abandoned request still ran once and fed the cache.
                kind2, _ = client.submit_packed(payload)
                assert kind2 == "mesh-hit"
            assert _SLOW_CALLS.count(5.0) == 1
            assert svc.stats()["requests"] == 3.0
        finally:
            thread.stop()

    def test_shutdown_fails_queued_requests_cleanly(self, tmp_path):
        svc, thread, endpoint = _start(tmp_path, work_fn=_slow_counted_item)
        try:
            outcome = {}

            def run(tag, delay):
                time.sleep(delay)
                try:
                    with ServiceClient(endpoint) as client:
                        payload = _buffers(tag)
                        payload["delay"] = np.asarray([0.6])
                        outcome[tag] = client.submit_packed(payload)[0]
                except ServiceError as exc:
                    outcome[tag] = f"error: {exc}"

            # On serial the dispatch thread runs the first request
            # itself; the second waits in the session behind it and
            # must be failed by shutdown.
            threads = [threading.Thread(target=run, args=(1.0, 0.0)),
                       threading.Thread(target=run, args=(2.0, 0.2))]
            for t in threads:
                t.start()
            time.sleep(0.4)
            thread.stop()
            for t in threads:
                t.join(timeout=30)
            assert outcome[1.0] == "mesh-ok"
            assert "shutting down" in outcome[2.0]
        finally:
            thread.stop()


def _segments():
    """Names of live posix shared-memory segments (Python's psm_ pool)."""
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


def _pooled(tmp_path, **kw):
    """A live daemon on two pool workers running ``_timed_item``."""
    svc = MeshService(f"unix:{tmp_path}/svc.sock", backend="processes",
                      n_ranks=2, work_fn=_timed_item, cost_fn=_unit_cost,
                      **kw)
    thread = ServiceThread(svc)
    return svc, thread, thread.start()


def _timed_request(tmp_path, tag, delay, boom=False):
    payload = _buffers(tag)
    payload["delay"] = np.asarray([delay])
    payload["boom"] = np.asarray([1.0 if boom else 0.0])
    payload["log"] = _log_path(tmp_path / "calls.log")
    return payload


def _send_later(endpoint, payload, replies, label, delay=0.0):
    """Submit ``payload`` on its own client thread after ``delay`` s;
    ``replies[label]`` gets ``(kind or error, blob, reply time)``."""
    def run():
        time.sleep(delay)
        try:
            with ServiceClient(endpoint, timeout=30.0) as client:
                kind, blob = client.submit_packed(payload)
                replies[label] = (kind, blob, monotonic())
        except ServiceError as exc:
            replies[label] = (f"error: {exc}", b"", monotonic())

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def _span(reply):
    return serde.bytes_to_buffers(reply[1])["span"]


def _wait_inflight(svc, count):
    deadline = monotonic() + 20.0
    while svc.stats()["inflight"] < count:
        assert monotonic() < deadline, "the misses never reached the pool"
        time.sleep(0.01)


class TestStreamedDispatch:
    """Each miss goes to a free worker when it arrives and is answered
    when its own mesh is done (processes backend, two workers)."""

    def test_fast_miss_is_answered_before_the_slow_one_finishes(
            self, tmp_path):
        svc, thread, endpoint = _pooled(tmp_path)
        try:
            replies = {}
            t0 = monotonic()
            clients = [
                _send_later(endpoint, _timed_request(tmp_path, 1.0, 1.0),
                            replies, "slow"),
                _send_later(endpoint, _timed_request(tmp_path, 2.0, 0.05),
                            replies, "fast")]
            for t in clients:
                t.join(timeout=30)
        finally:
            thread.stop()
        assert replies["slow"][0] == replies["fast"][0] == "mesh-ok"
        # The fast reply was out while the slow item still ran.
        assert replies["fast"][2] < _span(replies["slow"])[1]
        assert replies["fast"][2] - t0 < 1.0

    def test_a_miss_sent_while_two_are_in_flight_starts_when_a_worker_frees(
            self, tmp_path):
        svc, thread, endpoint = _pooled(tmp_path)
        try:
            replies = {}
            clients = [
                _send_later(endpoint, _timed_request(tmp_path, 1.0, 0.5),
                            replies, "short"),
                _send_later(endpoint, _timed_request(tmp_path, 2.0, 2.0),
                            replies, "long")]
            _wait_inflight(svc, 2)
            clients.append(_send_later(
                endpoint, _timed_request(tmp_path, 3.0, 0.05), replies,
                "late"))
            for t in clients:
                t.join(timeout=30)
            stats = svc.stats()
        finally:
            thread.stop()
        assert {r[0] for r in replies.values()} == {"mesh-ok"}
        short, long_, late = (_span(replies[k])
                              for k in ("short", "long", "late"))
        # The late miss took the worker the short one freed, at once,
        # and was answered while the long one still ran.
        assert late[0] >= short[1]
        assert late[0] - short[1] < 0.25
        assert replies["late"][2] < long_[1]
        assert stats["batch_size_max"] == 3.0

    def test_a_miss_reaches_an_idle_worker_at_once(self, tmp_path):
        """One worker busy, one idle: a new miss must not wait for the
        busy one (the dispatch thread is woken, not polled)."""
        svc, thread, endpoint = _pooled(tmp_path)
        try:
            replies = {}
            clients = [_send_later(endpoint,
                                   _timed_request(tmp_path, 1.0, 1.5),
                                   replies, "long")]
            _wait_inflight(svc, 1)
            sent = monotonic()
            clients.append(_send_later(
                endpoint, _timed_request(tmp_path, 2.0, 0.05), replies,
                "late"))
            for t in clients:
                t.join(timeout=30)
            stats = svc.stats()
        finally:
            thread.stop()
        assert _span(replies["late"])[0] - sent < 0.25
        assert replies["late"][2] < _span(replies["long"])[1]
        assert stats["dispatch_wait_p99_s"] < 0.25

    def test_a_burst_of_two_reads_two(self, tmp_path, monkeypatch):
        """Two misses sent back to back, as the benchmark ledger sends a
        burst: each goes to its own worker at once, so each is in flight
        beside the other and both read a batch size of 2.  A slowed
        ``submit`` holds the dispatch thread between taking the first
        miss and waiting on the pool while the second one arrives."""
        real_submit = PoolStream.submit

        def slow_submit(self, *args, **kwargs):
            time.sleep(0.05)
            return real_submit(self, *args, **kwargs)

        monkeypatch.setattr(PoolStream, "submit", slow_submit)
        svc, thread, endpoint = _pooled(tmp_path)
        try:
            with ServiceClient(endpoint) as a, ServiceClient(endpoint) as b:
                for burst in range(3):
                    frames = [encode_frame("mesh", serde.buffers_to_bytes(
                        _timed_request(tmp_path, 2.0 * burst + i, 0.3)))
                        for i in range(2)]
                    a.sock.sendall(frames[0])
                    time.sleep(0.01)
                    b.sock.sendall(frames[1])
                    spans = [_span(read_frame_blocking(c.sock))
                             for c in (a, b)]
                    # Side by side, not one after the other.
                    assert max(s[0] for s in spans) < min(s[1] for s in spans)
            stats = svc.stats()
        finally:
            thread.stop()
        assert (stats["batch_size_mean"], stats["batch_size_max"]) == \
            (2.0, 2.0)

    def test_a_failing_item_leaves_its_neighbour_running_once(
            self, tmp_path):
        svc, thread, endpoint = _pooled(tmp_path)
        try:
            replies = {}
            clients = [
                _send_later(endpoint, _timed_request(tmp_path, 1.0, 0.8),
                            replies, "good"),
                _send_later(endpoint,
                            _timed_request(tmp_path, 2.0, 0.0, boom=True),
                            replies, "bad")]
            for t in clients:
                t.join(timeout=30)
        finally:
            thread.stop()
        assert replies["good"][0] == "mesh-ok"
        assert replies["bad"][0].startswith("error: ")
        assert "boom in item 2.0" in replies["bad"][0]
        calls = (tmp_path / "calls.log").read_text().split()
        assert sorted(calls) == ["1.0", "2.0"]


def test_shutdown_aborts_inflight_batch_via_epoch_fence(tmp_path,
                                                       monkeypatch):
    """Service shutdown with misses in flight must quiesce the pool
    through the epoch fence and return clean error frames to every
    pending client — not wait out every item, not hang, not leak
    workers or shared-memory segments — and leave the pool usable."""
    monkeypatch.setattr(serde, "SHM_MIN_BYTES", 0)
    before = _segments()
    del _SLOW_CALLS[:]
    svc = MeshService(f"unix:{tmp_path}/svc.sock", backend="processes",
                      n_ranks=2, work_fn=_slow_counted_item,
                      cost_fn=_unit_cost)
    thread = ServiceThread(svc)
    endpoint = thread.start()
    errors = {}
    oks = {}

    def run(tag):
        try:
            with ServiceClient(endpoint) as client:
                payload = _buffers(tag)
                payload["delay"] = np.asarray([4.0])
                oks[tag] = client.submit_packed(payload)[0]
        except ServiceError as exc:
            errors[tag] = str(exc)

    clients = [threading.Thread(target=run, args=(float(i),))
               for i in range(4)]
    for t in clients:
        t.start()
    _wait_inflight(svc, 4)
    time.sleep(0.3)  # let the pool actually start the first items
    t0 = monotonic()
    thread.stop()
    stop_elapsed = monotonic() - t0
    for t in clients:
        t.join(timeout=30)
    # All four clients got error frames, not hung sockets; the two
    # items no worker had started were dropped at the fence, so
    # shutdown is bounded by one in-flight item (4s), not two (8s).
    assert not oks
    assert sorted(errors) == [0.0, 1.0, 2.0, 3.0]
    assert all("abort" in msg or "shutting down" in msg
               for msg in errors.values())
    assert stop_elapsed < 7.0
    assert _segments() <= before
    # The pool the daemon aborted runs new work.
    pool = svc._backend
    try:
        out = pool.map_workitems(_echo_item, [_buffers(5.0)], n_ranks=2)
        np.testing.assert_array_equal(out[0]["y"], np.full(16, 10.0))
    finally:
        pool.shutdown_pool()
    assert _segments() <= before


@pytest.mark.parametrize("settings, named", [
    ({"backend": "processes", "n_ranks": 0}, "n_ranks must be at least 1"),
    ({"cache_entries": 0}, "cache_entries must be at least 1"),
    ({"n_ranks": 0}, "n_ranks must be at least 1"),
])
def test_unusable_settings_are_refused(tmp_path, settings, named):
    with pytest.raises(ValueError, match=named):
        MeshService(f"unix:{tmp_path}/svc.sock", work_fn=_echo_item,
                    cost_fn=_unit_cost, **settings)


def test_service_thread_lifecycle_guards(tmp_path):
    svc, thread, _endpoint = _start(tmp_path)
    with pytest.raises(ServiceError, match="already started"):
        thread.start()
    thread.stop()
    thread.stop()  # idempotent
