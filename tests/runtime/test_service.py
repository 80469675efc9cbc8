"""Unit and end-to-end tests for the meshing service daemon.

Covers the wire frame codec, address parsing, the content-addressed
cache, request batching/dedup through a live daemon, error frames,
client disconnects, and the shutdown-mid-batch abort path through the
worker pool's epoch fence (the processes-backend test at the bottom).

Work functions are module-level so the processes backend's workers can
resolve them by import path (closures are rejected by design).
"""

import asyncio
import socket
import threading
import time

import numpy as np
import pytest

from repro.runtime import serde
from repro.runtime.client import ServiceClient, read_frame_blocking
from repro.runtime.counters import monotonic
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


def _unit_cost(payload):
    return 1.0


def _start(tmp_path, **kw):
    kw.setdefault("backend", "serial")
    kw.setdefault("work_fn", _echo_item)
    kw.setdefault("cost_fn", _unit_cost)
    kw.setdefault("batch_window", 0.01)
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


class TestFrameCodec:
    def test_round_trip_stream(self):
        wire = (encode_frame("mesh", b"abc") + encode_frame("ping")
                + encode_frame("stats", b"\x00" * 100))
        frames = _decode_frames(wire, 3)
        assert frames == [("mesh", b"abc"), ("ping", b""),
                          ("stats", b"\x00" * 100)]

    def test_bad_magic_rejected(self):
        wire = b"XXXX" + encode_frame("ping")[4:]
        with pytest.raises(FrameError, match="magic"):
            _decode_frames(wire, 1)

    def test_oversize_length_rejected_before_allocation(self):
        head = FRAME_HEAD.pack(FRAME_MAGIC, 4, 1 << 62)
        with pytest.raises(FrameError, match="over cap"):
            _decode_frames(head + b"mesh", 1)

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

    def test_batching_window_groups_concurrent_misses(self, tmp_path):
        del _SLOW_CALLS[:]
        svc, thread, endpoint = _start(
            tmp_path, work_fn=_slow_counted_item, batch_window=0.4,
            max_batch=8)
        try:
            replies = {}

            def run(tag):
                with ServiceClient(endpoint) as client:
                    payload = _buffers(tag)
                    payload["delay"] = np.asarray([0.15])
                    replies[tag] = client.submit_packed(payload)[0]

            threads = [threading.Thread(target=run, args=(float(i),))
                       for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert sorted(replies) == [0.0, 1.0, 2.0]
            stats = svc.stats()
            assert stats["batches"] == 1.0
            assert stats["batch_size_max"] == 3.0
        finally:
            thread.stop()

    def test_identical_inflight_requests_deduplicate(self, tmp_path):
        del _SLOW_CALLS[:]
        svc, thread, endpoint = _start(
            tmp_path, work_fn=_slow_counted_item, batch_window=0.02)
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
            tmp_path, work_fn=_slow_counted_item, batch_window=0.02)
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
        svc, thread, endpoint = _start(
            tmp_path, work_fn=_slow_counted_item, batch_window=0.01,
            max_batch=1)
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

            # First request dispatches alone (max_batch=1); the second
            # queues behind it and must be failed by shutdown.
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


def test_shutdown_aborts_inflight_batch_via_epoch_fence(tmp_path):
    """Service shutdown mid-batch must quiesce the pool through the
    epoch fence and return clean error frames to every pending client
    — not wait out the whole batch, not hang, not leak workers."""
    del _SLOW_CALLS[:]
    svc = MeshService(f"unix:{tmp_path}/svc.sock", backend="processes",
                      n_ranks=2, batch_window=0.05, max_batch=8,
                      work_fn=_slow_counted_item, cost_fn=_unit_cost)
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
    deadline = monotonic() + 20.0
    while svc.stats()["batches"] < 1.0 and monotonic() < deadline:
        time.sleep(0.02)
    time.sleep(0.3)  # let the pool actually dispatch the first items
    t0 = monotonic()
    thread.stop()
    stop_elapsed = monotonic() - t0
    for t in clients:
        t.join(timeout=30)
    # All four clients got error frames, not hung sockets; the two
    # undispatched items were dropped at the fence, so shutdown is
    # bounded by one in-flight item (4s), not the whole batch (8s).
    assert not oks
    assert sorted(errors) == [0.0, 1.0, 2.0, 3.0]
    assert all("abort" in msg or "shutting down" in msg
               for msg in errors.values())
    assert stop_elapsed < 7.0


def test_service_thread_lifecycle_guards(tmp_path):
    svc, thread, _endpoint = _start(tmp_path)
    with pytest.raises(ServiceError, match="already started"):
        thread.start()
    thread.stop()
    thread.stop()  # idempotent
