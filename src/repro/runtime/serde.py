"""Compact buffer serialization for cross-process transport.

The process backend of :mod:`repro.runtime.executor` ships work between
address spaces.  Following the paper's communication discipline ("only
the coordinates need to be communicated") every domain object that
crosses a process boundary is flattened here into a **buffer dict** — a
flat ``Dict[str, numpy.ndarray]`` of contiguous float64/int32/uint8
arrays — instead of a pickled Python object graph.  The arrays carry raw
coordinate/index bits, so a round trip is *exact*: unpacking reproduces
bit-identical geometry, which is what makes the backend-parity guarantee
(`serial` == `processes` meshes) trivial to maintain.

Supported objects:

* :class:`~repro.core.decouple.DecoupledSubdomain` — ring + hole rings
  concatenated into one coordinate array with an offsets table;
* :class:`~repro.delaunay.mesh.TriMesh` — points/triangles/segments;
* the boundary-layer triangulation work item — the annuli's PSLG as
  ``points`` (float64) and ``segments`` (int64 vertex pairs), and its
  ray chains in CSR form (int64 ``element_ptr`` / ``ray_ptr`` /
  ``ray_ids``, float64 ``ray_h``), under layout version ``layout``;
* :class:`~repro.geometry.pslg.PSLG` — points, loop index table, flags,
  and a uint8-encoded name blob;
* the pipeline's sizing function, a ``GradedDistanceSizing`` —
  parameter and surface-point arrays (any other sizing object is
  rejected with an error naming the in-process path);
* :class:`~repro.core.pipeline.MeshConfig` with its nested
  :class:`~repro.core.bl_pipeline.BoundaryLayerConfig` — their fields,
  the numbers a request can vary; their class constants stay behind.

Composition: :func:`nest` prefixes a packed dict's keys so several
objects share one payload; :func:`unnest` extracts them back.

Canonical byte stream: :func:`buffers_to_bytes` flattens a buffer dict
into one deterministic byte string (keys sorted, dtype + shape + raw
array bits) and :func:`bytes_to_buffers` maps it back as zero-copy
read-only views.  Because the encoding is canonical — independent of
dict insertion order and of how the arrays were produced —
:func:`canonical_hash` (SHA-256 over the stream) is a *content address*:
two requests hash equal iff their packed geometry/config bits are
identical.  The decoder accepts only canonical streams, so the SHA-256
of any stream it accepts is the decoded dict's ``canonical_hash``: the
meshing service keys a request by the digest of its raw bytes before
decoding it, and frames its socket protocol with this encoding.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Dict, List, Tuple

import numpy as np

__all__ = [
    "Buffers",
    "SerdeError",
    "is_buffers",
    "buffers_nbytes",
    "nest",
    "unnest",
    "buffers_to_bytes",
    "bytes_to_buffers",
    "canonical_hash",
    "SHM_MIN_BYTES",
    "buffers_to_shm",
    "buffers_from_shm",
    "Wire",
    "buffers_to_wire",
    "wire_to_buffers",
    "discard_wire",
    "pack_mesh",
    "unpack_mesh",
    "pack_bl_item",
    "unpack_bl_item",
    "pack_metric",
    "unpack_metric",
    "pack_subdomain",
    "unpack_subdomain",
    "pack_pslg",
    "unpack_pslg",
    "pack_sizing",
    "unpack_sizing",
    "pack_bl_config",
    "unpack_bl_config",
    "pack_mesh_config",
    "unpack_mesh_config",
]

Buffers = Dict[str, np.ndarray]


class SerdeError(TypeError):
    """An object cannot be represented as flat numpy buffers."""


def is_buffers(obj: object) -> bool:
    """True when ``obj`` is a flat ``str -> ndarray`` buffer dict."""
    return (
        isinstance(obj, dict)
        and all(isinstance(k, str) for k in obj)
        and all(isinstance(v, np.ndarray) for v in obj.values())
    )


def buffers_nbytes(buffers: Buffers) -> int:
    """Wire size of a buffer dict (sum of raw array buffers)."""
    return int(sum(v.nbytes for v in buffers.values()))


def _text(s: str) -> np.ndarray:
    return np.frombuffer(s.encode("utf-8"), dtype=np.uint8).copy()


def _untext(arr: np.ndarray) -> str:
    return bytes(np.ascontiguousarray(arr, dtype=np.uint8)).decode("utf-8")


def _f64(a, shape_tail: int = 0) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    if shape_tail and (out.ndim != 2 or out.shape[1] != shape_tail):
        out = out.reshape(-1, shape_tail)
    return out


def _i32(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.int32))


# ----------------------------------------------------------------------
# Composition
# ----------------------------------------------------------------------
def nest(prefix: str, buffers: Buffers) -> Buffers:
    """Prefix every key so several packed objects share one payload."""
    return {prefix + k: v for k, v in buffers.items()}


def unnest(prefix: str, payload: Buffers) -> Buffers:
    """Extract the sub-dict packed under ``prefix`` by :func:`nest`."""
    n = len(prefix)
    out = {k[n:]: v for k, v in payload.items() if k.startswith(prefix)}
    if not out:
        raise SerdeError(f"payload holds nothing under prefix {prefix!r}")
    return out


# ----------------------------------------------------------------------
# Canonical byte stream + content addressing
# ----------------------------------------------------------------------
#: canonical stream magic + version; bump on any layout change so a
#: stale cache or an old client fails loudly instead of misparsing.
CANON_MAGIC = b"RSB1"

#: per-entry fixed header: key length (u16), dtype-str length (u8),
#: ndim (u8), payload nbytes (u64).
_CANON_ENTRY = struct.Struct("<HBBQ")
_CANON_HEAD = struct.Struct("<4sI")


def buffers_to_bytes(buffers: Buffers) -> bytes:
    """Serialize a buffer dict into one canonical byte string.

    Canonical means *content-determined*: entries are emitted in sorted
    key order and each carries only key, dtype, shape and the raw
    C-contiguous array bytes — no dict order, no strides, no flags.
    Two dicts holding bit-identical arrays under the same keys encode to
    the same bytes however they were built, which is what makes
    :func:`canonical_hash` usable as a cache address.
    """
    parts: List[bytes] = [_CANON_HEAD.pack(CANON_MAGIC, len(buffers))]
    for key in sorted(buffers):
        a = np.ascontiguousarray(buffers[key])
        kb = key.encode("utf-8")
        db = a.dtype.str.encode("ascii")
        parts.append(_CANON_ENTRY.pack(len(kb), len(db), a.ndim, a.nbytes))
        parts.append(kb)
        parts.append(db)
        parts.append(struct.pack(f"<{a.ndim}q", *a.shape) if a.ndim else b"")
        parts.append(a.tobytes())
    return b"".join(parts)


def bytes_to_buffers(data: bytes) -> Buffers:
    """Decode a :func:`buffers_to_bytes` stream as zero-copy views.

    Only canonical streams decode: exactly the ones
    :func:`buffers_to_bytes` writes, so re-encoding the result gives
    ``data`` back and the SHA-256 of ``data`` is the result's
    :func:`canonical_hash` (the daemon keys a request by the digest of
    its raw bytes on that promise).  Any other stream is a
    :class:`SerdeError` naming the entry: keys not strictly sorted, a
    dtype string that is not its own ``np.dtype(s).str``, a 0-d or
    negative shape, a byte count other than shape x itemsize, a
    truncated entry or trailing bytes.

    The returned arrays are read-only views over ``data`` (no copy of
    the payload bytes).
    """
    view = memoryview(data)
    if len(view) < _CANON_HEAD.size:
        raise SerdeError("canonical stream truncated (no header)")
    magic, n_entries = _CANON_HEAD.unpack_from(view, 0)
    if magic != CANON_MAGIC:
        raise SerdeError(
            f"bad canonical stream magic {magic!r} (want {CANON_MAGIC!r})")
    out: Buffers = {}
    off = _CANON_HEAD.size
    key = ""
    for index in range(n_entries):
        if off + _CANON_ENTRY.size > len(view):
            raise SerdeError(f"canonical stream entry {index}: truncated")
        klen, dlen, ndim, nbytes = _CANON_ENTRY.unpack_from(view, off)
        off += _CANON_ENTRY.size
        if off + klen + dlen + 8 * ndim + nbytes > len(view):
            raise SerdeError(f"canonical stream entry {index}: truncated")
        previous = key
        try:
            key = bytes(view[off:off + klen]).decode("utf-8")
            dstr = bytes(view[off + klen:off + klen + dlen]).decode("ascii")
        except UnicodeDecodeError:
            raise SerdeError(f"canonical stream entry {index}: key or "
                             "dtype is not text") from None
        off += klen + dlen
        if index and key <= previous:
            raise _entry_error(index, key, "keys not strictly sorted "
                               f"(follows {previous!r})")
        try:
            dtype = np.dtype(dstr)
        except (TypeError, ValueError, SyntaxError):  # what np.dtype raises
            raise _entry_error(index, key, f"unknown dtype {dstr!r}") from None
        if dtype.str != dstr:
            raise _entry_error(index, key, f"dtype {dstr!r} is not "
                               f"canonical (want {dtype.str!r})")
        shape = struct.unpack_from(f"<{ndim}q", view, off)
        off += 8 * ndim
        if not shape:
            raise _entry_error(index, key, "0-d (the encoder writes shape "
                               "(1,))")
        if min(shape) < 0:
            raise _entry_error(index, key, "negative dimension in shape "
                               f"{shape}")
        count = math.prod(shape)
        if nbytes != count * dtype.itemsize:
            raise _entry_error(index, key, f"{nbytes} bytes for shape "
                               f"{shape} of {dtype.str}")
        try:
            a = np.frombuffer(view, dtype=dtype, count=count,
                              offset=off).reshape(shape)
        except ValueError as exc:
            raise _entry_error(index, key, str(exc)) from None
        a.flags.writeable = False
        out[key] = a
        off += nbytes
    if off != len(view):
        raise SerdeError(
            f"canonical stream has {len(view) - off} trailing bytes")
    return out


def _entry_error(index: int, key: str, what: str) -> SerdeError:
    return SerdeError(f"canonical stream entry {index} ({key!r}): {what}")


def canonical_hash(buffers: Buffers) -> str:
    """SHA-256 content address of a buffer dict: the digest of its
    :func:`buffers_to_bytes` stream.

    Invariant under dict key order and under serde pack -> unpack round
    trips (those are bit-exact); different geometry/config bits give a
    different address.  This is the mesh cache key.
    """
    return hashlib.sha256(buffers_to_bytes(buffers)).hexdigest()


# ----------------------------------------------------------------------
# Shared-memory transport
# ----------------------------------------------------------------------
#: Results below this wire size ship inline through the queue — one
#: 64 KiB pickle is cheaper than a segment create/attach round trip.
SHM_MIN_BYTES = 1 << 16

#: Picklable segment layout: ``(key, dtype_str, shape, byte_offset)``.
ShmMeta = List[Tuple[str, str, Tuple[int, ...], int]]


def buffers_to_shm(buffers: Buffers) -> Tuple[str, ShmMeta]:
    """Copy a buffer dict into one ``multiprocessing.shared_memory``
    segment (single C-speed copy per array, no pickling of the data).

    Returns ``(name, meta)``; only this small control tuple crosses the
    queue.  The caller-side segment handle is closed and the segment is
    *unregistered from this process's resource tracker* before returning:
    ownership transfers with the name.  Without the unregister, a sender
    process exiting before the receiver attaches would have its tracker
    unlink the segment and destroy the result in flight.  The receiver
    (:func:`buffers_from_shm`) re-registers on attach and owns unlinking.
    """
    from multiprocessing import resource_tracker, shared_memory

    meta: ShmMeta = []
    offset = 0
    arrays = []
    for key, v in buffers.items():
        a = np.ascontiguousarray(v)
        offset = (offset + 7) & ~7  # 8-byte-align every block
        meta.append((key, a.dtype.str, a.shape, offset))
        arrays.append(a)
        offset += a.nbytes
    from . import counters as counters_mod

    t0 = counters_mod.monotonic()
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    try:
        for (key, dtype, shape, off), a in zip(meta, arrays):
            if a.size:
                dst = np.frombuffer(shm.buf, dtype=a.dtype, count=a.size,
                                    offset=off)
                dst[:] = a.ravel()
                del dst  # release the view so close() can unmap
        name = shm.name
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass  # non-POSIX trackers: registration never happened
    finally:
        shm.close()
    sink = counters_mod.current()
    if sink is not None:
        sink.incr("serde.bytes_shm", offset)
        # Paired (nbytes, seconds) observations: the simulator fits its
        # alpha-beta NetworkModel against these streams.
        sink.observe("serde.shm_nbytes", float(offset))
        sink.observe("serde.shm_seconds", counters_mod.monotonic() - t0)
    return name, meta


#: Fallback keep-alive registry for exotic platforms (see below).
_shm_keepalive: List[object] = []


def buffers_from_shm(name: str, meta: ShmMeta) -> Buffers:
    """Attach a segment written by :func:`buffers_to_shm` and return the
    buffer dict as **read-only zero-copy views** over the mapping.

    Lifetime is refcounted through the buffer chain, the classic POSIX
    unlink-after-attach idiom: the name is unlinked immediately (which
    also deregisters it from the resource tracker), so the kernel frees
    the segment as soon as the last mapping disappears — i.e. when the
    last returned array is garbage-collected and releases the
    ``array -> memoryview -> mmap`` chain.  No finalizer callbacks are
    involved (an ndarray finalizer fires *before* the array releases its
    buffer export, so an explicit ``close()`` there can never succeed on
    the last view).  Nothing is copied out.
    """
    import os

    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=name)
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
    buf = shm.buf
    # Detach the handle so ``SharedMemory.__del__`` cannot try to close
    # the mapping out from under the live views; the mmap stays alive
    # through ``buf`` and unmaps (freeing the unlinked segment) when the
    # last array view dies.  The fd is not needed once mapped.
    try:
        shm._buf = None
        shm._mmap = None
        if shm._fd >= 0:
            os.close(shm._fd)
            shm._fd = -1
    except AttributeError:  # unexpected stdlib layout: leak-until-exit
        _shm_keepalive.append(shm)
    out: Buffers = {}
    for key, dtype, shape, off in meta:
        count = int(np.prod(shape, dtype=np.int64))
        a = np.frombuffer(buf, dtype=np.dtype(dtype), count=count,
                          offset=off).reshape(shape)
        a.flags.writeable = False
        out[key] = a
    return out


# ----------------------------------------------------------------------
# Wire format: inline-or-shm transport envelope
# ----------------------------------------------------------------------
#: A picklable transport envelope for one buffer dict — either
#: ``("inline", buffers)`` or ``("shm", name, meta)``.  Used for *both*
#: directions of the worker-pool protocol: subdomain payloads going out
#: and refined meshes coming back.
Wire = Tuple


def buffers_to_wire(buffers: Buffers) -> Wire:
    """Wrap a buffer dict for cross-process shipping.

    Dicts at or above :data:`SHM_MIN_BYTES` go through a shared-memory
    segment — only the name + layout tuple is pickled; smaller dicts
    ship inline where the pickle is cheaper than a segment round trip.  Falls back to inline when ``/dev/shm`` is
    unusable (tiny containers) rather than fail.
    """
    if buffers_nbytes(buffers) >= SHM_MIN_BYTES:
        try:
            name, meta = buffers_to_shm(buffers)
            return ("shm", name, meta)
        except OSError:
            pass
    return ("inline", buffers)


def wire_to_buffers(wire: Wire) -> Buffers:
    """Unwrap a :func:`buffers_to_wire` envelope (consumes shm wires:
    the segment is unlinked on attach and freed with the last view)."""
    kind = wire[0]
    if kind == "inline":
        return wire[1]
    if kind == "shm":
        return buffers_from_shm(wire[1], wire[2])
    raise SerdeError(f"unknown wire kind {kind!r}")


def discard_wire(wire: Wire) -> None:
    """Free a wire envelope *without* consuming its contents.

    The worker pool calls this on the two paths where an envelope is
    created but never unwrapped: a payload wire whose worker died before
    attaching, and a stale result wire from an aborted call.  Inline
    wires need nothing; shm wires attach + unlink so the kernel frees
    the segment (already-consumed or never-created names are fine).
    """
    if wire[0] != "shm":
        return
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=wire[1])
    except FileNotFoundError:
        return  # consumed (receiver unlinked on attach) or never created
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
    shm.close()


# ----------------------------------------------------------------------
# TriMesh
# ----------------------------------------------------------------------
def pack_mesh(mesh) -> Buffers:
    """Flatten a :class:`TriMesh` (exact round trip)."""
    return {
        "points": _f64(mesh.points, 2),
        "triangles": _i32(mesh.triangles).reshape(-1, 3),
        "segments": _i32(mesh.segments).reshape(-1, 2),
    }


def unpack_mesh(buffers: Buffers):
    from ..delaunay.mesh import TriMesh

    return TriMesh(
        points=_f64(buffers["points"], 2),
        triangles=_i32(buffers["triangles"]).reshape(-1, 3),
        segments=_i32(buffers["segments"]).reshape(-1, 2),
    )


# ----------------------------------------------------------------------
# Boundary-layer triangulation work item
# ----------------------------------------------------------------------
#: Layout version of the boundary-layer item; 1 (unversioned) carried
#: hole seeds and an insertion strategy instead of ray chains.
BL_ITEM_LAYOUT = 2

#: Its int64 arrays, in argument order after ``points``.
_BL_INT64 = ("segments", "element_ptr", "ray_ptr", "ray_ids")


def pack_bl_item(points, segments, element_ptr, ray_ptr, ray_ids,
                 ray_h) -> Buffers:
    """Flatten the input of
    :func:`repro.core.bl_pipeline.triangulate_boundary_layer`: the PSLG
    of the boundary-layer annuli and its ray chains."""
    out = {"layout": np.asarray([BL_ITEM_LAYOUT], dtype=np.int32),
           "points": _f64(points, 2), "ray_h": _f64(ray_h)}
    for key, a in zip(_BL_INT64, (segments, element_ptr, ray_ptr, ray_ids)):
        out[key] = np.ascontiguousarray(a, dtype=np.int64).reshape(-1)
    return out


def unpack_bl_item(buffers: Buffers) -> tuple:
    """Inverse of :func:`pack_bl_item` -> its six arguments, in order;
    an item of another layout version is a :class:`SerdeError`."""
    layout = int(buffers.get("layout", [1])[0])
    if layout != BL_ITEM_LAYOUT:
        raise SerdeError(f"boundary-layer item layout {layout}, this "
                         f"build reads {BL_ITEM_LAYOUT}")
    segments, *csr = (np.asarray(buffers[k], dtype=np.int64)
                      for k in _BL_INT64)
    return (_f64(buffers["points"], 2), segments.reshape(-1, 2), *csr,
            _f64(buffers["ray_h"]))


# ----------------------------------------------------------------------
# Metric fields
# ----------------------------------------------------------------------
def pack_metric(field) -> Buffers:
    """Flatten a :class:`repro.metric.MetricField` (exact round trip).

    Tensors travel in the compact ``[m11, m12, m22]`` representation the
    field already stores, so pack/unpack is a pure memory copy — no
    eigendecomposition or log mapping on the wire path.
    """
    return {
        "points": _f64(field.points, 2),
        "tensors": _f64(field.tensors, 3),
    }


def unpack_metric(buffers: Buffers):
    from ..metric import MetricField

    return MetricField(
        points=_f64(buffers["points"], 2),
        tensors=_f64(buffers["tensors"], 3),
    )


# ----------------------------------------------------------------------
# DecoupledSubdomain
# ----------------------------------------------------------------------
def pack_subdomain(sub) -> Buffers:
    """Flatten a :class:`DecoupledSubdomain`.

    The outer ring and every hole ring are concatenated into one
    ``(n, 2)`` coordinate array; ``ring_offsets[i]:ring_offsets[i+1]``
    slices ring ``i`` back out (ring 0 is the outer border).
    """
    rings = [_f64(sub.ring, 2)] + [_f64(hr, 2) for hr in sub.hole_rings]
    offsets = np.zeros(len(rings) + 1, dtype=np.int32)
    np.cumsum([len(r) for r in rings], out=offsets[1:])
    return {
        "coords": np.vstack(rings),
        "ring_offsets": offsets,
        "meta": np.asarray([float(sub.level), float(sub.est_triangles)],
                           dtype=np.float64),
    }


def unpack_subdomain(buffers: Buffers):
    from ..core.decouple import DecoupledSubdomain

    coords = _f64(buffers["coords"], 2)
    offsets = _i32(buffers["ring_offsets"])
    rings = [np.ascontiguousarray(coords[offsets[i]:offsets[i + 1]])
             for i in range(len(offsets) - 1)]
    level, est = (float(x) for x in buffers["meta"])
    return DecoupledSubdomain(
        ring=rings[0],
        level=int(level),
        est_triangles=est,
        hole_rings=rings[1:],
    )


# ----------------------------------------------------------------------
# PSLG
# ----------------------------------------------------------------------
def pack_pslg(pslg) -> Buffers:
    """Flatten a :class:`PSLG`: points, loop index table, flags, names."""
    loop_idx = (np.concatenate([lp.indices for lp in pslg.loops])
                if pslg.loops else np.empty(0, dtype=np.int64))
    offsets = np.zeros(len(pslg.loops) + 1, dtype=np.int32)
    np.cumsum([len(lp) for lp in pslg.loops], out=offsets[1:])
    names = "\n".join(lp.name for lp in pslg.loops)
    return {
        "points": _f64(pslg.points, 2),
        "loop_indices": _i32(loop_idx),
        "loop_offsets": offsets,
        "loop_is_body": np.asarray([lp.is_body for lp in pslg.loops],
                                   dtype=np.int32),
        "loop_names": _text(names),
    }


def unpack_pslg(buffers: Buffers):
    from ..geometry.pslg import PSLG, Loop

    idx = np.asarray(buffers["loop_indices"], dtype=np.int64)
    offsets = _i32(buffers["loop_offsets"])
    is_body = _i32(buffers["loop_is_body"])
    names = _untext(buffers["loop_names"]).split("\n") if len(
        buffers["loop_names"]) else [""] * (len(offsets) - 1)
    loops: List[Loop] = [
        Loop(idx[offsets[i]:offsets[i + 1]], name=names[i],
             is_body=bool(is_body[i]))
        for i in range(len(offsets) - 1)
    ]
    return PSLG(_f64(buffers["points"], 2), loops)


# ----------------------------------------------------------------------
# Sizing function
# ----------------------------------------------------------------------
def pack_sizing(sizing) -> Buffers:
    """Flatten the sizing function the pipeline ships, a
    :class:`~repro.sizing.functions.GradedDistanceSizing`: its
    parameters and its surface points."""
    from ..sizing.functions import GradedDistanceSizing

    if not isinstance(sizing, GradedDistanceSizing):
        raise SerdeError(
            f"sizing function {type(sizing).__name__} is not serializable "
            "(only GradedDistanceSizing travels); refine with it in "
            "process: repro.core.decouple.refine_subdomain")
    return {
        "params": np.asarray([sizing.h0, sizing.grading, sizing.h_max],
                             dtype=np.float64),
        "points": _f64(sizing._pts, 2),
    }


def unpack_sizing(buffers: Buffers):
    from ..sizing.functions import GradedDistanceSizing

    h0, grading, h_max = (float(x) for x in buffers["params"])
    return GradedDistanceSizing(_f64(buffers["points"], 2), h0,
                                grading=grading, h_max=h_max)


# ----------------------------------------------------------------------
# BoundaryLayerConfig
# ----------------------------------------------------------------------
_BL_FIELDS = (
    "first_spacing", "growth_ratio", "max_layers", "max_ray_angle_deg",
    "truncation_factor",
)


def pack_bl_config(config) -> Buffers:
    """Flatten a :class:`BoundaryLayerConfig` (its fields)."""
    return {
        "params": np.asarray([float(getattr(config, f)) for f in _BL_FIELDS],
                             dtype=np.float64),
    }


def unpack_bl_config(buffers: Buffers):
    from ..core.bl_pipeline import BoundaryLayerConfig

    values = dict(zip(_BL_FIELDS, (float(x) for x in buffers["params"])))
    values["max_layers"] = int(values["max_layers"])
    return BoundaryLayerConfig(**values)


# ----------------------------------------------------------------------
# MeshConfig (the push-button pipeline's full input, BL config nested)
# ----------------------------------------------------------------------
_MESH_FIELDS = (
    "farfield_chords", "grading", "h_max_chords", "nearbody_margin_chords",
    "target_subdomains",
)

#: MeshConfig fields where ``None`` is legal; encoded as NaN (a float
#: parameter can never legitimately be NaN, so the mapping is lossless).
_MESH_OPTIONAL = ("h_max_chords",)


def pack_mesh_config(config) -> Buffers:
    """Flatten a :class:`~repro.core.pipeline.MeshConfig` (BL nested).

    Together with :func:`pack_pslg` this captures the *complete* input
    of ``generate_mesh`` — which is why the service's cache key is a
    canonical hash over exactly these buffers.
    """
    params = []
    for name in _MESH_FIELDS:
        value = getattr(config, name)
        params.append(float("nan") if value is None else float(value))
    out = {"params": np.asarray(params, dtype=np.float64)}
    out.update(nest("bl.", pack_bl_config(config.bl)))
    return out


def unpack_mesh_config(buffers: Buffers):
    from ..core.pipeline import MeshConfig

    values = dict(zip(_MESH_FIELDS, (float(x) for x in buffers["params"])))
    for name in _MESH_OPTIONAL:
        if np.isnan(values[name]):
            values[name] = None
    values["target_subdomains"] = int(values["target_subdomains"])
    return MeshConfig(bl=unpack_bl_config(unnest("bl.", buffers)), **values)
