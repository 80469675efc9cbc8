"""Property tests for the content-addressed cache key (hypothesis).

The service's cache is only sound if the canonical hash is a faithful
fingerprint of request *content*: invariant under serde pack→unpack
round trips and dict key order (both of which vary by transport path),
and different whenever any byte of any buffer differs (else distinct
requests would alias to the same mesh).  The service keys a request by
the SHA-256 of its raw bytes, which is that hash only because the
decoder accepts nothing but the streams the encoder writes.
"""

import hashlib
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.pipeline import MeshConfig, pack_mesh_request  # noqa: E402
from repro.geometry.airfoils import naca4, transform_coords  # noqa: E402
from repro.geometry.pslg import PSLG  # noqa: E402
from repro.runtime import serde  # noqa: E402

_DTYPES = ["<f8", "<f4", "<i8", "<i4", "|u1"]


@st.composite
def buffer_dicts(draw):
    """Random serde buffer dicts: mixed dtypes, shapes, raw contents."""
    keys = draw(st.lists(
        st.text(alphabet="abcdefgh_.", min_size=1, max_size=12),
        min_size=1, max_size=5, unique=True))
    out = {}
    for key in keys:
        dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
        ndim = draw(st.integers(0, 2))
        shape = tuple(draw(st.integers(0, 4)) for _ in range(ndim))
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize \
            if ndim else dtype.itemsize
        raw = draw(st.binary(min_size=nbytes, max_size=nbytes))
        out[key] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    return out


@given(buffer_dicts())
@settings(max_examples=60, deadline=None)
def test_bytes_round_trip_is_bit_exact(buffers):
    back = serde.bytes_to_buffers(serde.buffers_to_bytes(buffers))
    assert sorted(back) == sorted(buffers)
    for key in buffers:
        a = np.ascontiguousarray(buffers[key])
        b = back[key]
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@given(buffer_dicts(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_hash_invariant_under_round_trip_and_key_order(buffers, rng):
    reference = serde.canonical_hash(buffers)
    back = serde.bytes_to_buffers(serde.buffers_to_bytes(buffers))
    assert serde.canonical_hash(back) == reference
    keys = list(buffers)
    rng.shuffle(keys)
    shuffled = {key: buffers[key] for key in keys}
    assert serde.canonical_hash(shuffled) == reference


def entry_by_entry_hash(buffers):
    """The cache key spelled field by field from the documented layout:
    head ``<4sI`` (magic, entry count), then per key in sorted order an
    ``<HBBQ`` entry head, the key, the dtype string, the shape as
    ``<q`` each and the raw bytes."""
    h = hashlib.sha256(struct.pack("<4sI", b"RSB1", len(buffers)))
    for key in sorted(buffers):
        a = np.ascontiguousarray(buffers[key])
        kb, db = key.encode("utf-8"), a.dtype.str.encode("ascii")
        h.update(struct.pack("<HBBQ", len(kb), len(db), a.ndim, a.nbytes))
        h.update(kb + db + struct.pack(f"<{a.ndim}q", *a.shape))
        h.update(a.tobytes())
    return h.hexdigest()


@given(buffer_dicts())
@settings(max_examples=60, deadline=None)
def test_hash_is_the_digest_of_the_canonical_stream(buffers):
    """One canonical encoding: the key is the SHA-256 of the stream
    ``buffers_to_bytes`` writes, which is the documented layout."""
    assert serde.canonical_hash(buffers) == entry_by_entry_hash(buffers)


@given(buffer_dicts(), st.data())
@settings(max_examples=60, deadline=None)
def test_hash_sensitive_to_any_flipped_byte(buffers, data):
    keys = [k for k in sorted(buffers) if buffers[k].nbytes > 0]
    if not keys:
        return
    key = data.draw(st.sampled_from(keys))
    arr = np.ascontiguousarray(buffers[key])
    raw = bytearray(arr.tobytes())
    idx = data.draw(st.integers(0, len(raw) - 1))
    raw[idx] ^= 0xFF
    mutated = dict(buffers)
    mutated[key] = np.frombuffer(bytes(raw),
                                 dtype=arr.dtype).reshape(arr.shape)
    assert serde.canonical_hash(mutated) != serde.canonical_hash(buffers)


def split_stream(stream):
    """A canonical stream's entries as ``[key, dtype, shape, raw]``
    byte fields, read by the documented layout."""
    count = struct.unpack_from("<4sI", stream, 0)[1]
    off = 8
    entries = []
    for _ in range(count):
        klen, dlen, ndim, nbytes = struct.unpack_from("<HBBQ", stream, off)
        off += 12
        key = stream[off:off + klen]
        dtype = stream[off + klen:off + klen + dlen]
        off += klen + dlen
        shape = list(struct.unpack_from(f"<{ndim}q", stream, off))
        off += 8 * ndim
        entries.append([key, dtype, shape, stream[off:off + nbytes]])
        off += nbytes
    return entries


def join_stream(entries):
    """Inverse of :func:`split_stream`, writing whatever it is given."""
    parts = [struct.pack("<4sI", b"RSB1", len(entries))]
    for key, dtype, shape, raw in entries:
        parts.append(struct.pack("<HBBQ", len(key), len(dtype), len(shape),
                                 len(raw)))
        parts += [key, dtype, struct.pack(f"<{len(shape)}q", *shape), raw]
    return b"".join(parts)


def decoded_is_canonical(stream):
    """False when the decoder refuses ``stream``; else assert that it is
    the encoding of what it decodes to, and that its digest is that
    dict's cache key."""
    try:
        out = serde.bytes_to_buffers(stream)
    except serde.SerdeError:
        return False
    assert serde.buffers_to_bytes(out) == stream
    assert hashlib.sha256(stream).hexdigest() == serde.canonical_hash(out)
    return True


@given(buffer_dicts())
@settings(max_examples=60, deadline=None)
def test_every_encoded_stream_decodes_canonically(buffers):
    stream = serde.buffers_to_bytes(buffers)
    assert split_stream(stream) and join_stream(split_stream(stream)) == \
        stream
    assert decoded_is_canonical(stream)


@given(buffer_dicts(), st.data())
@settings(max_examples=100, deadline=None)
def test_a_flipped_byte_is_refused_or_canonical(buffers, data):
    stream = bytearray(serde.buffers_to_bytes(buffers))
    idx = data.draw(st.integers(0, len(stream) - 1))
    stream[idx] ^= data.draw(st.integers(1, 255))
    decoded_is_canonical(bytes(stream))


def _alias(dtype):
    """Spellings ``np.dtype`` reads as ``dtype`` that are not its str."""
    name = np.dtype(dtype).name.encode()
    return [name, b"=" + dtype[1:]] if dtype[:1] == b"<" else [name]


#: stream mutations the encoder can never write; each one a decoder
#: that is not canonical-only turns into a different stream.
MUTATIONS = ["swap", "repeat", "alias", "negative", "more", "fewer"]


@given(buffer_dicts(), st.sampled_from(MUTATIONS), st.data())
@settings(max_examples=150, deadline=None)
def test_a_mutated_stream_is_refused_naming_its_entry(buffers, mutation,
                                                      data):
    entries = split_stream(serde.buffers_to_bytes(buffers))
    i = data.draw(st.integers(0, len(entries) - 1))
    entry = entries[i]
    if mutation == "swap":
        if len(entries) < 2:
            return
        j = data.draw(st.integers(0, len(entries) - 1).filter(
            lambda j: j != i))
        entries[i], entries[j] = entries[j], entries[i]
    elif mutation == "repeat":
        entries.insert(i, list(entry))
    elif mutation == "alias":
        entry[1] = data.draw(st.sampled_from(_alias(entry[1])))
    elif mutation == "negative":
        k = data.draw(st.integers(0, len(entry[2]) - 1))
        entry[2][k] = -entry[2][k] - 1
    elif mutation == "more":
        entry[3] += b"\x00"
    elif not entry[3]:  # "fewer" needs a byte to drop
        return
    else:
        entry[3] = entry[3][:-1]
    with pytest.raises(serde.SerdeError, match="canonical stream entry"):
        serde.bytes_to_buffers(join_stream(entries))


def test_request_corpus_keys_are_the_digest_of_the_request_bytes():
    """The service keys a request by the digest of its raw bytes; on
    every ``pack_mesh_request`` payload that is ``canonical_hash``, so
    no cache key moved."""
    for code in ("0012", "2412", "4412"):
        for n_points in (21, 31):
            pslg = PSLG.from_loops([naca4(code, n_points)],
                                   names=[f"naca{code}"])
            for config in (MeshConfig(), MeshConfig(grading=0.5,
                                                    h_max_chords=2.0)):
                payload = pack_mesh_request(pslg, config)
                stream = serde.buffers_to_bytes(payload)
                assert decoded_is_canonical(stream)
                assert hashlib.sha256(stream).hexdigest() == \
                    serde.canonical_hash(payload)


def test_hash_distinguishes_key_names_and_dtypes():
    a = {"x": np.zeros(4, dtype=np.float64)}
    renamed = {"y": np.zeros(4, dtype=np.float64)}
    # Same 32 raw bytes, different dtype tag.
    retyped = {"x": np.zeros(4, dtype=np.int64)}
    reshaped = {"x": np.zeros((2, 2), dtype=np.float64)}
    hashes = {serde.canonical_hash(b)
              for b in (a, renamed, retyped, reshaped)}
    assert len(hashes) == 4


def test_distinct_pslg_requests_never_collide_on_corpus():
    hashes = set()
    count = 0
    for code in ("0012", "2412", "4412"):
        for n_points in (21, 31):
            for rotate in (0.0, 2.0):
                coords = transform_coords(naca4(code, n_points),
                                          rotate_deg=rotate)
                pslg = PSLG.from_loops([coords], names=[f"naca{code}"])
                hashes.add(serde.canonical_hash(
                    pack_mesh_request(pslg, MeshConfig())))
                count += 1
    assert len(hashes) == count


def test_config_participates_in_the_key():
    pslg = PSLG.from_loops([naca4("0012", 21)], names=["naca0012"])
    base = serde.canonical_hash(pack_mesh_request(pslg, MeshConfig()))
    again = serde.canonical_hash(pack_mesh_request(pslg, MeshConfig()))
    graded = serde.canonical_hash(
        pack_mesh_request(pslg, MeshConfig(grading=0.5)))
    assert base == again  # fresh pack calls are deterministic
    assert graded != base


@given(st.integers(0, 10_000), st.floats(1e-9, 1e-3),
       st.integers(0, 1))
@settings(max_examples=40, deadline=None)
def test_any_coordinate_perturbation_changes_the_key(seed, eps, axis):
    coords = naca4("2412", 21)
    pslg = PSLG.from_loops([coords], names=["naca2412"])
    perturbed_pts = pslg.points.copy()
    idx = seed % len(perturbed_pts)
    perturbed_pts[idx, axis] += eps
    perturbed = PSLG(perturbed_pts, pslg.loops)
    config = MeshConfig()
    assert serde.canonical_hash(pack_mesh_request(perturbed, config)) != \
        serde.canonical_hash(pack_mesh_request(pslg, config))
