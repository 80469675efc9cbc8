"""Property tests for the content-addressed cache key (hypothesis).

The service's cache is only sound if the canonical hash is a faithful
fingerprint of request *content*: invariant under serde pack→unpack
round trips and dict key order (both of which vary by transport path),
and different whenever any byte of any buffer differs (else distinct
requests would alias to the same mesh).
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
