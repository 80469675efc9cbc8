"""The four ledger workloads: seeded inputs, timed ops, output checks.

Every workload exposes the same small surface to the runner:

``setup()``      build inputs from the seed, fork/warm the worker pool or
                 start the daemon, run each op once and discard it (the
                 first op of a process is 10-30 % slower than the rest:
                 heap growth and first-use paths, in the pool workers too)
``op()``         run the primary op once; returns its latency samples (s)
``op_warm()``    the same request through the long-lived path (warm
                 worker pool, or the daemon's cache); returns samples (s)
``check()``      outside the timed region: ``(attempted, failed, notes)``
``teardown()``   stop every process the workload started and wait for it

Seed 0 gives the canonical inputs; any other seed scales each continuous
input by a factor within +-``JITTER``, so the program sees same-size but
different inputs.  ``JITTER`` is 1 %, not more, because mesh size is
steep in these inputs (5 % on ``grading`` moves the NACA triangle count
by 6.5 %) and the run-to-run spread of every timing would inherit it.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.bl_pipeline import BoundaryLayerConfig
from repro.core.pipeline import (
    MeshConfig,
    generate_mesh,
    mesh_workitem,
    pack_mesh_request,
)
from repro.delaunay import refine_pslg, validate_mesh
from repro.geometry.airfoils import naca0012, naca4, three_element_airfoil
from repro.geometry.pslg import PSLG
from repro.runtime import executor, serde
from repro.runtime.client import ServiceClient, read_frame_blocking
from repro.runtime.service import encode_frame
from repro.solver.adapt import ShearLayerProblem, adapt_loop

__all__ = ["WORKLOADS", "JITTER"]

JITTER = 0.01

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
OUT_DIR = LEDGER_DIR / "out"

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
SQUARE_SEGS = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])


class _Jitter:
    """Seeded multiplicative jitter; seed 0 is the identity."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed) if seed else None

    def __call__(self, value: float) -> float:
        if self._rng is None:
            return value
        return value * (1.0 + JITTER * float(self._rng.uniform(-1.0, 1.0)))


def mesh_hash(mesh) -> str:
    return serde.canonical_hash(serde.pack_mesh(mesh))


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, smoke: bool, ranks: int) -> None:
        self.seed = seed
        self.smoke = smoke
        self.ranks = ranks
        #: human-readable facts about the inputs, stamped in the output.
        self.info: Dict[str, object] = {}
        #: self-test hook: the next primary op raises inside the program
        #: call, which must land in ``failed`` instead of ending the run.
        self.fail_next = False

    def setup(self, warm_up: bool = True) -> None:
        """Everything before the first timed op; ``warm_up=False`` stops
        short of the discarded warm-up op (what ``setup_s`` times)."""
        raise NotImplementedError

    def _maybe_fail(self) -> None:
        if self.fail_next:
            self.fail_next = False
            raise RuntimeError("injected failure")

    def op(self) -> List[float]:
        raise NotImplementedError

    def op_warm(self) -> List[float]:
        raise NotImplementedError

    def check(self) -> Tuple[int, int, List[str]]:
        raise NotImplementedError

    def teardown(self) -> None:
        executor.get_backend("processes").shutdown_pool()


class HashedOps(Workload):
    """Workloads whose two ops run in this process and return a mesh.

    Keeps ``(kind, group, hash)`` per op and one result per distinct
    hash; ops of one group ran on the same input.  The check then
    validates each distinct result once and fails every op whose hash is
    not the first of its group (repetitions and the two paths must
    agree) or whose result is bad.
    """

    def _reset(self) -> None:
        self.ops: List[Tuple[str, int, str]] = []
        self.results: Dict[str, object] = {}
        self.errors: List[str] = []

    def _warm_up(self, warm_up: bool) -> None:
        if warm_up:
            self._reset()
            self.op()
            self.op_warm()
        self._reset()

    def _run(self, kind: str, call, group: int = 0) -> List[float]:
        t0 = time.perf_counter()
        try:
            self._maybe_fail()
            result = call()
        except Exception as exc:  # a failed op counts, the run goes on
            self.ops.append((kind, group, "raised"))
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            return []
        elapsed = time.perf_counter() - t0
        digest = mesh_hash(result.mesh)
        self.ops.append((kind, group, digest))
        self.results.setdefault(digest, result)
        self.last_result = result
        return [elapsed]

    def reference_hash(self, group: int = 0) -> Optional[str]:
        return next((d for _, g, d in self.ops
                     if g == group and d != "raised"), None)

    def _problem_with(self, result) -> Optional[str]:
        """What is wrong with one distinct result, or None."""
        raise NotImplementedError

    def _describe(self, result) -> Dict[str, object]:
        raise NotImplementedError

    def check(self) -> Tuple[int, int, List[str]]:
        notes = list(self.errors)
        bad = set()
        for digest, result in self.results.items():
            problem = self._problem_with(result)
            if problem is not None:
                bad.add(digest)
                notes.append(f"result {digest[:12]}: {problem}")
        failed = 0
        for kind, group, digest in self.ops:
            reference = self.reference_hash(group)
            if digest != reference or digest in bad:
                failed += 1
                if digest not in ("raised", reference):
                    notes.append(f"{kind} op hash {digest[:12]} != "
                                 f"{str(reference)[:12]}")
        reference = self.reference_hash()
        if reference is not None:
            self.info.update(mesh_hash=reference,
                             **self._describe(self.results[reference]))
        return len(self.ops), failed, notes


# ----------------------------------------------------------------------
# Mesh generation: naca_farfield, highlift_bl
# ----------------------------------------------------------------------
class MeshWorkload(HashedOps):
    """Serial ``generate_mesh`` vs the same call on the warm pool."""

    def build_inputs(self) -> Tuple[PSLG, MeshConfig]:
        raise NotImplementedError

    def setup(self, warm_up: bool = True) -> None:
        self.pslg, self.config = self.build_inputs()
        executor.get_backend("processes").warm_pool(self.ranks)
        self._warm_up(warm_up)

    def op(self) -> List[float]:
        return self._run("serial", lambda: generate_mesh(
            self.pslg, self.config, backend="serial"))

    def op_warm(self) -> List[float]:
        return self._run("processes", lambda: generate_mesh(
            self.pslg, self.config, backend="processes",
            n_ranks=self.ranks))

    def _problem_with(self, result) -> Optional[str]:
        report = validate_mesh(result.mesh)
        return None if report.ok else report.summary()

    def _describe(self, result) -> Dict[str, object]:
        return {"triangles": result.mesh.n_triangles,
                "points": result.mesh.n_points}


class NacaFarfield(MeshWorkload):
    name = "naca_farfield"
    why = ("Ruppert refinement in delaunay dominates the serial op; the "
           "warm op runs the same refinement through executor/serde/shm, "
           "so a kernel gain moves both and a runtime gain only the second")

    def build_inputs(self) -> Tuple[PSLG, MeshConfig]:
        j = _Jitter(self.seed)
        if self.smoke:
            n, layers, grading, farfield, subdomains = 41, 10, 0.35, 8.0, 8
        else:
            n, layers, grading, farfield, subdomains = 81, 25, 0.15, 30.0, 32
        pslg = PSLG.from_loops([naca0012(n)])
        config = MeshConfig(
            bl=BoundaryLayerConfig(first_spacing=j(1e-3), growth_ratio=1.3,
                                   max_layers=layers),
            farfield_chords=farfield,
            grading=j(grading),
            h_max_chords=1.2,
            nearbody_margin_chords=0.25,
            target_subdomains=subdomains,
        )
        self.info.update(geometry=f"naca0012({n})", grading=config.grading,
                         first_spacing=config.bl.first_spacing)
        return pslg, config


class HighliftBL(MeshWorkload):
    name = "highlift_bl"
    why = ("core boundary-layer generation (rays, multi-element "
           "intersections, insertion, constrained BL triangulation) "
           "dominates: the mirror image of naca_farfield, and the pool "
           "cannot help, so runtime changes predict no change here")

    def build_inputs(self) -> Tuple[PSLG, MeshConfig]:
        j = _Jitter(self.seed)
        n = 25 if self.smoke else 71
        flap = j(-30.0)
        pslg = three_element_airfoil(n_points=n, flap_deflection=flap)
        config = MeshConfig(
            bl=BoundaryLayerConfig(first_spacing=j(1e-3),
                                   max_layers=10 if self.smoke else 60),
            grading=j(0.35))
        self.info.update(geometry=f"three_element_airfoil({n})",
                         flap_deflection=flap, grading=config.grading,
                         first_spacing=config.bl.first_spacing)
        return pslg, config


# ----------------------------------------------------------------------
# Metric adaptation: adapt_shear
# ----------------------------------------------------------------------
class AdaptShear(HashedOps):
    name = "adapt_shear"
    why = ("delaunay.adapt point-at-a-time split/collapse/flip/smooth is "
           "nearly the whole op and Ruppert/BL do nothing: the cavity "
           "engine used for local operations instead of bulk insertion")

    #: output limit on the final DOF; the one on the best-cycle L2 error
    #: depends on the loop's ``eps`` and is set beside it.
    DOF_LIMIT = 4000
    #: problems a run takes turns on.  What adapting costs is chaotic in
    #: the input: delta +-1 % moves the op's wall by +-10 % at equal
    #: operation counts, so runs that each timed one problem spread by
    #: 15-20 % from seed to seed on that alone.  The median over a
    #: run's ops is then a median over problems too.
    PROBLEMS = 5

    def _reset(self) -> None:
        super()._reset()
        self.turn = {"inprocess": 0, "processes": 0}

    def setup(self, warm_up: bool = True) -> None:
        j = _Jitter(self.seed)
        if self.smoke:
            delta, area = 0.1, 0.02
            self.loop = dict(cycles=1, eps=4e-2, h_min=5e-3, h_max=0.3)
            self.error_limit = 5e-2
        else:
            delta, area = 0.05, 0.02
            self.loop = dict(cycles=2, eps=4e-2, h_min=1e-3, h_max=0.3)
            self.error_limit = 3e-2
        self.problems = [ShearLayerProblem(delta=j(delta), amplitude=0.1)
                         for _ in range(1 if self.smoke else self.PROBLEMS)]
        #: the one the traced run stays on.
        self.problem = self.problems[0]
        self.mesh0 = refine_pslg(UNIT_SQUARE.copy(), SQUARE_SEGS.copy(),
                                 max_area=area)
        self.info.update(delta=[p.delta for p in self.problems],
                         start_dof=self.mesh0.n_points, **self.loop)
        executor.get_backend("processes").warm_pool(1)
        self._warm_up(warm_up)

    def _loop(self, kind: str, backend: Optional[str]) -> List[float]:
        """``adapt_loop`` on the problem whose turn it is for ``kind``."""
        i = self.turn[kind] % len(self.problems)
        self.turn[kind] += 1
        return self._run(kind, lambda: adapt_loop(
            self.mesh0, problem=self.problems[i], backend=backend,
            **self.loop), group=i)

    def op(self) -> List[float]:
        return self._loop("inprocess", None)

    def op_warm(self) -> List[float]:
        return self._loop("processes", "processes")

    def _problem_with(self, result) -> Optional[str]:
        report = validate_mesh(result.mesh, check_delaunay=False)
        best = min(c.error for c in result.history)
        if (report.ok and best <= self.error_limit
                and result.dof <= self.DOF_LIMIT):
            return None
        return f"ok={report.ok} best_error={best:.3e} dof={result.dof}"

    def _describe(self, result) -> Dict[str, object]:
        return {"dof": result.dof, "l2_error": result.error,
                "cycles_run": len(result.history) - 1}


# ----------------------------------------------------------------------
# The daemon: service_mix
# ----------------------------------------------------------------------
class ServiceMix(Workload):
    name = "service_mix"
    why = ("small meshes make framing, hashing, batching, dispatch and "
           "the cache the visible cost; misses (put+evict) and hits (get) "
           "use MeshCache differently, so a change that trades one for "
           "the other shows.  Closed loop, R connections, one generator "
           "thread; bursts of R make the batch size R by construction")

    #: requests per ``op_warm`` call.
    HITS_PER_OP = 1000
    #: misses re-meshed in-process for the byte-equality check.
    SAMPLE = 4
    CODES = ("0012", "2412", "4412", "0010", "2410", "4410", "0015", "2415")

    def setup(self, warm_up: bool = True) -> None:
        j = _Jitter(self.seed)
        self.base_grading = j(0.30)
        # Daemon cache capacity, and how many of the most recent keys
        # the hits cycle over; the smoke pair lets six requests evict.
        self.cache_entries, self.hot_keys = (4, 2) if self.smoke else (16, 8)
        self.surface_points = 31 if self.smoke else 61
        self.layers = 6 if self.smoke else 12
        self.next_request = 0
        self.first_bytes: Dict[str, bytes] = {}
        self.payloads: Dict[str, serde.Buffers] = {}
        self.recent: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.frame_bytes = {"request": 0, "reply": 0}
        self.daemon: Optional[subprocess.Popen] = None
        self.clients: List[ServiceClient] = []
        #: set by the traced run: every reply is also recorded as a span.
        self.tracer = None

        OUT_DIR.mkdir(parents=True, exist_ok=True)
        sock = OUT_DIR / f"svc-{os.getpid()}.sock"
        if sock.exists():
            sock.unlink()
        # Relative to the cwd the daemon inherits: AF_UNIX paths are
        # limited to ~107 bytes and a checkout can sit anywhere.
        self.sock_path = os.path.relpath(sock)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", self.sock_path, "--backend", "processes",
             "--ranks", str(self.ranks),
             "--cache-entries", str(self.cache_entries)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        address = f"unix:{self.sock_path}"
        for _ in range(self.ranks):
            self.clients.append(ServiceClient(
                address, connect_retries=3000, retry_delay=0.01))
        self.clients[0].ping()
        self.info.update(surface_points=self.surface_points,
                         base_grading=self.base_grading,
                         cache_entries=self.cache_entries)
        if warm_up:
            self.op()
            self.op_warm()
            self.attempted = 0
            self.failed = 0
            self.errors = []

    def _new_request(self) -> serde.Buffers:
        """The next distinct request of the seeded sequence."""
        i = self.next_request
        self.next_request += 1
        code = self.CODES[i % len(self.CODES)]
        pslg = PSLG.from_loops([naca4(code, self.surface_points)],
                               names=[f"naca{code}"])
        config = MeshConfig(
            bl=BoundaryLayerConfig(first_spacing=2e-3, growth_ratio=1.4,
                                   max_layers=self.layers),
            farfield_chords=5.0,
            grading=self.base_grading * (1.0 + 1e-4 * (i // len(self.CODES))),
            target_subdomains=4)
        return pack_mesh_request(pslg, config)

    def op(self) -> List[float]:
        """One burst: R distinct requests on R connections, all misses."""
        batch = []
        for _ in range(self.ranks):
            payload = self._new_request()
            batch.append((serde.canonical_hash(payload), payload,
                          encode_frame("mesh", serde.buffers_to_bytes(payload))))
        samples = []
        t0 = time.perf_counter()
        for client, (_, _, frame) in zip(self.clients, batch):
            client.sock.sendall(frame)
        for client, (key, payload, frame) in zip(self.clients, batch):
            self.attempted += 1
            try:
                kind, blob = read_frame_blocking(client.sock)
                self._maybe_fail()
            except Exception as exc:  # a failed op counts, the run goes on
                self.failed += 1
                self.errors.append(f"miss: {type(exc).__name__}: {exc}")
                continue
            t1 = time.perf_counter()
            elapsed = t1 - t0
            if self.tracer is not None:
                self.tracer.record("runtime.service.miss", t0, t1)
            if kind != "mesh-ok":
                self.failed += 1
                self.errors.append(f"miss {key[:12]}: reply {kind!r}")
                continue
            samples.append(elapsed)
            self.first_bytes[key] = blob
            self.payloads[key] = payload
            self.recent.append(key)
            self.frame_bytes = {"request": len(frame), "reply": len(blob)}
        # Only the hot set's bytes are needed for the hit check.
        for key in self.recent[:-self.cache_entries]:
            self.first_bytes.pop(key, None)
        del self.recent[:-self.cache_entries]
        return samples

    def op_warm(self) -> List[float]:
        """Back-to-back requests on one connection, all cache hits."""
        hot = self.recent[-self.hot_keys:]
        frames = [encode_frame("mesh",
                               serde.buffers_to_bytes(self.payloads[k]))
                  for k in hot]
        sock = self.clients[0].sock
        samples = []
        for i in range(self.HITS_PER_OP):
            key = hot[i % len(hot)]
            self.attempted += 1
            t0 = time.perf_counter()
            sock.sendall(frames[i % len(hot)])
            kind, blob = read_frame_blocking(sock)
            t1 = time.perf_counter()
            elapsed = t1 - t0
            if self.tracer is not None:
                self.tracer.record("runtime.service.hit", t0, t1)
            if kind != "mesh-hit" or blob != self.first_bytes[key]:
                self.failed += 1
                self.errors.append(f"hit {key[:12]}: reply {kind!r}, "
                                   f"bytes equal={blob == self.first_bytes[key]}")
                continue
            samples.append(elapsed)
        return samples

    def sample_keys(self, count: int) -> List[str]:
        """A seeded sample of the keys whose first reply is still held."""
        keys = sorted(self.first_bytes)
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(keys), size=min(count, len(keys)),
                           replace=False)
        return [keys[int(i)] for i in picks]

    def check_direct(self, key: str) -> None:
        """Mesh one served request in-process; the bytes must be equal."""
        direct = serde.buffers_to_bytes(mesh_workitem(self.payloads[key]))
        self.attempted += 1
        if direct != self.first_bytes[key]:
            self.failed += 1
            self.errors.append(f"served bytes for {key[:12]} differ from "
                               "in-process mesh_workitem")

    def check(self) -> Tuple[int, int, List[str]]:
        for key in self.sample_keys(self.SAMPLE):
            self.check_direct(key)
        server = self.clients[0].stats()
        self.info.update(requests=server["requests"],
                         hit_ratio=server["hit_ratio"],
                         evictions=server["cache_evictions"],
                         batch_size_mean=server["batch_size_mean"])
        return self.attempted, self.failed, list(self.errors)

    def teardown(self) -> None:
        daemon, self.daemon = self.daemon, None
        if daemon is None:
            return
        try:
            self.clients[0].shutdown_server()
        except Exception:  # no client or no answer: interrupt it instead
            # ^C makes the daemon shut its pool down before it exits,
            # which a plain kill would not.
            daemon.send_signal(signal.SIGINT)
        for client in self.clients:
            client.close()
        self.clients = []
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)


WORKLOADS = {cls.name: cls for cls in
             (NacaFarfield, HighliftBL, AdaptShear, ServiceMix)}
