"""Discrete-event cluster simulator for strong-scaling studies.

The paper's evaluation (Figs. 11-12) runs on 32 Infiniband nodes / 256
ranks.  That environment is simulated here: the *algorithmic* inputs —
per-subdomain meshing costs, payload sizes, the largest-first queue
discipline, RMA-window work stealing with a dual mesher/communicator
thread per rank — are the real ones, and the hardware is reduced to an
``alpha + bytes/beta`` network model (4X FDR Infiniband defaults) plus a
tree-structured initial distribution phase mirroring the recursive
decomposition/decoupling handoff ("subdomains are repeatedly decoupled
and sent to other processes until all processes have sufficient work").

Because each rank has a dedicated communicator thread, steal requests are
serviced at message arrival without preempting the mesher — exactly the
overlap the paper describes ("communication times only cause a slowdown
when the mesher thread runs out of work").
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SimTask", "NetworkModel", "SimConfig", "SimResult", "simulate",
           "strong_scaling", "fit_network_model", "calibrate_from_counters"]


@dataclass
class SimTask:
    """One subdomain: meshing cost in seconds, transfer size in bytes."""

    cost: float
    size_bytes: float = 4096.0
    task_id: int = -1


@dataclass
class NetworkModel:
    """alpha-beta model: transfer time = latency + bytes / bandwidth."""

    latency: float = 2.0e-6          # Infiniband-class small-message latency
    bandwidth: float = 7.0e9         # ~56 Gbit/s 4X FDR

    def xfer(self, nbytes: float) -> float:
        return self.latency + nbytes / self.bandwidth

    def __post_init__(self) -> None:
        if self.latency < 0 or self.bandwidth <= 0:
            raise ValueError("invalid network model")


#: a rank requests work when its queue cost drops below this fraction
#: of the mean per-rank load.
STEAL_THRESHOLD_FRAC = 0.05
#: retry back-off after an unsuccessful steal (window poll period).
POLL_PERIOD = 1.0e-4


@dataclass
class SimConfig:
    network: NetworkModel = field(default_factory=NetworkModel)
    #: per-item fixed scheduling overhead on the mesher thread (queue pop,
    #: Triangle call setup) — the non-communication serial overhead.
    per_task_overhead: float = 0.0
    #: sequential-fraction work done on rank 0 before distribution
    #: (reading input, computing the initial quadrants, etc.).
    serial_setup: float = 0.0
    #: disable work stealing entirely (static distribution ablation).
    stealing: bool = True


@dataclass
class SimResult:
    makespan: float
    t_distribute: float
    busy: np.ndarray
    n_steal_attempts: int
    n_steal_successes: int
    n_messages: int
    total_work: float

    @property
    def efficiency_internal(self) -> float:
        """busy / (P * makespan): scheduling efficiency of the sim run."""
        P = len(self.busy)
        return float(self.busy.sum() / (P * self.makespan)) if P else 0.0


def _tree_distribute(tasks: List[SimTask], n_ranks: int, net: NetworkModel
                     ) -> Tuple[List[List[SimTask]], np.ndarray]:
    """Recursive halving of the task list from rank 0 (cost-balanced).

    Mirrors the decomposition/decoupling handoff: at each level every
    owning rank sends half of its queue (by cost) to a partner.  Returns
    the per-rank task lists and each rank's ready time.
    """
    queues: List[List[SimTask]] = [[] for _ in range(n_ranks)]
    ready = np.zeros(n_ranks, dtype=np.float64)
    queues[0] = sorted(tasks, key=lambda t: -t.cost)
    levels = int(math.ceil(math.log2(n_ranks))) if n_ranks > 1 else 0
    stride = n_ranks
    for _ in range(levels):
        stride //= 2
        if stride < 1:
            break
        for owner in range(0, n_ranks, 2 * stride):
            partner = owner + stride
            if partner >= n_ranks:
                continue
            q = queues[owner]
            # Greedy cost halving preserving the largest-first discipline.
            q_cost = sum(t.cost for t in q)
            keep: List[SimTask] = []
            send: List[SimTask] = []
            acc = 0.0
            for t in q:
                if acc + t.cost <= q_cost / 2.0 or not send:
                    send.append(t)
                    acc += t.cost
                else:
                    keep.append(t)
            # Owner keeps the first (largest) item.
            if keep == [] and len(send) > 1:
                keep = [send.pop(0)]
            elif send and send[0] is q[0] and len(send) > 1:
                keep.append(send.pop(0))
            nbytes = sum(t.size_bytes for t in send)
            t_arr = ready[owner] + net.xfer(nbytes)
            queues[owner] = sorted(keep, key=lambda t: -t.cost)
            queues[partner] = sorted(send, key=lambda t: -t.cost)
            ready[partner] = t_arr
            ready[owner] += net.latency  # send initiation cost
    return queues, ready


def simulate(tasks: Sequence[SimTask], n_ranks: int,
             config: Optional[SimConfig] = None,
             *, _record: Optional[list] = None,
             _record_steals: Optional[list] = None) -> SimResult:
    """Simulate the distributed meshing of ``tasks`` on ``n_ranks``.

    ``_record``/``_record_steals`` are internal hooks used by
    :mod:`repro.runtime.trace` to capture the execution timeline.
    """
    config = config or SimConfig()
    net = config.network
    tasks = [SimTask(t.cost, t.size_bytes, i) for i, t in enumerate(tasks)]
    if not tasks:
        raise ValueError("no tasks")
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    total_work = sum(t.cost for t in tasks)
    threshold = STEAL_THRESHOLD_FRAC * total_work / n_ranks

    queues, ready = _tree_distribute(tasks, n_ranks, net)
    ready += config.serial_setup
    t_distribute = float(ready.max()) - config.serial_setup

    # Rank state.
    qcost = np.array([sum(t.cost for t in q) for q in queues])
    busy = np.zeros(n_ranks)
    finished_at = np.zeros(n_ranks)
    outstanding = len(tasks)
    n_attempts = 0
    n_success = 0
    n_msgs = 0
    running: List[Optional[SimTask]] = [None] * n_ranks
    # Ranks that found no steal victim: woken event-driven when work
    # appears (no busy polling — the communicator thread of a hungry rank
    # reacts to window updates, which happen when queues change).
    hungry: set = set()

    # Event heap: (time, seq, kind, rank, payload)
    events: List[Tuple[float, int, str, int, object]] = []
    seq = 0

    def push(t: float, kind: str, rank: int, payload=None) -> None:
        nonlocal seq
        heapq.heappush(events, (t, seq, kind, rank, payload))
        seq += 1

    def start_next(rank: int, now: float) -> None:
        nonlocal outstanding
        if queues[rank]:
            task = queues[rank].pop(0)  # largest first (kept sorted)
            qcost[rank] -= task.cost
            running[rank] = task
            dur = task.cost + config.per_task_overhead
            busy[rank] += dur
            if _record is not None:
                from .trace import BusyInterval

                _record.append(BusyInterval(rank, now, now + dur,
                                            task.task_id))
            push(now + dur, "task_done", rank, task)
        else:
            running[rank] = None
            if outstanding > 0 and config.stealing:
                push(now, "try_steal", rank)

    for r in range(n_ranks):
        push(float(ready[r]), "rank_ready", r)

    guard = 0
    max_events = 200 * len(tasks) + 10000 * n_ranks + 100000
    while events:
        guard += 1
        if guard > max_events:
            raise RuntimeError("simulation event budget exceeded")
        now, _, kind, rank, payload = heapq.heappop(events)
        if kind == "rank_ready":
            start_next(rank, now)
        elif kind == "task_done":
            outstanding -= 1
            finished_at[rank] = now
            start_next(rank, now)
            # Wake hungry ranks after one window-update latency: either
            # work remains stealable somewhere, or the run is draining and
            # they should re-check termination.
            if hungry and config.stealing:
                # Sorted wake order: the steal schedule must not depend
                # on set hash order, or simulated timelines drift between
                # runs (tests/test_determinism.py).
                for h in sorted(hungry):
                    push(now + POLL_PERIOD, "try_steal", h)
                hungry.clear()
        elif kind == "try_steal":
            if running[rank] is not None or queues[rank]:
                continue
            if outstanding <= 0:
                finished_at[rank] = max(finished_at[rank], now)
                continue
            victims = np.where(qcost > max(threshold, 0.0))[0]
            if len(victims) == 0:
                hungry.add(rank)  # woken when a queue grows rich again
                continue
            victim = int(victims[np.argmax(qcost[victims])])
            n_attempts += 1
            n_msgs += 1
            push(now + net.latency, "steal_arrive", victim, rank)
        elif kind == "steal_arrive":
            thief = payload
            q = queues[rank]
            if q and qcost[rank] > threshold:
                # Donate the smallest half by cost (cheap to ship).
                q_sorted = sorted(q, key=lambda t: t.cost)
                donate: List[SimTask] = []
                acc = 0.0
                for t in q_sorted:
                    if acc + t.cost > qcost[rank] / 2.0 and donate:
                        break
                    donate.append(t)
                    acc += t.cost
                if len(donate) == len(q) and len(q) > 1:
                    donate = donate[:-1]
                donate_ids = {t.task_id for t in donate}
                queues[rank] = [t for t in q if t.task_id not in donate_ids]
                qcost[rank] -= sum(t.cost for t in donate)
                nbytes = sum(t.size_bytes for t in donate)
                n_msgs += 1
                push(now + net.xfer(nbytes), "work_arrive", thief, donate)
            else:
                n_msgs += 1
                push(now + net.latency, "work_arrive", thief, [])
        elif kind == "work_arrive":
            items = payload or []
            if items:
                n_success += 1
                if _record_steals is not None:
                    _record_steals.append(now)
                queues[rank].extend(items)
                queues[rank].sort(key=lambda t: -t.cost)
                qcost[rank] += sum(t.cost for t in items)
            if running[rank] is None:
                if queues[rank]:
                    start_next(rank, now)
                elif outstanding > 0:
                    push(now + POLL_PERIOD, "try_steal", rank)
                else:
                    finished_at[rank] = max(finished_at[rank], now)

    makespan = float(finished_at.max())
    return SimResult(
        makespan=makespan,
        t_distribute=t_distribute,
        busy=busy,
        n_steal_attempts=n_attempts,
        n_steal_successes=n_success,
        n_messages=n_msgs,
        total_work=total_work,
    )


def strong_scaling(tasks: Sequence[SimTask], rank_counts: Sequence[int],
                   config: Optional[SimConfig] = None,
                   *, t_sequential: Optional[float] = None
                   ) -> Dict[int, Dict[str, float]]:
    """Speedup/efficiency table over ``rank_counts`` (paper Figs. 11-12).

    ``t_sequential`` is the best *sequential* mesher's time (Triangle in
    the paper); defaults to the total task work, i.e. a 100%-efficient
    sequential baseline.
    """
    base = t_sequential if t_sequential is not None else sum(
        t.cost for t in tasks)
    out: Dict[int, Dict[str, float]] = {}
    for p in rank_counts:
        res = simulate(tasks, p, config)
        speedup = base / res.makespan
        out[p] = {
            "makespan": res.makespan,
            "speedup": speedup,
            "efficiency": speedup / p,
            "distribute": res.t_distribute,
            "steals": float(res.n_steal_successes),
        }
    return out


# ----------------------------------------------------------------------
# Calibration from measured runtime counters
# ----------------------------------------------------------------------
#: phases on the parent rank that precede parallel refinement — their
#: measured sum is the simulator's ``serial_setup`` (rank-0 work before
#: the tree distribution starts).
SETUP_PHASES = ("boundary_layer", "nearbody_setup", "decoupling")

#: sanity clamps on the fitted alpha-beta model: latency no better than
#: 0.1 us, bandwidth between 1 MB/s (a pipe on a thrashing box) and
#: 1 TB/s (beyond any single NIC).
_MIN_LATENCY = 1.0e-7
_MIN_BANDWIDTH = 1.0e6
_MAX_BANDWIDTH = 1.0e12


def fit_network_model(nbytes: Sequence[float], seconds: Sequence[float]
                      ) -> NetworkModel:
    """Least-squares alpha-beta fit of measured transfer (size, time) pairs.

    ``seconds[i]`` is the wall time to ship ``nbytes[i]`` bytes (the serde
    layer records one pair per shared-memory segment it publishes).  A
    degree-1 polyfit gives ``time = intercept + slope * bytes``, i.e.
    ``latency = intercept`` and ``bandwidth = 1 / slope``, clamped to sane
    hardware ranges.  With fewer than two distinct sizes, or sizes that
    span less than a factor of two (two segments of 67 and 73 kB differ
    by less than their timing noise), the line is unconstrained and the
    default :class:`NetworkModel` (4X FDR Infiniband) is returned; a
    non-positive slope (noise-dominated measurements) keeps the default
    bandwidth and uses the mean measured time as latency.
    """
    default = NetworkModel()
    x = np.asarray(nbytes, dtype=np.float64)
    y = np.asarray(seconds, dtype=np.float64)
    if x.size != y.size:
        raise ValueError("nbytes/seconds sample streams differ in length")
    if x.size < 2 or np.unique(x).size < 2 or x.max() < 2.0 * x.min():
        return default
    # Theil-Sen estimate (median of pairwise slopes): the first segment
    # creation pays a page-fault warm-up penalty orders of magnitude
    # above steady state, and such a high-leverage outlier drags a
    # least-squares line; the median slope shrugs it off.  Sample
    # streams are small (one pair per shm publish), so the O(n^2) pair
    # set is cheap; cap it with a deterministic even subsample.
    if x.size > 200:
        idx = np.linspace(0, x.size - 1, 200).astype(np.intp)
        x, y = x[idx], y[idx]
    ii, jj = np.triu_indices(x.size, k=1)
    dx = x[jj] - x[ii]
    nz = dx != 0.0
    slope = float(np.median((y[jj] - y[ii])[nz] / dx[nz]))
    intercept = float(np.median(y - slope * x))
    if slope <= 0.0:
        return NetworkModel(latency=max(float(np.mean(y)), _MIN_LATENCY),
                            bandwidth=default.bandwidth)
    bandwidth = min(max(1.0 / float(slope), _MIN_BANDWIDTH), _MAX_BANDWIDTH)
    return NetworkModel(latency=max(float(intercept), _MIN_LATENCY),
                        bandwidth=bandwidth)


def calibrate_from_counters(sink, *, replicate_to: int = 12288
                            ) -> Tuple[List[SimTask], SimConfig]:
    """Build a calibrated ``(tasks, SimConfig)`` from a measured run.

    ``sink`` is a :class:`repro.runtime.counters.Counters` that observed a
    real ``generate_mesh`` run (``with use_counters() as sink: ...``).
    Everything the simulator needs is read off the sink:

    - **task costs/sizes** from the ``executor.item_seconds`` /
      ``executor.item_bytes`` sample streams (one pair per work item,
      measured inside the worker);
    - **the boundary-layer triangulation item** from the
      ``executor.bl_item_seconds`` / ``executor.bl_item_bytes`` pair it
      records itself: a mesh has one however many subdomains it is cut
      into, so it becomes one task, unreplicated, and the executor's
      sample of the same item (equal bytes: both sides sum payload and
      result) is left out of the replicated base;
    - **network model** fitted from the paired ``serde.shm_nbytes`` /
      ``serde.shm_seconds`` streams (shared-memory publish timings) via
      :func:`fit_network_model`;
    - **serial_setup** from the measured :data:`SETUP_PHASES` wall times
      (the parent-rank work before refinement can go wide;
      ``boundary_layer`` is the parent's prepare half only);
    - **per_task_overhead** is 1e-4 s — the queue-pop/dispatch cost per
      item, matching the reference Fig. 11 configuration.

    The measured subdomain tasks are replicated with +/-20%
    multiplicative jitter (seed 7, deterministic) to ``replicate_to``
    items, modelling the paper's cluster-scale subdomain counts where
    refinement dominates the unreplicated setup phases.  Raises ``ValueError`` when the sink holds
    no per-item cost samples (the run did not go through the executor).
    """
    costs = list(sink.samples.get("executor.item_seconds", []))
    sizes = list(sink.samples.get("executor.item_bytes", []))
    if not costs:
        raise ValueError(
            "sink has no 'executor.item_seconds' samples — calibrate from "
            "a run that dispatched work through the executor layer")
    if len(sizes) < len(costs):
        sizes = sizes + [float(SimTask.size_bytes)] * (len(costs)
                                                       - len(sizes))
    base = [SimTask(cost=float(c), size_bytes=float(b))
            for c, b in zip(costs, sizes)]
    once = [SimTask(cost=float(c), size_bytes=float(b))
            for c, b in zip(sink.samples.get("executor.bl_item_seconds", []),
                            sink.samples.get("executor.bl_item_bytes", []))]
    for task in once:
        twin = next((t for t in base if t.size_bytes == task.size_bytes),
                    None)
        if twin is not None:
            base.remove(twin)

    network = fit_network_model(
        sink.samples.get("serde.shm_nbytes", []),
        sink.samples.get("serde.shm_seconds", []))
    serial_setup = float(sum(sink.phases.get(p, 0.0) for p in SETUP_PHASES))

    rng = np.random.default_rng(7)
    factor = max(1, int(replicate_to) // max(len(base), 1))
    tasks = once + [
        SimTask(cost=float(t.cost * rng.uniform(0.8, 1.25)),
                size_bytes=t.size_bytes)
        for _ in range(factor) for t in base
    ]
    config = SimConfig(network=network, serial_setup=serial_setup,
                       per_task_overhead=1.0e-4)
    return tasks, config
