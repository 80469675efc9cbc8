"""Pipeline observability: phase timers, kernel counters, histograms.

Every performance claim in this reproduction funnels through the
incremental Delaunay kernel, so regressions need to be *visible* before
they need to be fixed.  This module is the single place where the hot
paths report what they did:

* **Phase wall time** — named stages of :func:`repro.core.pipeline.
  generate_mesh` (and anything else that opens a :func:`phase` block).
* **Kernel counters** — the :class:`~repro.delaunay.kernel.Triangulation`
  accumulates plain-integer statistics (walk steps, cavity sizes,
  filtered-predicate escalations) with near-zero overhead; callers
  *absorb* them here when a kernel finishes.
* **Event counters** — free-form named tallies (Steiner points, segment
  splits, recovery flips, ...).

The layer is **opt-in and ambient**: :func:`use_counters` installs a
:class:`Counters` sink for the current process; code paths call
:func:`current` and skip reporting when it returns ``None``.  The ambient
sink is shared across threads (absorption is lock-protected): the
service daemon's dispatch thread and its event loop report into one.

Nothing here is imported by the kernel's hot loops — the kernel counts
into its own attributes and this module only aggregates, so profiling
cost is paid at phase granularity, not per predicate call.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "SAMPLE_WINDOW",
    "Histogram",
    "KernelCounters",
    "Counters",
    "current",
    "use_counters",
    "phase",
    "timed",
    "monotonic",
    "monotonic_ns",
]

#: values an :meth:`Counters.observe` stream keeps: its count, total and
#: max stay exact, and the latest ``SAMPLE_WINDOW`` observations are kept
#: for percentiles and calibration, so a resident daemon's telemetry does
#: not grow with its uptime.
SAMPLE_WINDOW = 4096


def monotonic() -> float:
    """The sanctioned monotonic-clock read point.

    Scheduling code that needs *deadline* arithmetic — worker-pool TTL
    reaping, hang detection — reads the clock here instead of importing
    ``time`` directly, so every wall-clock access in the package stays
    in this module.  Profiling still goes through :func:`timed`/
    :func:`phase`; this helper is for liveness decisions only.
    """
    return time.monotonic()


def monotonic_ns() -> int:
    """Integer-nanosecond sibling of :func:`monotonic`.

    Hot kernels accumulate per-phase budgets in integer nanoseconds to
    avoid float rounding across millions of samples; they read the
    clock here for the same reason scheduling code uses
    :func:`monotonic` — one auditable wall-clock funnel.
    """
    return time.monotonic_ns()


class Histogram:
    """Fixed-bucket integer histogram (last bucket catches overflow).

    Buckets are unit-width: bucket ``i`` counts value ``i`` for
    ``i < n_buckets - 1``; the final bucket counts everything larger.
    Cheap enough to update once per kernel insertion.
    """

    __slots__ = ("buckets", "count", "total")

    def __init__(self, n_buckets: int = 32) -> None:
        self.buckets: List[int] = [0] * n_buckets
        self.count = 0
        self.total = 0

    def add(self, value: int) -> None:
        n = len(self.buckets)
        self.buckets[value if value < n - 1 else n - 1] += 1
        self.count += 1
        self.total += value

    def merge_counts(self, buckets: List[int], count: int, total: int) -> None:
        """Merge a raw bucket array (as kept by the kernel) into this."""
        mine = self.buckets
        n = len(mine)
        for i, b in enumerate(buckets):
            if b:
                mine[i if i < n - 1 else n - 1] += b
        self.count += count
        self.total += total

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> int:
        """Approximate q-th percentile (bucket lower bound), q in [0, 100]."""
        if not self.count:
            return 0
        target = q / 100.0 * self.count
        acc = 0
        for i, b in enumerate(self.buckets):
            acc += b
            if acc >= target:
                return i
        return len(self.buckets) - 1

    def summary(self) -> str:
        top = len(self.buckets) - 1
        p95 = self.percentile(95.0)
        return (
            f"mean {self.mean():.2f}  p50 {self.percentile(50.0)}  "
            f"p95 {p95 if p95 < top else f'{top}+'}  n {self.count}"
        )


#: The kernel-counter schema, written once: every name is an integer
#: slot of :class:`KernelCounters`, the ``stat_<name>`` attribute a
#: :class:`~repro.delaunay.kernel.Triangulation` counts into, and a key
#: of ``to_plain()``; ``as_dict()`` lists them in this order (a
#: ``*_fast`` slot as its ``*_tests`` total).  ``*_zero`` counts the
#: escalations the exact stage answered 0: true zeros, which no filter
#: can certify, as opposed to filter misses.
KERNEL_FIELDS = (
    "inserts", "locates", "walk_steps", "brute_locates",
    "visibility_prunes", "cavity_triangles", "flips",
    "orient_fast", "orient_exact", "incircle_fast", "incircle_exact",
    "orient_zero", "incircle_zero",
    "finalize_ns",
)
#: ``(histogram slot, count field, total field, as_dict label)``: the
#: kernel keeps the raw 32-bucket list under ``stat_<slot>``, and
#: ``as_dict()`` puts ``<label>_mean`` / ``<label>_p95`` behind the total.
KERNEL_HISTS = (
    ("walk_hist", "locates", "walk_steps", "walk_steps"),
    ("cavity_hist", "inserts", "cavity_triangles", "cavity_size"),
)


def reset_kernel_stats(tri) -> None:
    """Zero every ``stat_*`` counter of the schema on ``tri``."""
    for name in KERNEL_FIELDS:
        setattr(tri, "stat_" + name, 0)
    for hist, _, _, _ in KERNEL_HISTS:
        setattr(tri, "stat_" + hist, [0] * 32)


class KernelCounters:
    """Aggregated :class:`Triangulation` statistics.

    ``absorb`` pulls the plain-int ``stat_*`` attributes off a kernel
    instance; repeated absorption of *different* kernels accumulates
    (each subdomain refinement contributes its own triangulation).
    """

    __slots__ = KERNEL_FIELDS + tuple(h[0] for h in KERNEL_HISTS)

    def __init__(self) -> None:
        for name in KERNEL_FIELDS:
            setattr(self, name, 0)
        for hist, _, _, _ in KERNEL_HISTS:
            setattr(self, hist, Histogram(32))

    def absorb(self, tri) -> None:
        """Accumulate the counters of a finished ``Triangulation``."""
        for name in KERNEL_FIELDS:
            setattr(self, name,
                    getattr(self, name) + getattr(tri, "stat_" + name))
        for hist, count, total, _ in KERNEL_HISTS:
            getattr(self, hist).merge_counts(
                getattr(tri, "stat_" + hist),
                getattr(tri, "stat_" + count), getattr(tri, "stat_" + total))

    # ------------------------------------------------------------------
    # Cross-process transport (plain ints/lists only — compactly
    # picklable control-plane data, merged by the executor layer).
    # ------------------------------------------------------------------
    def to_plain(self) -> Dict[str, object]:
        """Plain-data form for shipping across a process boundary."""
        out: Dict[str, object] = {
            name: getattr(self, name) for name in KERNEL_FIELDS}
        for hist, _, _, _ in KERNEL_HISTS:
            h = getattr(self, hist)
            out[hist] = {"buckets": list(h.buckets), "count": h.count,
                         "total": h.total}
        return out

    def merge_plain(self, data: Dict[str, object]) -> None:
        """Merge a :meth:`to_plain` snapshot (e.g. from a worker process)."""
        for name in KERNEL_FIELDS:
            if name in data:
                setattr(self, name, getattr(self, name) + int(data[name]))
        for hist, _, _, _ in KERNEL_HISTS:
            if hist in data:
                h = data[hist]
                getattr(self, hist).merge_counts(
                    list(h["buckets"]), int(h["count"]), int(h["total"]))

    # ------------------------------------------------------------------
    @property
    def orient_tests(self) -> int:
        return self.orient_fast + self.orient_exact

    @property
    def incircle_tests(self) -> int:
        return self.incircle_fast + self.incircle_exact

    @property
    def exact_escalation_rate(self) -> float:
        """Fraction of filtered predicate tests escalated to exact
        integer arithmetic (the metric the filter design targets)."""
        total = self.orient_tests + self.incircle_tests
        if not total:
            return 0.0
        return (self.orient_exact + self.incircle_exact) / total

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name in KERNEL_FIELDS:
            if name.endswith("_fast"):
                name = name[:-len("_fast")] + "_tests"
            out[name] = getattr(self, name)
            for hist, _, total, label in KERNEL_HISTS:
                if total == name:
                    out[label + "_mean"] = getattr(self, hist).mean()
                    out[label + "_p95"] = getattr(self, hist).percentile(95.0)
        out["exact_escalation_rate"] = self.exact_escalation_rate
        return out

    def report(self) -> str:
        lines = [
            f"  inserts            {self.inserts}",
            f"  walk steps         {self.walk_hist.summary()}",
            f"  cavity size        {self.cavity_hist.summary()}",
            f"  brute-force locates {self.brute_locates}",
            f"  visibility prunes  {self.visibility_prunes}"
            f"  (wrapped cavities cut back and legalised)",
            f"  orient tests       {self.orient_tests}"
            f"  (exact {self.orient_exact})",
            f"  incircle tests     {self.incircle_tests}"
            f"  (exact {self.incircle_exact})",
            f"  flips              {self.flips}",
            f"  finalize time      {self.finalize_ns / 1e6:.2f} ms",
            f"  exact escalation   {self.exact_escalation_rate:.4%}"
            f"  (true zeros {self.orient_zero + self.incircle_zero} of "
            f"{self.orient_exact + self.incircle_exact})",
        ]
        return "\n".join(lines)


class Counters:
    """Process-wide profiling sink: phases + kernel stats + named events."""

    def __init__(self, rank: Optional[int] = None) -> None:
        self._lock = threading.Lock()
        #: pool-worker rank whose work this sink profiles (a worker's
        #: per-item sink); ``None`` for a sink of the calling process.
        self.rank = rank
        self.phases: Dict[str, float] = {}
        self.phase_calls: Dict[str, int] = {}
        self.kernel = KernelCounters()
        self.events: Dict[str, int] = {}
        #: the latest ``SAMPLE_WINDOW`` values of each sample stream
        #: (seconds, bytes, ...) — the measurement source for simulator
        #: calibration
        #: (:func:`repro.runtime.simulator.calibrate_from_counters`).
        self.samples: Dict[str, List[float]] = {}
        #: ``[count, total, max]`` of every value each stream observed.
        self.sample_totals: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------
    def note_phase(self, name: str, dt: float) -> None:
        """Record ``dt`` seconds against phase ``name`` (thread-safe)."""
        with self._lock:
            self.phases[name] = self.phases.get(name, 0.0) + dt
            self.phase_calls[name] = self.phase_calls.get(name, 0) + 1

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.note_phase(name, time.perf_counter() - t0)

    def absorb_kernel(self, tri) -> None:
        with self._lock:
            self.kernel.absorb(tri)

    def absorb_finalize(self, tri) -> None:
        """Accumulate (and reset) a kernel's finalize time.

        ``to_mesh`` runs *after* the refinement loop has already
        absorbed the kernel's insert-path counters, so the finalize cost
        is collected separately; resetting the stat keeps a later full
        ``absorb`` from double-counting it.
        """
        with self._lock:
            self.kernel.finalize_ns += tri.stat_finalize_ns
        tri.stat_finalize_ns = 0

    def incr(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.events[name] = self.events.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        """Append one raw observation to the ``name`` sample stream.

        Unlike :meth:`incr` (a running total) the individual values are
        kept, the latest ``SAMPLE_WINDOW`` of them: the executor records
        per-item (seconds, bytes) pairs and the serde layer records shm
        transfer timings, which the simulator fits its network/cost
        models against.
        """
        value = float(value)
        with self._lock:
            self._fold(name, [value], 1, value, value)

    def _fold(self, name: str, values: List[float], count: int,
              total: float, peak: float) -> None:
        """Add observations to one stream; the caller holds the lock."""
        window = self.samples.setdefault(name, [])
        window.extend(values)
        del window[:-SAMPLE_WINDOW]
        agg = self.sample_totals.setdefault(name, [0, 0.0, peak])
        agg[0] += count
        agg[1] += total
        agg[2] = max(agg[2], peak)

    def stream(self, name: str) -> Tuple[int, float, float, List[float]]:
        """``(count, total, max, latest values)`` of one sample stream."""
        with self._lock:
            agg = self.sample_totals.get(name)
            if agg is None:
                return 0, 0.0, 0.0, []
            return int(agg[0]), agg[1], agg[2], list(self.samples[name])

    # ------------------------------------------------------------------
    # Cross-process aggregation: a worker process profiles into its own
    # sink, ships ``snapshot()`` (plain data) back over the result
    # channel, and the parent folds it in with ``merge_snapshot`` — so
    # ``--profile``/``--stats-json`` see one merged report regardless of
    # which executor backend did the work.
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Plain-data snapshot of everything this sink accumulated."""
        with self._lock:
            return {
                "phases": dict(self.phases),
                "phase_calls": dict(self.phase_calls),
                "kernel": self.kernel.to_plain(),
                "events": dict(self.events),
                "samples": {k: list(v) for k, v in self.samples.items()},
                "sample_totals": {k: list(v)
                                  for k, v in self.sample_totals.items()},
            }

    def merge_snapshot(self, data: Dict[str, object]) -> None:
        """Merge a :meth:`snapshot` from another sink (thread-safe)."""
        with self._lock:
            for name, dt in data.get("phases", {}).items():
                self.phases[name] = self.phases.get(name, 0.0) + float(dt)
            for name, n in data.get("phase_calls", {}).items():
                self.phase_calls[name] = self.phase_calls.get(name, 0) + int(n)
            self.kernel.merge_plain(data.get("kernel", {}))
            for name, n in data.get("events", {}).items():
                self.events[name] = self.events.get(name, 0) + int(n)
            totals = data.get("sample_totals", {})
            for name, values in data.get("samples", {}).items():
                count, total, peak = totals[name]
                self._fold(name, [float(v) for v in values], int(count),
                           float(total), float(peak))

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        return {
            "phases_s": dict(self.phases),
            "kernel": self.kernel.as_dict(),
            "events": dict(self.events),
            # Samples summarised, exactly (the latest values stay on
            # ``self.samples``).
            "samples": {
                name: {"n": int(n), "total": total, "mean": total / n}
                for name, (n, total, _) in self.sample_totals.items()
            },
        }

    def report(self) -> str:
        lines = ["== profile =="]
        if self.phases:
            lines.append("phases:")
            width = max(len(k) for k in self.phases)
            for name, dt in self.phases.items():
                calls = self.phase_calls.get(name, 1)
                extra = f"  ({calls} calls)" if calls > 1 else ""
                lines.append(f"  {name:<{width}}  {dt:8.3f}s{extra}")
        lines.append("kernel:")
        lines.append(self.kernel.report())
        if self.events:
            lines.append("events:")
            width = max(len(k) for k in self.events)
            for name in sorted(self.events):
                lines.append(f"  {name:<{width}}  {self.events[name]}")
        if self.sample_totals:
            lines.append("samples:")
            width = max(len(k) for k in self.sample_totals)
            for name in sorted(self.sample_totals):
                n, total, peak = self.sample_totals[name]
                lines.append(f"  {name:<{width}}  n {int(n)}  total "
                             f"{total:.6g}  max {peak:.6g}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Ambient sink
# ----------------------------------------------------------------------
_current: Optional[Counters] = None


def current() -> Optional[Counters]:
    """The installed profiling sink, or ``None`` when profiling is off."""
    return _current


@contextmanager
def use_counters(counters: Optional[Counters] = None) -> Iterator[Counters]:
    """Install ``counters`` (or a fresh sink) as the ambient sink.

    Nesting replaces the sink for the dynamic extent of the block; the
    previous sink is restored on exit.
    """
    global _current
    sink = counters if counters is not None else Counters()
    prev = _current
    _current = sink
    try:
        yield sink
    finally:
        _current = prev


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Time a named phase against the ambient sink (no-op when off)."""
    sink = _current
    if sink is None:
        yield
    else:
        with sink.phase(name):
            yield


class timed:
    """Wall-time a block *and* report it as a phase to the ambient sink.

    The single sanctioned wall-clock read point outside this module:
    algorithm code that needs an elapsed figure — the pipeline's
    per-stage ``timings`` dict, the CLI's total — opens a ``timed`` block
    instead of pairing raw ``time.perf_counter()`` calls, so ``--profile``
    can never miss a stage that user-facing timings report
    (``tests/core/test_bl_workitem.py::TestAttribution::
    test_every_timing_is_a_profile_phase``).

    >>> with timed("refinement") as t:
    ...     ...
    >>> t.elapsed  # seconds, also accumulated into the ambient Counters
    """

    __slots__ = ("name", "elapsed", "_t0")

    def __init__(self, name: str) -> None:
        self.name = name
        self.elapsed = 0.0

    def __enter__(self) -> "timed":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._t0
        sink = _current
        if sink is not None:
            sink.note_phase(self.name, self.elapsed)
