"""In-memory span recorder for the ledger's traced runs.

The benchmark times the program *from outside*: a traced run replays
one op as a sequence of calls into each layer's public functions and
wraps every call in a span ``{name, start, end, parent, workload,
op}``.  Spans stay in memory until the run ends and are then written as
Chrome trace-event JSON (``chrome://tracing`` / Perfetto), one ``pid``
per workload and one ``tid`` per layer, so a later in-program trace can
be overlaid on the same file.

A span's layer is the first dotted component of its name (``core``,
``delaunay``, ``runtime`` ...): the module under ``src/repro`` the
wrapped call belongs to.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["Tracer", "layer_of"]

#: op label of the zero-work spans :meth:`Tracer.calibrate` records.
CALIBRATION_OP = "calibration"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []
        self._op = ""

    @contextmanager
    def op(self, label: str) -> Iterator[None]:
        """Label every span opened inside with the op it belongs to."""
        prev, self._op = self._op, label
        try:
            yield
        finally:
            self._op = prev

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        record: Dict[str, object] = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "op": self._op,
        }
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span measured by the caller (``perf_counter`` times)."""
        self.spans.append({
            "name": name, "start": start, "end": end,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload, "op": self._op,
        })

    def calibrate(self, names: List[str]) -> None:
        """Record one zero-work span under each of ``names``.

        Its duration is what the recorder itself costs per span.
        :meth:`durations` falls back to it for a name no real span
        carries, so a layer the op never entered reads as the recorder's
        resolution (a fraction of a microsecond), measured like every
        other time, rather than as a literal zero.
        """
        with self.op(CALIBRATION_OP):
            for name in names:
                with self.span(name):
                    pass

    # -- queries -------------------------------------------------------
    @staticmethod
    def duration(span: Dict[str, object]) -> float:
        return float(span["end"]) - float(span["start"])

    def durations(self, name: str, op: Optional[str] = None) -> List[float]:
        """Durations of the spans called ``name`` (of one op, if given);
        of the name's calibration span when there are none."""
        named = [s for s in self.spans if s["name"] == name]
        real = [self.duration(s) for s in named
                if s["op"] != CALIBRATION_OP
                and (op is None or s["op"] == op)]
        return real or [self.duration(s) for s in named
                        if s["op"] == CALIBRATION_OP]

    def total(self, name: str, op: Optional[str] = None) -> float:
        return sum(self.durations(name, op))

    def self_times(self) -> List[float]:
        """Per span: its duration minus what its direct children cover."""
        own = [self.duration(s) for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[int(s["parent"])] -= self.duration(s)
        return own

    def layer_self_times(self, op: str) -> Dict[str, float]:
        """Self time summed by layer over the spans of one op."""
        out: Dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            if s["op"] == op:
                layer = layer_of(str(s["name"]))
                out[layer] = out.get(layer, 0.0) + own
        return out

    # -- export --------------------------------------------------------
    def chrome_trace(self, pid: int) -> Dict[str, object]:
        """Chrome trace-event JSON: complete (``X``) events in microseconds."""
        layers = sorted({layer_of(str(s["name"])) for s in self.spans})
        tid = {layer: i + 1 for i, layer in enumerate(layers)}
        t0 = min((float(s["start"]) for s in self.spans), default=0.0)
        events: List[Dict[str, object]] = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": self.workload}},
        ]
        for layer in layers:
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid[layer], "args": {"name": layer}})
        for index, s in enumerate(self.spans):
            layer = layer_of(str(s["name"]))
            events.append({
                "name": s["name"], "cat": layer, "ph": "X",
                "ts": (float(s["start"]) - t0) * 1e6,
                "dur": self.duration(s) * 1e6,
                "pid": pid, "tid": tid[layer],
                "args": {"id": index, "parent": s["parent"],
                         "op": s["op"], "workload": s["workload"]},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
