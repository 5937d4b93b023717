"""Event sinks: Chrome ``trace_event`` JSON and newline-JSON metrics.

Both sinks buffer in memory and hit the filesystem only at flush/close —
a sink write on the per-job path would be exactly the overhead the
subsystem exists to measure, not add.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Optional

from repro.obs.events import Event, EventKind

__all__ = [
    "CHROME_TRACE_SCHEMA",
    "ChromeTraceSink",
    "MetricsJsonlSink",
    "attempt_trace_event",
    "process_name_event",
]

#: JSON Schema for the Chrome/Perfetto trace files this module emits
#: (the "JSON Object Format" of the Trace Event specification).  Used by
#: the test layer to assert every produced trace validates.
CHROME_TRACE_SCHEMA: dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["traceEvents"],
    "properties": {
        "displayTimeUnit": {"type": "string", "enum": ["ms", "ns"]},
        "otherData": {"type": "object"},
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["ph", "pid", "tid", "name"],
                "properties": {
                    "ph": {
                        "type": "string",
                        "enum": ["B", "E", "X", "i", "I", "C", "M"],
                    },
                    "name": {"type": "string"},
                    "cat": {"type": "string"},
                    "pid": {"type": "integer"},
                    "tid": {"type": "integer"},
                    "ts": {"type": "number"},
                    "dur": {"type": "number", "minimum": 0},
                    "s": {"type": "string", "enum": ["g", "p", "t"]},
                    "args": {"type": "object"},
                },
                "allOf": [
                    {
                        "if": {"properties": {"ph": {"const": "X"}}},
                        "then": {"required": ["ts", "dur"]},
                    },
                    {
                        "if": {"properties": {"ph": {"const": "C"}}},
                        "then": {"required": ["ts", "args"]},
                    },
                    {
                        "if": {"properties": {"ph": {"const": "i"}}},
                        "then": {"required": ["ts", "s"]},
                    },
                ],
            },
        },
    },
}

#: Longest command string recorded in a trace event's args.
_CMD_LIMIT = 160


def _us(ts: float) -> float:
    """Seconds → the microseconds the trace_event format expects."""
    return ts * 1e6


def process_name_event(pid: int, name: str) -> dict[str, Any]:
    """Metadata event labelling ``pid``'s row in the trace viewer."""
    return {
        "ph": "M",
        "name": "process_name",
        "pid": pid,
        "tid": 0,
        "args": {"name": name},
    }


def attempt_trace_event(
    pid: int,
    seq: int,
    attempt: int,
    slot: int,
    start: float,
    end: float,
    state: str,
    exit_code: Optional[int] = None,
    command: str = "",
    retried: bool = False,
) -> dict[str, Any]:
    """A complete ("X") trace event for one finished job attempt.

    ``tid`` is the slot number, so the viewer's rows reproduce the
    engine's slot occupancy exactly — a visual parallel profile.
    """
    args: dict[str, Any] = {"seq": seq, "attempt": attempt, "state": state}
    if exit_code is not None:
        args["exit_code"] = exit_code
    if retried:
        args["retried"] = True
    if command:
        args["command"] = command[:_CMD_LIMIT]
    return {
        "ph": "X",
        "name": f"job {seq}" if attempt <= 1 else f"job {seq} (attempt {attempt})",
        "cat": "job",
        "pid": pid,
        "tid": slot,
        "ts": _us(start),
        "dur": max(0.0, _us(end) - _us(start)),
        "args": args,
    }


class ChromeTraceSink:
    """Accumulates trace events; writes one JSON object file on close."""

    #: Event kinds this sink consumes — the bus skips (and the tracer
    #: never constructs) everything else on the per-job hot path.
    kinds = frozenset({
        EventKind.FINISHED, EventKind.RETRY_QUEUED, EventKind.METRICS,
        EventKind.INSTANT, EventKind.SPAN, EventKind.RUN_META,
        EventKind.RUN_END,
    })

    def __init__(self, path: str, pid: int = 0, node: str = ""):
        self.path = path
        self.pid = pid
        self._events: list[dict[str, Any]] = [
            process_name_event(pid, f"pyparallel {node}".strip())
        ]
        self._lock = threading.Lock()
        self._meta: dict[str, Any] = {}
        self._closed = False

    def handle(self, event: Event) -> None:
        out = self._translate(event)
        if out is not None:
            with self._lock:
                self._events.append(out)

    def _translate(self, event: Event) -> Optional[dict[str, Any]]:
        kind = event.kind
        if kind in (EventKind.FINISHED, EventKind.RETRY_QUEUED):
            data = event.data or {}
            start = data.get("start")
            end = data.get("end")
            if start is None or end is None:
                return None
            return attempt_trace_event(
                self.pid,
                event.seq,
                event.attempt,
                event.slot,
                start,
                end,
                state=data.get("state", ""),
                exit_code=data.get("exit_code"),
                command=data.get("command", ""),
                retried=kind == EventKind.RETRY_QUEUED,
            )
        if kind == EventKind.METRICS:
            return {
                "ph": "C",
                "name": "engine",
                "cat": "metrics",
                "pid": self.pid,
                "tid": 0,
                "ts": _us(event.ts),
                "args": {
                    k: v
                    for k, v in (event.data or {}).items()
                    if isinstance(v, (int, float)) and k != "ts"
                },
            }
        if kind == EventKind.SPAN:
            data = dict(event.data or {})
            dur = data.pop("dur", 0.0)
            return {
                "ph": "X",
                "name": event.name,
                # Emitters tag their own category (staging spans filter as
                # their own lane in the viewer); backend is the default.
                "cat": str(data.pop("cat", "backend")),
                "pid": self.pid,
                "tid": event.slot,
                "ts": _us(event.ts),
                "dur": max(0.0, _us(dur) if dur else 0.0),
                "args": {"seq": event.seq, **data},
            }
        if kind == EventKind.INSTANT:
            data = dict(event.data or {})
            return {
                "ph": "i",
                "name": event.name,
                "cat": str(data.pop("cat", "backend")),
                "pid": self.pid,
                "tid": event.slot,
                "ts": _us(event.ts),
                "s": "t" if event.slot else "p",
                "args": {"seq": event.seq, **data},
            }
        if kind == EventKind.RUN_META:
            with self._lock:
                self._meta.update(event.data or {})
            return None
        if kind == EventKind.RUN_END:
            # Run totals (incl. the staging block) ride in otherData so a
            # trace-only consumer sees them without the metrics sink.
            with self._lock:
                self._meta.update(event.data or {})
            return None
        return None  # lifecycle events are folded into the X span

    def flush(self) -> None:
        """Write the trace file (idempotent; also called by close)."""
        with self._lock:
            doc = {
                "traceEvents": list(self._events),
                "displayTimeUnit": "ms",
                "otherData": dict(self._meta),
            }
        with open(self.path, "w", encoding="utf-8") as fh:
            # dumps-then-write takes json's C encoder fast path; dump()
            # streams through the pure-Python encoder and is ~5x slower
            # on large traces, which lands in the run's wall time.
            fh.write(json.dumps(doc))
            fh.write("\n")

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.flush()


class MetricsJsonlSink:
    """Newline-JSON metrics log: one object per sample (plus run brackets).

    Lines are buffered and written on flush/close; a metrics log is a
    per-interval artifact, so buffering costs at most one interval of
    history on a crash.
    """

    kinds = frozenset({
        EventKind.METRICS, EventKind.RUN_META, EventKind.RUN_END,
    })

    def __init__(self, path: str, node: str = ""):
        self.path = path
        self.node = node
        self._lines: list[str] = []
        self._lock = threading.Lock()
        self._closed = False

    def handle(self, event: Event) -> None:
        if event.kind == EventKind.METRICS:
            record = dict(event.data or {})
            record["kind"] = "sample"
        elif event.kind in (EventKind.RUN_META, EventKind.RUN_END):
            record = {"kind": event.kind, "ts": event.ts, **(event.data or {})}
        else:
            return
        if self.node and "node" not in record:
            record["node"] = self.node
        with self._lock:
            self._lines.append(json.dumps(record, sort_keys=True))

    def flush(self) -> None:
        with self._lock:
            lines, self._lines = self._lines, []
        if lines:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.flush()
