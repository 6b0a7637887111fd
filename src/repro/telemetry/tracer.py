"""Structured event tracer stamped in *virtual* nanoseconds.

Everything in this repo runs against :class:`~repro.sim_os.kernel.
VirtualClock`, so wall time is meaningless for ordering or attributing
work — a fresh-process spawn "takes" hundreds of microseconds of
simulated time in a few real microseconds.  The tracer therefore stamps
every event with the clock's ``now_ns``, which makes traces exactly
reproducible across machines and directly comparable with the
campaign's virtual-time budget.

Sinks are pluggable:

- :class:`NullSink` — the zero-overhead default; nothing is recorded.
- :class:`RingBufferSink` — last-N events in memory, for tests and the
  status UI.
- :class:`JSONLSink` — one JSON object per line, the interchange format
  FuzzBench-style offline analysis expects.

The module-level :data:`NULL_TRACER` is shared by every component whose
telemetry was never enabled; hot paths guard emission with
``tracer.enabled`` so the disabled cost is one attribute read.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field


@dataclass
class TraceEvent:
    """One span or point event on the virtual timeline."""

    name: str
    ns: int                     # virtual timestamp (span start for spans)
    kind: str = "event"         # "event" | "span"
    dur_ns: int = 0             # span duration (0 for point events)
    attrs: dict = field(default_factory=dict)

    def to_json(self) -> str:
        record = {"name": self.name, "ns": self.ns, "kind": self.kind}
        if self.kind == "span":
            record["dur_ns"] = self.dur_ns
        if self.attrs:
            record["attrs"] = self.attrs
        return json.dumps(record, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        record = json.loads(line)
        return cls(
            name=record["name"],
            ns=record["ns"],
            kind=record.get("kind", "event"),
            dur_ns=record.get("dur_ns", 0),
            attrs=record.get("attrs", {}),
        )


class NullSink:
    """Drops everything; the default when tracing is disabled."""

    def emit(self, event: TraceEvent) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


#: Events a :class:`RingBufferSink` keeps (the ``memory`` sink's depth).
RING_CAPACITY = 65536


class RingBufferSink(NullSink):
    """Keeps the most recent :data:`RING_CAPACITY` events in memory."""

    def __init__(self):
        self.events: deque[TraceEvent] = deque(maxlen=RING_CAPACITY)
        self.emitted = 0

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)
        self.emitted += 1


class JSONLSink(NullSink):
    """Appends one JSON object per event to *path*."""

    def __init__(self, path: str):
        self.path = path
        self.emitted = 0
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._file = open(path, "w", encoding="utf-8")

    def emit(self, event: TraceEvent) -> None:
        self._file.write(event.to_json() + "\n")
        self.emitted += 1

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


def read_jsonl(path: str) -> list[TraceEvent]:
    """Load a JSONL trace back into events (offline analysis helper)."""
    with open(path, encoding="utf-8") as handle:
        return [TraceEvent.from_json(line) for line in handle if line.strip()]


class _ZeroClock:
    """Stand-in clock for tracers used outside a simulated kernel
    (e.g. compile-time pass timing, where only wall attrs matter)."""

    now_ns = 0


class _Span:
    """Reusable context manager emitting a span on exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        self._start_ns = self._tracer.clock.now_ns
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.span_at(
            self._name, self._start_ns, self._tracer.clock.now_ns,
            **self._attrs,
        )


class Tracer:
    """Emits virtual-time-stamped events into one sink."""

    enabled = True

    def __init__(self, clock=None, sink: NullSink | None = None):
        self.clock = clock if clock is not None else _ZeroClock()
        self.sink = sink if sink is not None else RingBufferSink()

    def event(self, name: str, **attrs) -> None:
        self.sink.emit(TraceEvent(name, self.clock.now_ns, "event", 0, attrs))

    def span_at(self, name: str, start_ns: int, end_ns: int, **attrs) -> None:
        self.sink.emit(
            TraceEvent(name, start_ns, "span", end_ns - start_ns, attrs)
        )

    def span(self, name: str, **attrs) -> _Span:
        """``with tracer.span("stage.trim", entry=3): ...`` — start/end
        stamped from the virtual clock."""
        return _Span(self, name, attrs)

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        self.sink.close()


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


_NULL_SPAN = _NullSpan()


class _NullTracer(Tracer):
    """Disabled tracer: every operation is a no-op."""

    enabled = False

    def __init__(self):
        super().__init__(_ZeroClock(), NullSink())

    def event(self, name: str, **attrs) -> None:
        pass

    def span_at(self, name: str, start_ns: int, end_ns: int, **attrs) -> None:
        pass

    def span(self, name: str, **attrs):
        return _NULL_SPAN


NULL_TRACER = _NullTracer()
