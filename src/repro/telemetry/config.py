"""Telemetry wiring: one config dataclass, one facade object.

:class:`TelemetryConfig` is what user-facing configs embed (see
``CampaignConfig.telemetry``); :func:`build_telemetry` turns it into a
live :class:`Telemetry` facade bound to a virtual clock.  The disabled
default resolves to the shared :data:`NULL_TELEMETRY`, whose tracer and
metrics are no-ops — so every layer can hold a telemetry reference
unconditionally and the tier-1 fast path never pays for observability
it didn't ask for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.telemetry.metrics import NULL_METRICS, MetricsRegistry
from repro.telemetry.tracer import (
    NULL_TRACER,
    JSONLSink,
    NullSink,
    RingBufferSink,
    Tracer,
)


@dataclass
class TelemetryConfig:
    """Tunables for one campaign's observability.  The memory sink's
    depth and the reporter's cadence are constants
    (:data:`repro.telemetry.tracer.RING_CAPACITY`,
    :data:`repro.telemetry.reporter.REPORT_INTERVAL_NS`)."""

    enabled: bool = False
    sink: str = "null"                  # "null" | "memory" | "jsonl"
    jsonl_path: str | None = None       # required when sink == "jsonl"
    profile_vm: bool = False            # per-opcode / per-libc-call counts
    report_dir: str | None = None       # where fuzzer_stats/plot_data land


class Telemetry:
    """Facade bundling the metrics registry and the tracer."""

    def __init__(self, metrics: MetricsRegistry, tracer: Tracer,
                 config: TelemetryConfig):
        self.metrics = metrics
        self.tracer = tracer
        self.config = config

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def flush(self) -> None:
        self.tracer.flush()

    def close(self) -> None:
        self.tracer.close()


NULL_TELEMETRY = Telemetry(NULL_METRICS, NULL_TRACER, TelemetryConfig())


class WallClock:
    """Monotonic wall-clock with the virtual clock's ``now_ns`` shape.

    Campaigns are virtual-clock-native, but the serving layer
    (``repro.service``) is a wall-clock entity — its trace events
    (job accepted, worker respawned, drain started) happen in real
    time, across many independent virtual timelines.  This shim lets
    the service reuse the same :class:`Telemetry` stack by quacking
    like a kernel clock.
    """

    @property
    def now_ns(self) -> int:
        return time.monotonic_ns()


def build_telemetry(config: TelemetryConfig | None, clock=None) -> Telemetry:
    """Materialise a telemetry stack for *config* (shared null when off)."""
    if config is None or not config.enabled:
        return NULL_TELEMETRY
    if config.sink == "jsonl":
        if config.jsonl_path is None:
            raise ValueError("sink='jsonl' requires jsonl_path")
        sink = JSONLSink(config.jsonl_path)
    elif config.sink == "memory":
        sink = RingBufferSink()
    elif config.sink == "null":
        sink = NullSink()
    else:
        raise ValueError(f"unknown trace sink {config.sink!r}")
    return Telemetry(MetricsRegistry(), Tracer(clock, sink), config)
