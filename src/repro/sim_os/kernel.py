"""Simulated kernel: virtual clock, process table, fork/spawn accounting.

The executors (``repro.execution``) drive all process lifecycle events
through this layer so that every mechanism's overhead lands on the same
virtual clock.  The kernel does not *run* anything — MiniVM instances
do — it owns time and process bookkeeping:

- :class:`VirtualClock` accumulates virtual nanoseconds.
- :class:`Kernel` charges the cost model for spawn / fork / copy-on-write /
  teardown and keeps per-mechanism statistics the experiments report.

Process lifecycle events are additionally mirrored to a telemetry
tracer (``kernel.spawn`` / ``kernel.fork`` / ``kernel.teardown`` spans
covering exactly the virtual ns the operation was charged); the default
tracer is the shared null tracer, so an unobserved kernel pays one
attribute read per lifecycle event.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from repro.sim_os.costs import DEFAULT_COSTS, CostModel
from repro.telemetry.tracer import NULL_TRACER, Tracer


class VirtualClock:
    """Monotonic virtual time in nanoseconds."""

    def __init__(self) -> None:
        self.now_ns = 0

    def advance(self, ns: int) -> None:
        if ns < 0:
            raise ValueError("time cannot go backwards")
        self.now_ns += ns

    @property
    def now_seconds(self) -> float:
        return self.now_ns / 1e9

    def __repr__(self) -> str:
        return f"<VirtualClock {self.now_ns} ns>"


class ProcessState(enum.Enum):
    """Lifecycle states of a simulated process."""

    RUNNING = "running"
    EXITED = "exited"
    CRASHED = "crashed"


@dataclass
class ProcessRecord:
    """One simulated process's lifecycle entry."""

    pid: int
    parent_pid: int | None
    image: str
    state: ProcessState = ProcessState.RUNNING
    exit_code: int | None = None
    spawned_at_ns: int = 0
    ended_at_ns: int | None = None


@dataclass
class KernelStats:
    """Cumulative kernel-operation counters."""

    spawns: int = 0
    forks: int = 0
    teardowns: int = 0
    failed_spawns: int = 0
    failed_forks: int = 0
    spawn_ns: int = 0
    fork_ns: int = 0
    cow_ns: int = 0
    teardown_ns: int = 0

    def process_management_ns(self) -> int:
        return self.spawn_ns + self.fork_ns + self.cow_ns + self.teardown_ns


class Kernel:
    """Process lifecycle + time accounting for one simulated machine.

    A kernel starts on its own clock at 0 ns, with the null tracer and
    no fault injector; an executor's ``attach_telemetry`` and
    ``attach_faults`` set ``tracer`` and ``faults``.
    """

    def __init__(self, costs: CostModel | None = None):
        self.costs = costs if costs is not None else DEFAULT_COSTS
        self.clock = VirtualClock()
        self.tracer: Tracer = NULL_TRACER
        # Optional chaos hook (duck-typed: ``faults.poll(site)`` returns
        # an exception instance to raise, or None).  The kernel never
        # imports repro.chaos — the injection plane stays above it.
        self.faults = None
        self.stats = KernelStats()
        # Running processes only: reaping one drops its record.
        self.processes: dict[int, ProcessRecord] = {}
        self._pids = itertools.count(1000)

    def _poll_fault(self, site: str):
        if self.faults is not None:
            return self.faults.poll(site)
        return None

    # -- lifecycle ------------------------------------------------------

    def spawn(self, image: str, image_bytes: int,
              parent_pid: int | None = None) -> ProcessRecord:
        """fork+exec a fresh process: the slowest mechanism's unit cost."""
        cost = self.costs.spawn_cost(image_bytes)
        fault = self._poll_fault("spawn")
        if fault is not None:
            # A transient EAGAIN still burns the attempt's time.
            self.clock.advance(cost)
            self.stats.failed_spawns += 1
            self.stats.spawn_ns += cost
            raise fault
        self.clock.advance(cost)
        self.stats.spawns += 1
        self.stats.spawn_ns += cost
        record = self._register(image, parent_pid)
        if self.tracer.enabled:
            self.tracer.span_at(
                "kernel.spawn", self.clock.now_ns - cost, self.clock.now_ns,
                pid=record.pid, image=image,
            )
        return record

    def fork(self, parent: ProcessRecord, footprint_bytes: int) -> ProcessRecord:
        """fork() from a forkserver parent; cost scales with its footprint."""
        cost = self.costs.fork_cost(footprint_bytes)
        fault = self._poll_fault("fork")
        if fault is not None:
            self.clock.advance(cost)
            self.stats.failed_forks += 1
            self.stats.fork_ns += cost
            raise fault
        self.clock.advance(cost)
        self.stats.forks += 1
        self.stats.fork_ns += cost
        record = self._register(parent.image, parent.pid)
        if self.tracer.enabled:
            self.tracer.span_at(
                "kernel.fork", self.clock.now_ns - cost, self.clock.now_ns,
                pid=record.pid, parent_pid=parent.pid,
            )
        return record

    def charge_cow(self, bytes_written: int) -> None:
        """Copy-on-write page copies triggered by a forked child's writes."""
        cost = self.costs.cow_cost(bytes_written)
        self.clock.advance(cost)
        self.stats.cow_ns += cost

    def reap(self, process: ProcessRecord, exit_code: int | None,
             crashed: bool = False, fresh: bool = False) -> None:
        """Tear a process down and account its exit."""
        cost = self.costs.teardown_fresh_ns if fresh else self.costs.teardown_child_ns
        self.clock.advance(cost)
        self.stats.teardowns += 1
        self.stats.teardown_ns += cost
        process.state = ProcessState.CRASHED if crashed else ProcessState.EXITED
        process.exit_code = exit_code
        process.ended_at_ns = self.clock.now_ns
        self.processes.pop(process.pid, None)
        if self.tracer.enabled:
            self.tracer.span_at(
                "kernel.teardown", self.clock.now_ns - cost, self.clock.now_ns,
                pid=process.pid, crashed=crashed, fresh=fresh,
            )

    def _register(self, image: str, parent_pid: int | None) -> ProcessRecord:
        record = ProcessRecord(
            pid=next(self._pids),
            parent_pid=parent_pid,
            image=image,
            spawned_at_ns=self.clock.now_ns,
        )
        self.processes[record.pid] = record
        return record

    # -- misc charging ----------------------------------------------------

    def charge_dispatch(self) -> None:
        """Per-test-case fuzzer<->target plumbing (all mechanisms)."""
        self.clock.advance(self.costs.dispatch_ns)

    def charge(self, ns: int) -> None:
        self.clock.advance(ns)

    def live_process_count(self) -> int:
        return len(self.processes)
