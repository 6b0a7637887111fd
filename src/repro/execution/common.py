"""Shared executor interfaces.

An *executor* is one point on the paper's execution-mechanism spectrum:
given raw test-case bytes, run the target once and report what
happened, charging every kernel and runtime cost to a shared virtual
clock.  All four mechanisms present the same interface so the fuzzer is
mechanism-agnostic — exactly how AFL++ treats its forkserver vs
persistent modes.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

from repro.runtime.harness import IterationStatus
from repro.sim_os.kernel import Kernel
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.vm.errors import VMTrap

#: Default per-test-case instruction budget (hang detection).
DEFAULT_EXEC_INSTRUCTION_LIMIT = 2_000_000


def classify_trap(trap: VMTrap | None) -> str:
    """Stable label for a trap kind (metrics / trace attributes)."""
    return trap.kind.name.lower() if trap is not None else "none"


def input_key(data: bytes) -> str:
    """The key one input goes by in the supervisor's quarantine and the
    integrity sentinel's ledger, so both layers name it identically."""
    return hashlib.sha1(data).hexdigest()[:16]


@dataclass
class ExecResult:
    """Outcome of executing one test case under some mechanism."""

    status: IterationStatus
    return_code: int | None
    trap: VMTrap | None
    coverage: bytearray            # this exec's CoverageMap: counts + cells
    ns: int                        # virtual time consumed, all-in
    instructions: int = 0

    @property
    def is_crash(self) -> bool:
        return self.status is IterationStatus.CRASH

    @property
    def is_hang(self) -> bool:
        return self.status is IterationStatus.HANG


@dataclass
class ExecutorStats:
    """Cumulative per-executor counters."""

    execs: int = 0
    crashes: int = 0
    hangs: int = 0
    clean_exits: int = 0
    normal_returns: int = 0
    respawns: int = 0
    total_ns: int = 0

    def observe(self, result: ExecResult) -> None:
        self.execs += 1
        self.total_ns += result.ns
        if result.status is IterationStatus.CRASH:
            self.crashes += 1
        elif result.status is IterationStatus.HANG:
            self.hangs += 1
        elif result.status is IterationStatus.OK:
            self.normal_returns += 1
        else:
            self.clean_exits += 1


class Executor:
    """Base class for the four execution mechanisms."""

    mechanism = "<abstract>"

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.stats = ExecutorStats()
        self.exec_instruction_limit = DEFAULT_EXEC_INSTRUCTION_LIMIT
        self.telemetry: Telemetry = NULL_TELEMETRY
        # Optional chaos injector (``faults.poll(site)``), shared with
        # the kernel and every VM this executor creates.
        self.faults = None
        # Cumulative profiling dicts, shared with every VM this executor
        # creates when profiling is enabled (see vm_counters()).
        self.opcode_counts: dict[str, int] = {}
        self.libc_counts: dict[str, int] = {}
        # Optional input-to-state compare tap
        # (:class:`repro.fuzzing.i2s.CmpObserver`), threaded into every
        # VM this executor creates; None keeps icmp/switch dispatch on
        # the uninstrumented path.
        self.cmp_observer = None

    @property
    def clock(self):
        return self.kernel.clock

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Adopt a campaign's telemetry stack (tracer shared with the
        kernel so process-lifecycle spans land in the same trace)."""
        self.telemetry = telemetry
        self.kernel.tracer = telemetry.tracer

    def attach_faults(self, faults) -> None:
        """Share one chaos injector with the kernel and future VMs."""
        self.faults = faults
        self.kernel.faults = faults

    def attach_cmp_observer(self, observer) -> None:
        """Share one compare-operand tap with every future VM.

        Must be attached before :meth:`boot` so persistent mechanisms
        bake it into their resident VM; respawned VMs re-read it from
        :meth:`vm_kwargs` automatically.
        """
        self.cmp_observer = observer

    def vm_kwargs(self) -> dict:
        """Keyword arguments every VM this executor builds should get:
        the profiling dicts (when enabled), the chaos hook, and the
        compare tap."""
        kwargs = self.vm_counters()
        if self.faults is not None:
            kwargs["faults"] = self.faults
        if self.cmp_observer is not None:
            kwargs["cmp_observer"] = self.cmp_observer
        return kwargs

    # -- checkpoint support ---------------------------------------------

    def snapshot_state(self) -> dict:
        """Checkpointable executor state.  Process-level state (booted
        VMs, harnesses) is deliberately excluded: a resumed executor
        re-boots, which is semantically identical for every correct
        mechanism because each test case starts from a fresh state."""
        return {
            "stats": dataclasses.replace(self.stats),
            "exec_instruction_limit": self.exec_instruction_limit,
        }

    def restore_state(self, state: dict) -> None:
        self.stats = dataclasses.replace(state["stats"])
        self.exec_instruction_limit = state["exec_instruction_limit"]

    def vm_counters(self) -> dict:
        """Keyword arguments threading the profiling dicts into a VM
        (empty — the zero-overhead path — unless profiling is on)."""
        if self.telemetry.enabled and self.telemetry.config.profile_vm:
            return {
                "opcode_counts": self.opcode_counts,
                "libc_counts": self.libc_counts,
            }
        return {}

    def finish_exec(
        self,
        *,
        status: IterationStatus,
        return_code: int | None,
        trap: VMTrap | None,
        coverage: bytearray,
        start_ns: int,
        instructions: int,
        **extra_attrs,
    ) -> ExecResult:
        """Common per-exec epilogue for all mechanisms: build the
        :class:`ExecResult`, update :class:`ExecutorStats`, and emit
        the telemetry exec span / metrics."""
        result = ExecResult(
            status=status,
            return_code=return_code,
            trap=trap,
            coverage=coverage,
            ns=self.clock.now_ns - start_ns,
            instructions=instructions,
        )
        self.stats.observe(result)
        telemetry = self.telemetry
        if telemetry.enabled:
            metrics = telemetry.metrics
            metrics.counter("exec.total").inc()
            metrics.counter(f"exec.status.{status.value}").inc()
            if trap is not None:
                metrics.counter(f"exec.trap.{classify_trap(trap)}").inc()
            metrics.histogram("exec.instructions").observe(instructions)
            metrics.histogram("exec.ns").observe(result.ns)
            tracer = telemetry.tracer
            if tracer.enabled:
                tracer.span_at(
                    "exec", start_ns, self.clock.now_ns,
                    mechanism=self.mechanism,
                    status=status.value,
                    trap=classify_trap(trap),
                    instructions=instructions,
                    **extra_attrs,
                )
        return result

    def boot(self) -> None:
        """One-time setup before the first test case (may be a no-op)."""

    def run(self, data: bytes) -> ExecResult:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Tear down any live process state."""
