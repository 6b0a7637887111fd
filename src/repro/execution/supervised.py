"""Supervised execution: self-healing wrapper around any mechanism.

Production fuzzing platforms never let an infrastructure hiccup kill a
campaign: FuzzBench's runner restarts wedged fuzzers, AFL++ respawns a
forkserver whose pipes collapse, OSS-Fuzz quarantines inputs that keep
killing the harness.  :class:`SupervisedExecutor` brings that table
stake here.  It wraps one of the four mechanisms and layers on:

- **health-checked retry** with capped exponential backoff, charged in
  *virtual* nanoseconds to the shared clock — so recovery costs real
  budget yet stays fully deterministic;
- **respawn-on-fault**: a transient infrastructure failure (spawn/fork
  EAGAIN, pipe drop, malloc squeeze, corpus I/O error, coverage-shm
  corruption) voids the attempt — never counted as an exec — and the
  wrapped executor is rebuilt before the input is retried;
- **wedge detection**: an injected hang (instruction-budget wedge) is
  killed and retried like AFL's timeout watchdog;
- **per-input quarantine**: an input that repeatedly kills the executor
  stops being executed and replays its last observed result;
- **graceful degradation**: a ClosureX executor whose state restoration
  fails :data:`RESTORE_ESCALATION_THRESHOLD` consecutive times escalates
  to a full respawn, and after :data:`DEGRADE_AFTER_ESCALATIONS`
  escalations falls back to a forkserver-mode executor built by the
  caller's ``fallback_factory``.

Stats correctness: ``SupervisedExecutor.stats`` observes only the final
result of each *logical* test case, so a retried execution is never
double-counted toward ``execs`` or execs/sec — the Table 5 invariant
the chaos regression tests pin down.  The wrapped executor's own stats
keep counting raw attempts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.faults import InjectedFault
from repro.chaos.plan import FaultInjector
from repro.execution.common import ExecResult, Executor, input_key
from repro.integrity.faults import IntegrityFault
from repro.runtime.harness import IterationStatus
from repro.sim_os.pipes import PipeBroken
from repro.telemetry import Telemetry
from repro.vm.interpreter import CoverageMap

#: Exception types the supervisor treats as recoverable infrastructure
#: failures.  Everything else (VMTrap, ProcessExit, ...) is target
#: behaviour and passes through untouched.  IntegrityFault carries
#: ``site="restore"``, so an unrepairable restore leak detected by the
#: integrity sentinel rides the same escalation ladder as an injected
#: restore failure.
RECOVERABLE_FAULTS = (InjectedFault, PipeBroken, IntegrityFault)


#: Faults tolerated per test case (boot retries; a run gives up after
#: twice this many voided attempts).
MAX_RETRIES = 4
#: First retry backoff, virtual ns; doubles per attempt up to the cap.
BACKOFF_BASE_NS = 50_000
BACKOFF_CAP_NS = 2_000_000
#: Executor kills (hangs) of one input before it is quarantined.
MAX_KILLS_PER_INPUT = 3
#: Consecutive restore faults before a full respawn.
RESTORE_ESCALATION_THRESHOLD = 3
#: Escalations before falling back to the forkserver executor.
DEGRADE_AFTER_ESCALATIONS = 2
#: Budget an injected wedge leaves the target (must starve even the
#: smallest simulated target, which runs in a few dozen instructions).
WEDGE_INSTRUCTION_LIMIT = 16


@dataclass
class SupervisionStats:
    """What the supervisor did over the campaign."""

    recoveries: int = 0
    retries: int = 0
    backoff_ns: int = 0
    respawns: int = 0
    escalations: int = 0
    degradations: int = 0
    quarantined_inputs: int = 0
    quarantine_hits: int = 0
    gave_up: int = 0
    recovered_by_site: dict[str, int] = field(default_factory=dict)


@dataclass
class QuarantineRecord:
    """One input barred from further execution."""

    data: bytes
    result: ExecResult
    reason: str
    at_ns: int
    kills: int


class SupervisedExecutor(Executor):
    """Self-healing wrapper presenting the plain Executor interface.

    The retry, quarantine and degradation ladder is fixed by this
    module's constants (:data:`MAX_RETRIES` and the rest)."""

    def __init__(
        self,
        inner: Executor,
        injector: FaultInjector | None = None,
        fallback_factory=None,
    ):
        # inner must exist before Executor.__init__ runs: the base
        # constructor assigns exec_instruction_limit, whose property
        # setter below forwards to the wrapped executor.
        self.inner = inner
        super().__init__(inner.kernel)
        self.injector = injector
        self.fallback_factory = fallback_factory
        self.supervision = SupervisionStats()
        self.quarantine: dict[str, QuarantineRecord] = {}
        self._hang_kills: dict[str, int] = {}
        self._consecutive_restore_faults = 0
        self._degraded = False
        if injector is not None:
            inner.attach_faults(injector)
            self.faults = injector
            injector.attach(injector.telemetry, self.kernel.clock)

    # -- interface delegation -------------------------------------------

    @property
    def mechanism(self) -> str:  # type: ignore[override]
        return self.inner.mechanism

    @property
    def sentinel(self):
        """The wrapped executor's sentinel (None after a degrade)."""
        return getattr(self.inner, "sentinel", None)

    @property
    def module(self):
        """The wrapped executor's MiniIR module."""
        return getattr(self.inner, "module", None)

    @property
    def exec_instruction_limit(self) -> int:  # type: ignore[override]
        return self.inner.exec_instruction_limit

    @exec_instruction_limit.setter
    def exec_instruction_limit(self, value: int) -> None:
        self.inner.exec_instruction_limit = value

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        super().attach_telemetry(telemetry)
        self.inner.attach_telemetry(telemetry)
        if self.injector is not None:
            self.injector.attach(telemetry, self.kernel.clock)

    def attach_faults(self, faults) -> None:
        super().attach_faults(faults)
        self.inner.attach_faults(faults)

    def attach_cmp_observer(self, observer) -> None:
        super().attach_cmp_observer(observer)
        self.inner.attach_cmp_observer(observer)

    def shutdown(self) -> None:
        self.inner.shutdown()

    # -- lifecycle ------------------------------------------------------

    def boot(self) -> None:
        """Boot the wrapped executor, retrying transient boot faults."""
        attempt = 0
        while True:
            try:
                self.inner.boot()
                return
            except RECOVERABLE_FAULTS as fault:
                attempt += 1
                self._note_recovery(fault, attempt)
                if attempt > MAX_RETRIES:
                    raise
                self._charge_backoff(attempt)

    def healthy(self) -> bool:
        """Cheap liveness probe of the wrapped executor (the supervised
        analogue of AFL's 'is the forkserver still answering?')."""
        inner = self.inner
        channel = getattr(inner, "channel", None)
        if channel is not None and not channel.established:
            return False
        harness = getattr(inner, "harness", None)
        if harness is not None and harness.vm is None:
            return False
        return True

    # -- the supervised run loop ----------------------------------------

    def run(self, data: bytes) -> ExecResult:
        key = input_key(data)
        record = self.quarantine.get(key)
        if record is not None:
            self.supervision.quarantine_hits += 1
            self.stats.observe(record.result)
            return record.result

        start_ns = self.clock.now_ns
        attempts = 0
        wedged = self.injector is not None and \
            self.injector.poll("wedge") is not None
        while True:
            if attempts > 2 * MAX_RETRIES:
                return self._give_up(key, data, start_ns)
            saved_limit = self.inner.exec_instruction_limit
            try:
                if wedged:
                    # The injected wedge starves the target of its
                    # instruction budget — the watchdog will see a hang.
                    self.inner.exec_instruction_limit = \
                        WEDGE_INSTRUCTION_LIMIT
                result = self.inner.run(data)
            except RECOVERABLE_FAULTS as fault:
                attempts += 1
                self._note_recovery(fault, attempts)
                self._charge_backoff(attempts)
                self._handle_fault(fault)
                continue
            finally:
                self.inner.exec_instruction_limit = saved_limit

            if wedged and result.is_hang:
                # Wedge confirmed: the inner executor already killed and
                # respawned the target; void the attempt and retry.
                wedged = False
                attempts += 1
                kills = self._hang_kills.get(key, 0) + 1
                self._hang_kills[key] = kills
                self._note_recovery(
                    InjectedFault("wedge", "wedged", attempts), attempts
                )
                self._charge_backoff(attempts)
                if kills >= MAX_KILLS_PER_INPUT:
                    return self._quarantine(key, data, result, "wedge")
                continue
            wedged = False

            if self.injector is not None:
                shm_fault = self.injector.poll("shm")
                if shm_fault is not None:
                    # Corrupt the map the way a trashed shm segment
                    # would, then void the attempt and retry the input.
                    self._scramble_coverage(result.coverage)
                    attempts += 1
                    self._note_recovery(shm_fault, attempts)
                    self._charge_backoff(attempts)
                    continue

            if result.is_hang:
                kills = self._hang_kills.get(key, 0) + 1
                self._hang_kills[key] = kills
                if kills >= MAX_KILLS_PER_INPUT:
                    return self._quarantine(key, data, result, "hang")

            self._consecutive_restore_faults = 0
            self.stats.observe(result)
            return result

    # -- recovery internals ---------------------------------------------

    def _handle_fault(self, fault: Exception) -> None:
        """Decide how to heal after a recoverable fault."""
        site = getattr(fault, "site", "pipe")
        if site == "restore":
            self._consecutive_restore_faults += 1
            if (self._consecutive_restore_faults
                    >= RESTORE_ESCALATION_THRESHOLD):
                self._consecutive_restore_faults = 0
                self.supervision.escalations += 1
                if (self.supervision.escalations
                        >= DEGRADE_AFTER_ESCALATIONS
                        and self.fallback_factory is not None
                        and not self._degraded):
                    self._degrade()
                    return
                self._respawn_inner()
            # Below the threshold the harness retries restoration in
            # place (modelled as: the next run restores successfully).
            return
        # Any other infrastructure fault leaves the wrapped executor
        # suspect (half-booted server, mid-execution abort): rebuild it
        # before retrying so the retry runs from a clean state.
        self._respawn_inner()

    def _respawn_inner(self) -> None:
        self.supervision.respawns += 1
        try:
            self.inner.shutdown()
        except RECOVERABLE_FAULTS:
            pass
        self.boot()

    def _degrade(self) -> None:
        """Fall back to the caller-provided (forkserver) executor."""
        try:
            self.inner.shutdown()
        except RECOVERABLE_FAULTS:
            pass
        limit = self.inner.exec_instruction_limit
        replacement: Executor = self.fallback_factory()
        replacement.exec_instruction_limit = limit
        if self.telemetry.enabled:
            replacement.attach_telemetry(self.telemetry)
        if self.injector is not None:
            replacement.attach_faults(self.injector)
        if self.cmp_observer is not None:
            replacement.attach_cmp_observer(self.cmp_observer)
        self.inner = replacement
        self._degraded = True
        self.supervision.degradations += 1
        self.boot()
        if self.telemetry.enabled and self.telemetry.tracer.enabled:
            self.telemetry.tracer.event(
                "supervisor.degrade", mechanism=replacement.mechanism,
            )

    def _charge_backoff(self, attempt: int) -> None:
        """Capped exponential backoff, charged to the virtual clock."""
        backoff = min(BACKOFF_BASE_NS << (attempt - 1), BACKOFF_CAP_NS)
        self.kernel.charge(backoff)
        self.supervision.backoff_ns += backoff
        self.supervision.retries += 1

    def _note_recovery(self, fault: Exception, attempt: int) -> None:
        site = getattr(fault, "site", "pipe")
        stats = self.supervision
        stats.recoveries += 1
        stats.recovered_by_site[site] = stats.recovered_by_site.get(site, 0) + 1
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("supervisor.recoveries").inc()
            self.telemetry.metrics.counter(f"supervisor.recovered.{site}").inc()
            if self.telemetry.tracer.enabled:
                self.telemetry.tracer.event(
                    "supervisor.recover", site=site, attempt=attempt,
                    detail=getattr(fault, "detail", ""),
                )

    def _scramble_coverage(self, coverage: bytearray) -> None:
        """Deterministically trash a coverage buffer (shm corruption).
        Every cell it moves off 0 joins the map's cell list, so the
        map's readers see the damage."""
        cells = getattr(coverage, "cells", [])
        for index in range(0, len(coverage), 977):
            if not coverage[index]:
                cells.append(index)
            coverage[index] ^= 0xA5

    def _quarantine(self, key: str, data: bytes, result: ExecResult,
                    reason: str) -> ExecResult:
        self.quarantine[key] = QuarantineRecord(
            data=bytes(data), result=result, reason=reason,
            at_ns=self.clock.now_ns, kills=self._hang_kills.get(key, 0),
        )
        self.supervision.quarantined_inputs += 1
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("supervisor.quarantined").inc()
            if self.telemetry.tracer.enabled:
                self.telemetry.tracer.event(
                    "supervisor.quarantine", reason=reason, size=len(data),
                )
        self.stats.observe(result)
        return result

    def _give_up(self, key: str, data: bytes, start_ns: int) -> ExecResult:
        """Retry budget exhausted: quarantine the input and synthesize a
        hang-classified result so the campaign keeps moving."""
        self.supervision.gave_up += 1
        result = ExecResult(
            status=IterationStatus.HANG,
            return_code=None,
            trap=None,
            coverage=CoverageMap(),
            ns=self.clock.now_ns - start_ns,
            instructions=0,
        )
        return self._quarantine(key, data, result, "fault-exhaustion")

    # -- checkpoint support ---------------------------------------------

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state.update(
            supervision=self.supervision,
            quarantine=dict(self.quarantine),
            hang_kills=dict(self._hang_kills),
            consecutive_restore_faults=self._consecutive_restore_faults,
            degraded=self._degraded,
            inner=self.inner.snapshot_state(),
            injector=(
                self.injector.snapshot_state()
                if self.injector is not None else None
            ),
        )
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self.supervision = state["supervision"]
        self.quarantine = dict(state["quarantine"])
        self._hang_kills = dict(state["hang_kills"])
        self._consecutive_restore_faults = state["consecutive_restore_faults"]
        self._degraded = state["degraded"]
        self.inner.restore_state(state["inner"])
        if self.injector is not None and state["injector"] is not None:
            self.injector.restore_state(state["injector"])
