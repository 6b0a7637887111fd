"""IntegritySentinel: detect → attribute → repair → escalate.

The sentinel wires the restore oracle, fresh-process shadow replays
(:func:`repro.runtime.replay.replay`), and the ledger into the ClosureX
executor's exec loop:

1. **detect** — after every ``digest_every``-th restore, digest the
   four state dimensions and diff against the pristine baseline.
2. **attribute** — a differing dimension *is* the attribution; the
   ledger records it against the input that was executing, and any
   dimension static analysis had proven clean becomes a loud
   ``analysis.contradiction`` (one of the two provers is wrong — a VM
   bug or an analysis bug — which a correctness-critical system must
   surface, not average away).
3. **repair** — re-run exactly the leaking dimensions' restore sweeps
   in place (:meth:`ClosureXHarness.repair_dimensions`) and re-check.
4. **escalate** — if the recheck still fails, or a shadow replay shows
   the persistent run diverging from fresh-process ground truth in
   status, return code, crash identity, coverage, output or the files
   the exec wrote, raise :class:`IntegrityFault`: the executor respawns
   its process and the supervised ladder voids the exec, retries, and
   can ultimately degrade to forkserver mode.  Divergent inputs are quarantined with
   their ground-truth result so the retry (and any resumed campaign)
   replays the correct answer instead of re-executing them.

Every digest, repair, and shadow replay is charged to the shared
virtual clock — enabling the sentinel costs budget, never determinism.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.execution.common import ExecResult
from repro.integrity.faults import IntegrityFault
from repro.integrity.ledger import LeakEvent, LeakLedger
from repro.integrity.oracle import IntegrityVerdict, RestoreOracle
from repro.runtime.replay import Observation, replay

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.execution.closurex import ClosureXExecutor
    from repro.runtime.harness import IterationResult


def _input_key(data: bytes) -> str:
    # Same key scheme as the supervisor's quarantine, so diagnostics
    # from both layers name the same input identically.
    return hashlib.sha1(data).hexdigest()[:16]


@dataclass
class EscalationPolicy:
    """Cadence and escalation knobs of the sentinel."""

    digest_every: int = 1         # oracle check every Nth exec (0 = off)
    shadow_every: int = 64        # fresh-VM differential every Nth (0 = off)
    max_repair_attempts: int = 1  # in-place repairs before escalating
    quarantine_divergent: bool = True


@dataclass
class SentinelStats:
    """Cumulative sentinel counters (also surfaced as metrics)."""

    baselines: int = 0
    checks: int = 0
    leaks: int = 0
    repairs: int = 0
    repair_failures: int = 0
    escalations: int = 0
    shadow_runs: int = 0
    divergences: int = 0
    contradictions: int = 0
    quarantine_hits: int = 0
    digest_ns: int = 0
    repair_ns: int = 0
    shadow_ns: int = 0

    @property
    def overhead_ns(self) -> int:
        return self.digest_ns + self.repair_ns + self.shadow_ns


class IntegritySentinel:
    """Runtime state-integrity verification for one ClosureX executor."""

    def __init__(
        self,
        policy: EscalationPolicy | None = None,
        bundle_path: str | None = None,
    ):
        self.policy = policy if policy is not None else EscalationPolicy()
        self.ledger = LeakLedger(bundle_path)
        self.oracle = RestoreOracle()
        self.stats = SentinelStats()
        self.exec_index = 0

    # -- executor hooks -------------------------------------------------

    def on_boot(self, executor: "ClosureXExecutor") -> None:
        """(Re)capture the pristine baseline after a harness (re)boot."""
        assert executor.harness is not None
        cost_ns = self.oracle.capture_baseline(executor.harness)
        executor.kernel.charge(cost_ns)
        self.stats.baselines += 1
        self.stats.digest_ns += cost_ns
        telemetry = executor.telemetry
        if telemetry.enabled:
            telemetry.metrics.counter("integrity.baselines").inc()

    def check_quarantine(
        self, executor: "ClosureXExecutor", data: bytes,
    ) -> ExecResult | None:
        """Ground-truth replay for inputs quarantined by divergence."""
        record = self.ledger.quarantine.get(_input_key(data))
        if record is None:
            return None
        self.stats.quarantine_hits += 1
        telemetry = executor.telemetry
        if telemetry.enabled:
            telemetry.metrics.counter("integrity.quarantine_hits").inc()
        return record.result

    def after_exec(
        self,
        executor: "ClosureXExecutor",
        data: bytes,
        iteration: "IterationResult",
    ) -> None:
        """Post-restore verification; raises :class:`IntegrityFault`
        when the persistent process cannot be healed in place."""
        self.exec_index += 1
        policy = self.policy
        if policy.digest_every and self.exec_index % policy.digest_every == 0:
            verdict = self._oracle_check(executor)
            if not verdict.clean:
                self._handle_leak(executor, _input_key(data), verdict)
        if policy.shadow_every and self.exec_index % policy.shadow_every == 0:
            self._shadow_check(executor, data, iteration)

    # -- oracle path ----------------------------------------------------

    def _oracle_check(self, executor: "ClosureXExecutor") -> IntegrityVerdict:
        assert executor.harness is not None
        verdict = self.oracle.check(executor.harness)
        executor.kernel.charge(verdict.cost_ns)
        self.stats.checks += 1
        self.stats.digest_ns += verdict.cost_ns
        if executor.telemetry.enabled:
            executor.telemetry.metrics.counter("integrity.checks").inc()
        return verdict

    def _handle_leak(
        self,
        executor: "ClosureXExecutor",
        input_sha: str,
        verdict: IntegrityVerdict,
    ) -> None:
        assert executor.harness is not None
        harness = executor.harness
        dimensions = verdict.leaked_dimensions
        telemetry = executor.telemetry
        self.stats.leaks += 1
        if telemetry.enabled:
            telemetry.metrics.counter("integrity.leaks").inc()
            for dimension in dimensions:
                telemetry.metrics.counter(
                    f"integrity.leak.{dimension}"
                ).inc()
            if telemetry.tracer.enabled:
                telemetry.tracer.event(
                    "integrity.leak",
                    dimensions=",".join(dimensions),
                    exec_index=self.exec_index,
                    digest=verdict.digest.describe(),
                )

        detail = f"restore leak in {','.join(dimensions)}"
        contradictions = self._contradictions(executor, dimensions)
        if contradictions:
            detail += (
                f" [contradiction: static analysis proved "
                f"{','.join(contradictions)} clean — VM bug or analysis bug]"
            )

        repaired = False
        for _attempt in range(self.policy.max_repair_attempts):
            repair_ns = harness.repair_dimensions(dimensions)
            executor.kernel.charge(repair_ns)
            self.stats.repairs += 1
            self.stats.repair_ns += repair_ns
            if telemetry.enabled:
                telemetry.metrics.counter("integrity.repairs").inc()
            recheck = self._oracle_check(executor)
            if recheck.clean:
                repaired = True
                if telemetry.enabled and telemetry.tracer.enabled:
                    telemetry.tracer.event(
                        "integrity.repair",
                        dimensions=",".join(dimensions),
                        cost_ns=repair_ns,
                    )
                break

        self.ledger.record(LeakEvent(
            exec_index=self.exec_index,
            at_ns=executor.clock.now_ns,
            source="oracle",
            dimensions=dimensions,
            input_sha=input_sha,
            detail=detail,
            repaired=repaired,
            escalated=not repaired,
            contradictions=contradictions,
        ))
        if not repaired:
            self.stats.repair_failures += 1
            self.stats.escalations += 1
            if telemetry.enabled:
                telemetry.metrics.counter("integrity.escalations").inc()
                if telemetry.tracer.enabled:
                    telemetry.tracer.event(
                        "integrity.escalate",
                        dimensions=",".join(dimensions),
                    )
            raise IntegrityFault(detail, dimensions, source="oracle")

    def _contradictions(
        self, executor: "ClosureXExecutor", dimensions: tuple[str, ...],
    ) -> tuple[str, ...]:
        """Leaked dimensions the static analysis had proven clean."""
        assert executor.harness is not None
        pollution = executor.harness.config.pollution
        if pollution is None:
            return ()
        contradicted = tuple(
            d for d in dimensions if pollution.is_clean(d)
        )
        if contradicted:
            self.stats.contradictions += len(contradicted)
            telemetry = executor.telemetry
            if telemetry.enabled:
                for dimension in contradicted:
                    telemetry.metrics.counter("analysis.contradiction").inc()
                    if telemetry.tracer.enabled:
                        telemetry.tracer.event(
                            "analysis.contradiction",
                            dimension=dimension,
                            exec_index=self.exec_index,
                        )
        return contradicted

    # -- shadow path ----------------------------------------------------

    def _shadow_check(
        self,
        executor: "ClosureXExecutor",
        data: bytes,
        iteration: "IterationResult",
    ) -> None:
        assert executor.harness is not None and executor.harness.vm is not None
        observation = replay(executor.module, data, config=executor.config,
                             costs=executor.kernel.costs)
        executor.kernel.charge(observation.cost_ns)
        self.stats.shadow_runs += 1
        self.stats.shadow_ns += observation.cost_ns
        telemetry = executor.telemetry
        if telemetry.enabled:
            telemetry.metrics.counter("integrity.shadow_runs").inc()
        persistent = Observation.capture(executor.harness.vm, iteration,
                                         cost_ns=iteration.exec_ns)
        mismatch = observation.describe_mismatch(persistent)
        if mismatch is None:
            return

        self.stats.divergences += 1
        key = _input_key(data)
        detail = (
            f"persistent run diverged from fresh-process ground truth: "
            f"{mismatch}"
        )
        if telemetry.enabled:
            telemetry.metrics.counter("integrity.divergences").inc()
            if telemetry.tracer.enabled:
                telemetry.tracer.event(
                    "integrity.divergence",
                    exec_index=self.exec_index,
                    persistent=iteration.status.value,
                    shadow=observation.status.value,
                )
        if self.policy.quarantine_divergent:
            self.ledger.quarantine_input(
                key, data,
                ExecResult(
                    status=observation.status,
                    return_code=observation.return_code,
                    trap=observation.trap,
                    coverage=bytearray(observation.coverage),
                    ns=observation.cost_ns,
                    instructions=observation.instructions,
                ),
                at_ns=executor.clock.now_ns,
            )
        self.ledger.record(LeakEvent(
            exec_index=self.exec_index,
            at_ns=executor.clock.now_ns,
            source="shadow",
            dimensions=(),
            input_sha=key,
            detail=detail,
            repaired=False,
            escalated=True,
        ))
        self.stats.escalations += 1
        if telemetry.enabled:
            telemetry.metrics.counter("integrity.escalations").inc()
        raise IntegrityFault(detail, (), source="shadow")

    # -- checkpoint support ---------------------------------------------

    def snapshot_state(self) -> dict:
        """Checkpointable sentinel state.  The oracle baseline is
        deliberately excluded: a resumed executor re-boots and the
        baseline is recaptured from the fresh process, which is exactly
        what it fingerprints."""
        return {
            "stats": dataclasses.replace(self.stats),
            "ledger": self.ledger.snapshot_state(),
            "exec_index": self.exec_index,
        }

    def restore_state(self, state: dict) -> None:
        self.stats = dataclasses.replace(state["stats"])
        self.ledger.restore_state(state["ledger"])
        self.exec_index = state["exec_index"]
