"""Crash triage: deduplication and bug bookkeeping.

Crashes are deduplicated by trap identity — (trap kind, function,
basic block) — which approximates AFL++'s coverage-signature dedup but
with the ground truth our VM can actually provide.  The targets'
planted-bug manifests map trap sites back to stable bug ids so the
time-to-bug experiment (Table 7) can report per-bug first-discovery
times.

Hangs get their own dedup bucket (AFL's ``hangs/`` directory): a
hang has no trap site, so its identity is a digest of the coverage
signature the wedged execution produced — two inputs spinning in the
same loop collapse into one report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fuzzing.coverage import signature_id
from repro.vm.errors import TrapKind, VMTrap

CrashIdentity = tuple[TrapKind, str, str]


@dataclass
class CrashReport:
    """First occurrence of one deduplicated crash."""

    identity: CrashIdentity
    trap: VMTrap
    input_data: bytes
    found_at_ns: int
    occurrences: int = 1

    @property
    def kind(self) -> TrapKind:
        return self.identity[0]

    @property
    def function(self) -> str:
        return self.identity[1]

    def describe(self) -> str:
        return (
            f"{self.kind.value} in @{self.function} "
            f"(block %{self.identity[2]}, first at {self.found_at_ns / 1e9:.3f} vs)"
        )


@dataclass
class HangReport:
    """First occurrence of one deduplicated hang (AFL's ``hangs/``)."""

    signature_digest: str
    input_data: bytes
    found_at_ns: int
    occurrences: int = 1

    def describe(self) -> str:
        return (
            f"hang [{self.signature_digest}] "
            f"(first at {self.found_at_ns / 1e9:.3f} vs)"
        )


class CrashTriage:
    """Collects and deduplicates crashes (and hangs) during a campaign."""

    def __init__(self) -> None:
        self.unique: dict[CrashIdentity, CrashReport] = {}
        self.total_crashes = 0
        self.unique_hangs: dict[str, HangReport] = {}
        self.total_hangs = 0

    def record(self, trap: VMTrap, input_data: bytes, now_ns: int) -> CrashReport | None:
        """Record a crash; returns the report if it is a *new* bug."""
        self.total_crashes += 1
        identity = trap.identity()
        existing = self.unique.get(identity)
        if existing is not None:
            existing.occurrences += 1
            return None
        report = CrashReport(identity, trap, input_data, now_ns)
        self.unique[identity] = report
        return report

    def record_hang(self, coverage_signature: bytes, input_data: bytes,
                    now_ns: int) -> HangReport | None:
        """Record a hang-classified input; returns the report if new."""
        self.total_hangs += 1
        digest = signature_id(coverage_signature)
        existing = self.unique_hangs.get(digest)
        if existing is not None:
            existing.occurrences += 1
            return None
        report = HangReport(digest, input_data, now_ns)
        self.unique_hangs[digest] = report
        return report

    @property
    def unique_count(self) -> int:
        return len(self.unique)

    @property
    def unique_hang_count(self) -> int:
        return len(self.unique_hangs)

    def reports(self) -> list[CrashReport]:
        return sorted(self.unique.values(), key=lambda r: r.found_at_ns)

    def hang_reports(self) -> list[HangReport]:
        return sorted(self.unique_hangs.values(), key=lambda r: r.found_at_ns)

    def first_hit_ns(self, identity: CrashIdentity) -> int | None:
        report = self.unique.get(identity)
        return report.found_at_ns if report is not None else None

    def merge(self, other: "CrashTriage") -> None:
        """Fold another shard's triage tables into this one.

        Dedup identities are global (trap site / coverage digest), so
        merging keeps one report per bug across all workers — the
        earliest discovery (by that worker's virtual clock, ties broken
        by merge order) — while occurrence and total counters sum.
        """
        self.total_crashes += other.total_crashes
        for identity, report in other.unique.items():
            existing = self.unique.get(identity)
            if existing is None:
                self.unique[identity] = report
                continue
            combined = existing.occurrences + report.occurrences
            winner = min(existing, report, key=lambda r: r.found_at_ns)
            winner.occurrences = combined
            self.unique[identity] = winner
        self.total_hangs += other.total_hangs
        for digest, hang in other.unique_hangs.items():
            existing_hang = self.unique_hangs.get(digest)
            if existing_hang is None:
                self.unique_hangs[digest] = hang
                continue
            combined = existing_hang.occurrences + hang.occurrences
            winner = min(existing_hang, hang, key=lambda r: r.found_at_ns)
            winner.occurrences = combined
            self.unique_hangs[digest] = winner
