"""LeakLedger: attribution, quarantine, and the diagnostic bundle.

Every integrity violation the sentinel observes — digest leak, shadow
divergence, analysis contradiction — becomes one :class:`LeakEvent`,
stamped in *virtual* time and attributed to the state dimension(s) that
leaked plus the input that was executing when the restore went wrong.
The ledger is plain picklable data: it rides inside campaign
checkpoints, so a resumed campaign knows every leak the original run
saw and never re-executes a known-divergent input.

When a ``bundle_path`` is configured each event is also appended to a
JSONL diagnostic bundle on the host filesystem — the artifact a human
debugging a restore regression actually wants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.execution.common import ExecResult


@dataclass
class LeakEvent:
    """One detected integrity violation, stamped in virtual time."""

    exec_index: int                  # persistent exec count at detection
    at_ns: int                       # virtual clock at detection
    source: str                      # "oracle" | "shadow" | "baseline"
    dimensions: tuple[str, ...]      # leaking state dimension(s)
    input_sha: str                   # key of the input that was running
    detail: str = ""
    repaired: bool = False           # targeted in-place repair succeeded
    escalated: bool = False          # handed to the supervised ladder
    contradictions: tuple[str, ...] = ()  # dims static analysis swore clean

    def to_json(self) -> dict:
        return {
            "exec_index": self.exec_index,
            "at_ns": self.at_ns,
            "source": self.source,
            "dimensions": list(self.dimensions),
            "input_sha": self.input_sha,
            "detail": self.detail,
            "repaired": self.repaired,
            "escalated": self.escalated,
            "contradictions": list(self.contradictions),
        }


@dataclass
class QuarantinedInput:
    """An input whose persistent-mode result diverged from ground truth.

    ``result`` is the *shadow* (fresh-VM) observation — the answer a
    correct execution gives — so replaying from quarantine returns
    trustworthy data instead of re-running an input that is known to
    interact badly with restoration.
    """

    data: bytes
    result: ExecResult
    at_ns: int
    reason: str = "shadow-divergence"


class LeakLedger:
    """Append-only record of what the sentinel saw and did."""

    def __init__(self, bundle_path: str | None = None):
        self.events: list[LeakEvent] = []
        self.by_dimension: dict[str, int] = {}
        self.quarantine: dict[str, QuarantinedInput] = {}
        self.bundle_path = bundle_path

    def record(self, event: LeakEvent) -> None:
        self.events.append(event)
        for dimension in event.dimensions:
            self.by_dimension[dimension] = (
                self.by_dimension.get(dimension, 0) + 1
            )
        if self.bundle_path is not None:
            with open(self.bundle_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(event.to_json(), sort_keys=True))
                handle.write("\n")

    def quarantine_input(
        self, key: str, data: bytes, result: ExecResult, at_ns: int,
        reason: str = "shadow-divergence",
    ) -> None:
        self.quarantine[key] = QuarantinedInput(
            data=bytes(data), result=result, at_ns=at_ns, reason=reason,
        )

    def summary(self) -> dict:
        """Compact summary for reports."""
        return {
            "leaks": len(self.events),
            "by_dimension": dict(self.by_dimension),
            "quarantined": len(self.quarantine),
            "repaired": sum(1 for e in self.events if e.repaired),
            "escalated": sum(1 for e in self.events if e.escalated),
            "contradictions": sum(
                len(e.contradictions) for e in self.events
            ),
        }

    # -- checkpoint support ---------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "events": list(self.events),
            "by_dimension": dict(self.by_dimension),
            "quarantine": dict(self.quarantine),
        }

    def restore_state(self, state: dict) -> None:
        self.events = list(state["events"])
        self.by_dimension = dict(state["by_dimension"])
        self.quarantine = dict(state["quarantine"])
