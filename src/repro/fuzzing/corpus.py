"""Corpus management: queue entries, favored selection, energy.

A trimmed-down AFL++ scheduler: entries that reach map cells fastest
(lowest ``exec_ns * len``) become *favored*; favored entries are fuzzed
preferentially; an entry's *energy* (number of havoc executions it
receives per visit) scales with its speed relative to the corpus
average and its discovery depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fuzzing.coverage import hit_cells
from repro.store.objects import object_digest


@dataclass
class QueueEntry:
    """One corpus input and its scheduling metadata."""

    entry_id: int
    data: bytes
    coverage_signature: bytes
    exec_ns: int
    discovered_at_ns: int
    depth: int = 0
    parent_id: int | None = None
    favored: bool = False
    det_done: bool = False
    trim_done: bool = False
    i2s_done: bool = False        # input-to-state stage ran for it
    times_selected: int = 0

    @property
    def weight(self) -> int:
        """Lower is better for favored selection (AFL's fav_factor)."""
        return max(1, self.exec_ns) * max(1, len(self.data))


class Corpus:
    """The fuzzing queue."""

    def __init__(self) -> None:
        self.entries: list[QueueEntry] = []
        self._next_id = 0
        self._cursor = 0
        # map cell -> best entry covering it (AFL's top_rated[]).
        self._top_rated: dict[int, QueueEntry] = {}
        # High-water mark of export_new(): entries below it have already
        # been offered to the sync hub (multi-worker corpus exchange).
        self._export_cursor = 0

    def add(
        self,
        data: bytes,
        coverage_signature: bytes,
        exec_ns: int,
        now_ns: int,
        parent: QueueEntry | None = None,
    ) -> QueueEntry:
        entry = QueueEntry(
            entry_id=self._next_id,
            data=data,
            coverage_signature=coverage_signature,
            exec_ns=exec_ns,
            discovered_at_ns=now_ns,
            depth=(parent.depth + 1) if parent is not None else 0,
            parent_id=parent.entry_id if parent is not None else None,
        )
        self._next_id += 1
        self.entries.append(entry)
        self._update_top_rated(entry)
        return entry

    def _update_top_rated(self, entry: QueueEntry) -> None:
        for cell in hit_cells(entry.coverage_signature):
            best = self._top_rated.get(cell)
            if best is None or entry.weight < best.weight:
                self._top_rated[cell] = entry
        self._recompute_favored()

    def _recompute_favored(self) -> None:
        favored_ids = {entry.entry_id for entry in self._top_rated.values()}
        for entry in self.entries:
            entry.favored = entry.entry_id in favored_ids

    def select_next(self, rng) -> QueueEntry:
        """Cycle through the queue, probabilistically skipping
        non-favored entries (AFL's 75%/95% skip heuristic, simplified)."""
        if not self.entries:
            raise IndexError("corpus is empty")
        for _ in range(len(self.entries) * 2):
            entry = self.entries[self._cursor % len(self.entries)]
            self._cursor += 1
            if entry.favored or rng.random() > 0.75:
                entry.times_selected += 1
                return entry
        entry = self.entries[self._cursor % len(self.entries)]
        self._cursor += 1
        entry.times_selected += 1
        return entry

    def average_exec_ns(self) -> float:
        if not self.entries:
            return 1.0
        return sum(e.exec_ns for e in self.entries) / len(self.entries)

    def energy(self, entry: QueueEntry, base: int = 64) -> int:
        """Havoc iterations this entry earns per visit (perf_score)."""
        score = float(base)
        average = self.average_exec_ns()
        ratio = entry.exec_ns / average if average else 1.0
        if ratio < 0.5:
            score *= 2.0
        elif ratio > 2.0:
            score *= 0.5
        score *= 1.0 + min(entry.depth, 8) * 0.25   # deeper finds get more
        if entry.favored:
            score *= 1.5
        if entry.times_selected > 8:
            score *= 0.5                            # don't beat dead horses
        return max(8, int(score))

    def __len__(self) -> int:
        return len(self.entries)

    def favored_count(self) -> int:
        return sum(1 for e in self.entries if e.favored)

    # -- multi-worker sync support --------------------------------------

    def export_new(self) -> list[QueueEntry]:
        """Entries added since the previous call (discoveries to offer
        at the next sync barrier).  Advances the export cursor, so each
        entry is exported exactly once."""
        fresh = self.entries[self._export_cursor:]
        self._export_cursor = len(self.entries)
        return fresh

    def content_hashes(self) -> set[str]:
        """Hashes of every input currently queued (sync-import dedup)."""
        return {object_digest(e.data) for e in self.entries}
