"""Deterministic corpus-synchronization protocol between campaign shards.

AFL++'s multi-instance mode syncs by rescanning sibling queue
directories; here the orchestrator is the medium instead of the
filesystem, which lets the exchange be *deterministic*: at each sync
barrier every worker reports the queue entries it discovered since the
previous barrier, the :class:`SyncHub` folds them in **shard order**
into a global novelty filter, and globally interesting inputs are
broadcast to every other worker through per-worker FIFO outboxes.

Determinism invariants the protocol maintains:

- **ordering** — candidates are ingested sorted by ``(shard_id,
  entry_id)``, never by arrival time, so process scheduling cannot
  reorder the merge;
- **dedup** — inputs are identified by content hash
  (:func:`repro.store.objects.object_digest`); an input seen once — as a
  seed, an accepted discovery, or a rejected duplicate — is never
  exchanged again;
- **novelty** — a candidate joins the global corpus only if its
  coverage signature clears the hub's virgin map
  (:meth:`VirginMap.observe`, the campaigns' own novelty test), AFL's
  "interesting to the fleet" test;
- **backpressure** — each worker receives at most
  :data:`MAX_IMPORTS_PER_SYNC` inputs per barrier; the surplus stays
  queued in its outbox (FIFO) for later barriers, so a discovery burst
  delays — never reorders or drops — the exchange.

With a shared :class:`repro.store.CorpusStore`, the exchange is
**hash-only**: workers ``put`` payloads into the content-addressed
store and offer candidates carrying just the sha256 digest (the
content hash *is* the store address); the hub
resolves payloads from the store only at delivery time.  Candidates,
hub snapshots, and checkpoints then carry digests instead of input
bytes — the payload crosses the process boundary zero times — and the
merge stays bit-identical because dedup/novelty/ordering never looked
at the bytes anyway.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from repro.fuzzing.corpus import QueueEntry
from repro.fuzzing.coverage import VirginMap
from repro.store.objects import object_digest

#: Imports one worker receives at one barrier (the backpressure cap).
MAX_IMPORTS_PER_SYNC = 64


@dataclass(frozen=True)
class SyncCandidate:
    """One queue entry offered to the hub at a sync barrier.

    ``data`` is ``None`` for hash-only candidates: the payload lives in
    the shared corpus store under ``digest`` and is resolved only when
    the hub delivers the import.
    """

    shard_id: int
    entry_id: int
    data: bytes | None
    signature: bytes      # the entry's coverage signature
    exec_ns: int
    digest: str = ""      # sha256 store address (hash-only exchange)

    @property
    def hash(self) -> str:
        return self.digest or object_digest(self.data)

    @classmethod
    def from_entry(cls, shard_id: int, entry: QueueEntry,
                   store=None, owner: str | None = None) -> "SyncCandidate":
        """Wrap one queue entry; with *store*, the payload is put into
        the content-addressed store and the candidate ships hash-only."""
        digest = ""
        data: bytes | None = entry.data
        if store is not None:
            digest = store.put(entry.data, owner=owner)
            data = None
        return cls(
            shard_id=shard_id,
            entry_id=entry.entry_id,
            data=data,
            signature=entry.coverage_signature,
            exec_ns=entry.exec_ns,
            digest=digest,
        )


@dataclass
class RoundReport:
    """What one worker tells the orchestrator at a sync barrier."""

    shard_id: int
    round_index: int
    clock_ns: int
    execs: int                    # cumulative
    edges_found: int              # local virgin map density
    corpus_size: int
    unique_crashes: int
    total_crashes: int
    unique_hangs: int
    imported: int                 # sync imports adopted this round
    discoveries: list[SyncCandidate] = field(default_factory=list)
    # Pickled barrier snapshot (checkpoint / worker replacement):
    # pickle.dumps of repro.fuzzing.checkpoint.capture_state, frozen at
    # the barrier so later rounds cannot mutate it.  None unless the
    # orchestrator asked for state capture.
    state: bytes | None = None


@dataclass
class SyncStats:
    """Cumulative hub counters (surface in the merged report)."""

    offered: int = 0              # candidates received from workers
    duplicates: int = 0           # dropped by content-hash dedup
    stale: int = 0                # dropped by the novelty filter
    accepted: int = 0             # joined the global corpus + broadcast
    delivered: int = 0            # inputs handed to workers as imports
    deferred: int = 0             # backpressure: left queued at a barrier


class SyncHub:
    """The orchestrator-side merge point of the sync protocol.

    Each :meth:`drain` hands a worker at most
    :data:`MAX_IMPORTS_PER_SYNC` imports; the rest wait in its outbox.
    """

    def __init__(self, n_workers: int, store=None):
        self.n_workers = n_workers
        self.virgin = VirginMap()
        self.seen_hashes: set[str] = set()
        self.accepted: list[SyncCandidate] = []
        self.outboxes: list[deque[SyncCandidate]] = [
            deque() for _ in range(n_workers)
        ]
        self.stats = SyncStats()
        # Shared corpus store: resolves hash-only candidates at drain
        # time (duck-typed ``get(digest) -> bytes``).
        self.store = store

    def register_seeds(self, seeds: list[bytes]) -> None:
        """Mark the common seed corpus as already known: every worker
        starts from it, so rediscovering a seed is never interesting."""
        for seed in seeds:
            self.seen_hashes.add(object_digest(seed))

    def ingest(self, reports: list[RoundReport]) -> int:
        """Fold one barrier's discoveries in; returns how many were
        globally novel.  *reports* may arrive in any order — they are
        sorted by shard id here, which is what makes the merge
        independent of process scheduling."""
        fresh = 0
        for report in sorted(reports, key=lambda r: r.shard_id):
            for candidate in report.discoveries:
                self.stats.offered += 1
                key = candidate.hash
                if key in self.seen_hashes:
                    self.stats.duplicates += 1
                    continue
                self.seen_hashes.add(key)
                novelty = self.virgin.observe(candidate.signature)
                if novelty == VirginMap.NO_NEW:
                    self.stats.stale += 1
                    continue
                self.accepted.append(candidate)
                self.stats.accepted += 1
                fresh += 1
                for shard in range(self.n_workers):
                    if shard != candidate.shard_id:
                        self.outboxes[shard].append(candidate)
        return fresh

    def _payload(self, candidate: SyncCandidate) -> bytes:
        """The candidate's input bytes, resolving hash-only candidates
        through the shared corpus store."""
        if candidate.data is not None:
            return candidate.data
        if self.store is None:
            raise RuntimeError(
                f"hash-only sync candidate {candidate.hash} cannot be "
                "delivered: the hub has no corpus store to resolve it from"
            )
        return self.store.get(candidate.hash)

    def drain(self, shard_id: int) -> list[bytes]:
        """Pop this worker's next batch of imports (bounded by the
        backpressure cap; the remainder stays queued in FIFO order)."""
        outbox = self.outboxes[shard_id]
        batch: list[bytes] = []
        while outbox and len(batch) < MAX_IMPORTS_PER_SYNC:
            batch.append(self._payload(outbox.popleft()))
        self.stats.delivered += len(batch)
        self.stats.deferred += len(outbox)
        return batch

    def pending(self) -> int:
        """Inputs still queued across all outboxes (backpressure gauge)."""
        return sum(len(outbox) for outbox in self.outboxes)

    def corpus_hashes(self) -> list[str]:
        """Sorted content hashes of the globally novel corpus."""
        return sorted(c.hash for c in self.accepted)

    # -- checkpoint support ---------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "n_workers": self.n_workers,
            "virgin": self.virgin.to_sparse(),
            "seen_hashes": sorted(self.seen_hashes),
            "accepted": list(self.accepted),
            "outboxes": [list(outbox) for outbox in self.outboxes],
            # Copied, not aliased: the snapshot must freeze the counters.
            "stats": replace(self.stats),
        }

    @classmethod
    def from_state(cls, state: dict, store=None) -> "SyncHub":
        hub = cls(state["n_workers"], store=store)
        hub.virgin = VirginMap.from_sparse(state["virgin"])
        hub.seen_hashes = set(state["seen_hashes"])
        hub.accepted = list(state["accepted"])
        hub.outboxes = [deque(items) for items in state["outboxes"]]
        hub.stats = state["stats"]
        return hub
