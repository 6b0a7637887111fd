"""Content-addressed corpus object store with dedup, distillation,
pruning, and scrub.

Millions of inputs across campaigns and tenants are mostly the *same*
inputs: every shard of a parallel campaign re-discovers the seed set,
cross-pollinated entries exist verbatim on both sides, and repeated
experiment trials regenerate identical corpora.  Storing payloads by
their sha256 digest makes all of that one copy:

```
<root>/
  corpus-store.json       # schema marker (how fsck finds stores)
  objects/<aa>/<digest>   # the payload, named by its sha256
  mirror/<aa>/<digest>    # replica used by scrub to repair bit rot
  refs/<owner>.jsonl      # per-owner reference log (AppendLog)
  quarantine/<digest>     # corrupt objects with no healthy replica
```

Owners — one per campaign shard, tenant job, or experiment trial —
reference objects through append-only logs, so liveness is refcounted:
:meth:`CorpusStore.prune` removes objects no owner references,
:meth:`CorpusStore.release` drops a whole owner.  Object digests
are the fuzzing plane's content hash too (:func:`object_digest` is
the one definition), so a corpus entry's content hash *is* its store
address and the parallel SyncHub can exchange digests instead of
payloads.

Against bit rot, every object is write-once and self-verifying: reads
recompute the digest, a mismatch repairs from the mirror replica when
it is healthy and quarantines otherwise, and :meth:`CorpusStore.scrub`
sweeps the whole store doing the same (both directions — a rotted
mirror is repaired from a healthy primary too).

:meth:`CorpusStore.distill` is afl-cmin for the virtual fuzzing plane:
given ``(digest, classified coverage signature, weight)`` triples it
greedily selects a minimal seed set — cheapest first — whose OR over
signatures equals the full corpus's, at bit granularity (hit-count
buckets included, not just edges).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

from repro.store.errors import ObjectCorruption, StoreError
from repro.store.io import atomic_write, fsync_dir, is_temp_artifact
from repro.store.log import AppendLog

#: Written to the store root so ``fsck`` recognises store trees.
STORE_MARKER = "corpus-store.json"
STORE_SCHEMA = "repro-corpus-store/1"


def object_digest(data: bytes) -> str:
    """The store address of a payload: its sha256 hex digest, also the
    content identity the fuzzing plane dedups and syncs corpus inputs
    by."""
    return hashlib.sha256(data).hexdigest()


@dataclasses.dataclass(frozen=True)
class ScrubReport:
    """Outcome of one :meth:`CorpusStore.scrub` sweep."""

    checked: int
    repaired: tuple[str, ...]      # digests restored from their replica
    degraded: tuple[str, ...]      # rot found, healthy replica exists,
                                   # repair was off (still fully readable)
    quarantined: tuple[str, ...]   # digests with no healthy copy left

    @property
    def clean(self) -> bool:
        """Whether every object is readable (possibly after repair —
        degraded objects still resolve through their replica)."""
        return not self.quarantined


class CorpusStore:
    """Filesystem-backed content-addressed object store (see module
    docstring for layout and contracts).

    Every object is mirrored, so scrub can repair rot in either copy
    from the other.  All writes go through
    :func:`repro.store.io.atomic_write`, so the store inherits the full
    durability stack and the disk-fault chaos seam.
    """

    def __init__(self, root: str):
        self.root = os.fspath(root)
        self.objects_dir = os.path.join(self.root, "objects")
        self.mirror_dir = os.path.join(self.root, "mirror")
        self.refs_dir = os.path.join(self.root, "refs")
        self.quarantine_dir = os.path.join(self.root, "quarantine")
        os.makedirs(self.objects_dir, exist_ok=True)
        os.makedirs(self.refs_dir, exist_ok=True)
        self._refs: dict[str, set[str]] = {}
        self._ref_logs: dict[str, AppendLog] = {}
        marker = os.path.join(self.root, STORE_MARKER)
        if not os.path.exists(marker):
            # "replicate" stays in the schema: every store mirrors.
            atomic_write(
                marker,
                json.dumps(
                    {"schema": STORE_SCHEMA, "replicate": True},
                    sort_keys=True,
                ).encode("utf-8"),
            )

    # -- paths -----------------------------------------------------------

    def object_path(self, digest: str) -> str:
        """Where the payload for *digest* lives."""
        return os.path.join(self.objects_dir, digest[:2], digest)

    def mirror_path(self, digest: str) -> str:
        """Where the replica for *digest* lives."""
        return os.path.join(self.mirror_dir, digest[:2], digest)

    def ref_log_path(self, owner: str) -> str:
        """The owner's reference log."""
        return os.path.join(self.refs_dir, f"{owner}.jsonl")

    def _ref_log(self, owner: str) -> AppendLog:
        log = self._ref_logs.get(owner)
        if log is None:
            log = AppendLog(self.ref_log_path(owner))
            self._ref_logs[owner] = log
        return log

    # -- writes ----------------------------------------------------------

    def put(self, data: bytes, owner: str | None = None) -> str:
        """Store a payload, returning its digest.

        Idempotent: an already-present object is a dedup hit and costs
        no write.  With *owner*, a reference is recorded (once per
        owner — repeated puts of the same digest by the same owner
        append nothing).
        """
        digest = object_digest(data)
        path = self.object_path(digest)
        if not os.path.exists(path):
            atomic_write(path, data)
        if not os.path.exists(self.mirror_path(digest)):
            atomic_write(self.mirror_path(digest), data)
        if owner is not None:
            self._reference(owner, digest)
        return digest

    def _reference(self, owner: str, digest: str) -> None:
        held = self.refs(owner)
        if digest in held:
            return
        self._ref_log(owner).append({"op": "add", "digest": digest})
        held.add(digest)

    # -- reads -----------------------------------------------------------

    def has(self, digest: str) -> bool:
        """Whether an object is present (no verification)."""
        return os.path.exists(self.object_path(digest))

    def get(self, digest: str) -> bytes:
        """The verified payload for *digest*.

        A digest mismatch (bit rot) is repaired from the mirror replica
        when the replica verifies; otherwise the corrupt object is
        moved to ``quarantine/`` and :class:`ObjectCorruption` is
        raised.
        """
        path = self.object_path(digest)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            data = None
        if data is not None and object_digest(data) == digest:
            return data
        repaired = self._repair(digest)
        if repaired is not None:
            return repaired
        actual = object_digest(data) if data is not None else "<unreadable>"
        self._quarantine(digest)
        raise ObjectCorruption(digest, path, actual)

    def _repair(self, digest: str) -> bytes | None:
        """Restore a rotted object from its mirror replica, returning
        the healthy payload (or ``None`` when the replica is missing or
        rotted too)."""
        mirror = self.mirror_path(digest)
        try:
            with open(mirror, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        if object_digest(data) != digest:
            return None
        atomic_write(self.object_path(digest), data)
        return data

    def _quarantine(self, digest: str) -> None:
        os.makedirs(self.quarantine_dir, exist_ok=True)
        path = self.object_path(digest)
        if os.path.exists(path):
            os.replace(path, os.path.join(self.quarantine_dir, digest))
            fsync_dir(self.quarantine_dir)

    # -- references ------------------------------------------------------

    def owners(self) -> list[str]:
        """Every owner with a reference log, name-sorted."""
        return sorted(
            name[: -len(".jsonl")]
            for name in os.listdir(self.refs_dir)
            if name.endswith(".jsonl")
        )

    def refs(self, owner: str) -> set[str]:
        """The digests *owner* currently references."""
        held = self._refs.get(owner)
        if held is None:
            held = set()
            log = self._ref_log(owner)
            if os.path.exists(log.path):
                records, _damage = log.scan()
                for record in records:
                    if record.get("op") == "add":
                        held.add(record["digest"])
                    elif record.get("op") == "drop":
                        held.discard(record["digest"])
            self._refs[owner] = held
        return held

    def refcount(self, digest: str) -> int:
        """How many owners reference *digest*."""
        return sum(1 for owner in self.owners() if digest in self.refs(owner))

    def retain(self, owner: str, digests) -> int:
        """Rewrite the owner's references to exactly *digests* (the
        coverage-based pruning hook: pass the distilled set to drop the
        rest).  Returns how many references were dropped."""
        keep = set(digests)
        held = self.refs(owner)
        dropped = len(held - keep)
        records = [
            {"op": "add", "digest": digest} for digest in sorted(keep)
        ]
        self._ref_log(owner).rewrite(records)
        self._refs[owner] = set(keep)
        return dropped

    def release(self, owner: str) -> None:
        """Drop an owner and all its references (a campaign or tenant
        leaving the store; the objects stay until :meth:`prune`)."""
        self._refs.pop(owner, None)
        self._ref_logs.pop(owner, None)
        path = self.ref_log_path(owner)
        if os.path.exists(path):
            os.remove(path)
            fsync_dir(self.refs_dir)

    # -- maintenance -----------------------------------------------------

    def objects(self) -> list[str]:
        """Every object digest on disk, sorted."""
        found: list[str] = []
        for shard in sorted(os.listdir(self.objects_dir)):
            shard_dir = os.path.join(self.objects_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not is_temp_artifact(name):
                    found.append(name)
        return found

    def referenced(self) -> set[str]:
        """The union of every owner's references."""
        live: set[str] = set()
        for owner in self.owners():
            live |= self.refs(owner)
        return live

    def prune(self) -> list[str]:
        """Remove objects (and replicas) no owner references, returning
        the removed digests."""
        live = self.referenced()
        removed: list[str] = []
        for digest in self.objects():
            if digest in live:
                continue
            for path in (self.object_path(digest), self.mirror_path(digest)):
                if os.path.exists(path):
                    os.remove(path)
            removed.append(digest)
        if removed:
            fsync_dir(self.objects_dir)
        return removed

    def _replica_healthy(self, digest: str) -> bool:
        try:
            with open(self.mirror_path(digest), "rb") as handle:
                return object_digest(handle.read()) == digest
        except OSError:
            return False

    def scrub(self, repair: bool = True) -> ScrubReport:
        """Verify every object against its digest; with *repair*, fix
        rot from the replica (in either direction) and quarantine
        objects with no healthy copy left.  With ``repair=False``
        nothing on disk changes: repairable rot is reported as
        *degraded*, unrecoverable rot as *quarantined*-to-be."""
        repaired: list[str] = []
        degraded: list[str] = []
        quarantined: list[str] = []
        checked = 0
        for digest in self.objects():
            checked += 1
            path = self.object_path(digest)
            with open(path, "rb") as handle:
                data = handle.read()
            healthy = object_digest(data) == digest
            if not healthy:
                if not repair:
                    if self._replica_healthy(digest):
                        degraded.append(digest)
                    else:
                        quarantined.append(digest)
                elif self._repair(digest) is not None:
                    repaired.append(digest)
                else:
                    self._quarantine(digest)
                    quarantined.append(digest)
                continue
            if not self._replica_healthy(digest):
                if repair:
                    atomic_write(self.mirror_path(digest), data)
                    repaired.append(digest)
                else:
                    degraded.append(digest)
        return ScrubReport(
            checked, tuple(repaired), tuple(degraded), tuple(quarantined)
        )

    # -- distillation ----------------------------------------------------

    def distill(self, entries) -> list[str]:
        """afl-cmin: a minimal seed set covering the full corpus's map.

        *entries* are ``(digest, signature, weight)`` triples where the
        signature is the classified coverage bytes
        (:func:`repro.fuzzing.coverage.coverage_signature`) and weight
        orders candidates cheapest-first (e.g. ``exec_ns * len``).
        Selection is greedy at **bit** granularity: an entry is kept
        iff it sets a signature bit nothing cheaper already covered,
        which guarantees the OR over the selected signatures equals the
        OR over all of them.
        """
        # Imported here: nothing else in the store needs the fuzzer.
        from repro.fuzzing.coverage import signature_bits
        ranked = sorted(entries, key=lambda entry: (entry[2], entry[0]))
        covered = 0
        selected: list[str] = []
        for digest, signature, _weight in ranked:
            bits = signature_bits(signature)
            if bits & ~covered:
                selected.append(digest)
                covered |= bits
        return selected

    # -- introspection ---------------------------------------------------

    def stats(self) -> dict:
        """Counts and byte totals for the CLI's ``stats`` subcommand."""
        digests = self.objects()
        total_bytes = sum(
            os.path.getsize(self.object_path(digest)) for digest in digests
        )
        owners = self.owners()
        ref_total = sum(len(self.refs(owner)) for owner in owners)
        return {
            "root": self.root,
            "objects": len(digests),
            "bytes": total_bytes,
            "owners": len(owners),
            "references": ref_total,
            "referenced_objects": len(self.referenced()),
            "replicate": True,
        }


def open_store(root: str) -> CorpusStore:
    """Open an existing store, refusing a root that is not one."""
    marker = os.path.join(root, STORE_MARKER)
    if not os.path.exists(marker):
        raise StoreError(f"{root!r} is not a corpus store (no {STORE_MARKER})")
    return CorpusStore(root)
