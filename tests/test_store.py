"""Tests for ``repro.store`` — the durable-storage plane.

The headline test is the tentpole's acceptance criterion: a campaign
killed under every disk-fault plan (torn write, ENOSPC, EIO-on-fsync,
lost rename, silent bit flip) recovers to a result digest bit-identical
to the undisturbed run, and ``fsck`` passes over the recovered tree.

The rest of the file covers the layers that make that true: the
hardened primitives (``atomic_write``, CRC framing, append logs), the
content-addressed :class:`CorpusStore` (dedup, refcounts, distillation,
scrub), the consumers refactored onto them (checkpoints, the service
journal, the experiments results store), and the hash-only sync
exchange in ``repro.parallel``.
"""

from __future__ import annotations

import errno
import json
import os
import re
import subprocess
import sys

import pytest

from repro.chaos import (
    FaultInjector,
    FaultPlan,
    FaultSite,
    FaultSpec,
    InjectedFault,
)
from repro.execution import ForkServerExecutor
from repro.experiments.platform.store import ResultsStore
from repro.fuzzing import (
    Campaign,
    CampaignConfig,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.fuzzing.coverage import coverage_signature, signature_bits
from repro.minic import compile_c
from repro.parallel import (
    ParallelCampaign,
    ParallelConfig,
    RoundReport,
    SyncCandidate,
    SyncHub,
)
from repro.passes import PassManager, baseline_passes
from repro.service.recovery import JobJournal
from repro.sim_os import Kernel
from repro.store import (
    AppendLog,
    CorpusStore,
    DISK_FAULT_SITES,
    FrameError,
    LogCorruption,
    ObjectCorruption,
    atomic_write,
    canonical_line,
    disk_chaos,
    fsck_tree,
    is_temp_artifact,
    object_digest,
    open_store,
    read_framed,
    write_framed,
)
from repro.store.__main__ import main as store_main
from tests.helpers import run_killed

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

SOURCE = r"""
int main(int argc, char **argv) {
    char *f = fopen(argv[1], "r");
    if (!f) { exit(1); }
    char buf[16];
    long n = fread(buf, 1, 16, f);
    if (n < 1) { exit(2); }
    char *scratch = (char*)malloc(16);
    scratch[0] = buf[0];
    if (buf[0] == 'X' && n > 4) {
        int *p = NULL;
        *p = 1;
    }
    fclose(f);
    free(scratch);
    return (int)n;
}
"""

IMAGE = 400_000
SEEDS = [b"hello", b"Xseed"]
BUDGET_NS = 24_000_000

#: CI's store-chaos job sweeps this seed (see .github/workflows/ci.yml).
GOLDEN_SEED = int(os.environ.get("STORE_CHAOS_SEED", "7"))

MAGIC = b"TESTMAG1"


def _module():
    module = compile_c(SOURCE, "store-test")
    PassManager(baseline_passes(11)).run(module)
    return module


def _executor():
    return ForkServerExecutor(_module(), IMAGE, Kernel())


def _campaign(config):
    return Campaign(_executor(), seeds=SEEDS, config=config)


def _arm(site: str, occurrence: int) -> FaultInjector:
    """An injector firing one disk fault at the given poll occurrence."""
    return FaultInjector(FaultPlan([FaultSpec(FaultSite(site), occurrence)]))


def _flip_byte(path: str, offset: int | None = None) -> None:
    data = bytearray(open(path, "rb").read())
    at = len(data) // 2 if offset is None else offset
    data[at] ^= 0x01
    with open(path, "wb") as handle:
        handle.write(bytes(data))


# ---------------------------------------------------------------------------
# atomic_write: the one seam
# ---------------------------------------------------------------------------


class TestAtomicWrite:
    def test_roundtrip_and_rotation(self, tmp_path):
        path = str(tmp_path / "f.bin")
        for generation in (b"one", b"two", b"three"):
            atomic_write(path, generation, keep=2)
        assert open(path, "rb").read() == b"three"
        assert open(path + ".1", "rb").read() == b"two"
        assert not os.path.exists(path + ".2")     # keep=2 drops the oldest
        assert not any(
            is_temp_artifact(name) for name in os.listdir(tmp_path)
        )

    def test_torn_write_models_power_cut(self, tmp_path):
        path = str(tmp_path / "f.bin")
        atomic_write(path, b"old-contents")
        with disk_chaos(_arm("torn-write", 0)), \
                pytest.raises(InjectedFault):
            atomic_write(path, b"new-contents!")
        # Destination untouched; the torn temp survives like a real crash.
        assert open(path, "rb").read() == b"old-contents"
        torn = [n for n in os.listdir(tmp_path) if is_temp_artifact(n)]
        assert len(torn) == 1
        assert len(open(str(tmp_path / torn[0]), "rb").read()) < len(
            b"new-contents!"
        )

    def test_enospc_is_a_real_errno(self, tmp_path):
        path = str(tmp_path / "f.bin")
        atomic_write(path, b"old")
        with disk_chaos(_arm("enospc", 0)), pytest.raises(OSError) as exc:
            atomic_write(path, b"newer")
        assert exc.value.errno == errno.ENOSPC
        # A *reported* failure cleans its temp; the destination is intact.
        assert open(path, "rb").read() == b"old"
        assert not any(is_temp_artifact(n) for n in os.listdir(tmp_path))

    def test_eio_on_fsync(self, tmp_path):
        path = str(tmp_path / "f.bin")
        atomic_write(path, b"old")
        with disk_chaos(_arm("eio-fsync", 0)), \
                pytest.raises(OSError) as exc:
            atomic_write(path, b"newer")
        assert exc.value.errno == errno.EIO
        assert open(path, "rb").read() == b"old"
        assert not any(is_temp_artifact(n) for n in os.listdir(tmp_path))

    def test_lost_rename_leaves_old_file(self, tmp_path):
        path = str(tmp_path / "f.bin")
        atomic_write(path, b"old")
        with disk_chaos(_arm("lost-rename", 0)), \
                pytest.raises(InjectedFault):
            atomic_write(path, b"newer")
        assert open(path, "rb").read() == b"old"
        # The fully written temp survives (crash inside the rename window).
        torn = [n for n in os.listdir(tmp_path) if is_temp_artifact(n)]
        assert len(torn) == 1
        assert open(str(tmp_path / torn[0]), "rb").read() == b"newer"

    def test_bit_flip_is_silent(self, tmp_path):
        path = str(tmp_path / "f.bin")
        with disk_chaos(_arm("bit-flip", 0)):
            atomic_write(path, b"payload!")
        rotted = open(path, "rb").read()
        assert rotted != b"payload!"
        assert len(rotted) == len(b"payload!")
        assert sum(
            bin(a ^ b).count("1") for a, b in zip(rotted, b"payload!")
        ) == 1

    def test_global_seam_scopes_with_context_manager(self, tmp_path):
        path = str(tmp_path / "f.bin")
        with disk_chaos(_arm("torn-write", 0)):
            with pytest.raises(InjectedFault):
                atomic_write(path, b"data")
        atomic_write(path, b"data")    # chaos cleared on exit
        assert open(path, "rb").read() == b"data"


# ---------------------------------------------------------------------------
# CRC-framed record files
# ---------------------------------------------------------------------------


class TestFramed:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "f.rec")
        write_framed(path, MAGIC, b"the-body")
        assert read_framed(path, MAGIC) == b"the-body"

    def test_bad_magic_names_offset(self, tmp_path):
        path = str(tmp_path / "f.rec")
        atomic_write(path, b"WRONGMAGplus-some-body")
        with pytest.raises(FrameError, match=r"bad magic at byte offset 0"):
            read_framed(path, MAGIC)

    def test_crc_failure_names_offset_and_both_crcs(self, tmp_path):
        path = str(tmp_path / "f.rec")
        write_framed(path, MAGIC, b"the-body-to-protect")
        _flip_byte(path)
        with pytest.raises(FrameError) as exc:
            read_framed(path, MAGIC)
        message = str(exc.value)
        assert re.search(r"byte offset \d+", message)
        assert re.search(r"expected [0-9a-f]{8}, actual [0-9a-f]{8}", message)



# ---------------------------------------------------------------------------
# torn-tail-tolerant append logs
# ---------------------------------------------------------------------------


class TestAppendLog:
    def test_roundtrip_is_canonical(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        log = AppendLog(path)
        log.append({"b": 2, "a": 1})
        log.append({"x": [1, 2]})
        assert log.read() == [{"a": 1, "b": 2}, {"x": [1, 2]}]
        raw = open(path, "rb").read()
        assert raw == b'{"a":1,"b":2}\n{"x":[1,2]}\n'
        assert canonical_line({"b": 2, "a": 1}) == '{"a":1,"b":2}'

    def test_torn_tail_dropped_and_repaired(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        log = AppendLog(path)
        log.append({"n": 1})
        with open(path, "ab") as handle:
            handle.write(b'{"n":2')       # the crash-torn half line
        records, damage = AppendLog(path).scan()
        assert records == [{"n": 1}]
        assert [d.kind for d in damage] == ["torn-tail"]
        assert damage[0].byte_offset == len(b'{"n":1}\n')
        # read() treats the torn tail as expected damage, not an error...
        assert AppendLog(path).read() == [{"n": 1}]
        # ...and the next append truncates it before writing.
        fresh = AppendLog(path)
        fresh.append({"n": 3})
        assert fresh.read() == [{"n": 1}, {"n": 3}]

    def test_mid_stream_corruption_raises_with_offset(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        log = AppendLog(path)
        log.append({"n": 1})
        with open(path, "ab") as handle:
            handle.write(b"!!garbage!!\n")
        log.append({"n": 2})
        with pytest.raises(LogCorruption) as exc:
            AppendLog(path).read()
        offset = len(b'{"n":1}\n')
        assert exc.value.byte_offset == offset
        assert exc.value.line_number == 2
        assert f"byte offset {offset}" in str(exc.value)

    def test_every_append_fsyncs(self, tmp_path):
        """N appends through a bare log, a results-store trial stream
        and the service journal each take N fsync barriers."""
        appends = 5
        results = ResultsStore(str(tmp_path / "results"))
        streams = {
            "log": AppendLog(str(tmp_path / "s.jsonl")).append,
            "results": lambda record: results.append("t1", record),
            "journal": JobJournal(str(tmp_path / "journal.jsonl")).append,
        }
        for name, append in streams.items():
            probe = FaultInjector(FaultPlan([]))  # counts polls, never fires
            with disk_chaos(probe):
                for n in range(appends):
                    append({"kind": "sample", "n": n})
            assert probe.counters.get("eio-fsync", 0) == appends, name

    def test_injected_tear_then_resume(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        log = AppendLog(path)
        with disk_chaos(_arm("torn-write", 1)):
            log.append({"n": 1})
            with pytest.raises(InjectedFault):
                log.append({"n": 2})
            # The failed append left a torn tail; the stream keeps working.
            log.append({"n": 3})
        assert AppendLog(path).read() == [{"n": 1}, {"n": 3}]

    def test_rewrite_replaces_stream(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        log = AppendLog(path)
        for n in range(5):
            log.append({"n": n})
        log.rewrite([{"n": 0}, {"n": 1}])
        assert AppendLog(path).read() == [{"n": 0}, {"n": 1}]


# ---------------------------------------------------------------------------
# consumers: checkpoint errors, the service journal, the results store
# ---------------------------------------------------------------------------


class TestCheckpointDiagnostics:
    def test_crc_failure_reports_offset_and_crcs(self, tmp_path):
        """Satellite: CheckpointError carries the byte offset and the
        expected/actual CRC, not just 'failed'."""
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(_campaign(CampaignConfig(budget_ns=1, seed=1)), path)
        _flip_byte(path)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        message = str(exc.value)
        assert re.search(r"byte offset \d+", message)
        assert re.search(r"expected [0-9a-f]{8}, actual [0-9a-f]{8}", message)
        assert path in message

    def test_rotation_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        campaign = _campaign(CampaignConfig(budget_ns=1, seed=1))
        for _ in range(3):
            save_checkpoint(campaign, path)
        assert os.path.exists(path) and os.path.exists(path + ".1")
        assert not any(is_temp_artifact(n) for n in os.listdir(tmp_path))


class TestJobJournal:
    def test_replay_error_names_offset(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = JobJournal(path)
        journal.append({"event": "submitted", "job": "j1"})
        with open(path, "ab") as handle:
            handle.write(b"\x00\xffrot\n")
        journal.append({"event": "started", "job": "j1"})
        with pytest.raises(LogCorruption) as exc:
            JobJournal(path).read()
        assert exc.value.byte_offset > 0
        assert "byte offset" in str(exc.value)
        assert path in str(exc.value)

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = JobJournal(path)
        journal.append({"event": "submitted"})
        with open(path, "ab") as handle:
            handle.write(b'{"event":"sta')
        assert JobJournal(path).read() == [{"event": "submitted"}]


class TestResultsStoreDurability:
    def test_enospc_mid_append_then_space_returns(self, tmp_path):
        """Satellite: the disk filling mid-append leaves the stream
        readable, and appends resume cleanly once space returns."""
        store = ResultsStore(str(tmp_path))
        for n in range(3):
            store.append("t1", {"kind": "progress", "n": n})
        # The injector only sees polls inside the chaos scope, so the
        # next append is its first enospc occurrence: it tears mid-line.
        with disk_chaos(_arm("enospc", 0)):
            with pytest.raises(OSError) as exc:
                store.append("t1", {"kind": "progress", "n": 3})
        assert exc.value.errno == errno.ENOSPC
        # Readable now, from this handle and a cold one: the torn tail
        # is dropped, the acknowledged prefix survives.
        assert [r["n"] for r in store.read("t1")] == [0, 1, 2]
        assert [r["n"] for r in ResultsStore(str(tmp_path)).read("t1")] == [
            0, 1, 2,
        ]
        # Space returns (the chaos scope ended): appends repair the
        # torn tail and continue.
        store.append("t1", {"kind": "progress", "n": 4})
        store.append("t1", {"kind": "final", "n": 5})
        assert [r["n"] for r in ResultsStore(str(tmp_path)).read("t1")] == [
            0, 1, 2, 4, 5,
        ]


# ---------------------------------------------------------------------------
# the content-addressed corpus store
# ---------------------------------------------------------------------------


class TestCorpusStore:
    def test_put_get_roundtrip_addresses_by_content(self, tmp_path):
        store = CorpusStore(str(tmp_path))
        digest = store.put(b"some input")
        assert digest == object_digest(b"some input")   # store address == hash
        assert store.get(digest) == b"some input"
        assert store.has(digest)

    def test_dedup_and_refcounts(self, tmp_path):
        store = CorpusStore(str(tmp_path))
        a = store.put(b"shared", owner="tenant-a")
        b = store.put(b"shared", owner="tenant-b")
        assert a == b
        assert len(list(store.objects())) == 1
        assert store.refcount(a) == 2
        assert store.refs("tenant-a") == {a}
        # References persist across handles (they live in ref logs).
        assert CorpusStore(str(tmp_path)).refcount(a) == 2

    def test_retain_release_prune(self, tmp_path):
        store = CorpusStore(str(tmp_path))
        keep = store.put(b"keep", owner="o")
        drop = store.put(b"drop", owner="o")
        assert store.retain("o", {keep}) == 1
        assert store.refs("o") == {keep}
        assert CorpusStore(str(tmp_path)).refs("o") == {keep}
        removed = store.prune()
        assert drop in removed
        assert store.has(keep) and not store.has(drop)
        store.release("o")
        assert store.prune() and not store.has(keep)

    def test_get_repairs_bit_rot_from_replica(self, tmp_path):
        store = CorpusStore(str(tmp_path))
        digest = store.put(b"precious payload")
        _flip_byte(store.object_path(digest))
        assert store.get(digest) == b"precious payload"
        # The primary was healed in place, not just served from mirror.
        assert open(store.object_path(digest), "rb").read() == (
            b"precious payload"
        )

    def test_get_quarantines_unrecoverable_rot(self, tmp_path):
        store = CorpusStore(str(tmp_path))
        digest = store.put(b"doomed")
        _flip_byte(store.object_path(digest))
        _flip_byte(store.mirror_path(digest))
        with pytest.raises(ObjectCorruption) as exc:
            store.get(digest)
        assert digest in str(exc.value)
        assert not store.has(digest)
        assert os.listdir(os.path.join(str(tmp_path), "quarantine"))

    def test_scrub_repairs_both_directions(self, tmp_path):
        store = CorpusStore(str(tmp_path))
        rot_primary = store.put(b"primary-rots")
        rot_mirror = store.put(b"mirror-rots")
        healthy = store.put(b"stays-healthy")
        doomed = store.put(b"loses-both")
        _flip_byte(store.object_path(rot_primary))
        _flip_byte(store.mirror_path(rot_mirror))
        _flip_byte(store.object_path(doomed))
        _flip_byte(store.mirror_path(doomed))
        # A read-only scrub reports without touching the tree.
        preview = store.scrub(repair=False)
        assert set(preview.degraded) == {rot_primary, rot_mirror}
        assert preview.quarantined == (doomed,)
        assert not preview.clean
        assert store.has(doomed)                     # nothing moved yet
        report = store.scrub(repair=True)
        assert report.checked == 4
        assert set(report.repaired) == {rot_primary, rot_mirror}
        assert report.quarantined == (doomed,)
        assert store.get(rot_primary) == b"primary-rots"
        assert store.get(healthy) == b"stays-healthy"
        assert not store.has(doomed)
        assert store.scrub().clean

    def test_distill_is_bit_greedy_cmin(self, tmp_path):
        store = CorpusStore(str(tmp_path))
        superset = store.put(b"covers-bits-0-and-1")
        subset = store.put(b"covers-bit-0")
        disjoint = store.put(b"covers-bit-11")
        entries = [
            # nothing beyond the superset
            (subset, coverage_signature(bytes([1])), 2),
            # cheapest, covers bits {0, 8}
            (superset, coverage_signature(bytes([1, 1])), 1),
            # the only cover of bit 11 (cell 1, bucket 8)
            (disjoint, coverage_signature(bytes([0, 4])), 3),
        ]
        selected = store.distill(entries)
        assert selected == [superset, disjoint]

    def test_open_store_refuses_non_store_roots(self, tmp_path):
        os.makedirs(str(tmp_path / "not-a-store"))
        with pytest.raises(Exception):
            open_store(str(tmp_path / "not-a-store"))
        root = str(tmp_path / "real")
        CorpusStore(root).put(b"x")
        assert open_store(root).stats()["objects"] == 1


# ---------------------------------------------------------------------------
# campaign wiring: persistence is off the virtual timeline
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def stored_run(tmp_path_factory):
    """One campaign persisted through a corpus store, plus its no-store
    twin's digest for the invariance checks."""
    root = str(tmp_path_factory.mktemp("corpus-store"))
    plain = _campaign(CampaignConfig(budget_ns=BUDGET_NS, seed=7))
    plain.run()
    store = CorpusStore(root)
    stored = _campaign(
        CampaignConfig(
            budget_ns=BUDGET_NS, seed=7,
            corpus_store=store, corpus_owner="tenant-a",
        )
    )
    stored.run()
    return root, stored, plain.state_digest()


class TestCampaignWiring:
    def test_store_does_not_perturb_the_run(self, stored_run):
        _root, stored, plain_digest = stored_run
        assert stored.state_digest() == plain_digest

    def test_every_corpus_payload_is_stored(self, stored_run):
        root, stored, _ = stored_run
        store = CorpusStore(root)
        hashes = {object_digest(e.data) for e in stored.corpus.entries}
        assert hashes
        assert hashes <= set(store.objects())
        assert hashes <= store.refs("tenant-a")

    def test_cross_campaign_dedup(self, stored_run):
        """A second tenant fuzzing the same target shares the store:
        identical inputs land as references, not copies."""
        root, _stored, _ = stored_run
        store = CorpusStore(root)
        rerun = _campaign(
            CampaignConfig(
                budget_ns=BUDGET_NS, seed=7,
                corpus_store=store, corpus_owner="tenant-b",
            )
        )
        rerun.run()
        refs_a = store.refs("tenant-a")
        refs_b = store.refs("tenant-b")
        shared = refs_a & refs_b
        assert len(shared) / len(refs_a | refs_b) >= 0.30
        # Physical storage holds one copy of everything shared.
        assert len(list(store.objects())) == len(refs_a | refs_b)
        # A *different-seed* campaign still shares at least the seed
        # corpus (and usually early discoveries).
        other = _campaign(
            CampaignConfig(
                budget_ns=BUDGET_NS, seed=11,
                corpus_store=store, corpus_owner="tenant-c",
            )
        )
        other.run()
        assert len(refs_a & store.refs("tenant-c")) >= len(SEEDS)

    def test_distilled_corpus_covers_the_same_map(self, stored_run):
        """afl-cmin acceptance: the distilled set's coverage OR equals
        the full corpus's."""
        root, stored, _ = stored_run
        store = CorpusStore(root)
        entries = [
            (
                object_digest(e.data),
                e.coverage_signature,
                e.exec_ns * max(1, len(e.data)),
            )
            for e in stored.corpus.entries
        ]
        selected = store.distill(entries)
        signatures = {digest: sig for digest, sig, _ in entries}
        full = 0
        for _digest, sig, _w in entries:
            full |= signature_bits(sig)
        distilled = 0
        for digest in selected:
            distilled |= signature_bits(signatures[digest])
        assert distilled == full
        assert 0 < len(selected) <= len(entries)
        # Every selected digest resolves from the store.
        for digest in selected:
            assert store.get(digest)


# ---------------------------------------------------------------------------
# hash-only sync exchange
# ---------------------------------------------------------------------------


def _report(shard_id, discoveries):
    return RoundReport(
        shard_id=shard_id, round_index=0, clock_ns=0, execs=1,
        edges_found=0, corpus_size=1, unique_crashes=0, total_crashes=0,
        unique_hangs=0, imported=0, discoveries=discoveries,
    )


class TestHashOnlySync:
    def test_from_entry_ships_digest_not_payload(self, stored_run, tmp_path):
        _root, stored, _ = stored_run
        store = CorpusStore(str(tmp_path))
        entry = stored.corpus.entries[0]
        candidate = SyncCandidate.from_entry(3, entry, store=store, owner="w3")
        assert candidate.data is None
        assert candidate.digest == object_digest(entry.data)
        assert candidate.hash == candidate.digest
        assert store.get(candidate.digest) == entry.data

    def test_hub_resolves_payloads_at_drain(self, stored_run, tmp_path):
        _root, stored, _ = stored_run
        store = CorpusStore(str(tmp_path))
        entry = stored.corpus.entries[0]
        candidate = SyncCandidate.from_entry(0, entry, store=store)
        hub = SyncHub(n_workers=2, store=store)
        assert hub.ingest([_report(0, [candidate])]) == 1
        assert hub.drain(1) == [entry.data]

    def test_hub_without_store_rejects_hash_only(self, stored_run, tmp_path):
        _root, stored, _ = stored_run
        store = CorpusStore(str(tmp_path))
        candidate = SyncCandidate.from_entry(
            0, stored.corpus.entries[0], store=store
        )
        hub = SyncHub(n_workers=2)
        hub.ingest([_report(0, [candidate])])
        with pytest.raises(RuntimeError, match="no corpus store"):
            hub.drain(1)

    def test_parallel_digest_invariant_with_store(self, tmp_path):
        """The end-to-end check: a parallel campaign exchanging hashes
        through a shared store merges bit-identically to one shipping
        payloads — across both transports."""
        base = dict(target="md4c", n_workers=2, seed=7,
                    budget_ns=6_000_000, sync_every_ns=2_000_000)
        golden = ParallelCampaign(ParallelConfig(**base)).run()
        root = str(tmp_path / "shared-corpus")
        stored = ParallelCampaign(
            ParallelConfig(**base, corpus_store_root=root)
        ).run()
        assert stored.digest() == golden.digest()
        assert stored.sync.delivered > 0        # the exchange really ran
        store = open_store(root)
        assert set(stored.corpus_hashes) <= set(store.objects())
        proc_root = str(tmp_path / "proc-corpus")
        via_processes = ParallelCampaign(
            ParallelConfig(
                **base, corpus_store_root=proc_root, use_processes=True
            )
        ).run()
        assert via_processes.digest() == golden.digest()


# ---------------------------------------------------------------------------
# fsck
# ---------------------------------------------------------------------------


class TestFsck:
    def _build_damaged_tree(self, tmp_path):
        tree = str(tmp_path)
        ckpt = os.path.join(tree, "campaign.ckpt")
        campaign = _campaign(CampaignConfig(budget_ns=1, seed=1))
        save_checkpoint(campaign, ckpt)
        save_checkpoint(campaign, ckpt)
        _flip_byte(ckpt)                       # live gen rots; .1 loadable
        log = AppendLog(os.path.join(tree, "journal.jsonl"))
        log.append({"n": 1})
        with open(log.path, "ab") as handle:
            handle.write(b'{"n":2')            # torn tail
        store = CorpusStore(os.path.join(tree, "corpus"))
        degraded = store.put(b"rots-but-mirrored", owner="o")
        store.put(b"healthy", owner="o")
        _flip_byte(store.object_path(degraded))
        with open(os.path.join(tree, "stray.tmp"), "wb") as handle:
            handle.write(b"leftover")
        return tree, ckpt, log.path, store, degraded

    def test_expected_crash_residue_is_warnings_only(self, tmp_path):
        tree, *_ = self._build_damaged_tree(tmp_path)
        report = fsck_tree(tree)
        assert report.ok, [f.to_dict() for f in report.findings]
        kinds = {f.kind for f in report.findings}
        assert kinds == {
            "corrupt-generation", "torn-tail", "object-rot", "stray-temp",
        }
        assert not report.errors
        assert report.stores_scanned == 1

    def test_repair_fixes_everything_fixable(self, tmp_path):
        tree, ckpt, log_path, store, degraded = self._build_damaged_tree(
            tmp_path
        )
        report = fsck_tree(tree, repair=True)
        assert report.ok
        assert all(f.repaired for f in report.findings)
        assert not os.path.exists(ckpt)            # corrupt live gen swept
        assert os.path.exists(ckpt + ".1")
        assert open(log_path, "rb").read().endswith(b'{"n":1}\n')
        assert not os.path.exists(os.path.join(tree, "stray.tmp"))
        fresh = CorpusStore(store.root)
        assert open(fresh.object_path(degraded), "rb").read() == (
            b"rots-but-mirrored"
        )
        assert not fsck_tree(tree).findings

    def test_unrecoverable_rot_is_an_error_until_quarantined(self, tmp_path):
        tree, _ckpt, _log, store, _deg = self._build_damaged_tree(tmp_path)
        doomed = store.put(b"doomed", owner="o")
        _flip_byte(store.object_path(doomed))
        _flip_byte(store.mirror_path(doomed))
        report = fsck_tree(tree)
        assert not report.ok
        assert {f.kind for f in report.errors} == {"object-unrecoverable"}
        # Repair quarantines the object and drops the dangling ref; the
        # data loss is still reported as an error on *this* run...
        repair = fsck_tree(tree, repair=True)
        assert any(f.kind == "object-unrecoverable" for f in repair.errors)
        # ...but the tree is consistent again afterwards.
        after = fsck_tree(tree)
        assert after.ok and not after.findings
        assert doomed not in CorpusStore(store.root).refs("o")

    def test_mid_log_corruption_repair_keeps_valid_prefix(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        log = AppendLog(path)
        log.append({"n": 1})
        with open(path, "ab") as handle:
            handle.write(b"\xff\xfe broken \n")
        log.append({"n": 2})
        report = fsck_tree(str(tmp_path))
        assert not report.ok
        assert report.errors[0].kind == "log-corruption"
        fsck_tree(str(tmp_path), repair=True)
        assert AppendLog(path).read() == [{"n": 1}]
        assert fsck_tree(str(tmp_path)).ok

    def test_cli_exit_codes_and_json_report(self, tmp_path):
        tree, *_ = self._build_damaged_tree(tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        report_path = str(tmp_path / "report.json")

        def _fsck(*extra):
            return subprocess.run(
                [sys.executable, "-m", "repro.store", "fsck", tree, *extra],
                env=env, capture_output=True, text=True,
            )

        clean = _fsck("--json", report_path)
        assert clean.returncode == 0, clean.stdout + clean.stderr
        payload = json.load(open(report_path))
        assert payload["ok"] is True
        assert payload["root"] == tree
        assert payload["findings"]
        # Rot both copies of an object: fsck now fails the tree...
        store = CorpusStore(os.path.join(tree, "corpus"))
        doomed = store.put(b"doomed", owner="o")
        _flip_byte(store.object_path(doomed))
        _flip_byte(store.mirror_path(doomed))
        assert _fsck().returncode == 1
        # ...--repair quarantines (reporting the loss), after which the
        # tree verifies clean again.
        _fsck("--repair")
        assert _fsck().returncode == 0

    def test_cli_checks_a_file_as_its_directory_walk_does(
            self, tmp_path, capsys):
        """A checkpoint file gets the verdict the walk of its directory
        gives its generation family; a missing path is one ``error:``
        line and exit status 2."""
        tree, ckpt, *_ = self._build_damaged_tree(tmp_path)
        walked = [f.to_dict() for f in fsck_tree(tree).findings
                  if f.path.startswith(ckpt)]
        assert [f["kind"] for f in walked] == ["corrupt-generation"]
        assert [f.to_dict() for f in fsck_tree(ckpt).findings] == walked
        assert [f.to_dict() for f in fsck_tree(ckpt + ".1").findings] == \
            walked
        assert store_main(["fsck", ckpt]) == 0     # .1 still loads
        assert "corrupt-generation" in capsys.readouterr().out
        # A lone generation that fails its CRC leaves nothing to load.
        lone = str(tmp_path / "lone" / "campaign.ckpt")
        write_framed(lone, b"RPRCKPT1", b"z" * 64)
        _flip_byte(lone)
        assert store_main(["fsck", lone]) == 1
        assert "checkpoint-unrecoverable" in capsys.readouterr().out
        assert store_main(["fsck", str(tmp_path / "lone")]) == 1
        capsys.readouterr()
        for argv in (["fsck", str(tmp_path / "missing")],
                     ["stats", tree], ["scrub", tree]):
            assert store_main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines


# ---------------------------------------------------------------------------
# the golden disk-chaos test
# ---------------------------------------------------------------------------


def _golden_config(tree, store):
    return CampaignConfig(
        budget_ns=BUDGET_NS, seed=GOLDEN_SEED,
        checkpoint_path=os.path.join(tree, "campaign.ckpt"),
        checkpoint_interval_ns=3_000_000,
        corpus_store=store, corpus_owner="golden",
    )


@pytest.fixture(scope="module")
def golden_baseline(tmp_path_factory):
    """The undisturbed run's digest, plus how often each disk site is
    polled during it — used to aim each fault at mid-run I/O."""
    tree = str(tmp_path_factory.mktemp("golden-baseline"))
    probe = FaultInjector(FaultPlan([]))    # counts polls, never fires
    campaign = Campaign(
        _executor(), seeds=SEEDS,
        config=_golden_config(tree, CorpusStore(os.path.join(tree, "corpus"))),
    )
    with disk_chaos(probe):
        campaign.run()
    counters = {site: probe.counters.get(site, 0) for site in DISK_FAULT_SITES}
    assert all(count > 3 for count in counters.values()), counters
    assert fsck_tree(tree).ok
    return campaign.state_digest(), counters


class TestGoldenDiskChaos:
    @pytest.mark.parametrize("site", DISK_FAULT_SITES)
    def test_killed_campaign_recovers_bit_identical(
        self, site, golden_baseline, tmp_path
    ):
        """The headline: kill a persisted campaign under each disk-fault
        plan, resume it, and require a digest bit-identical to the
        undisturbed run — then fsck the whole surviving tree."""
        golden_digest, counters = golden_baseline
        tree = str(tmp_path)
        store_root = os.path.join(tree, "corpus")
        # Aim at ~40% of the run's polls of this site: deep enough that
        # checkpoints exist, early enough that real work remains.
        occurrence = max(2, counters[site] * 2 // 5)
        campaign = Campaign(
            _executor(), seeds=SEEDS,
            config=_golden_config(tree, CorpusStore(store_root)),
        )
        injector = _arm(site, occurrence)
        died = False
        with disk_chaos(injector):
            try:
                if site == "bit-flip":
                    # Raising sites kill the process themselves; the
                    # silent bit flip needs a separate death.
                    run_killed(campaign, BUDGET_NS * 7 // 10)
                else:
                    campaign.run()
            except (InjectedFault, OSError):
                died = True
        assert injector.fired, f"{site} never fired (occurrence {occurrence})"
        if site != "bit-flip":
            assert died

        resume_config = _golden_config(tree, CorpusStore(store_root))
        ckpt = resume_config.checkpoint_path
        if os.path.exists(ckpt):
            resumed = Campaign.resume(ckpt, _executor(), resume_config)
        else:
            # The fault struck before the first checkpoint survived:
            # recovery is a restart, which determinism makes equivalent.
            resumed = Campaign(_executor(), seeds=SEEDS, config=resume_config)
        resumed.run()
        assert resumed.state_digest() == golden_digest

        report = fsck_tree(tree)
        assert report.ok, [f.to_dict() for f in report.findings]

    def test_generated_disk_plans_never_break_recovery(
        self, golden_baseline, tmp_path
    ):
        """Beyond single faults: a seed-generated multi-fault disk plan
        (the CI store-chaos job's shape) still recovers bit-identically."""
        golden_digest, _counters = golden_baseline
        tree = str(tmp_path)
        store_root = os.path.join(tree, "corpus")
        plan = FaultPlan.generate(
            GOLDEN_SEED, 3,
            sites=FaultPlan.DISK_SITES, max_occurrence=40,
        )
        campaign = Campaign(
            _executor(), seeds=SEEDS,
            config=_golden_config(tree, CorpusStore(store_root)),
        )
        survived_to_halt = True
        with disk_chaos(FaultInjector(plan)):
            try:
                run_killed(campaign, BUDGET_NS * 7 // 10)
            except (InjectedFault, OSError):
                survived_to_halt = False
        resume_config = _golden_config(tree, CorpusStore(store_root))
        ckpt = resume_config.checkpoint_path
        if os.path.exists(ckpt):
            resumed = Campaign.resume(ckpt, _executor(), resume_config)
        else:
            resumed = Campaign(_executor(), seeds=SEEDS, config=resume_config)
        resumed.run()
        assert resumed.state_digest() == golden_digest
        assert fsck_tree(tree).ok
        assert survived_to_halt or True     # either death mode is legal
