"""Parallel multi-worker campaigns: sync protocol, determinism,
transport equivalence, failure healing, coordinated checkpoint/resume.

The hard invariant under test everywhere: for a fixed ``(seed,
n_workers, sync_every)`` the merged result digest is bit-identical —
across repeated runs, across the inline and process transports, across
a worker being killed mid-round and replaced, and across the
orchestrator itself dying at a barrier and resuming from the
coordinated checkpoint.
"""

from __future__ import annotations

import os

import pytest

from repro.execution import ClosureXExecutor
from repro.fuzzing import Campaign, CampaignConfig, CheckpointError
from repro.fuzzing.coverage import VirginMap, coverage_signature
from repro.parallel import (
    ParallelCampaign,
    ParallelConfig,
    SyncCandidate,
    SyncHub,
    derive_worker_seed,
    open_campaign,
)
from repro.sim_os import Kernel
from repro.targets import get_target
from repro.vm.interpreter import COVERAGE_MAP_SIZE

TARGET = "md4c"
BUDGET_NS = 6_000_000
SYNC_NS = 2_000_000


def _config(**overrides) -> ParallelConfig:
    base = dict(target=TARGET, n_workers=2, seed=7,
                budget_ns=BUDGET_NS, sync_every_ns=SYNC_NS)
    base.update(overrides)
    return ParallelConfig(**base)


@pytest.fixture(scope="module")
def golden():
    """One uninterrupted inline run every invariant test compares to."""
    return ParallelCampaign(_config()).run()


# ---------------------------------------------------------------------------
# worker seed derivation
# ---------------------------------------------------------------------------


class TestWorkerSeeds:
    def test_deterministic(self):
        assert derive_worker_seed(7, 3) == derive_worker_seed(7, 3)

    def test_distinct_across_shards(self):
        seeds = {derive_worker_seed(7, shard) for shard in range(64)}
        assert len(seeds) == 64

    def test_distinct_across_campaign_seeds(self):
        assert derive_worker_seed(1, 0) != derive_worker_seed(2, 0)

    def test_nonnegative_and_bounded(self):
        for shard in range(16):
            seed = derive_worker_seed(123456789, shard)
            assert 0 <= seed <= 0x7FFFFFFF


# ---------------------------------------------------------------------------
# sync hub protocol
# ---------------------------------------------------------------------------


def _candidate(shard, entry_id, data, cells):
    raw = bytearray(COVERAGE_MAP_SIZE)
    for index, count in cells.items():
        raw[index] = count
    return SyncCandidate(
        shard_id=shard, entry_id=entry_id, data=data,
        signature=coverage_signature(raw), exec_ns=1000,
    )


def _report(shard, discoveries, round_index=0):
    from repro.parallel.sync import RoundReport
    return RoundReport(
        shard_id=shard, round_index=round_index, clock_ns=0, execs=0,
        edges_found=0, corpus_size=0, unique_crashes=0, total_crashes=0,
        unique_hangs=0, imported=0, discoveries=discoveries,
    )


class TestSyncHub:
    def test_novel_input_broadcast_to_other_shards_only(self):
        hub = SyncHub(3)
        cand = _candidate(1, 0, b"a", {5: 1})
        assert hub.ingest([_report(1, [cand])]) == 1
        assert [len(box) for box in hub.outboxes] == [1, 0, 1]

    def test_content_hash_dedup(self):
        hub = SyncHub(2)
        first = _candidate(0, 0, b"same", {5: 1})
        second = _candidate(1, 0, b"same", {9: 1})  # new edge, same bytes
        hub.ingest([_report(0, [first]), _report(1, [second])])
        assert hub.stats.accepted == 1
        assert hub.stats.duplicates == 1

    def test_novelty_filter_rejects_known_coverage(self):
        hub = SyncHub(2)
        hub.ingest([_report(0, [_candidate(0, 0, b"a", {5: 1})])])
        hub.ingest([_report(0, [_candidate(0, 1, b"b", {5: 1})])])
        assert hub.stats.accepted == 1
        assert hub.stats.stale == 1

    def test_merge_order_is_shard_order_not_arrival_order(self):
        make = lambda: [  # noqa: E731 - tiny local factory
            _report(1, [_candidate(1, 0, b"one", {5: 1})]),
            _report(0, [_candidate(0, 0, b"zero", {5: 1})]),
        ]
        forward, backward = SyncHub(2), SyncHub(2)
        forward.ingest(make())
        backward.ingest(list(reversed(make())))
        # Same coverage cell: shard 0 must win the race in both cases.
        assert forward.corpus_hashes() == backward.corpus_hashes()
        assert forward.accepted[0].shard_id == 0

    def test_seed_corpus_never_interesting(self):
        hub = SyncHub(2)
        hub.register_seeds([b"seed"])
        hub.ingest([_report(0, [_candidate(0, 0, b"seed", {5: 1})])])
        assert hub.stats.accepted == 0
        assert hub.stats.duplicates == 1

    def test_backpressure_cap_and_fifo_order(self, monkeypatch):
        monkeypatch.setattr("repro.parallel.sync.MAX_IMPORTS_PER_SYNC", 2)
        hub = SyncHub(2)
        cands = [
            _candidate(0, i, bytes([i]), {i: 1}) for i in range(5)
        ]
        hub.ingest([_report(0, cands)])
        first = hub.drain(1)
        assert first == [bytes([0]), bytes([1])]
        assert hub.pending() == 3
        assert hub.drain(1) == [bytes([2]), bytes([3])]
        assert hub.drain(1) == [bytes([4])]
        assert hub.drain(1) == []
        assert hub.stats.delivered == 5

    def test_own_outbox_never_receives_own_discovery(self):
        hub = SyncHub(2)
        hub.ingest([_report(0, [_candidate(0, 0, b"a", {5: 1})])])
        assert hub.drain(0) == []
        assert hub.drain(1) == [b"a"]

    def test_snapshot_roundtrip(self):
        hub = SyncHub(2)
        hub.register_seeds([b"seed"])
        hub.ingest([_report(0, [_candidate(0, 0, b"a", {5: 1})])])
        clone = SyncHub.from_state(hub.snapshot_state())
        assert clone.seen_hashes == hub.seen_hashes
        assert clone.corpus_hashes() == hub.corpus_hashes()
        assert [list(b) for b in clone.outboxes] == [
            list(b) for b in hub.outboxes
        ]
        # and the novelty filter state survived: same input is stale
        clone.ingest([_report(1, [_candidate(1, 9, b"b", {5: 1})])])
        assert clone.stats.stale == hub.stats.stale + 1


# ---------------------------------------------------------------------------
# stepwise campaign driving (the substrate the orchestrator relies on)
# ---------------------------------------------------------------------------


class TestStepwiseCampaign:
    def _campaign(self):
        spec = get_target(TARGET)
        executor = ClosureXExecutor(
            spec.build_closurex(), spec.image_bytes, Kernel()
        )
        return Campaign(
            executor, spec.seeds,
            CampaignConfig(budget_ns=BUDGET_NS, seed=7),
        )

    def test_step_until_chunks_equal_single_run(self):
        whole = self._campaign()
        whole_result = whole.run()

        chunked = self._campaign()
        chunked.start()
        for stop in range(SYNC_NS, BUDGET_NS + SYNC_NS, SYNC_NS):
            chunked.step_until(min(stop, BUDGET_NS))
        chunked_result = chunked.finish_run()

        assert chunked_result.execs == whole_result.execs
        assert chunked_result.edges_found == whole_result.edges_found
        assert chunked_result.elapsed_ns == whole_result.elapsed_ns
        assert (
            [e.data for e in chunked.corpus.entries]
            == [e.data for e in whole.corpus.entries]
        )

    def test_import_rejects_stale_and_accepts_novel(self):
        campaign = self._campaign()
        campaign.start()
        campaign.step_until(SYNC_NS)
        size = len(campaign.corpus)
        # Re-importing an input the campaign already holds is never novel.
        assert campaign.import_input(campaign.corpus.entries[0].data) is False
        assert len(campaign.corpus) == size

    def test_export_cursor_yields_each_entry_once(self):
        campaign = self._campaign()
        campaign.start()
        seeds = campaign.corpus.export_new()
        assert [e.data for e in seeds] == [bytes(s) for s in
                                           get_target(TARGET).seeds]
        campaign.step_until(SYNC_NS)
        fresh = campaign.corpus.export_new()
        assert all(e.entry_id >= len(seeds) for e in fresh)
        assert campaign.corpus.export_new() == []


# ---------------------------------------------------------------------------
# end-to-end determinism invariants
# ---------------------------------------------------------------------------


class TestParallelDeterminism:
    def test_two_runs_bit_identical(self, golden):
        repeat = ParallelCampaign(_config()).run()
        assert repeat.digest() == golden.digest()
        assert repeat.corpus_hashes == golden.corpus_hashes
        assert repeat.merged_virgin_bytes == golden.merged_virgin_bytes
        assert (repeat.merged_crash_identities
                == golden.merged_crash_identities)

    def test_process_transport_matches_inline(self, golden):
        result = ParallelCampaign(_config(use_processes=True)).run()
        assert result.digest() == golden.digest()

    def test_killed_worker_replaced_bit_identically(self, golden):
        result = ParallelCampaign(
            _config(use_processes=True, die_at_rounds={1: 1})
        ).run()
        assert result.replacements == 1
        assert result.digest() == golden.digest()

    def test_different_seed_differs(self, golden):
        other = ParallelCampaign(_config(seed=8)).run()
        assert other.digest() != golden.digest()

    def test_workers_explore_divergent_streams(self, golden):
        assert len(golden.workers) == 2
        # Shards share seeds + budget but mutate independently; their
        # discovery sets must not be clones of each other.
        assert golden.sync.offered > 0
        assert golden.sync.accepted > 0

    def test_single_worker_degenerates_gracefully(self):
        result = ParallelCampaign(_config(n_workers=1)).run()
        assert result.n_workers == 1
        assert result.sync.delivered == 0
        assert result.total_execs > 0

    def test_merged_coverage_superset_of_every_worker(self, golden):
        merged = VirginMap.from_bytes(golden.merged_virgin_bytes)
        assert merged.edges_found() >= max(
            r.edges_found for r in golden.workers
        )
        assert golden.total_execs == sum(r.execs for r in golden.workers)


# ---------------------------------------------------------------------------
# the campaign recipe
# ---------------------------------------------------------------------------


class TestRecipe:
    def test_open_campaign_is_a_campaign_or_a_fleet(self):
        assert type(open_campaign(_config(n_workers=1))) is Campaign
        assert type(open_campaign(_config(n_workers=2))) is ParallelCampaign

    def test_lone_and_shard_ladders(self):
        from repro.chaos import FaultPlan
        from repro.parallel.worker import build_worker_executor
        config = _config(chaos_faults=3)
        lone = open_campaign(_config(n_workers=1, chaos_faults=3)).executor
        shard = build_worker_executor(config.worker_config(1))
        # A lone campaign's plan is seeded with the campaign seed and
        # has no fallback; a shard's with its shard seed, and it may
        # degrade ClosureX to a forkserver.
        assert lone.injector.plan == FaultPlan.generate(7, 3)
        assert lone.fallback_factory is None
        assert shard.injector.plan == FaultPlan.generate(
            derive_worker_seed(7, 1), 3)
        assert shard.fallback_factory is not None

    def test_shard_sentinel_keeps_the_policy_shadow_cadence(self):
        from repro.integrity import EscalationPolicy
        from repro.parallel.worker import build_worker_executor
        config = _config(sentinel_digest_every=1)
        shard = build_worker_executor(config.worker_config(0))
        lone = open_campaign(_config(n_workers=1,
                                     sentinel_digest_every=1)).executor
        for executor in (shard, lone):
            assert (executor.sentinel.policy.shadow_every
                    == EscalationPolicy.shadow_every)


# ---------------------------------------------------------------------------
# coordinated checkpoint / resume
# ---------------------------------------------------------------------------


def _dropped_at_barrier(config: ParallelConfig, rounds: int) -> None:
    """Advance a fleet *rounds* sync rounds, checkpoint it, and drop it
    as a killed orchestrator leaves it."""
    fleet = ParallelCampaign(config)
    fleet.start()
    assert fleet.step_until(rounds * SYNC_NS)
    fleet.checkpoint()


class TestCoordinatedCheckpoint:
    def test_halt_and_resume_bit_identical(self, golden, tmp_path):
        path = str(tmp_path / "fleet.ckpt")
        _dropped_at_barrier(_config(checkpoint_path=path), rounds=2)
        assert os.path.exists(path)

        resumed = ParallelCampaign.resume(path)
        result = resumed.run()
        assert result.resumed
        assert result.digest() == golden.digest()

    def test_resume_after_worker_death_bit_identical(self, golden, tmp_path):
        # The full disaster: one worker is killed mid-round, the healed
        # fleet checkpoints, the orchestrator dies at that barrier, and
        # the resumed run still reproduces the golden digest.
        path = str(tmp_path / "fleet.ckpt")
        _dropped_at_barrier(_config(
            use_processes=True, die_at_rounds={1: 1},
            checkpoint_path=path,
        ), rounds=2)
        result = ParallelCampaign.resume(path).run()
        assert result.digest() == golden.digest()

    def test_resume_rejects_mismatched_config(self, tmp_path):
        path = str(tmp_path / "fleet.ckpt")
        _dropped_at_barrier(_config(checkpoint_path=path), rounds=1)
        with pytest.raises(CheckpointError):
            ParallelCampaign.resume(path, _config(seed=99))

    def test_resume_refuses_other_overrides_and_open_starts_fresh(
        self, tmp_path
    ):
        path = str(tmp_path / "fleet.ckpt")
        _dropped_at_barrier(_config(checkpoint_path=path), rounds=1)
        hot = _config(checkpoint_path=path,
                      overrides=(("havoc_base_energy", 96),))
        with pytest.raises(CheckpointError):
            ParallelCampaign.resume(path, hot)
        fleet = ParallelCampaign.open(hot)
        assert not fleet.resumed and fleet.round_index == 0

    def test_resume_rejects_single_campaign_checkpoint(self, tmp_path):
        from repro.fuzzing.checkpoint import CHECKPOINT_VERSION, save_state
        path = str(tmp_path / "single.ckpt")
        save_state({"version": CHECKPOINT_VERSION, "kind": "campaign"}, path)
        with pytest.raises(CheckpointError):
            ParallelCampaign.resume(path)

    def test_checkpoint_strips_test_hooks(self, tmp_path):
        path = str(tmp_path / "fleet.ckpt")
        _dropped_at_barrier(
            _config(checkpoint_path=path, die_at_rounds={0: 99}), rounds=1
        )
        resumed = ParallelCampaign.resume(path)
        assert resumed.config.die_at_rounds == {}

    def test_checkpoint_with_retired_config_fields_resumes(
        self, golden, tmp_path
    ):
        """A checkpoint pickled before the unused fleet options were
        deleted carries them in its config; it resumes to the same
        digest."""
        from repro.fuzzing.checkpoint import load_checkpoint, save_state
        path = str(tmp_path / "fleet.ckpt")
        _dropped_at_barrier(_config(checkpoint_path=path), rounds=1)
        state = load_checkpoint(path)
        state["config"].__dict__.update(
            max_imports_per_sync=64, checkpoint_every_rounds=1,
            worker_timeout_s=300.0, halt_after_round=None,
            sentinel_shadow_every=0,
        )
        # Pickled before the recipe carried overrides: reads the default.
        del state["config"].__dict__["overrides"]
        save_state(state, path)
        assert ParallelCampaign.resume(
            path, _config(checkpoint_path=path)).resumed
        resumed = ParallelCampaign.resume(path)
        assert resumed.config.checkpoint_every_rounds == 1   # carried
        assert resumed.config.overrides == ()
        assert resumed.run().digest() == golden.digest()


# ---------------------------------------------------------------------------
# reporting + CLI
# ---------------------------------------------------------------------------


class TestReportingAndCli:
    def test_merged_stats_files(self, tmp_path):
        report_dir = str(tmp_path / "stats")
        ParallelCampaign(_config(report_dir=report_dir)).run()
        stats = (tmp_path / "stats" / "fuzzer_stats").read_text()
        assert "n_workers" in stats and "execs_done" in stats
        plot = (tmp_path / "stats" / "plot_data").read_text().splitlines()
        assert plot[0].startswith("# relative_time, round")
        assert len(plot) >= 1 + BUDGET_NS // SYNC_NS

    def test_per_worker_stats_files(self, tmp_path):
        report_dir = str(tmp_path / "stats")
        ParallelCampaign(
            _config(report_dir=report_dir, per_worker_reports=True)
        ).run()
        for shard in range(2):
            worker_stats = (
                tmp_path / "stats" / f"worker_{shard}" / "fuzzer_stats"
            ).read_text()
            assert "shard_id" in worker_stats

    def test_cli_runs_twice_with_identical_digest(self, capsys):
        from repro.fuzzing.__main__ import main
        argv = ["--target", TARGET, "--workers", "2", "--seed", "7",
                "--budget-ms", "4", "--sync-ms", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        digest = [l for l in first.splitlines() if l.startswith("digest:")]
        assert digest and digest == [
            l for l in second.splitlines() if l.startswith("digest:")
        ]

    def test_cli_list_targets(self, capsys):
        from repro.fuzzing.__main__ import main
        assert main(["--list-targets"]) == 0
        assert TARGET in capsys.readouterr().out.split()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(target=TARGET, n_workers=0)
        with pytest.raises(ValueError):
            ParallelConfig(target=TARGET, mechanism="warp-drive")

    def test_digest_covers_corpus_and_coverage(self, golden):
        import dataclasses
        mutated = dataclasses.replace(
            golden, corpus_hashes=list(golden.corpus_hashes[1:])
        )
        assert mutated.digest() != golden.digest()
