"""Tests for crash-safe campaign checkpoint/resume.

The golden test is the tentpole's acceptance criterion: kill a campaign
mid-run, resume from its last checkpoint with a freshly built executor,
and the continuation must be bit-identical to a run that was never
interrupted — same execs, same corpus, same crashes, same final
virtual clock.
"""

import os

import pytest

from repro.execution import (
    ClosureXExecutor,
    ForkServerExecutor,
    SupervisedExecutor,
)
from repro.chaos import FaultInjector, FaultPlan
from repro.fuzzing import (
    Campaign,
    CampaignConfig,
    CheckpointError,
    capture_state,
    load_checkpoint,
    save_checkpoint,
    save_state,
)
from repro.fuzzing.__main__ import main as fuzzing_main
from repro.fuzzing.checkpoint import CHECKPOINT_MAGIC, CHECKPOINT_VERSION
from repro.integrity import EscalationPolicy, IntegritySentinel
from repro.minic import compile_c
from repro.parallel import ParallelConfig, open_campaign
from repro.passes import PassManager, baseline_passes, closurex_passes
from repro.sim_os import Kernel
from tests.helpers import run_killed

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
BUDGET_NS = 40_000_000


def _module():
    module = compile_c(SOURCE, "ckpt-test")
    PassManager(baseline_passes(11)).run(module)
    return module


def _executor():
    return ForkServerExecutor(_module(), IMAGE, Kernel())


def _campaign(config):
    return Campaign(_executor(), seeds=[b"hello", b"Xseed"], config=config)


def _fingerprint(campaign, result):
    """Everything 'bit-identical' means for a finished campaign."""
    return {
        "execs": result.execs,
        "elapsed_ns": result.elapsed_ns,
        "edges": result.edges_found,
        "unique_crashes": result.unique_crashes,
        "total_crashes": result.total_crashes,
        "corpus": [
            (e.data, e.coverage_signature, e.favored, e.times_selected)
            for e in campaign.corpus.entries
        ],
        "crash_identities": [r.identity for r in result.crash_reports],
        "clock_ns": campaign.clock.now_ns,
        "rng": campaign.rng.getstate(),
    }


class TestCheckpointFile:
    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = str(tmp_path / "ckpt" / "campaign.ckpt")
        campaign = _campaign(CampaignConfig(budget_ns=1, seed=1))
        save_checkpoint(campaign, path)
        assert os.path.exists(path)
        assert not os.path.exists(path + ".tmp")
        state = load_checkpoint(path)
        assert state["mechanism"] == "forkserver"
        assert state["seed"] == 1

    def test_overwrite_keeps_file_valid(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        campaign = _campaign(CampaignConfig(budget_ns=1, seed=1))
        save_checkpoint(campaign, path)
        campaign.execs = 99
        save_checkpoint(campaign, path)
        assert load_checkpoint(path)["execs"] == 99

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_garbage_raises(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_truncated_raises(self, tmp_path):
        good = tmp_path / "good.ckpt"
        campaign = _campaign(CampaignConfig(budget_ns=1, seed=1))
        save_checkpoint(campaign, str(good))
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(good.read_bytes()[: len(CHECKPOINT_MAGIC) + 10])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(bad))

    def test_crc_detects_silent_corruption(self, tmp_path):
        """One flipped bit anywhere in the payload fails the CRC —
        bit rot never surfaces as a subtly wrong resume."""
        path = tmp_path / "c.ckpt"
        campaign = _campaign(CampaignConfig(budget_ns=1, seed=1))
        save_checkpoint(campaign, str(path))
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0x01
        path.write_bytes(bytes(payload))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(str(path))

    def test_rotation_keeps_previous_generation(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        campaign = _campaign(CampaignConfig(budget_ns=1, seed=1))
        campaign.execs = 1
        save_checkpoint(campaign, path)
        campaign.execs = 2
        save_checkpoint(campaign, path)
        assert load_checkpoint(path)["execs"] == 2
        assert os.path.exists(path + ".1")

    def test_load_falls_back_to_older_generation(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        campaign = _campaign(CampaignConfig(budget_ns=1, seed=1))
        campaign.execs = 1
        save_checkpoint(campaign, path)
        campaign.execs = 2
        save_checkpoint(campaign, path)
        # The newest generation is corrupted on disk; one checkpoint
        # interval of progress is lost, never the campaign.
        with open(path, "r+b") as handle:
            handle.write(b"garbage!")
        assert load_checkpoint(path)["execs"] == 1

    def test_keep_bounds_generations_on_disk(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        campaign = _campaign(CampaignConfig(budget_ns=1, seed=1))
        for _ in range(4):
            save_checkpoint(campaign, path)
        assert os.path.exists(path)
        assert os.path.exists(path + ".1")
        assert not os.path.exists(path + ".2")

    def test_all_generations_corrupt_raises(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        campaign = _campaign(CampaignConfig(budget_ns=1, seed=1))
        save_checkpoint(campaign, path)
        save_checkpoint(campaign, path)
        for candidate in (path, path + ".1"):
            with open(candidate, "r+b") as handle:
                handle.write(b"garbage!")
        with pytest.raises(CheckpointError, match="no loadable checkpoint"):
            load_checkpoint(path)

    def test_all_generations_crc_corrupt_names_every_path(self, tmp_path):
        """Corruption *past* the magic (valid header, bad body) on
        every generation must surface as one clean CheckpointError
        that names each generation tried — never a raw pickle or
        CRC-arithmetic exception."""
        path = str(tmp_path / "c.ckpt")
        campaign = _campaign(CampaignConfig(budget_ns=1, seed=1))
        save_checkpoint(campaign, path)
        save_checkpoint(campaign, path)
        for candidate in (path, path + ".1"):
            with open(candidate, "r+b") as handle:
                handle.seek(len(CHECKPOINT_MAGIC) + 4 + 10)
                handle.write(b"\xff\xff\xff\xff")
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        message = str(info.value)
        assert "no loadable checkpoint generation" in message
        assert path in message and (path + ".1") in message
        assert "CRC" in message

    def test_framed_non_dict_payload_is_clean_error(self, tmp_path):
        """A file with valid magic + CRC framing whose pickle payload
        is not a state dict is corruption, reported as CheckpointError
        (naming the path), not an AttributeError downstream."""
        import pickle
        import zlib as _zlib
        path = str(tmp_path / "c.ckpt")
        body = pickle.dumps(["not", "a", "state", "dict"])
        with open(path, "wb") as handle:
            handle.write(
                CHECKPOINT_MAGIC
                + _zlib.crc32(body).to_bytes(4, "little")
                + body
            )
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        message = str(info.value)
        assert "not a state dict" in message and path in message

    def test_mixed_corruption_falls_back_then_reports_all(self, tmp_path):
        """One CRC-torn generation plus one wrong-shape generation:
        fallback consults both, and the final error lists both
        failure reasons."""
        import pickle
        import zlib as _zlib
        path = str(tmp_path / "c.ckpt")
        campaign = _campaign(CampaignConfig(budget_ns=1, seed=1))
        save_checkpoint(campaign, path)
        save_checkpoint(campaign, path)
        with open(path, "r+b") as handle:   # newest: torn body
            size = os.path.getsize(path)
            handle.truncate(size // 2)
        body = pickle.dumps(42)             # older: framed non-dict
        with open(path + ".1", "wb") as handle:
            handle.write(
                CHECKPOINT_MAGIC
                + _zlib.crc32(body).to_bytes(4, "little")
                + body
            )
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        message = str(info.value)
        assert path in message and (path + ".1") in message
        assert "not a state dict" in message

    def test_mechanism_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        campaign = _campaign(CampaignConfig(budget_ns=1, seed=1))
        save_checkpoint(campaign, path)
        from repro.execution import FreshProcessExecutor
        wrong = FreshProcessExecutor(_module(), IMAGE, Kernel())
        with pytest.raises(CheckpointError):
            Campaign.resume(path, wrong)


class TestResume:
    def test_resume_is_bit_identical(self, tmp_path):
        """The golden test: uninterrupted vs killed-and-resumed."""
        uninterrupted = _campaign(
            CampaignConfig(budget_ns=BUDGET_NS, seed=7)
        )
        golden = _fingerprint(uninterrupted, uninterrupted.run())

        path = str(tmp_path / "campaign.ckpt")
        halted = _campaign(
            CampaignConfig(
                budget_ns=BUDGET_NS, seed=7,
                checkpoint_path=path,
                checkpoint_interval_ns=4_000_000,
            )
        )
        run_killed(halted, BUDGET_NS * 6 // 10)   # "the process dies here"
        assert os.path.exists(path)

        resumed = Campaign.resume(path, _executor())
        replay = _fingerprint(resumed, resumed.run())
        assert replay == golden

    def test_checkpoint_with_a_retired_stats_field_resumes(self, tmp_path):
        """A version-2 checkpoint whose executor stats still carry the
        retired ``total_ns`` loads: restoring the stats copies the
        declared fields only, and the resume is bit-identical."""
        uninterrupted = _campaign(CampaignConfig(budget_ns=BUDGET_NS, seed=7))
        golden = _fingerprint(uninterrupted, uninterrupted.run())
        path = str(tmp_path / "campaign.ckpt")
        halted = _campaign(CampaignConfig(
            budget_ns=BUDGET_NS, seed=7, checkpoint_path=path,
            checkpoint_interval_ns=4_000_000,
        ))
        run_killed(halted, BUDGET_NS * 6 // 10)
        state = load_checkpoint(path)
        stats = state["executor_state"]["stats"]
        stats.total_ns = stats.execs * 1_000     # as older writers pickled it
        save_state(state, path)
        assert load_checkpoint(path)["executor_state"]["stats"].total_ns

        resumed = Campaign.resume(path, _executor())
        assert not hasattr(resumed.executor.stats, "total_ns")
        assert _fingerprint(resumed, resumed.run()) == golden

    def test_resume_continues_not_restarts(self, tmp_path):
        path = str(tmp_path / "campaign.ckpt")
        halted = _campaign(
            CampaignConfig(
                budget_ns=BUDGET_NS, seed=3,
                checkpoint_path=path,
                checkpoint_interval_ns=4_000_000,
            )
        )
        run_killed(halted, BUDGET_NS // 2)
        execs_at_checkpoint = load_checkpoint(path)["execs"]
        assert execs_at_checkpoint > 0

        resumed = Campaign.resume(path, _executor())
        result = resumed.run()
        # The continuation picks up the counter, it does not reset it.
        assert result.execs > execs_at_checkpoint
        assert result.elapsed_ns >= BUDGET_NS

    def test_periodic_checkpoints_written_during_run(self, tmp_path):
        path = str(tmp_path / "campaign.ckpt")
        campaign = _campaign(
            CampaignConfig(
                budget_ns=20_000_000, seed=5,
                checkpoint_path=path,
                checkpoint_interval_ns=2_000_000,
            )
        )
        campaign.run()
        state = load_checkpoint(path)
        # The last periodic checkpoint predates the end of the run.
        assert 0 < state["clock_ns"] <= campaign.clock.now_ns
        assert state["execs"] <= campaign.execs

    def test_supervised_checkpoint_restores_chaos_state(self, tmp_path):
        """A supervised executor's quarantine, supervision counters and
        injector occurrence counters all travel with the checkpoint."""
        path = str(tmp_path / "sup.ckpt")
        kernel = Kernel()
        inner = ForkServerExecutor(_module(), IMAGE, kernel)
        injector = FaultInjector(
            FaultPlan.generate(9, 6), clock=kernel.clock
        )
        executor = SupervisedExecutor(inner, injector=injector)
        config = CampaignConfig(
            budget_ns=20_000_000, seed=9,
            checkpoint_path=path, checkpoint_interval_ns=2_000_000,
        )
        campaign = Campaign(executor, seeds=[b"hello"], config=config)
        campaign.run()
        state = load_checkpoint(path)

        kernel2 = Kernel()
        inner2 = ForkServerExecutor(_module(), IMAGE, kernel2)
        injector2 = FaultInjector(
            FaultPlan.generate(9, 6), clock=kernel2.clock
        )
        executor2 = SupervisedExecutor(inner2, injector=injector2)
        resumed = Campaign.resume(path, executor2)
        resumed.run()
        # The injector resumed from the checkpointed occurrence
        # counters rather than from zero.
        for site, count in state["executor_state"]["injector"]["counters"].items():
            assert injector2.counters.get(site, 0) >= count


def _sentinel_campaign(config):
    module = compile_c(SOURCE, "ckpt-sentinel")
    PassManager(closurex_passes(11)).run(module)
    sentinel = IntegritySentinel(EscalationPolicy(digest_every=4,
                                                  shadow_every=0))
    inner = ClosureXExecutor(module, IMAGE, Kernel(), sentinel=sentinel)
    executor = SupervisedExecutor(inner)
    return Campaign(executor, seeds=[b"hello", b"Xseed"], config=config)


class TestIntegrityInCheckpoint:
    def test_sentinel_summary_rides_in_checkpoint(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        campaign = _sentinel_campaign(
            CampaignConfig(
                budget_ns=20_000_000, seed=5,
                checkpoint_path=path, checkpoint_interval_ns=2_000_000,
            )
        )
        campaign.run()
        state = load_checkpoint(path)
        assert "integrity" not in state
        # The sentinel's state, its ledger included, travels inside
        # executor_state.
        sentinel = state["executor_state"]["inner"]["sentinel"]
        assert sentinel["stats"].checks > 0
        assert sentinel["ledger"]["events"] == []
        assert sentinel["ledger"]["quarantine"] == {}


class TestOlderVersionRefused:
    """A checkpoint of the previous layout (``version`` 1) is refused,
    not converted: loaders carry no converters, and each opener takes
    the path it takes for any file that does not load."""

    def test_load_names_both_versions(self, tmp_path):
        assert CHECKPOINT_VERSION == 2
        path = str(tmp_path / "c.ckpt")
        campaign = _campaign(CampaignConfig(budget_ns=1, seed=1))
        save_state(dict(capture_state(campaign), version=1), path)
        with pytest.raises(CheckpointError, match=r"version 1 != 2"):
            load_checkpoint(path)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_open_campaign_starts_fresh(self, tmp_path, n_workers):
        """Over a version-1 copy of a checkpoint the run itself wrote,
        ``open_campaign`` opens fresh and reaches the digest of a run
        that never had the file."""
        def opened(path):
            return open_campaign(ParallelConfig(
                target="giftext", n_workers=n_workers, seed=3,
                budget_ns=4_000_000, sync_every_ns=2_000_000,
                checkpoint_path=path,
            ))

        def digest(campaign):
            result = campaign.run()
            return result.digest() if n_workers > 1 \
                else campaign.state_digest()

        written = str(tmp_path / "written.ckpt")
        golden = digest(opened(written))
        path = str(tmp_path / "older.ckpt")
        save_state(dict(load_checkpoint(written), version=1), path)
        campaign = opened(path)
        assert not campaign.resumed
        assert digest(campaign) == golden

    def test_cli_resume_is_one_error_line(self, tmp_path, capsys):
        path = str(tmp_path / "c.ckpt")
        save_state({"version": 1, "kind": "campaign"}, path)
        assert fuzzing_main(["--resume", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "version 1 != 2" in lines[0]
