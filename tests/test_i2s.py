"""Tests for the input-to-state stage: compare tapping, operand
encoding/location, auto-dictionaries, campaign wiring, and the
checkpoint round-trip of the stage's accumulated state.

The end-to-end pin is the stage's reason to exist: a campaign whose
seeds never satisfy a 4-byte magic guard cracks it by reading the
expected value out of an observed compare, within a budget where plain
havoc has a ~1-in-2^32 shot per mutation.
"""

import random
import struct

import pytest

from repro.analysis.dictionary import mine_dictionary_tokens
from repro.execution import ClosureXExecutor
from repro.fuzzing import Campaign, CampaignConfig, HavocMutator
from repro.fuzzing.i2s import (
    AutoDictionary,
    CmpObserver,
    I2SStage,
    StageStats,
    operand_encodings,
    replacement_patches,
)
from repro.fuzzing.mutators import MAX_INPUT_SIZE
from repro.minic import compile_c
from repro.passes import PassManager, closurex_passes
from repro.sim_os import Kernel
from repro.targets import get_target
from tests.helpers import run_killed

#: A parser whose interesting half hides behind a 4-byte big-endian
#: magic — the canonical input-to-state situation.
SOURCE = r"""
char input_buf[64];
long input_len;

long rd_u32(char *p) {
    return ((long)p[0] << 24) | ((long)p[1] << 16)
         | ((long)p[2] << 8) | (long)p[3];
}

int main(int argc, char **argv) {
    char *f = fopen(argv[1], "r");
    if (!f) { exit(1); }
    input_len = fread(input_buf, 1, 64, f);
    if (input_len < 8) { exit(2); }
    long magic = rd_u32(input_buf);
    if (magic == 0x1a2b3c4d) {
        long version = rd_u32(input_buf + 4);
        if (version == 0x2000) { exit(7); }
        exit(6);
    }
    exit(3);
}
"""

MAGIC_BE = b"\x1a\x2b\x3c\x4d"
IMAGE = 400_000


def _module():
    module = compile_c(SOURCE, "i2s-test")
    PassManager(closurex_passes(11)).run(module)
    return module


def _executor():
    return ClosureXExecutor(_module(), IMAGE, Kernel())


def _fingerprint(campaign, result):
    """Everything 'bit-identical' means for a finished campaign."""
    return {
        "execs": result.execs,
        "elapsed_ns": result.elapsed_ns,
        "edges": result.edges_found,
        "corpus": [
            (e.data, e.coverage_signature) for e in campaign.corpus.entries
        ],
        "crash_identities": [r.identity for r in result.crash_reports],
        "clock_ns": campaign.clock.now_ns,
        "rng": campaign.rng.getstate(),
        "stage_execs": {
            name: stats.execs
            for name, stats in campaign.stage_stats.items()
        },
    }


class TestOperandEncodings:
    def test_covers_both_endiannesses_at_the_natural_width(self):
        encodings = {
            encoded for _, _, encoded in operand_encodings(0x11223344, 32)
        }
        assert struct.pack("<I", 0x11223344) in encodings
        assert struct.pack(">I", 0x11223344) in encodings

    def test_wide_value_skips_narrow_widths(self):
        widths = {n for n, _, _ in operand_encodings(0x11223344, 32)}
        assert widths == {4, 8}  # does not fit 1 or 2 bytes

    def test_small_value_appears_at_every_width(self):
        widths = {n for n, _, _ in operand_encodings(0x41, 32)}
        assert widths == {1, 2, 4, 8}

    def test_sign_extended_form_locates_narrower(self):
        # 0xff80 at 16 bits is -128; a file may store it as one byte.
        encodings = {
            encoded for _, _, encoded in operand_encodings(0xFF80, 16)
        }
        assert b"\x80" in encodings
        assert struct.pack("<H", 0xFF80) in encodings

    def test_negative_value_sign_extends_wider(self):
        # -1 at 32 bits may live in the file as 8 bytes of 0xff.
        encodings = {
            encoded for _, _, encoded in operand_encodings(0xFFFFFFFF, 32)
        }
        assert b"\xff" * 8 in encodings
        assert b"\xff" * 4 in encodings

    def test_no_duplicate_encodings(self):
        encoded = [e for _, _, e in operand_encodings(0x41, 32)]
        assert len(encoded) == len(set(encoded))


class TestReplacementPatches:
    def test_exact_and_off_by_one(self):
        patches = replacement_patches(0x100, 32, 4, big=False)
        assert struct.pack("<I", 0x100) in patches
        assert struct.pack("<I", 0x101) in patches
        assert struct.pack("<I", 0xFF) in patches

    def test_truncates_to_located_width(self):
        patches = replacement_patches(0x1FF, 32, 1, big=False)
        assert all(len(p) == 1 for p in patches)
        assert b"\xff" in patches  # 0x1ff truncated

    def test_respects_byte_order(self):
        assert struct.pack(">I", 0x100) in replacement_patches(
            0x100, 32, 4, big=True
        )


class TestCmpObserver:
    def test_disarmed_by_default(self):
        observer = CmpObserver()
        assert not observer.active

    def test_captures_the_magic_compare(self):
        executor = _executor()
        executor.attach_cmp_observer(observer := CmpObserver())
        executor.boot()
        observer.begin()
        executor.run(b"\x00\x00\x00\x00guarded!")
        records = observer.take()
        executor.shutdown()
        assert not observer.active
        operand_pairs = {(lhs, rhs) for _, _, lhs, rhs, _ in records}
        assert (0, 0x1A2B3C4D) in operand_pairs or (
            0x1A2B3C4D, 0) in operand_pairs

    def test_disarmed_execution_records_nothing(self):
        executor = _executor()
        executor.attach_cmp_observer(observer := CmpObserver())
        executor.boot()
        executor.run(b"\x00\x00\x00\x00guarded!")
        executor.shutdown()
        assert observer.records == []

    def test_record_limit_caps_collection(self, monkeypatch):
        monkeypatch.setattr("repro.fuzzing.i2s.MAX_RECORDS_PER_EXEC", 2)
        executor = _executor()
        executor.attach_cmp_observer(observer := CmpObserver())
        executor.boot()
        observer.begin()
        executor.run(b"\x00\x00\x00\x00guarded!")
        records = observer.take()
        executor.shutdown()
        assert len(records) == 2

    def test_armed_observer_never_changes_execution(self):
        """Arming the tap is host-side only: virtual cost, instruction
        count, coverage and return code match an unobserved run."""
        inputs = [b"\x00\x00\x00\x00guarded!", MAGIC_BE + b"\x00\x00\x20\x00",
                  MAGIC_BE + b"\x00\x00\x00\x01", b"short", b""]
        plain = _executor()
        armed = _executor()
        armed.attach_cmp_observer(observer := CmpObserver())
        plain.boot()
        armed.boot()
        recorded = 0
        for data in inputs * 2:
            expected = plain.run(data)
            observer.begin()
            result = armed.run(data)
            recorded += len(observer.take())
            assert (result.ns, result.instructions, bytes(result.coverage),
                    result.return_code) == (
                expected.ns, expected.instructions,
                bytes(expected.coverage), expected.return_code)
        plain.shutdown()
        armed.shutdown()
        assert recorded


class TestAutoDictionary:
    def test_rejects_single_byte_and_oversized_tokens(self, monkeypatch):
        monkeypatch.setattr("repro.fuzzing.i2s.DICT_TOKEN_MAX_LEN", 4)
        d = AutoDictionary()
        assert not d.add(b"x")
        assert not d.add(b"12345")
        assert d.add(b"ab")

    def test_deduplicates(self):
        d = AutoDictionary()
        assert d.add(b"magic")
        assert not d.add(b"magic")
        assert len(d) == 1

    def test_add_value_encodes_both_byte_orders(self):
        d = AutoDictionary()
        d.add_value(0x1A2B3C4D, 32)
        assert struct.pack("<I", 0x1A2B3C4D) in d.tokens
        assert struct.pack(">I", 0x1A2B3C4D) in d.tokens

    def test_add_value_skips_single_byte_values(self):
        d = AutoDictionary()
        assert d.add_value(0x41, 32) == 0
        assert len(d) == 0

    def test_pick_is_deterministic_and_none_when_empty(self):
        d = AutoDictionary()
        assert d.pick(random.Random(1)) is None
        d.add(b"one")
        d.add(b"two")
        assert d.pick(random.Random(7)) == d.pick(random.Random(7))

    def test_restore_replaces_contents_in_place(self):
        d = AutoDictionary()
        d.add(b"old")
        held = d.tokens                 # the mutator holds this reference
        d.restore([b"new", b"tokens"])
        assert held == [b"new", b"tokens"]
        assert not d.add(b"new")        # dedup set restored too

    def test_token_cap(self, monkeypatch):
        monkeypatch.setattr("repro.fuzzing.i2s.DICT_TOKENS", 2)
        d = AutoDictionary()
        assert d.add(b"aa") and d.add(b"bb")
        assert not d.add(b"cc")


class TestStaticMining:
    def test_mines_icmp_magic_through_the_literal_cast(self):
        tokens = mine_dictionary_tokens(_module())
        assert MAGIC_BE in tokens                      # big-endian form
        assert MAGIC_BE[::-1] in tokens                # little-endian form

    def test_mines_memcmp_string_signatures(self):
        spec = get_target("giftext")
        tokens = mine_dictionary_tokens(spec.build_closurex())
        assert b"GIF87a" in tokens
        assert b"GIF89a" in tokens

    def test_mines_the_pcap_magic(self):
        spec = get_target("libpcap")
        tokens = mine_dictionary_tokens(spec.build_closurex())
        assert struct.pack(">I", 0xA1B2C3D4) in tokens

    def test_deterministic_order(self):
        first = mine_dictionary_tokens(_module())
        second = mine_dictionary_tokens(_module())
        assert first == second

    def test_shares_the_dictionary_token_cap(self, monkeypatch):
        monkeypatch.setattr("repro.fuzzing.i2s.DICT_TOKEN_MAX_LEN", 3)
        tokens = mine_dictionary_tokens(_module())
        assert tokens and all(2 <= len(token) <= 3 for token in tokens)
        assert MAGIC_BE not in tokens


class TestHavocDictionaryInvariance:
    def test_empty_dictionary_leaves_stream_byte_identical(self):
        """An attached-but-empty dictionary must not perturb havoc:
        the i2s-off and i2s-on configurations share one mutation
        stream until the first token arrives."""
        plain = HavocMutator(random.Random(42))
        with_dict = HavocMutator(random.Random(42),
                                 dictionary=AutoDictionary())
        data = b"some input bytes"
        for _ in range(200):
            assert plain.mutate(data) == with_dict.mutate(data)

    def test_tokens_surface_in_mutations_once_present(self):
        dictionary = AutoDictionary()
        dictionary.add(b"\xde\xad\xbe\xef\xca\xfe")
        mutator = HavocMutator(random.Random(7), dictionary=dictionary)
        outputs = [mutator.mutate(b"\x00" * 24) for _ in range(300)]
        assert any(b"\xde\xad\xbe\xef\xca\xfe" in out for out in outputs)

    def test_mutations_never_exceed_max_size(self):
        dictionary = AutoDictionary()
        dictionary.add(b"tokentokentoken!")
        mutator = HavocMutator(random.Random(3), max_size=32,
                               dictionary=dictionary)
        data = b"\x55" * 32             # already at the cap
        for _ in range(500):
            out = mutator.mutate(data)
            assert len(out) <= 32

    def test_default_cap_is_global_max_input_size(self):
        mutator = HavocMutator(random.Random(5))
        data = b"\x55" * MAX_INPUT_SIZE
        for _ in range(300):
            assert len(mutator.mutate(data)) <= MAX_INPUT_SIZE


BUDGET_NS = 12_000_000


class TestI2SCampaign:
    def test_cracks_the_magic_havoc_cannot_guess(self):
        """The headline behaviour: seeds never pass the guard, the
        observed compare hands the stage the winning 4 bytes."""
        campaign = Campaign(
            _executor(), seeds=[b"\x00\x00\x00\x00AAAAAAAA"],
            config=CampaignConfig(budget_ns=BUDGET_NS, seed=1,
                                  i2s_enabled=True),
        )
        campaign.run()
        assert any(
            entry.data[:4] == MAGIC_BE
            for entry in campaign.corpus.entries
        )

    def test_same_seed_replays_bit_identically(self):
        config = CampaignConfig(budget_ns=BUDGET_NS, seed=9,
                                i2s_enabled=True)
        first = Campaign(_executor(), [b"\x00" * 12], config)
        second = Campaign(_executor(), [b"\x00" * 12], config)
        assert _fingerprint(first, first.run()) == \
            _fingerprint(second, second.run())

    def test_disabled_matches_default_config(self):
        """i2s_enabled=False must be a perfect no-op: same stream as a
        config that never heard of I2S."""
        default = Campaign(
            _executor(), [b"\x00" * 12],
            CampaignConfig(budget_ns=BUDGET_NS, seed=4),
        )
        disabled = Campaign(
            _executor(), [b"\x00" * 12],
            CampaignConfig(budget_ns=BUDGET_NS, seed=4, i2s_enabled=False),
        )
        assert _fingerprint(default, default.run()) == \
            _fingerprint(disabled, disabled.run())

    def test_stage_stats_account_i2s_execs(self):
        campaign = Campaign(
            _executor(), [b"\x00" * 12],
            CampaignConfig(budget_ns=BUDGET_NS, seed=2, i2s_enabled=True),
        )
        result = campaign.run()
        assert result.stage_stats["i2s"].execs > 0
        assert campaign._i2s.site_pairs  # compares were observed

    def test_static_dictionary_mined_once(self):
        campaign = Campaign(
            _executor(), [b"\x00" * 12],
            CampaignConfig(budget_ns=BUDGET_NS, seed=2, i2s_enabled=True),
        )
        campaign.run()
        assert campaign._i2s.static_mined
        assert MAGIC_BE in campaign._i2s.dictionary.tokens


class TestThrottle:
    def _campaign(self):
        config = CampaignConfig(budget_ns=1, seed=1, i2s_enabled=True)
        return Campaign(_executor(), [b"\x00" * 12], config)

    def test_not_throttled_before_fair_trial(self):
        campaign = self._campaign()
        campaign.stage_stats["i2s"] = StageStats(execs=10, finds=0, ns=100)
        campaign.stage_stats["havoc"] = StageStats(execs=900, finds=9,
                                                   ns=9000)
        assert not campaign._i2s_throttled()

    def test_throttled_when_find_rate_collapses(self):
        campaign = self._campaign()
        campaign.stage_stats["i2s"] = StageStats(execs=300, finds=0,
                                                 ns=3000)
        campaign.stage_stats["havoc"] = StageStats(execs=900, finds=9,
                                                   ns=9000)
        assert campaign._i2s_throttled()

    def test_not_throttled_while_paying_its_way(self):
        campaign = self._campaign()
        campaign.stage_stats["i2s"] = StageStats(execs=300, finds=30,
                                                 ns=3000)
        campaign.stage_stats["havoc"] = StageStats(execs=900, finds=9,
                                                   ns=9000)
        assert not campaign._i2s_throttled()


class TestCheckpointRoundTrip:
    def test_snapshot_restore_is_lossless(self):
        stage = I2SStage(CampaignConfig(i2s_enabled=True))
        stage.site_pairs[("f", "b", "c")] = [(32, 0, 0x1A2B3C4D, "eq")]
        stage.dictionary.add(b"magic")
        stage.static_mined = True
        fresh = I2SStage(CampaignConfig(i2s_enabled=True))
        fresh.restore(stage.snapshot())
        assert fresh.snapshot() == stage.snapshot()

    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        """The stage's accumulated state — dictionary, per-site pairs,
        efficacy stats — must travel through RPRCKPT1 so a resumed
        campaign continues the exact interrupted run."""
        seeds = [b"\x00\x00\x00\x00AAAAAAAA"]
        uninterrupted = Campaign(
            _executor(), seeds,
            CampaignConfig(budget_ns=BUDGET_NS, seed=6, i2s_enabled=True),
        )
        golden = _fingerprint(uninterrupted, uninterrupted.run())

        path = str(tmp_path / "i2s.ckpt")
        halted = Campaign(
            _executor(), seeds,
            CampaignConfig(
                budget_ns=BUDGET_NS, seed=6, i2s_enabled=True,
                checkpoint_path=path,
                checkpoint_interval_ns=BUDGET_NS // 10,
            ),
        )
        run_killed(halted, BUDGET_NS // 2)

        resumed = Campaign.resume(path, _executor())
        assert resumed._i2s is not None
        replay = _fingerprint(resumed, resumed.run())
        assert replay == golden
        assert resumed._i2s.snapshot() == uninterrupted._i2s.snapshot()
