"""Tests for the fuzzer: coverage maps, mutators, corpus, triage,
and campaign behaviour."""

import hashlib
import os
import pickle
import random
import subprocess
import sys

import pytest

from repro.fuzzing import (
    Campaign,
    CampaignConfig,
    Corpus,
    CrashTriage,
    HavocMutator,
    VirginMap,
    classify,
    coverage_signature,
    deterministic_mutations,
)
from repro.fuzzing.coverage import dense_signature
from repro.fuzzing.i2s import AutoDictionary
from repro.fuzzing.mutators import MAX_INPUT_SIZE, draw_below
from repro.vm.errors import CrashSite, TrapKind, VMTrap
from repro.vm.interpreter import COVERAGE_MAP_SIZE, CoverageMap


def make_map(cells: dict[int, int]) -> CoverageMap:
    """A map as the guard leaves it: counts plus the touched cells."""
    out = CoverageMap()
    for index, value in cells.items():
        out[index] = value
        out.cells.append(index)
    return out


class TestClassification:
    def test_bucket_boundaries(self):
        raw = bytes([0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 127, 128, 255])
        classified = classify(raw + bytes(COVERAGE_MAP_SIZE - len(raw)))
        assert list(classified[:14]) == [
            0, 1, 2, 4, 8, 8, 16, 16, 32, 32, 64, 64, 128, 128
        ]

    def test_signature_is_classified(self):
        signature = coverage_signature(make_map({3: 5}))
        assert dense_signature(signature)[3] == 8


def signed(cells: dict[int, int]) -> bytes:
    return coverage_signature(make_map(cells))


def test_campaign_packages_do_not_import_numpy():
    """The coverage readers are plain Python: a campaign process never
    pays numpy's import (the experiments' statistics and the tests
    still use it)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys\n"
            "import repro.fuzzing, repro.parallel, repro.execution\n"
            "import repro.targets, repro.store\n"
            "print('numpy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


class TestVirginMap:
    def test_first_observation_is_new_edges(self):
        virgin = VirginMap()
        assert virgin.observe(signed({10: 1})) == VirginMap.NEW_EDGES

    def test_same_map_is_not_new(self):
        virgin = VirginMap()
        virgin.observe(signed({10: 1}))
        assert virgin.observe(signed({10: 1})) == VirginMap.NO_NEW

    def test_new_hitcount_bucket(self):
        virgin = VirginMap()
        virgin.observe(signed({10: 1}))
        assert virgin.observe(signed({10: 200})) == VirginMap.NEW_COUNTS

    def test_edges_found(self):
        virgin = VirginMap()
        virgin.observe(signed({1: 1, 2: 1, 3: 1}))
        assert virgin.edges_found() == 3

    def test_pickles_only_the_seen_cells(self):
        virgin = VirginMap()
        virgin.observe(signed({0: 1, 7: 200, COVERAGE_MAP_SIZE - 1: 3}))
        virgin.observe(signed({7: 1}))
        data = pickle.dumps(virgin)
        assert len(data) < 200
        restored = pickle.loads(data)
        assert restored.size == COVERAGE_MAP_SIZE
        assert restored.to_bytes() == virgin.to_bytes()
        assert VirginMap.from_sparse(virgin.to_sparse()).to_bytes() == \
            virgin.to_bytes()
        assert pickle.loads(pickle.dumps(VirginMap())).to_bytes() == \
            b"\xff" * COVERAGE_MAP_SIZE


#: Hangs on a leading 'H'; the compare on the second byte gives the
#: input-to-state probes something to record.
ONCE_SOURCE = r"""
char buf[16];

int main(int argc, char **argv) {
    char *f = fopen(argv[1], "r");
    if (!f) { exit(1); }
    long n = fread(buf, 1, 16, f);
    fclose(f);
    if (n < 2) { exit(2); }
    if (buf[0] == 'H') {
        while (1) { n++; }
    }
    if (buf[1] == 'Z') { exit(4); }
    return (int)n;
}
"""


class TestClassifyOnce:
    def test_each_exec_classifies_its_map_at_most_once(self, monkeypatch):
        """A seed, a queued find, an adopted sync import and a hang each
        classify their map exactly once; an i2s probe exec not at all."""
        from repro.execution import ClosureXExecutor
        from repro.fuzzing import coverage
        from repro.minic import compile_c
        from repro.passes import PassManager, closurex_passes
        from repro.sim_os import Kernel

        module = compile_c(ONCE_SOURCE, "classify-once")
        PassManager(closurex_passes(11)).run(module)
        executor = ClosureXExecutor(module, 400_000, Kernel())
        campaign = Campaign(executor, [b"hello", b"Hang"], CampaignConfig(
            budget_ns=2_000_000, seed=1, i2s_enabled=True,
            exec_instruction_limit=20_000,
        ))
        counts: list[int] = []          # classify calls, per exec
        kinds: list[set[str]] = []      # what each exec was

        classify = coverage.classify

        def counting_classify(raw_map):
            counts[-1] += 1
            return classify(raw_map)

        monkeypatch.setattr(coverage, "classify", counting_classify)
        run = executor.run

        def tracked_run(data):
            probe = campaign._i2s.observer.active
            result = run(data)
            counts.append(0)
            kinds.append({"probe"} if probe else set())
            if result.is_hang:
                kinds[-1].add("hang")
            return result

        executor.run = tracked_run
        fuzz_one = campaign._fuzz_one

        def tracked_fuzz_one(data, parent):
            added = fuzz_one(data, parent)
            if added:
                kinds[-1].add("find")
            return added

        campaign._fuzz_one = tracked_fuzz_one

        campaign.start()
        kinds[0].add("seed")
        kinds[1].add("seed")
        assert campaign.import_input(b"aZ")
        kinds[-1].add("import")
        campaign.step_until(campaign.deadline_ns)
        campaign.finish_run()

        def classified(kind: str) -> set[int]:
            found = {n for n, k in zip(counts, kinds) if kind in k}
            assert found, f"no {kind} exec ran"
            return found

        for kind in ("seed", "import", "find", "hang"):
            assert classified(kind) == {1}, kind
        assert {n for n, k in zip(counts, kinds) if k == {"probe"}} == {0}
        assert max(counts) == 1

    def test_an_empty_map_hang_in_trim_classifies_once(self, monkeypatch):
        """A trim exec the supervisor gave up on is a hang on an empty
        map, whose signature is b"": it too is classified once."""
        from repro.chaos import InjectedFault
        from repro.execution import (
            ClosureXExecutor,
            SupervisedExecutor,
            supervised,
        )
        from repro.fuzzing import coverage
        from repro.minic import compile_c
        from repro.passes import PassManager, closurex_passes
        from repro.sim_os import Kernel

        monkeypatch.setattr(supervised, "MAX_RETRIES", 1)
        module = compile_c(ONCE_SOURCE, "classify-once")
        PassManager(closurex_passes(11)).run(module)
        executor = SupervisedExecutor(
            ClosureXExecutor(module, 400_000, Kernel()),
        )
        campaign = Campaign(executor, [b"hello, world"], CampaignConfig(
            budget_ns=10_000_000_000, seed=1,
        ))
        campaign.start()
        entry = campaign.corpus.entries[0]

        def broken_pipe(data):
            raise InjectedFault("pipe", "broken")

        executor.inner.run = broken_pipe
        counts: list[int] = []          # classify calls, per exec
        results = []
        classify = coverage.classify

        def counting_classify(raw_map):
            counts[-1] += 1
            return classify(raw_map)

        monkeypatch.setattr(coverage, "classify", counting_classify)
        run = executor.run

        def tracked_run(data):
            result = run(data)
            counts.append(0)
            results.append(result)
            return result

        executor.run = tracked_run
        campaign._trim_entry(entry, campaign.deadline_ns)

        assert len(results) > 1
        assert all(r.is_hang and not any(r.coverage) for r in results)
        assert executor.supervision.gave_up == len(results)
        assert counts == [1] * len(results)
        assert entry.data == b"hello, world"


class TestDeterministicMutations:
    def test_bitflips_present(self):
        mutations = set(deterministic_mutations(b"\x00"))
        assert b"\x80" in mutations  # first bitflip
        assert b"\xff" in mutations  # byteflip

    def test_empty_input_yields_nothing(self):
        assert list(deterministic_mutations(b"")) == []

    def test_all_outputs_same_length(self):
        for mutated in deterministic_mutations(b"abcd"):
            assert len(mutated) == 4

    def test_interesting_values_injected(self):
        mutations = set(deterministic_mutations(b"\x42\x42"))
        assert b"\x7f\x42" in mutations  # INTERESTING_8 127


class TestHavoc:
    def test_output_bounded(self):
        havoc = HavocMutator(random.Random(1), max_size=64)
        for _ in range(200):
            assert 1 <= len(havoc.mutate(b"seed input")) <= 64

    def test_default_bound(self):
        havoc = HavocMutator(random.Random(2))
        data = bytes(range(256)) * 4
        for _ in range(50):
            assert len(havoc.mutate(data)) <= MAX_INPUT_SIZE

    def test_deterministic_given_seed(self):
        a = HavocMutator(random.Random(7)).mutate(b"hello world")
        b = HavocMutator(random.Random(7)).mutate(b"hello world")
        assert a == b

    def test_splice_mixes_parents(self):
        havoc = HavocMutator(random.Random(3))
        out = havoc.splice(b"A" * 32, b"B" * 32)
        assert out  # non-empty; content is randomised

    def test_empty_input_survives(self):
        havoc = HavocMutator(random.Random(4))
        assert havoc.mutate(b"")

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 14, 15, 16, 256, 2**32])
    def test_draw_below_is_randrange(self, n):
        """``draw_below`` gives ``randrange``'s stream and leaves the
        generator in the same state."""
        drawn, reference = random.Random(n), random.Random(n)
        below = draw_below(drawn)
        assert ([below(n) for _ in range(300)]
                == [reference.randrange(n) for _ in range(300)])
        assert drawn.getstate() == reference.getstate()

    # sha256 of 200 mutate/splice outputs and the generator state after,
    # per seed, without and with a dictionary: the stream ``randrange``
    # and ``choice`` drew before havoc drew through ``draw_below``.
    STREAMS = {
        (1, False): "8e5c8c5fd4af10c9a775cdb3efd9e50ece8769297d73aa8063201d1e7feb2455",
        (1, True): "301e388c943d8c2ddd90afc2ed5bfba1d6154f71a905820a0bce241296b031fd",
        (2, False): "5184055ec7da6f762818cb1e069077355d02c519edb9b866cbfd87e7676cd896",
        (2, True): "654d043b662cbe6664648ee091caf39524b13d1f4d6fa6bb1d55ffcb8570b863",
        (3, False): "e2c8f580c618dcc49123a1267c4976a4c0b9c77a0f7b175d666142f8094572c4",
        (3, True): "ef17f64bc7c112ff95d28989215578bb0ccf22bc2acb398d8720e748adcd3b15",
    }

    @pytest.mark.parametrize("seed,dictionary", sorted(STREAMS))
    def test_mutation_stream_is_pinned(self, seed, dictionary):
        rng = random.Random(seed)
        tokens = None
        if dictionary:
            tokens = AutoDictionary()
            for token in (b"GIF89a", b"\x00\x01", b"IHDR", b"\xff\xfe\xfd\xfc", b"zlib"):
                tokens.add(token)
        havoc = HavocMutator(rng, dictionary=tokens)
        digest = hashlib.sha256()
        data = b"hello, world\x00\x01\x02"
        for k in range(200):
            if k % 5 == 4:
                data = havoc.splice(data, b"second input" * (k % 3 + 1))
            else:
                data = havoc.mutate(data)
            digest.update(len(data).to_bytes(4, "little") + data)
        digest.update(repr(rng.getstate()).encode())
        assert digest.hexdigest() == self.STREAMS[seed, dictionary]


class TestCorpus:
    def _entry(self, corpus, data=b"x", cells=None, exec_ns=1000):
        signature = coverage_signature(make_map(cells or {1: 1}))
        return corpus.add(data, signature, exec_ns, now_ns=0)

    def test_add_assigns_ids(self):
        corpus = Corpus()
        first = self._entry(corpus)
        second = self._entry(corpus)
        assert (first.entry_id, second.entry_id) == (0, 1)

    def test_favored_prefers_fast_small(self):
        corpus = Corpus()
        slow = self._entry(corpus, b"s" * 100, {1: 1}, exec_ns=100_000)
        fast = self._entry(corpus, b"f", {1: 1}, exec_ns=100)
        assert fast.favored
        assert not slow.favored

    def test_unique_cell_keeps_entry_favored(self):
        corpus = Corpus()
        a = self._entry(corpus, b"a", {1: 1}, exec_ns=100)
        b = self._entry(corpus, b"b", {2: 1}, exec_ns=100_000)
        assert a.favored and b.favored  # b owns cell 2

    def test_select_next_cycles(self):
        corpus = Corpus()
        for i in range(5):
            self._entry(corpus, bytes([i]), {i: 1})
        rng = random.Random(0)
        selected = {corpus.select_next(rng).entry_id for _ in range(50)}
        assert len(selected) == 5

    def test_energy_scales(self):
        corpus = Corpus()
        fast = self._entry(corpus, b"f", {1: 1}, exec_ns=10)
        slow = self._entry(corpus, b"s" * 64, {2: 1}, exec_ns=1_000_000)
        assert corpus.energy(fast) > corpus.energy(slow)
        assert corpus.energy(slow) >= 8

    def test_depth_bonus(self):
        corpus = Corpus()
        parent = self._entry(corpus, b"p", {1: 1})
        child = corpus.add(b"c", coverage_signature(make_map({2: 1})), 1000, 0,
                           parent=parent)
        assert child.depth == 1
        assert child.parent_id == parent.entry_id

    def test_empty_corpus_select_raises(self):
        with pytest.raises(IndexError):
            Corpus().select_next(random.Random(0))


class TestTriage:
    def _trap(self, kind=TrapKind.NULL_DEREF, function="f", block="b"):
        return VMTrap(kind, "boom", CrashSite(function, block))

    def test_dedup_by_identity(self):
        triage = CrashTriage()
        assert triage.record(self._trap(), b"a", 100) is not None
        assert triage.record(self._trap(), b"b", 200) is None
        assert triage.unique_count == 1
        assert triage.total_crashes == 2
        report = triage.reports()[0]
        assert report.occurrences == 2
        assert report.found_at_ns == 100

    def test_different_sites_are_different_bugs(self):
        triage = CrashTriage()
        triage.record(self._trap(function="f"), b"a", 1)
        triage.record(self._trap(function="g"), b"b", 2)
        assert triage.unique_count == 2

    def test_first_hit_lookup(self):
        triage = CrashTriage()
        trap = self._trap()
        triage.record(trap, b"a", 123)
        assert triage.first_hit_ns(trap.identity()) == 123
        assert triage.first_hit_ns((TrapKind.ABORT, "x", "y")) is None


class TestCampaign:
    def _campaign(self, budget_ns=4_000_000, seed=1):
        from repro.execution import ClosureXExecutor
        from repro.sim_os import Kernel
        from repro.targets import get_target

        spec = get_target("libbpf")
        executor = ClosureXExecutor(spec.build_closurex(), spec.image_bytes,
                                    Kernel())
        return Campaign(
            executor, spec.seeds,
            CampaignConfig(budget_ns=budget_ns, seed=seed),
        )

    def test_respects_budget(self):
        campaign = self._campaign(budget_ns=3_000_000)
        result = campaign.run()
        assert result.elapsed_ns >= 3_000_000
        assert result.elapsed_ns < 3_000_000 * 3  # some overshoot allowed

    def test_grows_corpus_and_coverage(self):
        result = self._campaign().run()
        assert result.corpus_size >= 3          # at least the seeds
        assert result.edges_found > 10
        assert result.execs > 50

    def test_deterministic_given_seed(self):
        first = self._campaign(seed=5).run()
        second = self._campaign(seed=5).run()
        assert first.execs == second.execs
        assert first.edges_found == second.edges_found

    def test_different_seeds_differ(self):
        first = self._campaign(seed=1).run()
        second = self._campaign(seed=2).run()
        assert (first.execs, first.corpus_size) != (second.execs, second.corpus_size)
