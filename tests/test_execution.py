"""Tests for the four execution mechanisms against a shared target."""

import pytest

from repro.execution import (
    ClosureXExecutor,
    ForkServerExecutor,
    FreshProcessExecutor,
    NaivePersistentExecutor,
)
from repro.minic import compile_c
from repro.passes import PassManager, baseline_passes, closurex_passes, persistent_passes
from repro.runtime.harness import IterationStatus
from repro.sim_os import Kernel
from repro.vm import TrapKind

SOURCE = r"""
int counter;
char last[8];

int main(int argc, char **argv) {
    char *f = fopen(argv[1], "r");
    if (!f) { exit(1); }
    char buf[16];
    long n = fread(buf, 1, 16, f);
    if (n < 1) { exit(2); }
    counter++;
    last[0] = buf[0];
    char *scratch = (char*)malloc(32);
    scratch[0] = buf[0];
    if (buf[0] == 'X') {
        int *p = NULL;
        *p = 1;
    }
    if (buf[0] == 'L') { return counter; }  /* leaks scratch + f */
    fclose(f);
    free(scratch);
    return counter;
}
"""

IMAGE = 500_000


def _module(kind):
    module = compile_c(SOURCE, "exec-test")
    pipeline = {
        "baseline": baseline_passes,
        "persistent": persistent_passes,
        "closurex": closurex_passes,
    }[kind]
    PassManager(pipeline(11)).run(module)
    return module


@pytest.fixture
def fresh():
    return FreshProcessExecutor(_module("baseline"), IMAGE, Kernel())


@pytest.fixture
def forkserver():
    executor = ForkServerExecutor(_module("baseline"), IMAGE, Kernel())
    executor.boot()
    return executor


@pytest.fixture
def persistent():
    executor = NaivePersistentExecutor(_module("persistent"), IMAGE, Kernel())
    executor.boot()
    return executor


@pytest.fixture
def closurex():
    executor = ClosureXExecutor(_module("closurex"), IMAGE, Kernel())
    executor.boot()
    return executor


class TestBasicBehaviour:
    def test_all_mechanisms_agree_on_clean_input(
        self, fresh, forkserver, persistent, closurex
    ):
        for executor in (fresh, forkserver, persistent, closurex):
            result = executor.run(b"hello")
            assert result.status in (IterationStatus.OK, IterationStatus.EXIT)
            assert result.return_code == 1  # first run: counter == 1

    def test_all_mechanisms_see_the_crash(
        self, fresh, forkserver, persistent, closurex
    ):
        for executor in (fresh, forkserver, persistent, closurex):
            result = executor.run(b"X boom")
            assert result.is_crash
            assert result.trap.kind is TrapKind.NULL_DEREF

    def test_coverage_populated(self, forkserver):
        result = forkserver.run(b"hello")
        assert sum(1 for b in result.coverage if b) > 3


class TestIsolationSemantics:
    def test_fresh_and_forkserver_isolate_counter(self, fresh, forkserver):
        for executor in (fresh, forkserver):
            first = executor.run(b"aaaa")
            second = executor.run(b"aaaa")
            assert first.return_code == second.return_code == 1

    def test_closurex_isolates_counter(self, closurex):
        first = closurex.run(b"aaaa")
        second = closurex.run(b"aaaa")
        assert first.return_code == second.return_code == 1

    def test_persistent_pollutes_counter(self, persistent):
        first = persistent.run(b"aaaa")
        second = persistent.run(b"aaaa")
        assert first.return_code == 1
        assert second.return_code == 2  # stale global: the paper's point

    def test_persistent_accumulates_leaks(self, persistent):
        for _ in range(6):
            persistent.run(b"L leak")
        assert persistent.pollution.peak_leaked_chunks >= 6
        assert persistent.pollution.peak_open_fds >= 6
        assert persistent.pollution.dirty_global_iterations > 0

    def test_closurex_sweeps_leaks(self, closurex):
        for _ in range(6):
            closurex.run(b"L leak")
        harness = closurex.harness
        assert harness.vm.heap.live_chunk_count() == 0
        assert harness.vm.fd_table.open_handle_count() == 0


class TestRespawnBehaviour:
    def test_persistent_respawns_on_exit(self, persistent):
        result = persistent.run(b"")
        assert result.status is IterationStatus.PROCESS_EXIT
        assert persistent.stats.respawns == 1
        # pollution cleared by the respawn:
        after = persistent.run(b"aaaa")
        assert after.return_code == 1

    def test_closurex_survives_exit_without_respawn(self, closurex):
        result = closurex.run(b"")
        assert result.status is IterationStatus.EXIT
        assert closurex.stats.respawns == 0

    def test_closurex_respawns_on_crash(self, closurex):
        closurex.run(b"X boom")
        assert closurex.stats.respawns == 1
        after = closurex.run(b"aaaa")
        assert after.return_code == 1


class TestCostOrdering:
    def test_mechanism_spectrum(self, fresh, forkserver, persistent, closurex):
        """Per-exec cost: fresh >> forkserver > closurex ~ persistent."""
        def average_ns(executor, runs=8):
            start = executor.clock.now_ns
            for _ in range(runs):
                executor.run(b"hello")
            return (executor.clock.now_ns - start) / runs

        fresh_ns = average_ns(fresh)
        fork_ns = average_ns(forkserver)
        closurex_ns = average_ns(closurex)
        persistent_ns = average_ns(persistent)
        assert fresh_ns > 3 * fork_ns
        assert fork_ns > 1.5 * closurex_ns
        assert closurex_ns < 2 * persistent_ns

    def test_stats_observe(self, closurex):
        closurex.run(b"hello")
        closurex.run(b"")
        closurex.run(b"X crash")
        stats = closurex.stats
        assert stats.execs == 3
        assert stats.normal_returns == 1
        assert stats.clean_exits == 1
        assert stats.crashes == 1
