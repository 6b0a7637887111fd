"""Unit tests for the simulated kernel and cost model."""

import pytest

from repro.sim_os import (
    DEFAULT_COSTS,
    FORKSRV_HELLO,
    CostModel,
    ForkserverChannel,
    Kernel,
    KernelStats,
    PipeBroken,
    ProcessState,
    SimPipe,
    VirtualClock,
)


class TestVirtualClock:
    def test_advances(self):
        clock = VirtualClock()
        clock.advance(500)
        clock.advance(250)
        assert clock.now_ns == 750
        assert clock.now_seconds == 7.5e-7

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_negative_advance_leaves_clock_untouched(self):
        clock = VirtualClock()
        clock.advance(100)
        with pytest.raises(ValueError):
            clock.advance(-50)
        assert clock.now_ns == 100

    def test_zero_advance_is_legal(self):
        clock = VirtualClock()
        clock.advance(0)
        assert clock.now_ns == 0

    def test_monotonic_over_many_advances(self):
        clock = VirtualClock()
        seen = []
        for step in (1, 10, 0, 100, 7):
            clock.advance(step)
            seen.append(clock.now_ns)
        assert seen == sorted(seen)
        assert clock.now_ns == 118

    def test_repr_shows_ns(self):
        clock = VirtualClock()
        clock.advance(42)
        assert "42" in repr(clock)


class TestCostModel:
    def test_spawn_scales_with_image(self):
        small = DEFAULT_COSTS.spawn_cost(100_000)
        large = DEFAULT_COSTS.spawn_cost(10_000_000)
        assert large > small > DEFAULT_COSTS.spawn_base_ns

    def test_fork_scales_with_footprint(self):
        assert DEFAULT_COSTS.fork_cost(50 << 20) > DEFAULT_COSTS.fork_cost(1 << 20)

    def test_cow_floor(self):
        assert DEFAULT_COSTS.cow_cost(0) == (
            DEFAULT_COSTS.cow_floor_pages * DEFAULT_COSTS.cow_fault_per_page_ns
        )
        big = DEFAULT_COSTS.cow_cost(100 * 4096)
        assert big > DEFAULT_COSTS.cow_cost(0)

    def test_restore_cost_components(self):
        base = DEFAULT_COSTS.closurex_restore_cost(0, 0, 0, 0)
        with_chunks = DEFAULT_COSTS.closurex_restore_cost(0, 5, 0, 0)
        with_bytes = DEFAULT_COSTS.closurex_restore_cost(4096, 0, 0, 0)
        with_fds = DEFAULT_COSTS.closurex_restore_cost(0, 0, 2, 1)
        assert base == DEFAULT_COSTS.restore_base_ns
        assert with_chunks == base + 5 * DEFAULT_COSTS.heap_sweep_per_chunk_ns
        assert with_bytes > base
        assert with_fds == (
            base + 2 * DEFAULT_COSTS.fd_close_ns + DEFAULT_COSTS.fd_rewind_ns
        )

    def test_ordering_invariant(self):
        """The execution-mechanism spectrum: spawn >> fork >> restore."""
        spawn = DEFAULT_COSTS.spawn_cost(1_000_000)
        fork = DEFAULT_COSTS.fork_cost(1_000_000) + DEFAULT_COSTS.teardown_child_ns
        restore = DEFAULT_COSTS.closurex_restore_cost(2048, 4, 1, 1)
        assert spawn > 5 * fork
        assert fork > 5 * restore


class TestKernel:
    def test_spawn_registers_process(self):
        kernel = Kernel()
        record = kernel.spawn("prog", 1_000_000)
        assert record.state is ProcessState.RUNNING
        assert kernel.live_process_count() == 1
        assert kernel.stats.spawns == 1
        assert kernel.clock.now_ns == DEFAULT_COSTS.spawn_cost(1_000_000)

    def test_fork_links_parent(self):
        kernel = Kernel()
        parent = kernel.spawn("prog", 1_000_000)
        child = kernel.fork(parent, 2 << 20)
        assert child.parent_pid == parent.pid
        assert child.image == "prog"
        assert kernel.stats.forks == 1

    def test_reap_marks_exit(self):
        kernel = Kernel()
        record = kernel.spawn("prog", 1000)
        kernel.reap(record, 0)
        assert record.state is ProcessState.EXITED
        assert record.exit_code == 0
        assert kernel.live_process_count() == 0

    def test_reap_crash(self):
        kernel = Kernel()
        record = kernel.spawn("prog", 1000)
        kernel.reap(record, None, crashed=True)
        assert record.state is ProcessState.CRASHED

    def test_fresh_teardown_costs_more(self):
        costs = CostModel()
        kernel = Kernel(costs)
        a = kernel.spawn("p", 1000)
        before = kernel.clock.now_ns
        kernel.reap(a, 0, fresh=True)
        fresh_cost = kernel.clock.now_ns - before
        b = kernel.spawn("p", 1000)
        before = kernel.clock.now_ns
        kernel.reap(b, 0)
        child_cost = kernel.clock.now_ns - before
        assert fresh_cost > child_cost

    def test_stats_aggregation(self):
        kernel = Kernel()
        parent = kernel.spawn("p", 1000)
        kernel.fork(parent, 4096)
        kernel.charge_cow(8192)
        assert kernel.stats.process_management_ns() == (
            kernel.stats.spawn_ns + kernel.stats.fork_ns + kernel.stats.cow_ns
        )
        assert kernel.stats.cow_ns > 0

    def test_unique_pids(self):
        kernel = Kernel()
        pids = {kernel.spawn("p", 1).pid for _ in range(10)}
        assert len(pids) == 10


class TestProcessRecordLifecycle:
    def test_spawn_stamps_birth_time(self):
        kernel = Kernel()
        record = kernel.spawn("prog", 1_000_000)
        # Registration happens after the spawn cost is charged, so the
        # record's birth time equals the clock at the end of the spawn.
        assert record.spawned_at_ns == kernel.clock.now_ns
        assert record.ended_at_ns is None
        assert record.exit_code is None

    def test_reap_stamps_end_time_after_teardown_cost(self):
        kernel = Kernel()
        record = kernel.spawn("prog", 1_000_000)
        kernel.reap(record, 3)
        assert record.ended_at_ns == kernel.clock.now_ns
        assert record.ended_at_ns > record.spawned_at_ns
        assert record.exit_code == 3
        assert record.state is ProcessState.EXITED

    def test_forked_child_lifecycle_is_independent(self):
        kernel = Kernel()
        parent = kernel.spawn("prog", 1_000_000)
        child = kernel.fork(parent, 1 << 20)
        kernel.reap(child, 0)
        assert child.state is ProcessState.EXITED
        assert parent.state is ProcessState.RUNNING
        assert kernel.live_process_count() == 1
        assert child.image == parent.image
        assert child.pid != parent.pid

    def test_crash_keeps_exit_code_none(self):
        kernel = Kernel()
        record = kernel.spawn("prog", 1000)
        kernel.reap(record, None, crashed=True)
        assert record.state is ProcessState.CRASHED
        assert record.exit_code is None
        assert record.ended_at_ns is not None


class TestKernelAccounting:
    def test_spawn_teardown_ns_sum_to_clock(self):
        """Every ns the clock advanced is attributed to a stats bucket."""
        kernel = Kernel()
        a = kernel.spawn("p", 500_000)
        b = kernel.fork(a, 1 << 20)
        kernel.charge_cow(3 * 4096)
        kernel.reap(b, 0)
        kernel.reap(a, 0, fresh=True)
        stats = kernel.stats
        assert stats.process_management_ns() == kernel.clock.now_ns
        assert stats.spawns == 1 and stats.forks == 1 and stats.teardowns == 2

    def test_teardown_ns_included_in_management(self):
        kernel = Kernel()
        record = kernel.spawn("p", 1000)
        kernel.reap(record, 0)
        assert kernel.stats.teardown_ns > 0
        assert kernel.stats.process_management_ns() >= kernel.stats.teardown_ns

    def test_respawn_cycle_accounting(self):
        """Spawn/teardown pairs leave the process table balanced."""
        kernel = Kernel()
        for _ in range(5):
            record = kernel.spawn("p", 10_000)
            kernel.reap(record, 0, fresh=True)
        assert kernel.stats.spawns == 5
        assert kernel.stats.teardowns == 5
        assert kernel.live_process_count() == 0
        assert len(kernel.processes) == 0

    def test_fork_reap_cycles_leave_the_table_empty(self):
        """A forkserver's lifetime of fork/reap pairs retains no record,
        and the stats count every one of them exactly."""
        kernel = Kernel()
        parent = kernel.spawn("p", 10_000)
        cycles = 2_000
        for k in range(cycles):
            child = kernel.fork(parent, 1 << 20)
            kernel.reap(child, 0, crashed=k % 7 == 0)
        assert kernel.processes == {parent.pid: parent}
        assert kernel.live_process_count() == 1
        kernel.reap(parent, 0, fresh=True)
        assert kernel.processes == {} and kernel.live_process_count() == 0
        costs = kernel.costs
        assert kernel.stats == KernelStats(
            spawns=1, forks=cycles, teardowns=cycles + 1,
            spawn_ns=costs.spawn_cost(10_000),
            fork_ns=cycles * costs.fork_cost(1 << 20),
            teardown_ns=cycles * costs.teardown_child_ns + costs.teardown_fresh_ns)
        assert kernel.clock.now_ns == kernel.stats.process_management_ns()

    def test_charge_dispatch_advances_clock_only(self):
        kernel = Kernel()
        before_stats = kernel.stats.process_management_ns()
        kernel.charge_dispatch()
        assert kernel.clock.now_ns == kernel.costs.dispatch_ns
        assert kernel.stats.process_management_ns() == before_stats


class _OneShotPipeFault:
    """Duck-typed stand-in for the chaos injector (sim_os never
    imports repro.chaos, so neither does its test double)."""

    def __init__(self, at_occurrence=0):
        self.at_occurrence = at_occurrence
        self.polls = 0

    def poll(self, site):
        occurrence = self.polls
        self.polls += 1
        if site == "pipe" and occurrence == self.at_occurrence:
            return PipeBroken("injected drop")
        return None


class TestSimPipe:
    def test_write_then_read(self):
        pipe = SimPipe()
        pipe.write(b"abcd")
        assert pipe.read(4) == b"abcd"
        assert pipe.bytes_written == 4

    def test_short_read_means_dead_peer(self):
        pipe = SimPipe()
        pipe.write(b"ab")
        with pytest.raises(PipeBroken):
            pipe.read(4)

    def test_severed_pipe_raises_both_ways(self):
        pipe = SimPipe()
        pipe.sever()
        with pytest.raises(PipeBroken):
            pipe.write(b"x")
        with pytest.raises(PipeBroken):
            pipe.read(1)


class TestForkserverChannel:
    def test_handshake_establishes_and_charges(self):
        kernel = Kernel()
        channel = ForkserverChannel(kernel)
        channel.handshake()
        assert channel.established
        assert channel.handshakes == 1
        assert kernel.clock.now_ns == kernel.costs.pipe_handshake_ns

    def test_roundtrip_echoes_child_pid(self):
        kernel = Kernel()
        channel = ForkserverChannel(kernel)
        channel.handshake()
        assert channel.fork_roundtrip(4321) == 4321
        assert channel.roundtrips == 1

    def test_roundtrip_before_handshake_is_protocol_error(self):
        channel = ForkserverChannel(Kernel())
        with pytest.raises(PipeBroken):
            channel.fork_roundtrip(1)

    def test_injected_drop_severs_handshake(self):
        kernel = Kernel()
        kernel.faults = _OneShotPipeFault(at_occurrence=0)
        channel = ForkserverChannel(kernel)
        with pytest.raises(PipeBroken):
            channel.handshake()
        assert not channel.established
        assert channel.ctl.broken and channel.status.broken
        # The time the failed handshake took is still charged.
        assert kernel.clock.now_ns == kernel.costs.pipe_handshake_ns

    def test_injected_drop_severs_roundtrip(self):
        kernel = Kernel()
        kernel.faults = _OneShotPipeFault(at_occurrence=1)
        channel = ForkserverChannel(kernel)
        channel.handshake()
        with pytest.raises(PipeBroken):
            channel.fork_roundtrip(7)
        assert not channel.established

    def test_reset_gives_fresh_pipes_for_respawn(self):
        kernel = Kernel()
        kernel.faults = _OneShotPipeFault(at_occurrence=0)
        channel = ForkserverChannel(kernel)
        with pytest.raises(PipeBroken):
            channel.handshake()
        channel.reset()
        channel.handshake()  # fault was one-shot; the respawn succeeds
        assert channel.established
        assert channel.fork_roundtrip(99) == 99

    def test_hello_word_is_fork_magic(self):
        assert FORKSRV_HELLO.to_bytes(4, "little") == b"FORK"
