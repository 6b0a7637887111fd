"""A forkserver child is a copy of its parked parent.

The forkserver loads the target once, lays out argv, and runs each
test case in ``parent_vm.fork()``.  These tests pin what a child is: a
process equal to a freshly loaded one (``VM()`` + ``load()`` +
``setup_argv``) in every region, cursor, freed-region FIFO, heap, FD
table, counter and coverage map, with its own boot time, and whose
writes never reach its parent.
"""

import random

import pytest

from repro.execution import ForkServerExecutor
from repro.fuzzing.mutators import HavocMutator
from repro.minic import compile_c
from repro.passes import PassManager, baseline_passes
from repro.sim_os import Kernel
from repro.targets import get_target
from repro.vm import VM

STAMP_SOURCE = r"""
long stamp;

int main(int argc, char **argv) {
    stamp = time();
    return 0;
}
"""


def image(vm) -> tuple:
    """*vm*'s address space: each live region's base, size,
    permissions, kind, tag, liveness and bytes, its view (the live
    regions in address order, the freed-region FIFO, the cursors and
    the bytes written) and the segments."""
    memory = vm.memory
    return (
        [(r.base, r.size, r.writable, r.kind, r.tag, r.alive, bytes(r.data))
         for r in memory.live_regions()],
        memory.view(),
        [(s.name, s.base, s.size, s.cursor) for s in (
            memory.global_segment, memory.heap_segment, memory.stack_segment)],
    )


def process(vm) -> tuple:
    """*vm*'s process state but its boot time and code binding: its
    address space, the global layout over its own regions, heap, FD
    table, counters, coverage, output and hooks."""
    at = vm.memory.region_at
    assert all(region is at(region.base)
               for region in vm.global_regions.values())
    assert all(region is at(region.base)
               for regions in vm.sections.values() for region in regions)
    heap, fds = vm.heap, vm.fd_table
    assert heap.space is vm.memory and fds.fs is vm.fs
    return (
        type(vm), vm.module, vm.fs, image(vm),
        {name: region.base for name, region in vm.global_regions.items()},
        {name: [region.base for region in regions]
         for name, regions in vm.sections.items()},
        dict(heap.live), heap.live_bytes, heap.stats, heap.budget_bytes,
        dict(fds.open_files), fds.max_open, fds._next_handle,
        fds.total_opens, fds.open_failures, dict(fds.run_writes),
        vm.natives, vm.cost, vm.instructions_executed, vm.instruction_limit,
        vm.rand_state, vm.output, vm._call_depth,
        (vm.site.function, vm.site.block),
        bytes(vm.coverage_map), vm.coverage_map.cells, vm.prev_loc,
        vm.trace_edges, vm.edge_trace, vm._loaded, vm.load_cost,
        vm.opcode_counts, vm.libc_counts, vm.faults, vm.cmp_observer,
        sorted(vars(vm)), sorted(vars(vm.memory)),
    )


@pytest.mark.parametrize("name", ["zlib", "libpcap"])
def test_child_equals_a_freshly_loaded_process(name):
    """After execs that write globals, allocate and open files, a new
    child equals a freshly loaded process, and the parent's image is
    the one it was parked with."""
    spec = get_target(name)
    module = spec.build_baseline()
    executor = ForkServerExecutor(module, spec.image_bytes, Kernel())
    executor.boot()
    parent = executor.parent_vm
    parked = image(parent)
    havoc = HavocMutator(random.Random(5))
    inputs = list(spec.seeds) + [havoc.mutate(seed) for seed in spec.seeds * 4]
    wrote_globals = allocated = opened = False
    for data in inputs:
        executor.run(data)
        vm = executor.last_vm
        wrote_globals |= any(
            region.data != parent.global_regions[name].data
            for name, region in vm.global_regions.items())
        allocated |= vm.heap.stats.allocations > 0
        opened |= vm.fd_table.total_opens > 0
    assert wrote_globals and allocated and opened

    child = parent.fork()
    fresh = VM(module, fs=executor.fs)
    fresh.load()
    argc, argv = fresh.setup_argv([module.name, executor.input_path])
    assert executor.main_args == [argc, argv]
    assert process(child) == process(fresh)
    assert image(parent) == parked
    # Every region is the child's own, bytes and all.
    for region in child.memory.live_regions():
        own = parent.memory.region_at(region.base)
        assert region is not own and region.data is not own.data
    assert child.heap is not parent.heap
    assert child.fd_table is not parent.fd_table
    assert child.coverage_map is not parent.coverage_map


def test_children_draw_consecutive_boot_times():
    """Each child draws the next boot time, as a new process does:
    consecutive children read consecutive ``time()`` values, none of
    them the parent's."""
    module = compile_c(STAMP_SOURCE, "stamp")
    PassManager(baseline_passes(1)).run(module)
    executor = ForkServerExecutor(module, 100_000, Kernel())
    executor.boot()
    parent = executor.parent_vm
    stamps = []
    for _ in range(4):
        executor.run(b"x")
        vm = executor.last_vm
        stamps.append(int.from_bytes(vm.global_regions["stamp"].data, "little"))
        assert vm.boot_time == stamps[-1]
    assert stamps == [parent.boot_time + k for k in range(1, 5)]
    assert parent.global_regions["stamp"].data == bytes(8)


def test_a_reboot_parks_a_new_parent_and_shutdown_drops_it():
    module = compile_c(STAMP_SOURCE, "stamp")
    executor = ForkServerExecutor(module, 100_000, Kernel())
    executor.boot()
    first = executor.parent_vm
    executor.run(b"x")
    executor.shutdown()
    assert executor.parent is None and executor.parent_vm is None
    executor.run(b"x")
    assert executor.parent_vm is not first
    assert image(executor.parent_vm) == image(first)
