"""Microbenchmarks of the substrate itself (real wall-clock time):
interpreter throughput, harness restore latency, and per-mechanism
dispatch overhead.  These are pytest-benchmark timings of the Python
implementation, complementing the virtual-time experiments.
"""

import pytest

from repro.minic import compile_c
from repro.passes import PassManager, closurex_passes
from repro.runtime import ClosureXHarness
from repro.sim_os import Kernel
from repro.targets import get_target
from repro.vm import VM

HOT_LOOP = """
int main(int argc, char **argv) {
    long s = 0;
    for (int i = 0; i < 500; i++) { s += i * 3; }
    return (int)(s & 0xff);
}
"""


def test_interpreter_throughput(benchmark):
    module = compile_c(HOT_LOOP, "hot")

    def run():
        vm = VM(module)
        vm.load()
        argc, argv = vm.setup_argv(["hot"])
        vm.run_function(module.get_function("main"), [argc, argv])
        return vm.instructions_executed

    instructions = benchmark(run)
    assert instructions > 3000


def test_minic_compile_latency(benchmark):
    spec = get_target("gpmf-parser")
    module = benchmark(lambda: compile_c(spec.source, "bench"))
    assert module.instruction_count() > 100


def test_closurex_build_latency(benchmark):
    spec = get_target("giftext")

    def build():
        module = compile_c(spec.source, "bench")
        PassManager(closurex_passes(1)).run(module)
        return module

    module = benchmark(build)
    assert module.has_function("target_main")


def test_harness_iteration_latency(benchmark):
    spec = get_target("giftext")
    module = spec.build_closurex()
    harness = ClosureXHarness(module)
    harness.boot()
    seed = spec.seeds[0]

    result = benchmark(lambda: harness.run_test_case(seed))
    assert result.status.survivable


def test_restore_latency(benchmark):
    spec = get_target("bsdtar")
    module = spec.build_closurex()
    harness = ClosureXHarness(module)
    harness.boot()

    def dirty_and_restore():
        harness.run_test_case(spec.seeds[2], restore=False)
        return harness.restore_state()

    report = benchmark(dirty_and_restore)
    assert report.section_bytes > 0


def test_fork_dispatch_overhead(benchmark):
    from repro.execution import ForkServerExecutor

    spec = get_target("giftext")
    executor = ForkServerExecutor(spec.build_baseline(), spec.image_bytes,
                                  Kernel())
    executor.boot()
    seed = spec.seeds[0]
    result = benchmark(lambda: executor.run(seed))
    assert not result.is_crash
