"""Shared builds: each target is built once per process.

A :class:`~repro.targets.framework.TargetSpec` makes each build once
and hands every caller the same module, hence, through
``Module.decoded``, the same decoded and compiled code: a fleet's
inline shards, the paper tables' trials and the supervised fallback's
forkserver.  These tests pin the share (one ``compile_c`` for a 4-shard
fleet, each hot function compiled once), the refusal of in-place
rewrites of a shared build, the optimized build's own module, and
that threads running campaigns on one build reach the results each
reaches alone.
"""

import dataclasses
import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.opt import ModuleCheckpoint, optimize_module
from repro.execution import ClosureXExecutor
from repro.fuzzing import Campaign, CampaignConfig
from repro.ir import print_module
from repro.minic import compile_c
from repro.parallel import ParallelCampaign, ParallelConfig
from repro.passes import PassManager, baseline_passes
from repro.sim_os import Kernel
from repro.targets import framework, get_target
from repro.vm import VM, interpreter
from tests.helpers import private


def unbuilt(name):
    """A copy of *name*'s spec with no build made yet."""
    return dataclasses.replace(get_target(name))


@pytest.mark.parametrize("mechanism, flavour", [
    ("forkserver", "baseline"), ("closurex", "closurex")])
def test_inline_fleet_builds_its_target_once(mechanism, flavour,
                                             monkeypatch):
    """A 4-shard inline zlib fleet compiles zlib once, into one build,
    and compiles each hot function of it once: the shards count their
    runs on one decoded code."""
    spec = unbuilt("zlib")
    monkeypatch.setitem(framework._REGISTRY, "zlib", spec)
    compiles, compiled = [], []
    compile_source, compile_function = framework.compile_c, interpreter._compile

    def counting_source(source, name):
        compiles.append(name)
        return compile_source(source, name)

    def counting_function(code):
        compiled.append(code.name)
        return compile_function(code)

    monkeypatch.setattr(framework, "compile_c", counting_source)
    monkeypatch.setattr(interpreter, "_compile", counting_function)
    ParallelCampaign(ParallelConfig(
        target="zlib", n_workers=4, seed=0, budget_ns=4_000_000,
        sync_every_ns=2_000_000, mechanism=mechanism,
    )).run()
    assert compiles == ["zlib"]
    assert list(spec._builds) == [(flavour, frozenset(), False)]
    assert compiled and len(compiled) == len(set(compiled))


def test_each_build_is_made_once_per_spec():
    spec = unbuilt("giftext")
    closurex = spec.build_closurex()
    assert closurex.shared and spec.build_closurex(skip=set()) is closurex
    assert spec.build_closurex(skip={"HeapPass"}) is not closurex
    assert spec.build_baseline() is spec.build_baseline() is not closurex
    assert spec.build_persistent() is spec.build_persistent()
    # The raw module and the analyzed build are private: one per call.
    raw = spec.compile()
    assert not raw.shared and raw is not spec.compile()
    analyzed, _ = spec.build_analyzed()
    assert not analyzed.shared and analyzed is not spec.build_analyzed()[0]
    # Another spec makes builds of its own.
    assert dataclasses.replace(spec).build_closurex() is not closurex


def test_a_dropped_spec_frees_its_builds():
    spec = unbuilt("giftext")
    build = weakref.ref(spec.build_closurex())
    del spec
    gc.collect()
    assert build() is None


REWRITES = {
    "pass-manager": lambda module: PassManager(baseline_passes(7)).run(module),
    "optimizer": lambda module: optimize_module(module, seeds=(b"GIF89a",)),
    "checkpoint-restore": lambda module: ModuleCheckpoint(module).restore(),
}


@pytest.mark.parametrize("rewrite", sorted(REWRITES))
def test_rewriters_refuse_a_shared_build(rewrite):
    """Each in-place rewriter raises on a shared build before it changes
    anything: the build prints as before and keeps its decoded code.  A
    private copy takes the rewrite."""
    module = get_target("giftext").build_closurex()
    text, decoded = print_module(module), module.decoded
    with pytest.raises(ValueError, match="shared build of 'giftext'"):
        REWRITES[rewrite](module)
    assert print_module(module) == text and module.decoded is decoded
    REWRITES[rewrite](private(module))


def test_optimized_build_is_its_own_module():
    """``build_optimized`` hands out the shared ``optimize=True`` build
    and its report; the ClosureX build it started from is untouched."""
    spec = unbuilt("giftext")
    closurex = spec.build_closurex()
    text = print_module(closurex)
    optimized, report = spec.build_optimized()
    assert optimized is not closurex and optimized.shared
    assert print_module(closurex) == text
    assert report.applied and print_module(optimized) != text
    assert spec.build_optimized() == (optimized, report)
    assert spec.build_closurex(optimize=True) is optimized


def campaign_result(spec, module, seed):
    campaign = Campaign(
        ClosureXExecutor(module, spec.image_bytes, Kernel()), spec.seeds,
        CampaignConfig(budget_ns=8_000_000, seed=seed))
    campaign.run()
    return campaign.state_digest(), campaign.execs, campaign.clock.now_ns


def test_threads_on_one_build_reach_their_lone_results():
    """Three threads each run a giftext campaign on one shared build, as
    the service's fleet jobs do: each ends on the digest, exec count and
    virtual time it reaches alone on a build of its own, while all of
    them decode into, and run compile batches over, one decoded code."""
    spec = unbuilt("giftext")
    seeds = (1, 2, 3)
    alone = [campaign_result(spec, private(spec.build_closurex()), seed)
             for seed in seeds]
    shared = spec.build_closurex()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with ThreadPoolExecutor(len(seeds)) as pool:
            futures = [pool.submit(campaign_result, spec, shared, seed)
                       for seed in seeds]
            together = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert together == alone
    assert any(code.compiled for code in shared.decoded.plain.values())


# ``late`` is never called by ``main``.
UNCALLED = """
int late(int x) { return x + 1; }
int main(int argc, char **argv) {
    int total = 0;
    for (int i = 0; i < 20; i++) { total = total + i; }
    return total;
}
"""


def test_a_decode_during_a_compile_batch_joins_the_code(monkeypatch):
    """A compile batch runs over a snapshot of the decoded functions: a
    function another thread decodes into the same code while the batch
    compiles (here, from inside ``_compile``) is added, not an error."""
    monkeypatch.setattr(interpreter, "COMPILE_AFTER_RUNS", 8)
    module = compile_c(UNCALLED, "uncalled")
    main, late = module.get_function("main"), module.get_function("late")
    compile_function = interpreter._compile

    def decoding_late(code):
        other = VM(module)
        other.load()
        other._code_for(late, 1)
        return compile_function(code)

    monkeypatch.setattr(interpreter, "_compile", decoding_late)

    def run():
        vm = VM(module)
        vm.load()
        return vm.run_function(main, vm.setup_argv(["t"]))

    results = {run() for _ in range(9)}
    assert results == {sum(range(20))}
    plain = module.decoded.plain
    assert plain[main].compiled is not None
    assert plain[late].compiled is None
