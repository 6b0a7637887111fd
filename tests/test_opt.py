"""Optimizer suite: IR mutation primitives, transforms, validation.

Covers the layers bottom-up: the def-use/CFG mutation primitives the
transforms rely on (operand removal re-indexing, epoch-bumping
terminator setters, block removal), the individual transforms on small
MiniC programs, the translation-validation machinery (observation
equality, structural self-check, checkpoint rollback), the rejection
path via a deliberately broken transform, and a print -> parse ->
optimize -> verify round trip over every built-in target.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import Severity, dead_slot_stores, lint_module
from repro.analysis.opt import (
    REJECTED,
    REPLAY_BOOT_TIME,
    VALIDATED,
    ModuleCheckpoint,
    OptContext,
    Optimizer,
    PromoteSlots,
    Transform,
    TransformResult,
    fold_binop,
    fold_cast,
    fold_icmp,
    optimize_module,
    structural_errors,
)
from repro.ir import cfg
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Call,
    CondBr,
    Load,
    Phi,
    Ret,
    Store,
)
from repro.ir.module import BasicBlock
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.ir.types import int_type
from repro.ir.values import ConstantInt
from repro.ir.verifier import verify_module
from repro.minic import compile_c
from repro.passes import PassManager
from repro.passes.coverage import COV_GUARD, CoveragePass
from repro.runtime.replay import replay
from repro.targets import get_target, target_names

I32 = int_type(32)


def _instructions(function):
    return list(function.instructions())


def _only(module, kind):
    found = [i for f in module.defined_functions()
             for i in f.instructions() if isinstance(i, kind)]
    assert found, f"no {kind.__name__} in module"
    return found


# ---------------------------------------------------------------------------
# def-use / CFG mutation primitives
# ---------------------------------------------------------------------------


def test_remove_operand_reindexes_later_uses():
    x = BinOp("add", ConstantInt(I32, 1), ConstantInt(I32, 2), "x")
    b1, b2, b3 = BasicBlock("b1"), BasicBlock("b2"), BasicBlock("b3")
    phi = Phi(I32, "p")
    phi.add_incoming(x, b1)
    phi.add_incoming(ConstantInt(I32, 7), b2)
    phi.add_incoming(x, b3)

    removed = phi.remove_incoming(b1)
    assert removed == 1
    assert phi.incoming_blocks == [b2, b3]
    # The surviving use of x shifted from slot 2 to slot 1, and its
    # recorded index must agree with the operand list.
    uses = [u for u in x.uses if u.user is phi]
    assert len(uses) == 1
    assert uses[0].index == 1
    assert phi.get_operand(uses[0].index) is x


def test_remove_incoming_drops_every_arm_for_block():
    b1, b2 = BasicBlock("b1"), BasicBlock("b2")
    phi = Phi(I32, "p")
    phi.add_incoming(ConstantInt(I32, 1), b1)
    phi.add_incoming(ConstantInt(I32, 2), b1)
    phi.add_incoming(ConstantInt(I32, 3), b2)
    assert phi.remove_incoming(b1) == 2
    assert phi.incoming_blocks == [b2]
    assert phi.num_operands == 1


def test_remove_block_refuses_entry_and_bumps_epoch():
    module = compile_c(
        "int main(int argc, char **argv) {"
        " if (argc > 1) { return 1; } return 0; }",
        "t",
    )
    function = module.get_function("main")
    with pytest.raises(ValueError):
        function.remove_block(function.entry_block)
    victim = function.blocks[-1]
    epoch = function.cfg_epoch
    function.remove_block(victim)
    assert function.cfg_epoch > epoch
    assert victim.parent is None
    assert victim not in function.blocks


def test_branch_retarget_invalidates_cached_dominators():
    # Regression: retargeting a terminator in place must not leave the
    # cached dominator tree describing the old CFG.
    module = compile_c(
        "int main(int argc, char **argv) {"
        " int x = 0;"
        " if (argc > 1) { x = 1; } else { x = 2; }"
        " return x; }",
        "t",
    )
    function = module.get_function("main")
    condbr = next(i for i in function.instructions()
                  if isinstance(i, CondBr))
    stale_tree = cfg.dominator_tree(function)
    assert cfg.dominator_tree(function) is stale_tree  # cache hit
    epoch = function.cfg_epoch
    dropped = condbr.if_true
    condbr.if_true = condbr.if_false
    for phi in [i for i in function.instructions() if isinstance(i, Phi)]:
        phi.remove_incoming(dropped)
    assert function.cfg_epoch > epoch
    fresh_tree = cfg.dominator_tree(function)
    assert fresh_tree is not stale_tree
    # The dropped arm of the diamond no longer dominates anything and
    # is absent from the recomputed reachable set.
    assert dropped not in cfg.reachable_blocks(function)


def test_block_removal_invalidates_cached_dominators():
    module = compile_c(
        "int main(int argc, char **argv) {"
        " if (argc > 1) { return 1; } return 0; }",
        "t",
    )
    function = module.get_function("main")
    orphan = function.append_block("orphan")
    orphan.append(Ret(ConstantInt(I32, 0)))
    stale = cfg.dominator_tree(function)
    function.remove_block(orphan)
    assert cfg.dominator_tree(function) is not stale


# ---------------------------------------------------------------------------
# constant folding mirrors VM semantics
# ---------------------------------------------------------------------------


def test_fold_binop_matches_vm_wrapping():
    assert fold_binop("add", I32, 2**32 - 1, 1) == 0
    assert fold_binop("sub", I32, 0, 1) == 2**32 - 1
    assert fold_binop("shl", I32, 1, 32) == 0       # over-shift reads 0
    assert fold_binop("ashr", I32, 2**31, 40) == 2**32 - 1
    assert fold_binop("sdiv", I32, 2**32 - 7, 2) == 2**32 - 3  # -7/2 = -3
    assert fold_binop("srem", I32, 2**32 - 7, 2) == 2**32 - 1  # -7%2 = -1


def test_fold_binop_refuses_division_by_zero():
    # The VM traps here; folding would erase the crash site.
    assert fold_binop("udiv", I32, 1, 0) is None
    assert fold_binop("srem", I32, 1, 0) is None


def test_fold_icmp_is_signedness_aware():
    minus_one = 2**32 - 1
    assert fold_icmp("slt", I32, minus_one, 0) == 1
    assert fold_icmp("ult", I32, minus_one, 0) == 0
    assert fold_icmp("eq", I32, 5, 5) == 1


def test_fold_cast_handles_sext_and_refuses_pointers():
    i8, i64 = int_type(8), int_type(64)
    assert fold_cast("sext", i8, i64, 0xFF) == 2**64 - 1
    assert fold_cast("trunc", i64, i8, 0x1FF) == 0xFF
    assert fold_cast("inttoptr", i64, i64, 4) is None


# ---------------------------------------------------------------------------
# transforms on small programs
# ---------------------------------------------------------------------------


def _optimized(source: str, seeds: tuple[bytes, ...] = (b"",)):
    module = compile_c(source, "t")
    report = optimize_module(module, seeds=seeds)
    verify_module(module, strict_ssa=True)
    assert report.rejected == 0, [o.errors for o in report.outcomes]
    return module, report


def test_mem2reg_promotes_entry_slots():
    module, report = _optimized(
        "int main(int argc, char **argv) {"
        " int a = argc; int b = a + 1; return b; }"
    )
    assert not _instructions(module.get_function("main")) or not any(
        isinstance(i, (Alloca, Load, Store))
        for i in module.get_function("main").instructions()
    )
    promoted = [o for o in report.outcomes
                if o.transform == "mem2reg" and o.verdict == VALIDATED]
    assert promoted and promoted[0].details["slots_promoted"] >= 2


def test_mem2reg_never_stored_slot_reads_zero():
    # VM stack regions are zero-filled: the promoted value on the
    # never-stored path must be the constant 0, observed bit-identically.
    source = (
        "int main(int argc, char **argv) {"
        " int x;"
        " if (argc > 9) { x = 7; }"
        " return x + 1; }"
    )
    module, _report = _optimized(source)
    baseline = compile_c(source, "t")
    assert replay(module, b"", boot_time=REPLAY_BOOT_TIME).matches(
        replay(baseline, b"", boot_time=REPLAY_BOOT_TIME))


def test_sccp_folds_constant_branches():
    module, report = _optimized(
        "int main(int argc, char **argv) {"
        " int flag = 1;"
        " if (flag) { return 3; }"
        " return 4; }"
    )
    assert not any(isinstance(i, CondBr)
                   for i in module.get_function("main").instructions())
    sccp = [o for o in report.outcomes
            if o.transform == "sccp" and o.verdict == VALIDATED]
    assert sccp


def test_dce_keeps_potential_traps():
    # The unused sdiv by argc may divide by zero -> it is part of the
    # observable crash surface and must survive DCE.
    source = (
        "int main(int argc, char **argv) {"
        " int unused = 10 / argc;"
        " int dead = argc + 41;"
        " return 0; }"
    )
    module, _report = _optimized(source)
    insts = _instructions(module.get_function("main"))
    assert any(isinstance(i, BinOp) and i.op == "sdiv" for i in insts)
    assert not any(isinstance(i, BinOp) and i.op == "add" for i in insts)


def test_rle_forwards_global_loads_across_calls():
    # print_int does not write memory, so the second load of @counter
    # is redundant; the store in bump() must kill availability.
    source = (
        "int counter;"
        "void bump(void) { counter = counter + 1; }"
        "int main(int argc, char **argv) {"
        " counter = argc;"
        " print_int(counter + counter);"
        " bump();"
        " return counter; }"
    )
    module, report = _optimized(source)
    baseline = compile_c(source, "t")
    assert replay(module, b"", boot_time=REPLAY_BOOT_TIME).matches(
        replay(baseline, b"", boot_time=REPLAY_BOOT_TIME))
    rle = [o for o in report.outcomes
           if o.transform == "rle" and o.verdict == VALIDATED]
    assert rle and rle[0].details["loads_eliminated"] >= 1


def test_optimizer_reduces_dynamic_instructions():
    source = (
        "int main(int argc, char **argv) {"
        " int sum = 0;"
        " for (int i = 0; i < 50; i++) { sum = sum + i; }"
        " return sum & 255; }"
    )
    baseline = compile_c(source, "t")
    module, _report = _optimized(source)
    before = replay(baseline, b"", boot_time=REPLAY_BOOT_TIME)
    after = replay(module, b"", boot_time=REPLAY_BOOT_TIME)
    assert after.matches(before)
    assert after.instructions < before.instructions


# ---------------------------------------------------------------------------
# validation machinery
# ---------------------------------------------------------------------------


def test_observe_is_deterministic():
    spec = get_target("md4c")
    module = spec.build_closurex()
    seed = spec.seeds[0]
    assert replay(module, seed, boot_time=REPLAY_BOOT_TIME).matches(
        replay(module, seed, boot_time=REPLAY_BOOT_TIME))
    # and a distinct build of the same target, by a spec of its own,
    # observes identically
    fresh = dataclasses.replace(spec).build_closurex()
    assert fresh is not module
    assert replay(fresh, seed, boot_time=REPLAY_BOOT_TIME).matches(
        replay(module, seed, boot_time=REPLAY_BOOT_TIME))


def test_structural_check_catches_dangling_use():
    module = compile_c(
        "int main(int argc, char **argv) { int x = argc + 1;"
        " return x + 2; }",
        "t",
    )
    assert structural_errors(module) == []
    function = module.get_function("main")
    add = next(i for i in function.instructions()
               if isinstance(i, BinOp))
    # Detach without dropping operands: its operands now hold use edges
    # from an erased instruction.
    add.parent.remove_instruction(add)
    assert any("erased instruction" in e or "detached" in e
               for e in structural_errors(module))


def test_checkpoint_restores_bit_identical_text():
    module = compile_c(
        "int g; int main(int argc, char **argv) { g = argc; return g; }",
        "t",
    )
    checkpoint = ModuleCheckpoint(module)
    before = print_module(module)
    optimize_module(module, seeds=())
    assert print_module(module) != before  # the optimizer did something
    checkpoint.restore()
    assert print_module(module) == before
    verify_module(module, strict_ssa=True)


class _BreakReturns(Transform):
    """Deliberately wrong: rewrites every `ret` constant to 123."""

    name = "break-returns"

    def run_on_function(self, function, ctx, result):
        from repro.ir.instructions import Ret

        for inst in function.instructions():
            if (isinstance(inst, Ret) and inst.num_operands
                    and isinstance(inst.get_operand(0), ConstantInt)
                    and inst.get_operand(0).value != 123):
                inst.set_operand(0, ConstantInt(inst.get_operand(0).type,
                                                123))
                result.note("returns_broken")


def test_broken_transform_is_rejected_and_rolled_back():
    module = compile_c(
        "int main(int argc, char **argv) { return 5; }", "t"
    )
    before = print_module(module)
    optimizer = Optimizer(module, seeds=(b"",),
                          transforms=[_BreakReturns()], max_rounds=1)
    report = optimizer.run()
    assert report.rejected == 1 and report.applied == 0
    outcome = report.outcomes[0]
    assert outcome.verdict == REJECTED
    assert any("replay" in e and "return code" in e
               for e in outcome.errors), outcome.errors
    # the structured report still carries what the transform claimed
    assert outcome.details.get("returns_broken") == 1
    # and the module text is exactly what it was before the transform
    assert print_module(module) == before


class _ShiftHelperGuards(Transform):
    """Deliberately wrong: renumbers the coverage guards of @helper,
    which changes the coverage map and nothing else."""

    name = "shift-helper-guards"

    def run_on_function(self, function, ctx, result):
        if function.name != "helper":
            return
        for inst in function.instructions():
            if isinstance(inst, Call) and inst.callee.name == COV_GUARD:
                location = inst.get_operand(1)
                inst.set_operand(1, ConstantInt(location.type,
                                                location.value ^ 1))
                result.note("guards_shifted")


def test_coverage_only_rejection_names_the_divergent_function():
    module = compile_c(
        "int helper(int x) { if (x > 1) { return 2; } return 3; }"
        "int main(int argc, char **argv) { return helper(argc); }",
        "t",
    )
    PassManager([CoveragePass(11)]).run(module)
    report = Optimizer(module, seeds=(b"",),
                       transforms=[_ShiftHelperGuards()], max_rounds=1).run()
    assert report.rejected == 1
    error = report.outcomes[0].errors[0]
    assert "coverage maps differ" in error, error
    assert "@helper" in error, error
    # The baseline, the check, and the traced replays before and after.
    assert report.replays == 4


def test_transform_exception_is_rejected_and_rolled_back():
    class _Explodes(Transform):
        name = "explodes"

        def run_on_function(self, function, ctx, result):
            for inst in list(function.instructions()):
                inst.erase_from_parent()  # half-destroy the function
            raise RuntimeError("boom")

    module = compile_c(
        "int main(int argc, char **argv) { return 1; }", "t"
    )
    before = print_module(module)
    report = Optimizer(module, seeds=(b"",), transforms=[_Explodes()],
                       max_rounds=1).run()
    assert report.rejected == 1
    assert "boom" in report.outcomes[0].errors[0]
    assert print_module(module) == before


def test_optimizer_emits_telemetry_family():
    from repro.telemetry import MetricsRegistry
    from repro.telemetry.tracer import Tracer

    class _Sink:
        def __init__(self):
            self.events = []

        def emit(self, event):
            self.events.append(event)

    metrics = MetricsRegistry()
    sink = _Sink()
    module = compile_c(
        "int main(int argc, char **argv) { int a = argc; return a + 1; }",
        "t",
    )
    optimize_module(module, seeds=(b"",), metrics=metrics,
                    tracer=Tracer(sink=sink))
    counters = metrics.counter_values("analysis.opt.")
    assert counters["analysis.opt.runs"] == 1
    assert counters["analysis.opt.rounds"] >= 1
    assert counters["analysis.opt.transforms_applied"] >= 1
    assert counters["analysis.opt.replays"] >= 1
    names = {e.name for e in sink.events}
    assert "analysis.opt.run" in names
    assert "analysis.opt.transform" in names


# ---------------------------------------------------------------------------
# dead-store analysis + lint rule
# ---------------------------------------------------------------------------


def test_dead_slot_stores_finds_overwritten_store():
    module = compile_c(
        "int main(int argc, char **argv) {"
        " int x = 1;"      # dead: overwritten before any load
        " x = argc;"
        " return x; }",
        "t",
    )
    function = module.get_function("main")
    dead = dead_slot_stores(function)
    assert len(dead) >= 1
    assert all(isinstance(s, Store) for s in dead)
    stored = {s.value.value for s in dead
              if isinstance(s.value, ConstantInt)}
    assert 1 in stored


def test_lint_reports_dead_store_warning():
    module = compile_c(
        "int main(int argc, char **argv) {"
        " int x = 1;"
        " x = argc;"
        " return x; }",
        "t",
    )
    diagnostics = [d for d in lint_module(module) if d.rule == "dead-store"]
    assert diagnostics
    assert all(d.severity is Severity.WARNING for d in diagnostics)
    assert diagnostics[0].function == "main"


def test_lint_does_not_flag_observed_stores():
    module = compile_c(
        "int main(int argc, char **argv) {"
        " int x = argc;"
        " if (argv) { x = x + 1; }"
        " return x; }",
        "t",
    )
    assert [d for d in lint_module(module) if d.rule == "dead-store"] == []


# ---------------------------------------------------------------------------
# print -> parse -> optimize -> verify round trip, all targets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", target_names())
def test_roundtrip_optimize_verify(name):
    spec = get_target(name)
    module = parse_module(print_module(spec.build_closurex()))
    report = optimize_module(
        module,
        seeds=tuple(spec.seeds[:2]),
        extra_allocators=spec.extra_allocators,
    )
    assert report.rejected == 0, [
        o.errors for o in report.outcomes if o.verdict == REJECTED
    ]
    assert report.applied > 0
    assert report.instructions_after < report.instructions_before
    verify_module(module, strict_ssa=True)
    # the optimized module itself survives a print/parse round trip
    reparsed = parse_module(print_module(module))
    assert print_module(reparsed) == print_module(module)
