"""Static analysis engine: dataflow, dominators, pollution, lint.

Covers the `repro.analysis` package plus the CFG cache and strict-SSA
verifier it leans on, and the end-to-end acceptance property: the
pollution-aware build of a proven-clean target runs faster in virtual
time than the blind full instrumentation while producing identical
behaviour.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    Liveness,
    PollutionAnalyzer,
    Severity,
    analyze_pollution,
    lint_module,
    live_values,
    reaching_stores,
    stores_reaching,
    summarise_module,
)
from repro.ir import cfg, parse_module, print_module, verify_module
from repro.ir.instructions import Alloca, Br, Call, Load, Ret, Store
from repro.ir.module import BasicBlock
from repro.ir.values import ConstantInt
from repro.ir.types import I32, FunctionType
from repro.ir.verifier import VerificationError
from repro.minic import compile_c
from repro.passes import ModulePass, PassManager, PassResult, closurex_passes
from repro.runtime.harness import ClosureXHarness, HarnessConfig
from repro.targets import all_targets, get_target, target_names

# ---------------------------------------------------------------------------
# CFG cache + dominators
# ---------------------------------------------------------------------------

DIAMOND = r"""
int pick(int a, int b) {
    int r;
    if (a > b) { r = a; } else { r = b; }
    return r + a;
}

int main(int argc, char **argv) {
    return pick(argc, 3);
}
"""


def _function(source: str, name: str):
    module = compile_c(source, "t")
    return module, module.get_function(name)


def test_cfg_results_are_cached_until_mutation():
    _module, function = _function(DIAMOND, "pick")
    first = cfg.predecessors(function)
    assert cfg.predecessors(function) is first
    assert cfg.topological_order(function) is cfg.topological_order(function)
    # Any block mutation bumps the epoch and drops the cache.
    entry = function.entry_block
    entry.insert(0, Call(_module.declare_function("dbg", FunctionType(I32, [])), []))
    assert cfg.predecessors(function) is not first


def test_cfg_invalidate_is_explicit_for_in_place_retargeting():
    _module, function = _function(DIAMOND, "pick")
    epoch = function.cfg_epoch
    function.invalidate_cfg()
    assert function.cfg_epoch == epoch + 1


def test_dominator_tree_diamond():
    _module, function = _function(DIAMOND, "pick")
    tree = cfg.dominator_tree(function)
    blocks = {b.name: b for b in function.blocks}
    entry = function.entry_block
    join = blocks[max(blocks, key=lambda n: len(blocks[n].instructions) if "if.end" in n else -1)]
    for block in function.blocks:
        assert tree.dominates(entry, block)
        assert tree.dominates(block, block)
    # Neither branch arm dominates the join block.
    arms = [b for b in function.blocks
            if b is not entry and tree.immediate_dominator(b) is entry]
    join_blocks = [b for b in arms if len(cfg.predecessors(function)[b]) > 1]
    for join_block in join_blocks:
        for arm in arms:
            if arm is not join_block:
                assert not tree.dominates(arm, join_block)


def test_dominance_frontiers_join_point():
    _module, function = _function(DIAMOND, "pick")
    frontiers = cfg.dominance_frontiers(function)
    preds = cfg.predecessors(function)
    join = next(b for b in function.blocks if len(preds[b]) > 1)
    for pred in preds[join]:
        if pred is not function.entry_block:
            assert join in frontiers[pred]


# ---------------------------------------------------------------------------
# dataflow: liveness + reaching definitions
# ---------------------------------------------------------------------------


def test_liveness_across_branches():
    _module, function = _function(DIAMOND, "pick")
    solution = live_values(function)
    assert solution.iterations > 0
    # The alloca slot for `r` is live into the join block (loaded there).
    preds = cfg.predecessors(function)
    join = next(b for b in function.blocks if len(preds[b]) > 1)
    r_slot = next(s for s in function.instructions()
                  if isinstance(s, Alloca) and any(
                      isinstance(u.user, Load) and u.user.parent is join
                      for u in s.uses))
    assert r_slot in solution.at_entry(join)


def test_reaching_definitions_kill_and_merge():
    _module, function = _function(DIAMOND, "pick")
    solution = reaching_stores(function)
    preds = cfg.predecessors(function)
    join = next(b for b in function.blocks if len(preds[b]) > 1)
    load = next(i for i in join.instructions if isinstance(i, Load))
    defs = stores_reaching(load, solution)
    # Both arms' stores to `r` merge at the join-block load.
    blocks = {d.parent for d in defs}
    assert len(defs) == 2 and join not in blocks


# ---------------------------------------------------------------------------
# strict SSA verifier
# ---------------------------------------------------------------------------


def test_strict_ssa_rejects_non_dominating_def():
    module = parse_module("""
; ModuleID = 'bad'
define i32 @f(i32 %a) {
entry:
  %c = icmp ne i32 %a, 0
  br i1 %c, label %left, label %right
left:
  %x = add i32 %a, 1
  br label %join
right:
  br label %join
join:
  %y = add i32 %x, 1
  ret i32 %y
}
""")
    verify_module(module)  # structurally fine (layout order is respected)
    with pytest.raises(VerificationError, match="not dominated"):
        verify_module(module, strict_ssa=True)


def test_strict_ssa_checks_phi_on_incoming_edge():
    module = parse_module("""
; ModuleID = 'phi'
define i32 @f(i32 %a) {
entry:
  %c = icmp ne i32 %a, 0
  br i1 %c, label %left, label %right
left:
  %x = add i32 %a, 1
  br label %join
right:
  %z = add i32 %a, 2
  br label %join
join:
  %p = phi i32 [ %x, %left ], [ %z, %right ]
  ret i32 %p
}
""")
    verify_module(module, strict_ssa=True)  # well-formed: no error
    # Swap the phi's incoming blocks: each value now claims to arrive
    # from the arm that does NOT define it.
    function = module.get_function("f")
    blocks = {b.name: b for b in function.blocks}
    phi = blocks["join"].instructions[0]
    phi.incoming_blocks[0], phi.incoming_blocks[1] = (
        phi.incoming_blocks[1], phi.incoming_blocks[0]
    )
    with pytest.raises(VerificationError, match="phi"):
        verify_module(module, strict_ssa=True)


def test_pass_manager_enforces_strict_ssa():
    """A pass whose output breaks dominance fails the pass manager."""
    module = parse_module("""
; ModuleID = 'good'
define i32 @f(i32 %a) {
entry:
  %c = icmp ne i32 %a, 0
  br i1 %c, label %left, label %right
left:
  %x = add i32 %a, 1
  br label %join
right:
  br label %join
join:
  %y = add i32 %a, 1
  ret i32 %y
}
""")
    blocks = {b.name: b for b in module.get_function("f").blocks}

    class UseBeforeDef(ModulePass):
        name = "UseBeforeDef"

        def run(self, module):
            # join's add now reads %x, which only the left arm defines.
            x = blocks["left"].instructions[0]
            blocks["join"].instructions[0].set_operand(0, x)
            return PassResult(self.name, changed=True)

    with pytest.raises(VerificationError, match="not dominated"):
        PassManager([UseBeforeDef()]).run(module)


# ---------------------------------------------------------------------------
# interprocedural summaries + pollution classifier
# ---------------------------------------------------------------------------

PARAM_WRITE = r"""
int counter;

void bump(int *p, int by) { *p = *p + by; }

int main(int argc, char **argv) {
    bump(&counter, argc);
    return counter;
}
"""


def test_param_mediated_global_write_is_attributed():
    module = compile_c(PARAM_WRITE, "t")
    _graph, summaries = summarise_module(module)
    assert 0 in summaries["bump"].stores_params
    assert "counter" in summaries["main"].modified_globals


def test_pollution_clean_module_proves_all_dimensions():
    module = compile_c(
        "int main(int argc, char **argv) { return argc * 2; }", "pure"
    )
    report = analyze_pollution(module)
    assert set(report.clean_dimensions()) == {"heap", "file", "global", "exit"}
    assert report.skip_passes() == {
        "HeapPass", "FilePass", "GlobalPass", "ExitPass"
    }
    assert report.trusted_globals and not report.modified_globals


def test_pollution_unknown_extern_dirties_everything():
    module = compile_c(PARAM_WRITE, "t")
    mystery = module.declare_function("mystery", FunctionType(I32, []))
    main = module.get_function("main")
    main.entry_block.insert(0, Call(mystery, []))
    report = analyze_pollution(module)
    assert report.clean_dimensions() == ()
    assert not report.trusted_globals


def test_pollution_recursion_reaches_fixpoint():
    source = r"""
    int depth;
    int walk(int n) {
        if (n <= 0) { return 0; }
        depth = depth + 1;
        return walk(n - 1) + 1;
    }
    int main(int argc, char **argv) { return walk(argc); }
    """
    report = analyze_pollution(compile_c(source, "t"))
    assert report.is_clean("heap") and report.is_clean("file")
    assert not report.is_clean("global")
    assert report.modified_globals == frozenset({"depth"})


def test_pollution_analysis_reports_timing_telemetry():
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.tracer import RingBufferSink, Tracer

    module = compile_c(PARAM_WRITE, "t")
    metrics = MetricsRegistry()
    sink = RingBufferSink()
    tracer = Tracer(sink=sink)
    report = PollutionAnalyzer(module, metrics=metrics, tracer=tracer).run()
    assert report.analysis_wall_ns > 0
    assert metrics.counter("analysis.pollution_runs").value == 1
    assert metrics.histogram("analysis.pollution_wall_ns").count == 1
    events = [e for e in sink.events if e.name == "analysis.pollution"]
    assert len(events) == 1 and events[0].attrs["module"] == "t"


# ---------------------------------------------------------------------------
# linter
# ---------------------------------------------------------------------------


def test_linter_flags_dead_block_and_ignored_alloc():
    module = compile_c(
        r"""
        int main(int argc, char **argv) {
            malloc(16);
            return 0;
        }
        """,
        "leaky",
    )
    function = module.get_function("main")
    dead = BasicBlock("orphan")
    function.append_block(dead)
    dead.append(Ret(ConstantInt(I32, 0)))
    diagnostics = lint_module(module)
    rules = {d.rule for d in diagnostics}
    assert "dead-block" in rules and "ignored-result" in rules
    assert any(d.severity is Severity.ERROR and d.rule == "ignored-result"
               for d in diagnostics)


def test_linter_flags_unknown_extern():
    module = compile_c("int main(int argc, char **argv) { return 0; }", "t")
    ghost = module.declare_function("ghost_fn", FunctionType(I32, []))
    module.get_function("main").entry_block.insert(0, Call(ghost, []))
    diagnostics = lint_module(module)
    assert any(d.rule == "unknown-extern" and d.severity is Severity.ERROR
               for d in diagnostics)


def test_linter_flags_undeclared_global_store():
    module = compile_c(
        r"""
        int known;
        int main(int argc, char **argv) { known = argc; return known; }
        """,
        "t",
    )
    # Clean except for the dead-store warning on the unused argv slot.
    assert [d for d in lint_module(module)
            if d.severity is Severity.ERROR] == []
    # Detach the global from the symbol table, keeping the store.
    rogue = module.globals.pop("known")
    assert rogue is not None
    diagnostics = lint_module(module)
    assert any(d.rule == "undeclared-global" for d in diagnostics)


# ---------------------------------------------------------------------------
# every built-in target: round-trip + strict verify + lint
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", target_names())
def test_target_roundtrip_verify_lint(name):
    spec = get_target(name)
    module = spec.compile()

    # parser -> printer -> parser round-trip is a fixpoint
    text = print_module(module)
    reparsed = parse_module(text)
    assert print_module(reparsed) == text

    # strict SSA holds for codegen output and the full ClosureX build
    verify_module(module, strict_ssa=True)
    instrumented = spec.build_closurex()
    verify_module(instrumented, strict_ssa=True)

    # the linter reports no error-severity diagnostics on either
    for candidate in (module, instrumented):
        errors = [d for d in lint_module(candidate)
                  if d.severity is Severity.ERROR]
        assert errors == [], [e.describe() for e in errors]


@pytest.mark.parametrize("name", target_names())
def test_target_pollution_report_is_conservative(name):
    spec = get_target(name)
    report = spec.build_analyzed()[1]
    # Every dirty verdict must carry at least one reason.
    for dimension in report.dirty_dimensions():
        assert report.finding(dimension).reasons
    assert "main" in report.reachable_functions
    assert report.describe().startswith("pollution report")


# ---------------------------------------------------------------------------
# acceptance: analysis-guided build of md4c
# ---------------------------------------------------------------------------


def test_md4c_is_provably_heap_clean():
    report = get_target("md4c").build_analyzed()[1]
    assert report.is_clean("heap")
    assert "HeapPass" in report.skip_passes()
    assert report.trusted_globals


def test_analyzed_build_skips_heap_pass_and_matches_behaviour():
    spec = get_target("md4c")
    module, report = spec.build_analyzed()
    # HeapPass elided: no closurex_malloc declarations were introduced.
    assert not module.has_function("closurex_malloc")
    verify_module(module, strict_ssa=True)

    full = spec.build_closurex()
    harness_full = ClosureXHarness(full)
    harness_full.boot()
    harness_fast = ClosureXHarness(
        module, config=HarnessConfig(pollution=report)
    )
    harness_fast.boot()

    for seed in spec.seeds:
        result_full = harness_full.run_test_case(seed)
        result_fast = harness_fast.run_test_case(seed)
        # Identical observable behaviour (dataflow + control flow)...
        assert result_fast.status == result_full.status
        assert result_fast.return_code == result_full.return_code
        assert harness_fast.vm.coverage_map == harness_full.vm.coverage_map
        # ...at a strictly lower restore price.
        assert result_fast.restore.restore_ns < result_full.restore.restore_ns


def test_skip_set_does_not_perturb_edge_ids():
    spec = get_target("md4c")
    full = spec.build_closurex()
    skipped = spec.build_closurex(skip={"HeapPass"})

    def guard_ids(module):
        ids = []
        for function in module.defined_functions():
            for inst in function.instructions():
                if isinstance(inst, Call) and inst.callee.name == "__cov_guard":
                    ids.append(inst.args[0].value)
        return ids

    assert guard_ids(full) == guard_ids(skipped)
