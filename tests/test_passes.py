"""Unit tests for the ClosureX passes and pass infrastructure."""

import pytest

from repro.ir import Call, verify_module
from repro.minic import compile_c
from repro.passes import (
    CLOSURE_GLOBAL_SECTION,
    COV_GUARD,
    EXIT_HOOK,
    HEAP_WRAPPERS,
    PASS_TABLE,
    CoveragePass,
    ExitPass,
    FilePass,
    GlobalPass,
    HeapPass,
    PassManager,
    RenameMainPass,
    TARGET_MAIN,
    baseline_passes,
    closurex_passes,
    persistent_passes,
)

SOURCE = r"""
int counter;
int table[8];
const char MAGIC[4] = "abc";

int helper(char *path) {
    char *f = fopen(path, "r");
    if (!f) { exit(1); }
    char *buf = (char*)malloc(64);
    long n = fread(buf, 1, 64, f);
    if (n < 2) { exit(2); }
    buf = (char*)realloc(buf, 128);
    counter += (int)n;
    fclose(f);
    free(buf);
    return (int)n;
}

int main(int argc, char **argv) {
    char *extra = (char*)calloc(2, 8);
    free(extra);
    return helper(argv[1]);
}
"""


def fresh_module():
    return compile_c(SOURCE, "passes-test")


def count_calls_to(module, name):
    if not module.has_function(name):
        return 0
    return sum(
        1
        for func in module.defined_functions()
        for inst in func.instructions()
        if isinstance(inst, Call) and inst.callee.name == name
    )


class TestRenameMainPass:
    def test_renames(self):
        module = fresh_module()
        result = RenameMainPass().run(module)
        assert result.changed
        assert module.has_function(TARGET_MAIN)
        assert not module.has_function("main")
        verify_module(module)

    def test_noop_without_main(self):
        module = fresh_module()
        RenameMainPass().run(module)
        result = RenameMainPass().run(module)
        assert not result.changed


class TestExitPass:
    def test_reroutes_exit_calls(self):
        module = fresh_module()
        assert count_calls_to(module, "exit") == 2
        result = ExitPass().run(module)
        assert result.details["exit_calls_rerouted"] == 2
        assert count_calls_to(module, "exit") == 0
        assert count_calls_to(module, EXIT_HOOK) == 2
        verify_module(module)

    def test_abort_untouched_by_default(self):
        module = compile_c(
            "int main(int a, char **v) { abort(); return 0; }", "t"
        )
        ExitPass().run(module)
        assert count_calls_to(module, "abort") == 1

    def test_abort_hooked_when_requested(self):
        module = compile_c(
            "int main(int a, char **v) { abort(); return 0; }", "t"
        )
        ExitPass(hook_abort=True).run(module)
        assert count_calls_to(module, "abort") == 0


class TestHeapPass:
    def test_reroutes_all_malloc_family(self):
        module = fresh_module()
        result = HeapPass().run(module)
        assert result.details["malloc_calls_rerouted"] == 1
        assert result.details["calloc_calls_rerouted"] == 1
        assert result.details["realloc_calls_rerouted"] == 1
        assert result.details["free_calls_rerouted"] == 2
        for original, wrapper in HEAP_WRAPPERS.items():
            assert count_calls_to(module, original) == 0
        assert count_calls_to(module, "closurex_malloc") == 1
        verify_module(module)

    def test_custom_allocator_extension(self):
        source = """
        char *xmalloc(long n) { return (char*)malloc(n); }
        int main(int a, char **v) { char *p = xmalloc(8); free(p); return 0; }
        """
        module = compile_c(source, "t")
        HeapPass(extra_allocators={}).run(module)
        # xmalloc is *defined* here, so its internal malloc is rerouted,
        # but xmalloc itself is not (it is target code, not an allocator
        # declaration).
        assert count_calls_to(module, "xmalloc") == 1

    def test_unknown_semantic_rejected(self):
        with pytest.raises(ValueError):
            HeapPass(extra_allocators={"x": "mmap"})


class TestFilePass:
    def test_reroutes_fopen_fclose(self):
        module = fresh_module()
        result = FilePass().run(module)
        assert result.details["fopen_calls_rerouted"] == 1
        assert result.details["fclose_calls_rerouted"] == 1
        assert count_calls_to(module, "closurex_fopen_hook") == 1
        verify_module(module)


class TestGlobalPass:
    def test_moves_writable_globals(self):
        module = fresh_module()
        result = GlobalPass().run(module)
        assert result.details["globals_relocated"] >= 2
        assert module.get_global("counter").section == CLOSURE_GLOBAL_SECTION
        assert module.get_global("table").section == CLOSURE_GLOBAL_SECTION

    def test_constants_stay_in_rodata(self):
        module = fresh_module()
        GlobalPass().run(module)
        assert module.get_global("MAGIC").section == ".rodata"
        # string literals are constants too
        for name, var in module.globals.items():
            if var.is_constant:
                assert var.section != CLOSURE_GLOBAL_SECTION

    def test_idempotent(self):
        module = fresh_module()
        GlobalPass().run(module)
        second = GlobalPass().run(module)
        assert not second.changed


class TestCoveragePass:
    def test_every_block_instrumented(self):
        module = fresh_module()
        CoveragePass(seed=1).run(module)
        guard = module.get_function(COV_GUARD)
        for func in module.defined_functions():
            for block in func.blocks:
                calls = [
                    inst for inst in block.instructions
                    if isinstance(inst, Call) and inst.callee is guard
                ]
                assert len(calls) == 1
        verify_module(module)

    def test_idempotent(self):
        module = fresh_module()
        first = CoveragePass(seed=1).run(module)
        second = CoveragePass(seed=1).run(module)
        assert first.changed
        assert not second.changed

    def test_deterministic_ids_for_same_seed(self):
        def guard_args(module):
            guard = module.get_function(COV_GUARD)
            return [
                inst.args[0].value
                for func in module.defined_functions()
                for inst in func.instructions()
                if isinstance(inst, Call) and inst.callee is guard
            ]

        module_a = fresh_module()
        CoveragePass(seed=99).run(module_a)
        module_b = fresh_module()
        CoveragePass(seed=99).run(module_b)
        assert guard_args(module_a) == guard_args(module_b)

    def test_baseline_and_closurex_share_ids(self):
        """RenameMain must not perturb coverage id assignment."""
        module_a = fresh_module()
        PassManager(baseline_passes(5)).run(module_a)
        module_b = fresh_module()
        PassManager(closurex_passes(5)).run(module_b)

        def ids(module):
            guard = module.get_function(COV_GUARD)
            return [
                inst.args[0].value
                for func in module.defined_functions()
                for inst in func.instructions()
                if isinstance(inst, Call) and inst.callee is guard
            ]

        assert ids(module_a) == ids(module_b)


class TestPipelines:
    def test_closurex_passes_run_in_order(self):
        module = fresh_module()
        results = PassManager(closurex_passes(1)).run(module)
        names = [r.pass_name for r in results]
        assert names == [
            "RenameMainPass", "ExitPass", "HeapPass", "FilePass",
            "GlobalPass", "CoveragePass",
        ]
        verify_module(module)

    def test_skip_drops_passes(self):
        module = fresh_module()
        results = PassManager(closurex_passes(1, skip={"HeapPass"})).run(module)
        assert "HeapPass" not in [r.pass_name for r in results]
        assert count_calls_to(module, "malloc") == 1

    def test_persistent_pipeline(self):
        module = fresh_module()
        PassManager(persistent_passes(1)).run(module)
        assert module.has_function(TARGET_MAIN)
        assert count_calls_to(module, "exit") == 2  # NOT hooked

    def test_pass_table_matches_paper(self):
        assert set(PASS_TABLE) == {
            "RenameMainPass", "HeapPass", "FilePass", "GlobalPass", "ExitPass"
        }

    def test_pass_manager_result_lookup(self):
        module = fresh_module()
        manager = PassManager(closurex_passes(1))
        manager.run(module)
        assert manager.result_for("GlobalPass").changed
        with pytest.raises(KeyError):
            manager.result_for("NoSuchPass")
