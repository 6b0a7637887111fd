"""Unit tests for the interpreter engine and libc natives."""

import gc
import sys
import weakref

import pytest

from repro.execution import ClosureXExecutor
from repro.fuzzing import Campaign, CampaignConfig
from repro.ir import FunctionType, I32, IRBuilder, Module, int_type
from repro.minic import compile_c
from repro.runtime.replay import replay
from repro.sim_os import Kernel
from repro.targets import get_target
from repro.telemetry import TelemetryConfig
from repro.vm import (
    COVERAGE_MAP_SIZE,
    ExecutionLimitExceeded,
    ProcessExit,
    TrapKind,
    VM,
    VMTrap,
    interpreter,
)
from tests.helpers import private


def make_vm(source: str, files: dict[str, bytes] | None = None) -> tuple[VM, Module]:
    module = compile_c(source, "t")
    vm = VM(module)
    vm.load()
    for path, data in (files or {}).items():
        vm.fs.write_file(path, data)
    return vm, module


def run(source: str, files=None, argv=None):
    vm, module = make_vm(source, files)
    argc, argv_addr = vm.setup_argv(argv or ["t"])
    return vm.run_function(module.get_function("main"), [argc, argv_addr]), vm


class TestEngine:
    def test_phi_nodes_execute(self):
        module = Module("m")
        func = module.add_function("f", FunctionType(I32, [I32]))
        func.ensure_args(["x"])
        entry = func.append_block("entry")
        left = func.append_block("left")
        right = func.append_block("right")
        merge = func.append_block("merge")
        b = IRBuilder(entry)
        cond = b.icmp("ne", func.args[0], b.i32(0))
        b.cond_br(cond, left, right)
        IRBuilder(left).br(merge)
        IRBuilder(right).br(merge)
        mb = IRBuilder(merge)
        phi = mb.phi(int_type(32))
        phi.add_incoming(mb.i32(100), left)
        phi.add_incoming(mb.i32(200), right)
        mb.ret(phi)
        vm = VM(module)
        vm.load()
        assert vm.run_function(func, [1]) == 100
        assert vm.run_function(func, [0]) == 200

    def test_instruction_limit_raises(self):
        vm, module = make_vm(
            "int main(int argc, char **argv) { while (1) { argc++; } return 0; }"
        )
        vm.instruction_limit = 5000
        argc, argv = vm.setup_argv(["t"])
        with pytest.raises(ExecutionLimitExceeded):
            vm.run_function(module.get_function("main"), [argc, argv])

    def test_call_depth_limit(self):
        source = """
        int rec(int n) { return rec(n + 1); }
        int main(int argc, char **argv) { return rec(0); }
        """
        with pytest.raises(VMTrap) as info:
            run(source)
        assert info.value.kind is TrapKind.STACK_OVERFLOW

    def test_cost_accumulates(self):
        _result, vm = run("int main(int argc, char **argv) { return argc; }")
        assert vm.cost > 0
        assert vm.instructions_executed > 0

    def test_stack_frames_freed_after_return(self):
        _result, vm = run(
            "int helper() { int local[32]; local[0] = 1; return local[0]; }"
            "int main(int argc, char **argv) { return helper(); }"
        )
        assert vm.stack_region_count() == 0

    def test_unresolved_external_traps(self):
        module = Module("m")
        ext = module.declare_function("mystery", FunctionType(I32, []))
        func = module.add_function("main", FunctionType(I32, []))
        builder = IRBuilder(func.append_block("entry"))
        builder.ret(builder.call(ext, []))
        vm = VM(module)
        vm.load()
        with pytest.raises(VMTrap, match="unresolved"):
            vm.run_function(func, [])

    def test_double_load_rejected(self):
        vm, _ = make_vm("int main(int argc, char **argv) { return 0; }")
        with pytest.raises(RuntimeError):
            vm.load()


class TestArgv:
    def test_argv_strings_reachable(self):
        result, _vm = run(
            "int main(int argc, char **argv) {"
            " return argc * 10 + (int)strlen(argv[2]); }",
            argv=["prog", "a", "four"],
        )
        assert result == 34


HOT_LOOP = """
int again(int x);
int helper(int x) { return x * 3 + 1; }
int main(int argc, char **argv) {
    int total = 0;
    for (int i = 0; i < 20; i++) { total = total + helper(i) + again(i); }
    if (argc > 5) {
        for (int j = 0; j < 30; j++) { total = total + j; }
    }
    return total;
}
"""


# ``late`` is first called on a run after the 9th: its loop header is
# entered 32 times then, its body 31.
LATE_CALL = """
int late(int x) {
    int s = 0;
    for (int k = 0; k < x; k++) { s = s + k; }
    return s;
}
int main(int argc, char **argv) {
    int total = 0;
    for (int i = 0; i < 20; i++) { total = total + i; }
    if (argc > 5) { total = total + late(argc * 5 + 1); }
    return total;
}
"""


def again(vm, args, site):
    """A native running ``helper`` again, one call deeper."""
    return vm.run_function(vm.module.get_function("helper"), args)


def run_main(module, argv=("t",)):
    vm = VM(module, extra_natives={"again": again})
    vm.load()
    argc, argv_address = vm.setup_argv(list(argv))
    result = vm.run_function(module.get_function("main"), [argc, argv_address])
    return result, vm.cost, vm.instructions_executed


def compiled_functions(module) -> dict:
    """Each compiled function of *module*'s plain code, by name."""
    return {code.name: code.compiled for code in module.decoded.plain.values()
            if code.compiled is not None}


def counting_compiles(monkeypatch) -> list:
    """The names of the functions compiled from here on, in order."""
    compiled = []
    compile_function = interpreter._compile

    def counting(code):
        compiled.append(code.name)
        return compile_function(code)

    monkeypatch.setattr(interpreter, "_compile", counting)
    return compiled


class TestCompiledFunctions:
    def test_nothing_compiles_before_the_ninth_run(self, monkeypatch):
        """A module's code serves 8 top-level runs on closures (the 20
        runs of ``helper`` through a native, one call deeper, do not
        count).  The 9th first compiles each function with a block
        entered at least 8 times, all of its blocks: ``main`` with the
        inner loop no run entered yet, which a later run enters 30 times
        on compiled code, compiling nothing more."""
        monkeypatch.setattr(interpreter, "COMPILE_AFTER_RUNS", 8)
        compiled = counting_compiles(monkeypatch)
        module = compile_c(HOT_LOOP, "hot")
        first = run_main(module)
        for _ in range(7):
            assert run_main(module) == first
        assert compiled == [] and compiled_functions(module) == {}
        assert run_main(module) == first
        assert sorted(compiled) == ["helper", "main"]
        assert sorted(compiled_functions(module)) == ["helper", "main"]
        # Compiled code counts no block entries.
        main = module.decoded.plain[module.get_function("main")]
        entries = list(main.entries)
        assert run_main(module, ["t"] * 6)[0] == first[0] + sum(range(30))
        assert len(compiled) == 2 and main.entries == entries

    def test_the_65th_run_compiles_what_got_hot_later(self, monkeypatch):
        """At the start of the 65th top-level run, each function still on
        closures with a block entered at least 32 times compiles, one
        first called after the 9th run too: ``late``, whose loop header
        was entered 32 times.  No run in between compiles anything."""
        monkeypatch.setattr(interpreter, "COMPILE_AFTER_RUNS", 8)
        compiled = counting_compiles(monkeypatch)
        module = compile_c(LATE_CALL, "late")
        first = run_main(module)
        for _ in range(8):
            assert run_main(module) == first
        assert compiled == ["main"]
        assert run_main(module, ["t"] * 6)[0] == first[0] + sum(range(31))
        for _ in range(54):
            assert run_main(module) == first
        assert compiled == ["main"]
        late = module.decoded.plain[module.get_function("late")]
        assert late.entries == [1, 32, 31, 31, 1] and late.compiled is None
        assert run_main(module) == first
        assert compiled == ["main", "late"] and late.compiled is not None

    def test_dropping_decoded_code_frees_compiled_functions(self, monkeypatch):
        """Nothing in compiled code refers back to the module's decoded
        code, so dropping that frees every compiled function by refcount
        alone."""
        monkeypatch.setattr(interpreter, "COMPILE_AFTER_RUNS", 0)
        module = compile_c(HOT_LOOP, "hot")
        run_main(module)
        refs = [weakref.ref(run) for run in compiled_functions(module).values()]
        assert refs
        gc.disable()
        try:
            module.decoded = None
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_modules_share_code_objects_not_callees(self, monkeypatch):
        """Two builds of one program compile each function once: their
        compiled functions share code objects and bind their own
        callees."""
        monkeypatch.setattr(interpreter, "COMPILE_AFTER_RUNS", 0)
        first, second = compile_c(HOT_LOOP, "hot"), compile_c(HOT_LOOP, "hot")
        assert run_main(first) == run_main(second)
        ones, twos = compiled_functions(first), compiled_functions(second)
        assert sorted(ones) == sorted(twos) == ["helper", "main"]
        assert all(ones[name].__code__ is twos[name].__code__ for name in ones)

        def binds(run, callee):
            return any(value is callee for value in run.__defaults__)

        own, other = first.get_function("helper"), second.get_function("helper")
        assert binds(ones["main"], own) and binds(twos["main"], other)
        assert not binds(ones["main"], other) and not binds(twos["main"], own)

    def test_counts_and_edge_traces_run_on_closures(self, monkeypatch):
        """Once a module's functions compiled, a VM with profiling counts
        and a traced replay run them on closures: the counts and the
        edge trace are those of a build that never compiles."""
        spec = get_target("giftext")
        data = spec.seeds[0]

        def observe(after_runs):
            monkeypatch.setattr(interpreter, "COMPILE_AFTER_RUNS", after_runs)
            module = private(spec.build_baseline())
            replay(module, data)
            vm = VM(module, opcode_counts={}, libc_counts={})
            vm.load()
            vm.fs.write_file("/in", data)
            argc, argv = vm.setup_argv([module.name, "/in"])
            vm.run_function(module.get_function("main"), [argc, argv])
            traced = replay(module, data, trace=True)
            compiled = sorted(name for name, code in (
                (f.name, module.decoded.plain.get(f)) for f in module.defined_functions())
                if code is not None and code.compiled is not None)
            return (vm.opcode_counts, vm.libc_counts, vm.instructions_executed,
                    traced), compiled

        on_closures, none = observe(sys.maxsize)
        compiled_run, compiled = observe(0)
        assert none == [] and "main" in compiled
        assert compiled_run == on_closures
        assert on_closures[0]["Call"] > 0 and on_closures[3].edge_trace

    def test_profiling_changes_no_campaign_result(self, monkeypatch):
        """A ClosureX campaign on giftext over 20 virtual ms (1,937 execs
        at seed 1, past both batches of compiles) ends on the same state
        digest, exec count and virtual time with VM profiling on as with
        it off.  A profiled VM never runs compiled code: it runs every
        segment an instruction at a time, so this pins the compiled
        functions against that path over a whole campaign."""
        monkeypatch.setattr(interpreter, "COMPILE_AFTER_RUNS", 8)
        compiled = counting_compiles(monkeypatch)

        def finish(telemetry):
            spec = get_target("giftext")
            executor = ClosureXExecutor(
                private(spec.build_closurex()), spec.image_bytes, Kernel())
            campaign = Campaign(executor, spec.seeds, CampaignConfig(
                budget_ns=20_000_000, seed=1, telemetry=telemetry))
            campaign.run()
            return ((campaign.state_digest(), campaign.execs,
                     campaign.clock.now_ns), executor.opcode_counts)

        plain, no_counts = finish(TelemetryConfig())
        assert compiled and no_counts == {}
        profiled, counts = finish(TelemetryConfig(enabled=True, profile_vm=True))
        assert profiled == plain
        assert counts["Call"] > 0


class TestCoverage:
    def test_cov_guard_updates_map(self):
        vm, _ = make_vm("int main(int argc, char **argv) { return 0; }")
        assert sum(vm.coverage_map) == 0
        vm.cov_guard(1234)
        vm.cov_guard(77)
        assert sum(1 for b in vm.coverage_map if b) == 2

    def test_hitcounts_saturate(self):
        vm, _ = make_vm("int main(int argc, char **argv) { return 0; }")
        for _ in range(300):
            vm.prev_loc = 0
            vm.cov_guard(5)
        index = 5 & (COVERAGE_MAP_SIZE - 1)
        assert vm.coverage_map[index] == 0xFF

    def test_reset_coverage(self):
        vm, _ = make_vm("int main(int argc, char **argv) { return 0; }")
        vm.cov_guard(1)
        vm.reset_coverage()
        assert sum(vm.coverage_map) == 0
        assert vm.prev_loc == 0

    def test_edge_trace_records_when_enabled(self):
        vm, _ = make_vm("int main(int argc, char **argv) { return 0; }")
        vm.trace_edges = True
        vm.cov_guard(9)
        assert vm.edge_trace


class TestAddressRecycling:
    def test_heap_rewind_requires_empty(self):
        vm, _ = make_vm("int main(int argc, char **argv) { return 0; }")
        address = vm.heap.malloc(16, vm.site)
        with pytest.raises(RuntimeError):
            vm.reset_heap_addresses()
        vm.heap.free(address, vm.site)
        vm.reset_heap_addresses()
        assert vm.heap.malloc(16, vm.site) == address

    def test_heap_rewind_to_mark(self):
        vm, _ = make_vm("int main(int argc, char **argv) { return 0; }")
        kept = vm.heap.malloc(8, vm.site)
        mark = vm.memory.heap_segment.cursor
        temp = vm.heap.malloc(8, vm.site)
        vm.heap.free(temp, vm.site)
        vm.reset_heap_addresses(mark)
        assert vm.heap.malloc(8, vm.site) == temp  # address reused
        assert vm.heap.chunk_size(kept) == 8       # init chunk untouched

    def test_stack_rewind_requires_no_frames(self):
        vm, _ = make_vm("int main(int argc, char **argv) { return 0; }")
        vm.memory.map_region(vm.memory.stack_segment, 8, True, "stack", "x")
        with pytest.raises(RuntimeError):
            vm.reset_stack_addresses()


class TestLibcNatives:
    def test_string_functions(self):
        result, _ = run(
            "int main(int argc, char **argv) {"
            ' char buf[16];'
            ' strcpy(buf, "abc");'
            ' return (int)strlen(buf) * 100'
            '      + (strcmp(buf, "abc") == 0 ? 10 : 0)'
            '      + (strncmp(buf, "abX", 2) == 0 ? 1 : 0); }'
        )
        assert result == 311

    def test_strchr(self):
        result, _ = run(
            "int main(int argc, char **argv) {"
            ' char s[8] = "hello";'
            " char *p = strchr(s, 'l');"
            " return p ? (int)(p - s) : -1; }"
        )
        assert result == 2

    def test_strchr_missing_returns_null(self):
        result, _ = run(
            "int main(int argc, char **argv) {"
            ' char s[8] = "hello";'
            " return strchr(s, 'z') == NULL ? 1 : 0; }"
        )
        assert result == 1

    def test_atoi(self):
        result, _ = run(
            "int main(int argc, char **argv) {"
            ' char s[8] = "  -42x";'
            " return atoi(s) + 100; }"
        )
        assert result == 58

    def test_memset_memcmp(self):
        result, _ = run(
            "int main(int argc, char **argv) {"
            " char a[8]; char b[8];"
            " memset(a, 7, 8); memset(b, 7, 8);"
            " return memcmp(a, b, 8) == 0 ? 1 : 0; }"
        )
        assert result == 1

    def test_memcpy_negative_traps(self):
        with pytest.raises(VMTrap) as info:
            run(
                "int main(int argc, char **argv) {"
                " char a[8]; char b[8]; long n = -1;"
                " memcpy(a, b, n); return 0; }"
            )
        assert info.value.kind is TrapKind.NEGATIVE_MEMCPY

    def test_abort_traps(self):
        with pytest.raises(VMTrap) as info:
            run("int main(int argc, char **argv) { abort(); return 0; }")
        assert info.value.kind is TrapKind.ABORT

    def test_exit_raises_process_exit(self):
        with pytest.raises(ProcessExit) as info:
            run("int main(int argc, char **argv) { exit(7); return 0; }")
        assert info.value.code == 7

    def test_rand_deterministic_after_srand(self):
        source = (
            "int main(int argc, char **argv) {"
            " srand(42); int a = rand();"
            " srand(42); int b = rand();"
            " return a == b ? 1 : 0; }"
        )
        assert run(source)[0] == 1

    def test_time_differs_between_processes(self):
        source = "int main(int argc, char **argv) { return (int)(time() & 0xffff); }"
        first, _ = run(source)
        second, _ = run(source)
        assert first != second

    def test_fgetc_and_feof(self):
        result, _ = run(
            "int main(int argc, char **argv) {"
            ' char *f = fopen(argv[1], "r");'
            " int total = 0; int c;"
            " while ((c = fgetc(f)) != EOF) { total += c; }"
            " int hit_eof = feof(f);"
            " fclose(f);"
            " return total + hit_eof; }",
            files={"/in": b"\x01\x02\x03"},
            argv=["t", "/in"],
        )
        assert result == 7

    def test_ftell_and_fseek(self):
        result, _ = run(
            "int main(int argc, char **argv) {"
            ' char *f = fopen(argv[1], "r");'
            " char buf[4];"
            " fread(buf, 1, 4, f);"
            " long pos = ftell(f);"
            " fseek(f, 0, SEEK_SET);"
            " rewind(f);"
            " return (int)pos * 10 + (int)ftell(f); }",
            files={"/in": b"abcdef"},
            argv=["t", "/in"],
        )
        assert result == 40

    def test_puts_records_output(self):
        _result, vm = run(
            'int main(int argc, char **argv) { puts("hello"); return 0; }'
        )
        assert vm.output == ["hello"]
