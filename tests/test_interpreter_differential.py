"""The decoded interpreter against the instruction-at-a-time reference.

Every target's ClosureX build, and the optimized md4c, giftext and zlib
builds, replay their seeds and seeded havoc mutants after pollution
inputs on both interpreters; every :class:`Observation` field must be
equal, including the instruction count, the virtual cost, the edge
trace and the end-of-run snapshot.  Forkserver execs compare the
profiling counts and an armed compare observer's records, every exec's
coverage map lists exactly its nonzero cells on both interpreters, an
instruction-limit sweep pins the clock at every hang point of a loop
whose header has a phi and a call, and a hand-built function runs
every opcode, predicate and cast over each kind of constant and
address fold.  A wrong opcode cost, fold or segment boundary moves a
result, ``cost_ns`` or ``instructions`` here.

After every replay and every forkserver and ClosureX exec the address
spaces must be equal too: bytes written (the copy-on-write charge),
the live region bases in order, the freed-region FIFO and the segment
cursors.  Hand-built edge cases pin the loads and stores decoded code
runs without a check (frame allocas, named globals), its
last-in-first-out stack frames, and the traps an exhausted stack or
heap segment raises.  The forkserver legs check that the reference
run's children really are reference VMs.
"""

import dataclasses
import random

import pytest

from repro.analysis.opt import REPLAY_BOOT_TIME
from repro.execution import ClosureXExecutor, ForkServerExecutor
from repro.fuzzing import Campaign, CampaignConfig
from repro.fuzzing.i2s import CmpObserver
from repro.fuzzing.mutators import HavocMutator
from repro.ir import (
    I32,
    VOID,
    ArrayType,
    ConstantData,
    FunctionType,
    IRBuilder,
    Module,
    StructType,
    int_type,
    pointer_type,
)
from repro.minic import compile_c
from repro.passes.coverage import COV_GUARD, CoveragePass
from repro.runtime.replay import Observation, replay
from repro.sim_os import Kernel
from repro.targets import get_target, target_names
from repro.vm import VM, TrapKind, VMError
from repro.vm.memory import RED_ZONE
from tests.reference_interpreter import ReferenceVM

MUTANTS = 20
BUILDS = [(name, False) for name in sorted(target_names())] + [
    ("md4c", True), ("giftext", True), ("zlib", True)]


def mutants(spec, count=MUTANTS, seed=11):
    havoc = HavocMutator(random.Random(seed))
    rng = random.Random(seed)
    return [havoc.mutate(rng.choice(spec.seeds)) for _ in range(count)]


def on_reference(monkeypatch):
    """Build every VM of the replay and executor paths as a ReferenceVM."""
    for module in ("repro.runtime.harness", "repro.runtime.replay",
                   "repro.execution.forkserver"):
        monkeypatch.setattr(f"{module}.VM", ReferenceVM)


def fields(observation) -> dict:
    out = dataclasses.asdict(observation)
    trap = observation.trap
    out["trap"] = None if trap is None else (trap.kind, trap.site, trap.message)
    return out


def address_space(vm) -> tuple:
    """What execution left in *vm*'s address space: bytes written, the
    live region bases in order, the freed-region FIFO's bases and tags
    in order, and the global, heap and stack segment cursors."""
    memory = vm.memory
    return (memory.bytes_written, list(memory._bases),
            [(base, region.tag) for base, region in memory._dead.items()],
            (memory.global_segment.cursor, memory.heap_segment.cursor,
             memory.stack_segment.cursor))


def run_both(module, function, args, limit=None, counts=False):
    """Call *function* on a fresh VM of each interpreter; the two runs
    must agree on the result or the error (type, trap kind and
    message), cost, instruction count, coverage and address space.
    Returns the decoded VM and its outcome."""
    runs = []
    for vm_class in (VM, ReferenceVM):
        vm = vm_class(module, opcode_counts={} if counts else None,
                      libc_counts={} if counts else None)
        vm.load()
        if limit is not None:
            vm.instruction_limit = limit
        try:
            outcome = vm.run_function(function, args)
        except VMError as exc:
            outcome = (type(exc).__name__, getattr(exc, "kind", None), str(exc))
        runs.append((vm, (outcome, vm.cost, vm.instructions_executed,
                          bytes(vm.coverage_map), vm.coverage_map.cells,
                          vm.opcode_counts, vm.libc_counts,
                          address_space(vm))))
    (vm, decoded), (_, reference) = runs
    assert decoded == reference
    return vm, decoded[0]


def sweep(module, function, args) -> tuple:
    """:func:`run_both` at every instruction limit from 1 until the call
    finishes: each limit below the call's length must hang exactly
    there with every frame unmapped.  Returns the finished outcome and
    how many limits hung."""
    limit = 0
    while True:
        limit += 1
        vm, outcome = run_both(module, function, args, limit=limit, counts=True)
        if not isinstance(outcome, tuple):
            return outcome, limit - 1
        assert outcome == ("ExecutionLimitExceeded", None,
                           f"execution exceeded {limit} instructions")
        assert vm.stack_region_count() == 0


@pytest.mark.parametrize("name,optimize", BUILDS,
                         ids=[f"{n}{'-opt' if o else ''}" for n, o in BUILDS])
def test_replays_match_reference(name, optimize, monkeypatch):
    spec = get_target(name)
    module = spec.build_closurex(optimize=optimize)
    inputs = list(spec.seeds) + mutants(spec)
    pollution = inputs[-2:]

    capture = Observation.capture

    def observe_all():
        spaces = []

        def capture_space(vm, iteration, **kwargs):
            spaces.append(address_space(vm))
            return capture(vm, iteration, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Observation, "capture", capture_space)
            observed = [fields(replay(module, data, pollution=pollution,
                                      trace=True, snapshot=True,
                                      boot_time=REPLAY_BOOT_TIME))
                        for data in inputs]
        for observation, space in zip(observed, spaces, strict=True):
            observation["address_space"] = space
        return observed

    decoded = observe_all()
    with monkeypatch.context() as patch:
        on_reference(patch)
        reference = observe_all()
    for data, got, want in zip(inputs, decoded, reference):
        assert got == want, (name, data[:24],
                             [k for k in got if got[k] != want[k]])


@pytest.mark.parametrize("name", ["zlib", "libpcap"])
def test_forkserver_counts_and_compare_records_match(name, monkeypatch):
    spec = get_target(name)
    module = spec.build_baseline()
    inputs = list(spec.seeds) + mutants(spec, count=12)

    def run_all():
        opcodes, libc, records = {}, {}, []
        executor = ForkServerExecutor(module, spec.image_bytes, Kernel())
        monkeypatch.setattr(executor, "vm_counters", lambda: {
            "opcode_counts": opcodes, "libc_counts": libc})
        observer = CmpObserver()
        executor.attach_cmp_observer(observer)
        executor.boot()
        results = []
        for data in inputs:
            observer.begin()
            result = executor.run(data)
            records.append(observer.take())
            results.append((result.status, result.return_code,
                            result.instructions, bytes(result.coverage),
                            address_space(executor.last_vm)))
        return ((results, opcodes, libc, records, executor.clock.now_ns),
                type(executor.last_vm))

    decoded, decoded_class = run_all()
    with monkeypatch.context() as patch:
        on_reference(patch)
        reference, reference_class = run_all()
    # Each child is of its parent's class: the reference leg really
    # ran the reference interpreter.
    assert (decoded_class, reference_class) == (VM, ReferenceVM)
    assert decoded[2].get(COV_GUARD, 0) > 0 and any(decoded[3])
    assert decoded == reference


@pytest.mark.parametrize("name,executor_class", [
    ("giftext", ClosureXExecutor), ("md4c", ClosureXExecutor),
    ("zlib", ForkServerExecutor)])
def test_cell_lists_are_the_touched_cells(name, executor_class, monkeypatch):
    """Each exec's map lists its nonzero cells once each, in the same
    first-hit order on both interpreters."""
    spec = get_target(name)
    module = (spec.build_closurex() if executor_class is ClosureXExecutor
              else spec.build_baseline())
    inputs = list(spec.seeds) + mutants(spec, count=12)

    def cell_lists():
        executor = executor_class(module, spec.image_bytes, Kernel())
        executor.boot()
        lists, classes = [], set()
        for data in inputs:
            # A crashed ClosureX exec respawns: keep the VM that ran it.
            vm = executor.harness.vm if executor_class is ClosureXExecutor else None
            coverage = executor.run(data).coverage
            assert sorted(coverage.cells) == [
                cell for cell, hits in enumerate(coverage) if hits]
            vm = vm or executor.last_vm
            lists.append((list(coverage.cells), address_space(vm)))
            classes.add(type(vm))
        return lists, classes

    decoded, decoded_classes = cell_lists()
    with monkeypatch.context() as patch:
        on_reference(patch)
        reference, reference_classes = cell_lists()
    assert (decoded_classes, reference_classes) == ({VM}, {ReferenceVM})
    assert any(cells for cells, _ in decoded) and decoded == reference


def phi_call_loop() -> tuple[Module, object]:
    """``f(n)``: a loop whose header has a phi, an inlined coverage guard
    and a real call, then a divide; ``g`` allocates a frame slot."""
    module = Module("sweep")
    i32 = int_type(32)
    guard = module.declare_function(COV_GUARD, FunctionType(VOID, [I32]))
    g = module.add_function("g", FunctionType(I32, [I32]))
    g.ensure_args(["x"])
    gb = IRBuilder(g.append_block("entry"))
    slot = gb.alloca(i32)
    gb.store(g.args[0], slot)
    gb.ret(gb.add(gb.load(slot), gb.i32(3)))

    f = module.add_function("f", FunctionType(I32, [I32]))
    f.ensure_args(["n"])
    entry, loop, done = (f.append_block(n) for n in ("entry", "loop", "done"))
    IRBuilder(entry).br(loop)
    b = IRBuilder(loop)
    i = b.phi(i32)
    total = b.phi(i32)
    b.call(guard, [b.i32(77)])
    called = b.call(g, [i])
    step = b.add(i, b.i32(1))
    acc = b.add(total, b.sdiv(called, b.i32(2)))
    i.add_incoming(b.i32(0), entry)
    i.add_incoming(step, loop)
    total.add_incoming(b.i32(0), entry)
    total.add_incoming(acc, loop)
    b.cond_br(b.icmp("slt", step, f.args[0]), loop, done)
    IRBuilder(done).ret(acc)
    return module, f


@pytest.mark.parametrize("vm_class", [VM, ReferenceVM])
def test_phi_call_loop_runs(vm_class):
    module, f = phi_call_loop()
    vm = vm_class(module)
    vm.load()
    assert vm.run_function(f, [4]) == sum((k + 3) // 2 for k in range(4))


def test_instruction_limit_sweep_matches_reference():
    module, f = phi_call_loop()
    finished, hangs = sweep(module, f, [6])
    assert 60 < hangs < 100
    for limit in range(hangs + 1, 110):
        assert run_both(module, f, [6], limit=limit, counts=True)[1] == finished


def every_opcode() -> tuple[Module, object]:
    """``f(x)``: every opcode, predicate and cast, mixed into one i64,
    over each kind of fold: global addresses, constant and negative
    GEP indices, struct fields."""
    i8, i32, i64 = int_type(8), int_type(32), int_type(64)
    module = Module("opcodes")
    table_type = ArrayType(i32, 8)
    table = module.add_global("table", table_type,
                              ConstantData(table_type, bytes(range(1, 33))))
    pair = StructType("pair", [("a", i8), ("b", i64)])
    cell = module.add_global("cell", pair)
    f = module.add_function("f", FunctionType(i64, [i32]))
    f.ensure_args(["x"])
    entry, *arms, merge = (f.append_block(n)
                           for n in ("entry", "zero", "one", "other", "merge"))
    b = IRBuilder(entry)
    x = f.args[0]
    acc = b.sext(x, i64)

    def mix(value):
        nonlocal acc
        wide = value if value.type == i64 else b.zext(value, i64)
        acc = b.add(b.mul(acc, b.i64(1_000_003)), wide)

    middle = b.gep(table, [b.i64(0), b.i64(5)])
    mix(b.load(b.gep(middle, [b.i32(-3)])))
    mix(b.load(b.gep(table, [b.i64(0), b.and_(b.sext(x, i64), b.i64(7))])))
    field = b.gep(cell, [b.i64(0), b.i32(1)])
    b.store(b.sext(x, i64), field)
    mix(b.load(field))
    byte = b.gep(cell, [b.i64(0), b.i32(0)])
    b.store(b.trunc(x, i8), byte)
    mix(b.sext(b.load(byte), i32))
    y = b.add(x, b.i32(11))
    shift, divisor = b.and_(y, b.i32(63)), b.or_(y, b.i32(1))
    for op in ("add", "sub", "mul", "and", "or", "xor"):
        mix(b.binop(op, x, y))
    for op in ("shl", "lshr", "ashr"):
        mix(b.binop(op, x, shift))
    for op in ("sdiv", "udiv", "srem", "urem"):
        mix(b.binop(op, x, divisor))
    for predicate in ("eq", "ne", "slt", "sle", "sgt", "sge",
                      "ult", "ule", "ugt", "uge"):
        mix(b.icmp(predicate, x, y))
        mix(b.icmp(predicate, b.trunc(x, int_type(1)), b.i1(1)))
    mix(b.zext(b.trunc(x, i8), i32))
    address = b.ptrtoint(middle, i64)
    mix(address)
    mix(b.load(b.bitcast(b.inttoptr(address, pointer_type(i32)),
                         pointer_type(i8))))
    mix(b.select(b.icmp("slt", x, b.i32(0)), x, y))
    switch = b.switch(b.and_(x, b.i32(3)), arms[2])
    switch.add_case(0, arms[0])
    switch.add_case(1, arms[1])
    for arm in arms:
        IRBuilder(arm).br(merge)
    m = IRBuilder(merge)
    phi = m.phi(i64)
    for k, arm in enumerate(arms):
        phi.add_incoming(m.i64(100 + k), arm)
    m.ret(m.xor(acc, phi))
    return module, f


@pytest.mark.parametrize("x", [0, 1, 5, 0xFFFFFFF9, 0xFFFFFFFF, 0x7FFFFFFF,
                               0x80000000])
def test_every_opcode_and_fold_matches_reference(x):
    module, f = every_opcode()
    runs = []
    for vm_class in (VM, ReferenceVM):
        vm = vm_class(module)
        vm.load()
        runs.append((vm.run_function(f, [x]), vm.cost, vm.instructions_executed))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# loads and stores without a check, and last-in-first-out frames
# ---------------------------------------------------------------------------


def test_store_to_constant_global_traps_read_only():
    module = Module("ro")
    i32 = int_type(32)
    limit = module.add_global("limit", i32, is_constant=True)
    counter = module.add_global("counter", i32)
    f = module.add_function("f", FunctionType(I32, []))
    b = IRBuilder(f.append_block("entry"))
    b.store(b.i32(5), counter)
    b.store(b.add(b.load(limit), b.load(counter)), limit)
    b.ret(b.i32(0))
    vm, outcome = run_both(module, f, [])
    assert outcome[:2] == ("VMTrap", TrapKind.INVALID_WRITE)
    assert "read-only global region 'limit'" in outcome[2]
    assert vm.memory.bytes_written == 4
    assert vm.global_regions["counter"].data == (5).to_bytes(4, "little")


def test_zero_size_access_to_a_zero_size_alloca_traps():
    module = Module("empty_array")
    empty = ArrayType(int_type(32), 0)
    f = module.add_function("f", FunctionType(I32, []))
    b = IRBuilder(f.append_block("entry"))
    b.load(b.alloca(empty, name="none"))
    b.ret(b.i32(0))
    _, outcome = run_both(module, f, [])
    assert outcome[:2] == ("VMTrap", TrapKind.INVALID_READ)


def test_pointer_into_returned_frame_is_use_after_free():
    module = Module("uar")
    i32, i64 = int_type(32), int_type(64)
    g = module.add_function("g", FunctionType(pointer_type(i32), []))
    gb = IRBuilder(g.append_block("entry"))
    first = gb.alloca(i64, name="first")
    slot = gb.alloca(i32, name="kept")
    gb.store(gb.i32(7), slot)
    gb.ret(slot)
    f = module.add_function("f", FunctionType(I32, []))
    b = IRBuilder(f.append_block("entry"))
    own = b.alloca(i32, name="own")
    b.store(b.i32(1), own)
    b.ret(b.add(b.load(b.call(g, [])), b.load(own)))
    vm, outcome = run_both(module, f, [])
    assert outcome[:2] == ("VMTrap", TrapKind.USE_AFTER_FREE)
    assert f"freed stack region 'g.{slot.name}'" in outcome[2]
    assert [region.tag for region in vm.memory._dead.values()] == [
        f"g.{first.name}", f"g.{slot.name}", f"f.{own.name}"]
    assert vm.stack_region_count() == 0


def test_alloca_in_a_loop_reaches_its_newest_region():
    """Each iteration's alloca maps a new region; the loads and stores
    after it reach that one, and return unmaps them all, oldest first."""
    module = Module("loop")
    i32 = int_type(32)
    f = module.add_function("f", FunctionType(I32, [I32]))
    f.ensure_args(["n"])
    entry, loop, done = (f.append_block(n) for n in ("entry", "loop", "done"))
    IRBuilder(entry).br(loop)
    b = IRBuilder(loop)
    i, total = b.phi(i32), b.phi(i32)
    slot = b.alloca(i32, name="cell")
    b.store(b.mul(i, b.i32(10)), slot)
    acc = b.add(total, b.load(slot))
    step = b.add(i, b.i32(1))
    i.add_incoming(b.i32(0), entry)
    i.add_incoming(step, loop)
    total.add_incoming(b.i32(0), entry)
    total.add_incoming(acc, loop)
    b.cond_br(b.icmp("slt", step, f.args[0]), loop, done)
    IRBuilder(done).ret(acc)
    vm, outcome = run_both(module, f, [5])
    assert outcome == 100
    dead = list(vm.memory._dead.values())
    assert [region.tag for region in dead] == [f"f.{slot.name}"] * 5
    assert [region.base for region in dead] == sorted(r.base for r in dead)
    assert [int.from_bytes(region.data, "little") for region in dead] == [
        0, 10, 20, 30, 40]
    assert vm.stack_region_count() == 0
    assert vm.memory.bytes_written == 20


def test_frame_that_mapped_nothing_unmaps_nothing():
    """A callee whose only alloca is in a block it never reaches leaves
    its caller's frame and the globals mapped."""
    module = Module("empty")
    i32 = int_type(32)
    counter = module.add_global("counter", i32)
    inner = module.add_function("inner", FunctionType(I32, [I32]))
    inner.ensure_args(["x"])
    entry, never, out = (inner.append_block(n) for n in ("entry", "never", "out"))
    eb, nb, ob = IRBuilder(entry), IRBuilder(never), IRBuilder(out)
    eb.cond_br(eb.icmp("ne", inner.args[0], eb.i32(0)), never, out)
    nb.store(inner.args[0], nb.alloca(i32, name="unused"))
    nb.br(out)
    ob.ret(ob.i32(2))
    f = module.add_function("f", FunctionType(I32, []))
    b = IRBuilder(f.append_block("entry"))
    own = b.alloca(i32, name="own")
    b.store(b.i32(40), own)
    b.store(b.i32(1), counter)
    called = b.call(inner, [b.i32(0)])
    # Through GEPs, so both loads take the checked path.
    mine = b.load(b.gep(own, [b.i64(0)]))
    shared = b.load(b.gep(counter, [b.i64(0)]))
    b.ret(b.add(called, b.add(mine, shared)))
    vm, outcome = run_both(module, f, [])
    assert outcome == 43
    assert vm.memory._bases == [vm.global_regions["counter"].base]
    assert [region.tag for region in vm.memory._dead.values()] == [f"f.{own.name}"]


SWEEP_SOURCE = r"""
int total;
int table[4];

int scaled(int x) {
    int y = x * 3;
    return y + 1;
}

int f(int n) {
    int acc = 0;
    int buf[4];
    for (int i = 0; i < n; i++) {
        buf[i & 3] = scaled(i);
        acc = acc + buf[i & 3];
        total = total + acc;
        table[i & 3] = total;
    }
    return acc + total;
}
"""


def test_instruction_limit_sweep_over_minic_frames():
    """An unoptimized MiniC build (allocas, direct and checked loads and
    stores, coverage guards, calls) hangs at every limit below its
    length with the same cost, count, coverage and address space on
    both interpreters."""
    module = compile_c(SWEEP_SOURCE, "sweep")
    CoveragePass(seed=1).run(module)
    f = module.get_function("f")
    finished, hangs = sweep(module, f, [6])
    assert finished == sum(3 * i + 1 for i in range(6)) + sum(
        sum(3 * j + 1 for j in range(i + 1)) for i in range(6))
    assert hangs > 200


# ---------------------------------------------------------------------------
# exhausted segments
# ---------------------------------------------------------------------------


# Exhausting a full-size segment maps 128 MiB of stack or 1 GiB of heap
# regions, each with its bytes; the tests shrink the segment instead.
SMALL_SEGMENT = 8 << 20
MEBIBYTE = 1 << 20
FITS = SMALL_SEGMENT // (MEBIBYTE + RED_ZONE)    # 1 MiB regions: 7


def test_exhausted_stack_traps_stack_overflow(monkeypatch):
    """A loop whose alloca takes 1 MiB per iteration runs the stack
    segment out: the alloca that does not fit traps STACK_OVERFLOW,
    counted and charged like any other, and the frame unmaps."""
    monkeypatch.setattr("repro.vm.memory.STACK_SIZE", SMALL_SEGMENT)
    module = Module("deep")
    i32 = int_type(32)
    guard = module.declare_function(COV_GUARD, FunctionType(VOID, [I32]))
    f = module.add_function("f", FunctionType(I32, [I32]))
    f.ensure_args(["n"])
    entry, loop, done = (f.append_block(n) for n in ("entry", "loop", "done"))
    IRBuilder(entry).br(loop)
    b = IRBuilder(loop)
    i = b.phi(i32)
    b.call(guard, [b.i32(9)])
    b.alloca(ArrayType(int_type(8), MEBIBYTE), name="buf")
    step = b.add(i, b.i32(1))
    i.add_incoming(b.i32(0), entry)
    i.add_incoming(step, loop)
    b.cond_br(b.icmp("slt", step, f.args[0]), loop, done)
    IRBuilder(done).ret(step)
    vm, outcome = run_both(module, f, [1000], counts=True)
    assert outcome == (
        "VMTrap", TrapKind.STACK_OVERFLOW,
        "Stack Overflow at @f:%loop: stack exhausted by alloca of 1048576 bytes")
    # The entry's branch, FITS whole iterations, then the phi, the
    # guard and the alloca that traps.
    assert vm.instructions_executed == 1 + 6 * FITS + 3
    assert vm.opcode_counts["Alloca"] == FITS + 1
    assert vm.stack_region_count() == 0
    assert len(vm.memory._dead) == FITS


HEAP_CHURN_SOURCE = r"""
int main(int argc, char **argv) {
    int i = 0;
    while (i < 1100) { char *p = malloc(1048576); free(p); i = i + 1; }
    return i;
}
"""


def test_exhausted_heap_address_space_traps_out_of_memory(monkeypatch):
    """Freed heap addresses are not reused, so a program that never
    holds more than 1 MiB still runs the heap segment out: the malloc
    that does not fit traps OUT_OF_MEMORY, as one over budget does."""
    monkeypatch.setattr("repro.vm.memory.HEAP_SIZE", SMALL_SEGMENT)
    module = compile_c(HEAP_CHURN_SOURCE, "churn")
    vm, outcome = run_both(module, module.get_function("main"), [0, 0])
    assert outcome == (
        "VMTrap", TrapKind.OUT_OF_MEMORY,
        "Out of Memory at @main:%while.body: heap address space exhausted: "
        "1048576 bytes requested, 0 live")
    assert vm.heap.stats.allocations == vm.heap.stats.frees == FITS
    assert vm.heap.live_bytes == 0


def test_forkserver_campaign_records_heap_exhaustion_as_a_crash(monkeypatch):
    """A forkserver campaign over the same program records an
    out-of-memory crash on every exec, on both interpreters."""
    monkeypatch.setattr("repro.vm.memory.HEAP_SIZE", SMALL_SEGMENT)
    module = compile_c(HEAP_CHURN_SOURCE, "churn")

    def crashes():
        executor = ForkServerExecutor(module, 100_000, Kernel())
        result = Campaign(executor, [b"x"], CampaignConfig(
            budget_ns=500_000, seed=1)).run()
        return (result.execs, result.total_crashes,
                [(report.kind, report.function)
                 for report in result.crash_reports])

    decoded = crashes()
    with monkeypatch.context() as patch:
        on_reference(patch)
        reference = crashes()
    assert decoded == reference
    execs, total, reports = decoded
    assert execs == total > 0
    assert reports == [(TrapKind.OUT_OF_MEMORY, "main")]
