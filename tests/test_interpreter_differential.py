"""The decoded interpreter against the instruction-at-a-time reference.

Every target's ClosureX build, and the optimized md4c, giftext and zlib
builds, replay their seeds and seeded havoc mutants after pollution
inputs on both interpreters; every :class:`Observation` field must be
equal, including the instruction count, the virtual cost, the edge
trace and the end-of-run snapshot, and the decoded interpreter's
untraced replays (compiled code, where the VM keeps no counts) must
equal the same but for the trace and snapshot.  Forkserver execs compare the
profiling counts and an armed compare observer's records, every exec's
coverage map lists exactly its nonzero cells on both interpreters, an
instruction-limit sweep pins the clock at every hang point of a loop
whose header has a phi and a call, windows of limits pin hangs right
after a call returns, at a block with phis and at a checked load (with
``prev_loc`` compared too), a trap inside a callee and undefined
operands compare as the rest do, and a hand-built function runs
every opcode, predicate and cast over each kind of constant and
address fold.  A wrong opcode cost, fold or segment boundary moves a
result, ``cost_ns`` or ``instructions`` here.

After every replay and every forkserver and ClosureX exec the address
spaces must be equal too (``AddressSpace.view``): bytes written (the
copy-on-write charge), the live regions in address order, one per
alloca, the freed-region FIFO and the segment cursors.  Hand-built edge cases pin the loads and stores decoded code
runs without a check (frame allocas, named globals), its
last-in-first-out stack frames, freed regions releasing their bytes,
and the traps an exhausted stack or heap segment raises.  The
forkserver legs check that the reference run's children really are
reference VMs.

Every VM keeps opcode counts here, so every call runs an instruction at
a time and nothing compiles; ``tests/test_interpreter_compiled.py``
runs every test again with VMs as the tests make them, so that a call
by a VM that keeps no counts and traces no edges runs compiled code.
A target's build is shared by the whole process, and so is its decoded
code, so each test runs a private copy of it, whose code no earlier
test compiled; the ``tier`` fixture checks after each test that the
code it ran is of its tier.
"""

import dataclasses
import random
import tracemalloc

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
from repro.vm.memory import RED_ZONE, AddressSpace, stack_run
from tests.helpers import code_run, count_opcodes, private
from tests.reference_interpreter import ReferenceVM

MUTANTS = 20
BUILDS = [(name, False) for name in sorted(target_names())] + [
    ("md4c", True), ("giftext", True), ("zlib", True)]


@pytest.fixture(autouse=True)
def tier(monkeypatch):
    """Every VM keeps opcode counts, and no function the test ran is
    compiled."""
    count_opcodes(monkeypatch)
    codes = code_run(monkeypatch)
    yield
    assert [code.name for code in codes if code.compiled is not None] == []


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


def address_space(vm):
    """What execution left in *vm*'s address space: each live region's
    base, size, kind and tag in address order, the freed-region FIFO's
    in order, the global, heap and stack segment cursors, and bytes
    written."""
    return vm.memory.view()


def dead_tags(vm) -> list:
    """The tags of *vm*'s freed-region FIFO, oldest first."""
    return [tag for _, _, _, tag in vm.memory.view().dead]


def dead_regions(vm) -> list:
    """*vm*'s freed regions, oldest first (none of them empty)."""
    memory = vm.memory
    return [memory.find_dead_region(base) for base, _, _, _ in memory.view().dead]


def run_both(module, function, args, limit=None, counts=False, natives=None):
    """Call *function* on a fresh VM of each interpreter; the two runs
    must agree on the result or the error (type, trap kind and
    message, which names the site), cost, instruction count, coverage
    and ``prev_loc``, address space and every global's bytes.  Returns
    the decoded VM and its outcome."""
    runs = []
    for vm_class in (VM, ReferenceVM):
        vm = vm_class(module, opcode_counts={} if counts else None,
                      libc_counts={} if counts else None, extra_natives=natives)
        vm.load()
        if limit is not None:
            vm.instruction_limit = limit
        try:
            outcome = vm.run_function(function, args)
        except VMError as exc:
            outcome = (type(exc).__name__, getattr(exc, "kind", None), str(exc))
        runs.append((vm, (outcome, vm.cost, vm.instructions_executed,
                          bytes(vm.coverage_map), vm.coverage_map.cells,
                          vm.prev_loc, vm.opcode_counts, vm.libc_counts,
                          address_space(vm),
                          {name: bytes(region.data)
                           for name, region in vm.global_regions.items()})))
    (vm, decoded), (_, reference) = runs
    assert decoded == reference
    return vm, decoded[0]


def sweep(module, function, args) -> tuple:
    """:func:`run_both` at every instruction limit from 1 until the call
    finishes, with and without profiling counts: each limit below the
    call's length must hang exactly there with every frame unmapped.
    Returns the finished outcome and how many limits hung."""
    limit = 0
    while True:
        limit += 1
        run_both(module, function, args, limit=limit)
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
    module = private(spec.build_closurex(optimize=optimize))
    inputs = list(spec.seeds) + mutants(spec)
    pollution = inputs[-2:]

    capture = Observation.capture

    def observe_all(trace=True):
        spaces = []

        def capture_space(vm, iteration, **kwargs):
            spaces.append(address_space(vm))
            return capture(vm, iteration, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Observation, "capture", capture_space)
            observed = [fields(replay(module, data, pollution=pollution,
                                      trace=trace, snapshot=trace,
                                      boot_time=REPLAY_BOOT_TIME))
                        for data in inputs]
        for observation, space in zip(observed, spaces, strict=True):
            observation["address_space"] = space
        return observed

    decoded = observe_all()
    # Untraced, a decoded replay whose VM keeps no counts runs compiled
    # code.
    untraced = observe_all(trace=False)
    with monkeypatch.context() as patch:
        on_reference(patch)
        reference = observe_all()
    for data, got, plain, want in zip(inputs, decoded, untraced, reference):
        assert got == want, (name, data[:24],
                             [k for k in got if got[k] != want[k]])
        want = dict(want, edge_trace=(), snapshot=None)
        assert plain == want, (name, data[:24],
                               [k for k in plain if plain[k] != want[k]])


@pytest.mark.parametrize("name", ["zlib", "libpcap"])
def test_forkserver_counts_and_compare_records_match(name, monkeypatch):
    spec = get_target(name)
    module = private(spec.build_baseline())
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
    module = private(spec.build_closurex() if executor_class is ClosureXExecutor
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
        assert run_both(module, f, [6], limit=limit)[1] == finished
        assert run_both(module, f, [6], limit=limit, counts=True)[1] == finished


# ---------------------------------------------------------------------------
# limits, traps and undefined operands where a function runs compiled
# ---------------------------------------------------------------------------


def marking():
    """A ``mark`` native recording the instruction count at each call,
    and the list it records into."""
    marks: list[int] = []

    def mark(vm, args, site):
        marks.append(vm.instructions_executed)

    return {"mark": mark}, marks


def guarded_loop() -> tuple[Module, object]:
    """``f(n)``: a loop over ``i < n`` whose header has two phis and a
    guard.  Its body calls ``g(i)`` (a guard, a frame slot, then the
    native ``mark`` before it returns), adds on the result, loads
    ``table[i & 3]`` through a GEP (a checked load) and calls ``mark``
    again; the latch has a guard of its own.  Every block has a guard,
    so ``prev_loc`` moves all along."""
    module = Module("guarded")
    i32 = int_type(32)
    guard = module.declare_function(COV_GUARD, FunctionType(VOID, [I32]))
    mark = module.declare_function("mark", FunctionType(VOID, []))
    table = module.add_global("table", ArrayType(i32, 4),
                              ConstantData(ArrayType(i32, 4), bytes(range(16))))
    g = module.add_function("g", FunctionType(I32, [I32]))
    g.ensure_args(["x"])
    gb = IRBuilder(g.append_block("entry"))
    gb.call(guard, [gb.i32(66)])
    own = gb.alloca(i32, name="own")
    gb.store(gb.mul(g.args[0], gb.i32(3)), own)
    gb.call(mark, [])
    gb.ret(gb.load(own))

    f = module.add_function("f", FunctionType(I32, [I32]))
    f.ensure_args(["n"])
    entry, header, body, latch, done = (
        f.append_block(name) for name in ("entry", "header", "body", "latch", "done"))
    eb = IRBuilder(entry)
    eb.call(guard, [eb.i32(11)])
    eb.br(header)
    hb = IRBuilder(header)
    i, total = hb.phi(i32), hb.phi(i32)
    hb.call(guard, [hb.i32(22)])
    hb.cond_br(hb.icmp("slt", i, f.args[0]), body, done)
    bb = IRBuilder(body)
    bb.call(guard, [bb.i32(33)])
    called = bb.call(g, [i])
    acc = bb.add(total, called)
    cell = bb.gep(table, [bb.i64(0), bb.zext(bb.and_(i, bb.i32(3)), int_type(64))])
    acc = bb.add(acc, bb.load(cell))
    step = bb.add(i, bb.i32(1))
    bb.call(mark, [])
    bb.br(latch)
    lb = IRBuilder(latch)
    lb.call(guard, [lb.i32(44)])
    lb.br(header)
    i.add_incoming(lb.i32(0), entry)
    i.add_incoming(step, latch)
    total.add_incoming(lb.i32(0), entry)
    total.add_incoming(acc, latch)
    db = IRBuilder(done)
    db.call(guard, [db.i32(55)])
    db.ret(total)
    return module, f


def test_guarded_loop_runs():
    module, f = guarded_loop()
    natives, marks = marking()
    _, outcome = run_both(module, f, [5], natives=natives)
    table = [int.from_bytes(bytes(range(4 * j, 4 * j + 4)), "little")
             for j in range(4)]
    assert outcome == sum(3 * k + table[k & 3] for k in range(5)) & 0xFFFFFFFF
    assert len(marks) == 2 * 2 * 5      # g's and the body's, both VMs


def hang_window(module, f, args, at: int, natives) -> None:
    """:func:`run_both` at each limit from *at* to *at* + 4, with and
    without profiling counts: each must hang."""
    for limit in range(at, at + 5):
        for counts in (False, True):
            _, outcome = run_both(module, f, args, limit=limit, counts=counts,
                                  natives=natives)
            assert outcome[0] == "ExecutionLimitExceeded", limit


def test_limit_right_after_a_call_returns_in_a_loop():
    """The third call of ``g`` returns one instruction after it marks:
    limits from there on hang inside the loop's body, first on the add
    the call's group does not hold, then on the ones that read the
    call's result and the header's phis."""
    module, f = guarded_loop()
    natives, marks = marking()
    run_both(module, f, [5], natives=natives)
    in_g = marks[:len(marks) // 2][4]           # g's third mark
    hang_window(module, f, [5], in_g + 1, natives)


def test_limit_at_a_group_of_a_block_with_phis():
    """The body's second mark is followed by its branch and the latch
    (a guard and a branch): limits from there on hang at the latch, at
    the header's phis (charged before its first group), and on the
    header's guard and compare."""
    module, f = guarded_loop()
    natives, marks = marking()
    run_both(module, f, [5], natives=natives)
    in_body = marks[:len(marks) // 2][3]        # the body's second mark
    hang_window(module, f, [5], in_body + 1, natives)


def test_limit_at_a_checked_load():
    """Limits around the body's checked load of ``table[i & 3]``: the
    group after ``g`` returns hangs before, at and after it."""
    module, f = guarded_loop()
    natives, marks = marking()
    run_both(module, f, [5], natives=natives)
    in_g = marks[:len(marks) // 2][2]           # g's second mark
    # g's return, the two adds, the and, the zext and the GEP.
    hang_window(module, f, [5], in_g + 5, natives)


def test_trap_inside_a_called_function():
    """``g`` divides by its argument minus 2: the third iteration traps
    inside it, with both frames' allocas unmapped, at g's site."""
    module = Module("callee_trap")
    i32 = int_type(32)
    guard = module.declare_function(COV_GUARD, FunctionType(VOID, [I32]))
    g = module.add_function("g", FunctionType(I32, [I32]))
    g.ensure_args(["x"])
    gb = IRBuilder(g.append_block("entry"))
    gb.call(guard, [gb.i32(7)])
    own = gb.alloca(i32, name="own")
    gb.store(g.args[0], own)
    gb.ret(gb.sdiv(gb.i32(100), gb.sub(gb.load(own), gb.i32(2))))
    f = module.add_function("f", FunctionType(I32, [I32]))
    f.ensure_args(["n"])
    entry, loop, done = (f.append_block(n) for n in ("entry", "loop", "done"))
    eb = IRBuilder(entry)
    kept = eb.alloca(i32, name="kept")
    eb.store(eb.i32(0), kept)
    eb.br(loop)
    b = IRBuilder(loop)
    i = b.phi(i32)
    b.call(guard, [b.i32(9)])
    b.store(b.add(b.load(kept), b.call(g, [i])), kept)
    step = b.add(i, b.i32(1))
    i.add_incoming(b.i32(0), entry)
    i.add_incoming(step, loop)
    b.cond_br(b.icmp("slt", step, f.args[0]), loop, done)
    IRBuilder(done).ret(IRBuilder(done).load(kept))
    vm, outcome = run_both(module, f, [6])
    assert outcome == ("VMTrap", TrapKind.DIV_BY_ZERO,
                       "Division by Zero at @g:%entry: sdiv by zero")
    assert vm.stack_region_count() == 0
    assert dead_tags(vm)[-2:] == [f"g.{own.name}", f"f.{kept.name}"]


def test_undefined_operands_in_a_guarded_function():
    """A value defined on one path only, picked by a select at the
    join, and an argument a call does not pass trap as use of an
    undefined value after the guards before them moved ``prev_loc``."""
    module = Module("undefined")
    i32 = int_type(32)
    guard = module.declare_function(COV_GUARD, FunctionType(VOID, [I32]))
    # Variadic, so that a call may pass fewer arguments than it names.
    h = module.add_function("h", FunctionType(I32, [I32, I32], vararg=True))
    h.ensure_args(["a", "b"])
    hb = IRBuilder(h.append_block("entry"))
    hb.call(guard, [hb.i32(3)])
    hb.ret(hb.add(h.args[0], h.args[1]))
    short = module.add_function("short", FunctionType(I32, [I32]))
    short.ensure_args(["x"])
    sb = IRBuilder(short.append_block("entry"))
    sb.call(guard, [sb.i32(4)])
    sb.ret(sb.call(h, [short.args[0]]))       # passes one of two arguments
    f = module.add_function("f", FunctionType(I32, [I32]))
    f.ensure_args(["x"])
    entry, left, merge = (f.append_block(n) for n in ("entry", "left", "merge"))
    eb = IRBuilder(entry)
    eb.call(guard, [eb.i32(5)])
    eb.cond_br(eb.icmp("eq", f.args[0], eb.i32(0)), left, merge)
    lb = IRBuilder(left)
    lb.call(guard, [lb.i32(6)])
    defined = lb.add(f.args[0], lb.i32(1))
    lb.br(merge)
    mb = IRBuilder(merge)
    mb.call(guard, [mb.i32(8)])
    # Reads only the arm it picks: the undefined one unless x is 1.
    picked = mb.select(mb.icmp("ne", f.args[0], mb.i32(1)), defined, f.args[0])
    mb.ret(mb.add(picked, mb.i32(1)))
    assert run_both(module, f, [0])[1] == 2
    assert run_both(module, f, [1])[1] == 2
    _, outcome = run_both(module, f, [2])
    assert outcome[:2] == ("VMTrap", TrapKind.ABORT)
    assert "at @f:%merge: use of undefined value" in outcome[2]
    _, outcome = run_both(module, short, [1])
    assert outcome[:2] == ("VMTrap", TrapKind.ABORT)
    assert "at @h:%entry: use of undefined value" in outcome[2]


DEPTH_CHAIN = 60    # branches nested deeper than a compiled function nests


def test_deeply_nested_branches_match_reference():
    """An if-else chain nested 60 deep, called for each of its arms:
    a compiled function writes the arms past its nesting depth as
    dispatch targets, with the same results, clock and coverage."""
    chain = "".join(f" if (x == {k}) {{ return {k * 7}; }} else {{"
                    for k in range(DEPTH_CHAIN))
    module = compile_c(
        f"int f(int x) {{{chain} return -1; {'}' * DEPTH_CHAIN} }}\n"
        "int main(int argc, char **argv) { int s = 0;"
        f" for (int i = 0; i < {DEPTH_CHAIN + 2}; i++) {{ s = s + f(i); }}"
        " return s; }", "chain")
    CoveragePass(seed=1).run(module)
    main = module.get_function("main")
    assert run_both(module, main, [0, 0])[1] == (
        7 * sum(range(DEPTH_CHAIN)) - 2) & 0xFFFFFFFF
    for limit in (100, 1000, 3000):
        run_both(module, main, [0, 0], limit=limit)


def every_opcode() -> tuple[Module, object]:
    """``f(x)``: every opcode, predicate and cast, mixed into one i64,
    over each kind of fold: global addresses, constant and negative
    GEP indices, struct fields, and a GEP with two variable indices."""
    i8, i32, i64 = int_type(8), int_type(32), int_type(64)
    module = Module("opcodes")
    table_type = ArrayType(i32, 8)
    table = module.add_global("table", table_type,
                              ConstantData(table_type, bytes(range(1, 33))))
    grid_type = ArrayType(ArrayType(i8, 2), 4)
    grid = module.add_global("grid", grid_type,
                             ConstantData(grid_type, bytes(range(50, 58))))
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
    wide = b.sext(x, i64)
    mix(b.load(b.gep(grid, [b.i64(0), b.and_(wide, b.i64(3)),
                            b.and_(b.lshr(wide, b.i64(2)), b.i64(1))])))
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
    assert dead_tags(vm) == [f"g.{first.name}", f"g.{slot.name}", f"f.{own.name}"]
    assert vm.stack_region_count() == 0


def test_alloca_in_a_loop_reaches_its_newest_region(monkeypatch):
    """Each iteration's alloca maps a new region; the loads and stores
    after it reach that one, and return unmaps them all, oldest first,
    releasing their bytes.  Each region's value is read as it unmaps."""
    values = []
    unmap, unmap_frame = AddressSpace.unmap, AddressSpace.unmap_frame

    def reading_unmap(self, region):
        values.append(int.from_bytes(region.data, "little"))
        unmap(self, region)

    def reading_unmap_frame(self, regions):
        values.extend(int.from_bytes(region.data, "little") for region in regions)
        unmap_frame(self, regions)

    monkeypatch.setattr(AddressSpace, "unmap", reading_unmap)
    monkeypatch.setattr(AddressSpace, "unmap_frame", reading_unmap_frame)
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
    dead = dead_regions(vm)
    assert [region.tag for region in dead] == [f"f.{slot.name}"] * 5
    assert [region.base for region in dead] == sorted(r.base for r in dead)
    # The decoded run's values, then the reference run's.
    assert values == [0, 10, 20, 30, 40] * 2
    assert all(region.data is None for region in dead)
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
    assert [base for base, _, _, _ in vm.memory.view().live] == [
        vm.global_regions["counter"].base]
    assert dead_tags(vm) == [f"f.{own.name}"]


def test_alloca_run_maps_as_one_alloca_at_a_time():
    """A run of allocas of 1, 3, 17 and 0 bytes, entered with the stack
    cursor off alignment, maps each region where mapping them one at a
    time does: alignment padding between them, the same bases, red
    zones, freed-region FIFO and cursor on both interpreters, and from
    ``map_stack_run``, and from ``map_stack_alloca`` of each in turn
    (one run grown in place), as from ``map_region`` of each on the
    stack segment (the reference's path), mapped and after its frame
    unmaps."""
    sizes = (1, 3, 17, 0)
    tags = tuple(f"r{k}" for k in range(len(sizes)))
    layout = stack_run(sizes, tags)
    offsets, span = layout.offsets, layout.span
    assert offsets == (0, 32, 64, 112) and span == 112 + 1 + RED_ZONE
    one, run, grown = AddressSpace(), AddressSpace(), AddressSpace()
    one.map_region(one.stack_segment, 5, True, "stack", "pad")
    for space in (run, grown):
        space.map_stack_run(stack_run((5,), ("pad",)))
    regions = [one.map_region(one.stack_segment, size, True, "stack", tag)
               for size, tag in zip(sizes, tags)]
    frame = [run.map_stack_run(layout)]
    grown_frame = []
    for k in range(1, len(sizes) + 1):
        grown.map_stack_alloca(stack_run(sizes[:k], tags[:k]), grown_frame)
    (whole,) = grown_frame
    assert whole.layout == layout and len(whole.data) == span
    spaces = (one, run, grown)
    assert run.view() == one.view() == grown.view()
    assert [space.region_count("stack") for space in spaces] == [5] * 3
    assert [space.footprint_bytes() for space in spaces] == [5 + 21] * 3
    assert [(r.base, r.size, r.tag) for r in run.live_regions()] == [
        (r.base, r.size, r.tag) for r in one.live_regions()] == [
        (r.base, r.size, r.tag) for r in grown.live_regions()]
    for region in regions:
        one.unmap(region)
    run.unmap_frame(frame)
    grown.unmap_frame(grown_frame)
    assert run.view() == one.view() == grown.view()

    module = Module("padded")
    i8, i64 = int_type(8), int_type(64)
    f = module.add_function("f", FunctionType(i64, []))
    b = IRBuilder(f.append_block("entry"))
    run_allocas = [b.alloca(i8), b.alloca(ArrayType(i8, 3)),
                   b.alloca(ArrayType(i8, 17)),
                   b.alloca(ArrayType(int_type(32), 0))]
    b.store(b.const(8, 9), run_allocas[0])
    b.ret(b.sub(b.ptrtoint(run_allocas[-1], i64),
                b.ptrtoint(run_allocas[0], i64)))
    g = module.add_function("g", FunctionType(i64, []))
    gb = IRBuilder(g.append_block("entry"))
    pad = gb.alloca(ArrayType(i8, 5))
    gb.ret(gb.call(f, []))
    vm, outcome = run_both(module, g, [])
    assert outcome == offsets[-1]
    dead = vm.memory.view().dead
    assert [tag for _, _, _, tag in dead] == [
        f"f.{alloca.name}" for alloca in run_allocas] + [f"g.{pad.name}"]
    assert [base - dead[0][0] for base, _, _, _ in dead[:4]] == list(offsets)
    assert vm.memory.stack_segment.cursor == dead[0][0] + span


def test_checked_store_past_a_run_alloca_lands_in_the_next():
    """A checked store 32 bytes on from a run's first alloca (past its
    4 bytes, its red zone and the alignment gap) lands in the next
    alloca's bytes, and that alloca's direct load reads it back."""
    module = Module("spill")
    i32 = int_type(32)
    f = module.add_function("f", FunctionType(I32, []))
    b = IRBuilder(f.append_block("entry"))
    first = b.alloca(i32, name="first")
    second = b.alloca(i32, name="second")
    b.store(b.i32(5), second)
    b.store(b.i32(42), b.gep(first, [b.i64(8)]))
    b.ret(b.add(b.load(second), b.load(first)))
    _, outcome = run_both(module, f, [])
    assert outcome == 42


def test_checked_reads_around_a_run_alloca():
    """A checked read in a run alloca's red zone overruns that alloca;
    one in the alignment gap past the red zone is unaddressable; one at
    the next alloca's base reads it.  A lone alloca's red zone and the
    bytes past it, the end of its run, read the same way."""
    module = Module("zones")
    i8, i64 = int_type(8), int_type(64)
    f = module.add_function("f", FunctionType(I32, [i64]))
    f.ensure_args(["at"])
    b = IRBuilder(f.append_block("entry"))
    byte = b.alloca(i8, name="byte")
    after = b.alloca(i8, name="after")
    b.store(b.const(8, 3), after)
    b.ret(b.zext(b.load(b.gep(byte, [f.args[0]])), I32))
    lone = module.add_function("lone", FunctionType(I32, [i64]))
    lone.ensure_args(["at"])
    lb = IRBuilder(lone.append_block("entry"))
    alone = lb.alloca(i8, name="alone")
    lb.store(lb.const(8, 3), alone)
    lb.ret(lb.zext(lb.load(lb.gep(alone, [lone.args[0]])), I32))
    for function, alloca in ((f, byte), (lone, alone)):
        _, in_zone = run_both(module, function, [4])
        assert in_zone[:2] == ("VMTrap", TrapKind.INVALID_READ)
        assert (f"overruns stack region '{function.name}.{alloca.name}'"
                in in_zone[2])
        _, in_gap = run_both(module, function, [1 + RED_ZONE + 2])
        assert in_gap[:2] == ("VMTrap", TrapKind.UNADDRESSABLE)
    _, at_next = run_both(module, f, [32])
    assert at_next == 3


def test_strlen_of_an_unterminated_run_alloca_faults_at_its_end():
    """``strlen`` of a run alloca with no NUL faults at the alloca's
    end, though its run's buffer goes on (zeroed red zone, the next
    alloca), and so does ``strlen`` of a lone alloca, whose run's buffer
    goes on through its zeroed red zone."""
    module = Module("unterminated")
    i8, i64 = int_type(8), int_type(64)
    strlen = module.declare_function("strlen", FunctionType(i64, [pointer_type(i8)]))
    f = module.add_function("f", FunctionType(i64, []))
    b = IRBuilder(f.append_block("entry"))
    text = b.alloca(i64, name="text")
    after = b.alloca(i64, name="after")
    b.store(b.i64(0x7878787878787878), text)
    b.store(b.i64(0x79), after)
    b.ret(b.call(strlen, [b.bitcast(text, pointer_type(i8))]))
    lone = module.add_function("lone", FunctionType(i64, []))
    lb = IRBuilder(lone.append_block("entry"))
    alone = lb.alloca(i64, name="alone")
    lb.store(lb.i64(0x7878787878787878), alone)
    lb.ret(lb.call(strlen, [lb.bitcast(alone, pointer_type(i8))]))
    for function, alloca in ((f, text), (lone, alone)):
        _, outcome = run_both(module, function, [])
        assert outcome[:2] == ("VMTrap", TrapKind.INVALID_READ)
        assert "read of 1 bytes at" in outcome[2]
        assert (f"overruns stack region '{function.name}.{alloca.name}'"
                in outcome[2])


def test_run_alloca_escaping_through_a_global_is_use_after_free():
    """A run alloca's address escapes through a global after a checked
    access built its region; after its frame returns, a load through
    the escaped pointer is a use-after-free naming that alloca.  A lone
    alloca's escaped address reads the same way."""
    module = Module("escape")
    i32, i64 = int_type(32), int_type(64)
    escape = module.add_global("escape", pointer_type(i32))
    g = module.add_function("g", FunctionType(I32, []))
    gb = IRBuilder(g.append_block("entry"))
    gb.alloca(i64, name="first")
    kept = gb.alloca(i32, name="kept")
    gb.store(gb.i32(7), gb.gep(kept, [gb.i64(0)]))
    gb.store(kept, escape)
    gb.ret(gb.load(gb.gep(kept, [gb.i64(0)])))
    h = module.add_function("h", FunctionType(I32, []))
    hb = IRBuilder(h.append_block("entry"))
    alone = hb.alloca(i32, name="alone")
    hb.store(hb.i32(7), hb.gep(alone, [hb.i64(0)]))
    hb.store(alone, escape)
    hb.ret(hb.load(hb.gep(alone, [hb.i64(0)])))
    callers = []
    for callee in (g, h):
        f = module.add_function(f"f_{callee.name}", FunctionType(I32, []))
        b = IRBuilder(f.append_block("entry"))
        b.call(callee, [])
        b.ret(b.load(b.load(escape)))
        callers.append(f)
    for f, callee, alloca in zip(callers, (g, h), (kept, alone)):
        _, outcome = run_both(module, f, [])
        assert outcome[:2] == ("VMTrap", TrapKind.USE_AFTER_FREE)
        assert (f"inside freed stack region '{callee.name}.{alloca.name}'"
                in outcome[2])


DEPTH = 100      # 101 frames of 3 allocas: more than the FIFO holds


def test_recursion_past_the_freed_region_memory_keeps_its_verdicts():
    """Recursion through a frame with a run of 3 allocas unmaps 303 of
    them in one call, more than the freed-region FIFO remembers: a load
    through the deepest frame's escaped alloca, evicted, is
    unaddressable, and one through the outermost frame's, retained, is a
    use-after-free naming it, with the FIFO one-at-a-time mapping
    leaves."""
    module = Module("recursion")
    i8, i32, i64 = int_type(8), int_type(32), int_type(64)
    deepest = module.add_global("deepest", pointer_type(i32))
    outermost = module.add_global("outermost", pointer_type(i32))
    rec = module.add_function("rec", FunctionType(I32, [I32]))
    rec.ensure_args(["n"])
    entry, leaf, down, done = (rec.append_block(n)
                               for n in ("entry", "leaf", "down", "done"))
    eb = IRBuilder(entry)
    run = [eb.alloca(i64, name="pad"), eb.alloca(i32, name="cell"),
           eb.alloca(i8, name="tail")]
    cell = run[1]
    eb.store(rec.args[0], cell)
    eb.cond_br(eb.icmp("eq", rec.args[0], eb.i32(0)), leaf, down)
    lb = IRBuilder(leaf)
    lb.store(cell, deepest)
    lb.br(done)
    db = IRBuilder(down)
    db.call(rec, [db.sub(rec.args[0], db.i32(1))])
    db.br(done)
    ob = IRBuilder(done)
    ob.store(cell, outermost)
    ob.ret(ob.load(cell))
    f = module.add_function("f", FunctionType(I32, [I32]))
    f.ensure_args(["evicted"])
    b = IRBuilder(f.append_block("entry"))
    b.call(rec, [b.i32(DEPTH)])
    pointer = b.select(b.icmp("ne", f.args[0], b.i32(0)),
                       b.load(deepest), b.load(outermost))
    b.ret(b.load(pointer))
    vm, evicted = run_both(module, f, [1])
    assert evicted[:2] == ("VMTrap", TrapKind.UNADDRESSABLE)
    assert len(vm.memory.view().dead) == AddressSpace.DEAD_REGION_MEMORY
    vm, retained = run_both(module, f, [0])
    assert retained[:2] == ("VMTrap", TrapKind.USE_AFTER_FREE)
    assert f"inside freed stack region 'rec.{cell.name}'" in retained[2]
    assert dead_tags(vm)[-3:] == [f"rec.{alloca.name}" for alloca in run]


def test_memset_and_memcpy_into_run_allocas_reach_direct_loads():
    """``memset`` and ``memcpy`` into run allocas write the bytes their
    direct loads read, also on a VM with profiling counts, which builds
    the run by growth and reads its members at the same offsets."""
    module = Module("fill")
    i8, i32, i64 = int_type(8), int_type(32), int_type(64)
    bytes_ptr = pointer_type(i8)
    memset = module.declare_function("memset", FunctionType(bytes_ptr, [bytes_ptr, i32, i64]))
    memcpy = module.declare_function("memcpy", FunctionType(bytes_ptr, [bytes_ptr, bytes_ptr, i64]))
    f = module.add_function("f", FunctionType(i64, []))
    b = IRBuilder(f.append_block("entry"))
    source = b.alloca(i64, name="source")
    filled = b.alloca(i32, name="filled")
    copied = b.alloca(i64, name="copied")
    b.call(memset, [b.bitcast(filled, bytes_ptr), b.i32(0x41), b.i64(4)])
    b.store(b.i64(0x1122334455667788), source)
    b.call(memcpy, [b.bitcast(copied, bytes_ptr), b.bitcast(source, bytes_ptr),
                    b.i64(8)])
    b.ret(b.xor(b.zext(b.load(filled), i64), b.load(copied)))
    for counts in (False, True):
        _, outcome = run_both(module, f, [], counts=counts)
        assert outcome == 0x41414141 ^ 0x1122334455667788


def test_fork_of_a_live_run_gives_the_child_private_bytes():
    """Forking the address space while a frame's run is live copies the
    run with private bytes: the child reads what the run held at the
    fork, the parent's later stores do not reach it, and its stores do
    not reach the parent, on both interpreters alike.  A lone alloca's
    run forks the same way."""
    module = Module("forked")
    i32, i64 = int_type(32), int_type(64)
    probe = module.declare_function("probe", FunctionType(VOID, []))
    f = module.add_function("f", FunctionType(i64, []))
    b = IRBuilder(f.append_block("entry"))
    wide = b.alloca(i64, name="wide")
    narrow = b.alloca(i32, name="narrow")
    b.store(b.i64(7), wide)
    b.store(b.i32(9), narrow)
    b.call(probe, [])
    b.store(b.i64(1), wide)
    b.ret(b.add(b.load(wide), b.zext(b.load(narrow), i64)))
    lone = module.add_function("lone", FunctionType(i64, []))
    lb = IRBuilder(lone.append_block("entry"))
    alone = lb.alloca(i64, name="alone")
    lb.store(lb.i64(7), alone)
    lb.call(probe, [])
    lb.store(lb.i64(1), alone)
    lb.ret(lb.load(alone))
    # The child writes 5 to the last alloca's low 4 bytes.
    cases = ((f, ((wide, 8), (narrow, 4)), 1 + 9, [7, 5]),
             (lone, ((alone, 8),), 1, [5]))
    for function, allocas, result, expected in cases:
        tags = [(f"{function.name}.{alloca.name}", size)
                for alloca, size in allocas]
        seen = []
        for vm_class in (VM, ReferenceVM):
            forks = []

            def fork_here(vm, args, site):
                child = vm.memory.fork()
                regions = {r.tag: r for r in child.live_regions("stack")}
                child.write_int(regions[tags[-1][0]].base, 5, 4, site)
                forks.append((child, vm.memory.view(), regions))

            vm = vm_class(module, extra_natives={"probe": fork_here})
            vm.load()
            assert vm.run_function(function, []) == result
            ((child, at_fork, regions),) = forks
            assert child.view() == at_fork._replace(bytes_written=4)
            values = [child.read_int(regions[tag].base, size, vm.site)
                      for tag, size in tags]
            assert values == expected
            seen.append((child.view(), values, child.footprint_bytes(),
                         child.region_count(), child.region_count("stack")))
        assert seen[0] == seen[1]
        assert seen[0][4] == len(allocas)


def test_scalar_loads_and_stores_match_reference_byte_for_byte():
    """A value of each size a load or store takes, passed wider than its
    type so that every store masks it (negative, or with bits above its
    size), is stored to a frame alloca and to a global, directly and
    through GEPs (checked), then each is loaded back and stored to a
    global of its own.  Every global's bytes, ``bytes_written`` and the
    result match the reference's, for the codec sizes 1, 2, 4 and 8 and
    for 3 and 16 bytes, which have none, with and without profiling
    counts (a profiled VM grows the run one alloca at a time)."""
    module = Module("scalars")
    i8, i64 = int_type(8), int_type(64)
    types = [i8, int_type(16), int_type(32), i64, ArrayType(i8, 3),
             ArrayType(i64, 2)]
    sizes = [t.size() for t in types]
    f = module.add_function("f", FunctionType(I32, types))
    f.ensure_args([f"a{size}" for size in sizes])
    b = IRBuilder(f.append_block("entry"))
    frames = [b.alloca(t, name=f"frame{size}") for t, size in zip(types, sizes)]
    zero = b.i64(0)
    for arg, frame, t, size in zip(f.args, frames, types, sizes):
        shared = module.add_global(f"g{size}", t)
        copies = [module.add_global(f"{kind}{size}", t)
                  for kind in ("frame_copy", "global_copy", "checked_copy")]
        b.store(arg, frame)
        b.store(arg, shared)
        b.store(b.load(frame), copies[0])
        b.store(b.load(shared), copies[1])
        b.store(b.load(b.gep(frame, [zero])), b.gep(copies[2], [zero]))
    b.ret(b.i32(0))
    args = [(0x5AA53CC396690FF0123456789ABCDEF011 << (8 * size)) | 0x0102030405060708
            if k % 2 else -0x0102030405060708090A0B0C0D0E0F10 - size
            for k, size in enumerate(sizes)]
    for counts in (False, True):
        vm, outcome = run_both(module, f, args, counts=counts)
        assert outcome == 0
        for arg, size in zip(args, sizes):
            stored = (arg & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
            for kind in ("g", "frame_copy", "global_copy", "checked_copy"):
                assert vm.global_regions[f"{kind}{size}"].data == stored
        assert vm.memory.bytes_written == 5 * sum(sizes)


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
    assert len(vm.memory.view().dead) == FITS


def test_alloca_run_that_runs_the_stack_out_traps_on_its_alloca(monkeypatch):
    """A run of three allocas whose second does not fit the stack
    segment traps STACK_OVERFLOW on the second: the run gives back its
    charge, then maps one alloca at a time (as a VM with profiling
    counts maps every run), so the count, cost, ``Alloca`` count, live
    bases and freed-region FIFO are those of instruction-at-a-time
    execution, with and without profiling counts, and at every
    instruction limit up to the trap."""
    monkeypatch.setattr("repro.vm.memory.STACK_SIZE", SMALL_SEGMENT)
    module = Module("overrun")
    i32 = int_type(32)
    guard = module.declare_function(COV_GUARD, FunctionType(VOID, [I32]))
    f = module.add_function("f", FunctionType(I32, []))
    b = IRBuilder(f.append_block("entry"))
    b.call(guard, [b.i32(3)])
    first = b.alloca(i32)
    b.alloca(ArrayType(int_type(8), SMALL_SEGMENT))
    b.alloca(i32)
    b.store(b.i32(1), first)
    b.ret(b.i32(0))
    g = module.add_function("g", FunctionType(I32, []))
    gb = IRBuilder(g.append_block("entry"))
    own = gb.alloca(int_type(64))
    gb.store(gb.i64(5), own)
    gb.ret(gb.call(f, []))
    trap = ("VMTrap", TrapKind.STACK_OVERFLOW,
            "Stack Overflow at @f:%entry: stack exhausted by alloca of "
            f"{SMALL_SEGMENT} bytes")
    for counts in (False, True):
        vm, outcome = run_both(module, g, [], counts=counts)
        assert outcome == trap
        # g's alloca, store and call, then f's guard, its first alloca
        # and the one that traps.
        assert vm.instructions_executed == 6
        if counts:
            assert vm.opcode_counts["Alloca"] == 3
        assert vm.memory.view().live == ()
        assert dead_tags(vm) == [f"f.{first.name}", f"g.{own.name}"]
        for limit in range(1, 8):
            run_both(module, g, [], limit=limit, counts=counts)


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


CHURN_SOURCE = r"""
int main(int argc, char **argv) {
    int i = 0;
    while (i < 300) { char *p = malloc(1048576); p[7] = 1; free(p); i = i + 1; }
    return i;
}
"""


@pytest.mark.parametrize("vm_class", [VM, ReferenceVM])
def test_freed_regions_retain_no_bytes(vm_class):
    """A loop that mallocs and frees 1 MiB 300 times fills the freed-
    region FIFO, but none of its regions keeps its bytes: the run's
    traced peak stays near the one live MiB (it was above 256 MiB when
    freed regions kept theirs)."""
    module = compile_c(CHURN_SOURCE, "churn")
    vm = vm_class(module)
    vm.load()
    tracemalloc.start()
    try:
        assert vm.run_function(module.get_function("main"), [0, 0]) == 300
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The FIFO's oldest entries are heap chunks, its newest main's frame.
    dead = dead_regions(vm)
    assert len(dead) == AddressSpace.DEAD_REGION_MEMORY
    assert all(region.data is None for region in dead)
    assert [region.size for region in dead[:200]] == [MEBIBYTE] * 200
    assert vm.heap.live_bytes == 0
    assert peak < 8 * MEBIBYTE
