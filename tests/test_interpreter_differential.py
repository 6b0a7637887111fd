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
"""

import dataclasses
import random

import pytest

from repro.analysis.opt import REPLAY_BOOT_TIME
from repro.execution import ClosureXExecutor, ForkServerExecutor
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
from repro.passes.coverage import COV_GUARD
from repro.runtime.replay import replay
from repro.sim_os import Kernel
from repro.targets import get_target, target_names
from repro.vm import VM, ExecutionLimitExceeded
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


@pytest.mark.parametrize("name,optimize", BUILDS,
                         ids=[f"{n}{'-opt' if o else ''}" for n, o in BUILDS])
def test_replays_match_reference(name, optimize, monkeypatch):
    spec = get_target(name)
    module = spec.build_closurex(optimize=optimize)
    inputs = list(spec.seeds) + mutants(spec)
    pollution = inputs[-2:]

    def observe_all():
        return [fields(replay(module, data, pollution=pollution, trace=True,
                              snapshot=True, boot_time=REPLAY_BOOT_TIME))
                for data in inputs]

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
                            result.instructions, bytes(result.coverage)))
        return results, opcodes, libc, records, executor.clock.now_ns

    decoded = run_all()
    with monkeypatch.context() as patch:
        on_reference(patch)
        reference = run_all()
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
        lists = []
        for data in inputs:
            coverage = executor.run(data).coverage
            assert sorted(coverage.cells) == [
                cell for cell, hits in enumerate(coverage) if hits]
            lists.append(list(coverage.cells))
        return lists

    decoded = cell_lists()
    with monkeypatch.context() as patch:
        on_reference(patch)
        reference = cell_lists()
    assert any(decoded) and decoded == reference


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

    def hang_point(vm_class, limit):
        counts = {}
        vm = vm_class(module, opcode_counts=counts, libc_counts={})
        vm.load()
        vm.instruction_limit = limit
        try:
            outcome = vm.run_function(f, [6])
        except ExecutionLimitExceeded as exc:
            outcome = ("hang", exc.limit)
        return (outcome, vm.cost, vm.instructions_executed, counts,
                vm.libc_counts, bytes(vm.coverage_map), vm.stack_region_count())

    outcomes = []
    for limit in range(1, 110):
        decoded = hang_point(VM, limit)
        assert decoded == hang_point(ReferenceVM, limit), limit
        outcomes.append(decoded[0])
    # Every limit below the run's length hangs; the rest finish.
    finished = outcomes.index(outcomes[-1])
    assert 60 < finished < 100
    assert outcomes[:finished] == [("hang", n) for n in range(1, finished + 1)]
    assert set(outcomes[finished:]) == {outcomes[-1]}


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
