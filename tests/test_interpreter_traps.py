"""Malformed IR and stale decoded code.

Hand-built IR the verifier would reject still runs: each case must
raise the same exception (type, trap kind, site, message) at the same
virtual cost and instruction count on the decoded interpreter as on
the instruction-at-a-time reference.  The stale-code tests rewrite a
module in place between runs, along every path that does so, and
require the next run to see the rewrite.

Every VM keeps opcode counts here, so every call runs an instruction at
a time and nothing compiles; ``tests/test_interpreter_compiled.py``
runs every test again with VMs as the tests make them, so that a call
by a VM that keeps no counts and traces no edges runs compiled code.
A test of a target runs a private copy of its shared build, and the
``tier`` fixture checks after each test that the code it ran is of its
tier.
"""

import pytest

from repro.analysis.opt import REJECTED, ModuleCheckpoint, Optimizer
from repro.analysis.opt.transforms import Transform, TransformResult
from repro.execution import ForkServerExecutor
from repro.ir import (
    I32,
    ConstantData,
    ConstantInt,
    FunctionType,
    IRBuilder,
    Module,
    int_type,
)
from repro.ir.instructions import Ret
from repro.minic import compile_c
from repro.passes import PassManager
from repro.passes.base import ModulePass, PassResult
from repro.runtime.replay import replay
from repro.sim_os import Kernel
from repro.targets import get_target
from repro.vm import VM, VMTrap
from repro.vm import interpreter
from tests.helpers import code_run, count_opcodes, private
from tests.reference_interpreter import ReferenceVM

i32 = int_type(32)


@pytest.fixture(autouse=True)
def tier(monkeypatch):
    """Every VM keeps opcode counts, and no function the test ran is
    compiled."""
    count_opcodes(monkeypatch)
    codes = code_run(monkeypatch)
    yield
    assert [code.name for code in codes if code.compiled is not None] == []


def outcome(vm_class, module, function, args):
    vm = vm_class(module)
    vm.load()
    try:
        result = ("return", vm.run_function(function, args))
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        trap = (exc.kind, exc.site, exc.message) if isinstance(exc, VMTrap) else None
        result = (type(exc), str(exc), trap)
    return result, vm.cost, vm.instructions_executed


def same_on_both(module, function, args=()):
    decoded = outcome(VM, module, function, list(args))
    assert decoded == outcome(ReferenceVM, module, function, list(args))
    return decoded


def function_with(name="f", params=(I32,)):
    module = Module("malformed")
    function = module.add_function(name, FunctionType(I32, list(params)))
    function.ensure_args()
    return module, function


class TestMalformedIR:
    def test_block_falling_through(self):
        module, f = function_with()
        b = IRBuilder(f.append_block("entry"))
        b.add(f.args[0], b.i32(1))
        (kind, message, trap), cost, count = same_on_both(module, f, [1])
        assert trap[0].name == "UNREACHABLE" and "fell through" in message
        assert (cost, count) == (6, 1)

    def test_use_of_undefined_value(self):
        module, f = function_with()
        entry, left, merge = (f.append_block(n) for n in ("entry", "left", "merge"))
        b = IRBuilder(entry)
        b.cond_br(b.icmp("eq", f.args[0], b.i32(0)), left, merge)
        lb = IRBuilder(left)
        defined_on_left = lb.add(f.args[0], lb.i32(1))
        lb.br(merge)
        mb = IRBuilder(merge)
        mb.ret(mb.add(defined_on_left, mb.i32(1)))
        assert same_on_both(module, f, [0])[0] == ("return", 2)
        (_, message, trap), cost, count = same_on_both(module, f, [1])
        assert trap[0].name == "ABORT" and "use of undefined value" in message
        assert (cost, count) == (19, 3)

    def test_constant_data_used_as_scalar(self):
        module, f = function_with()
        b = IRBuilder(f.append_block("entry"))
        data = ConstantData(i32, b"\x01\x02\x03\x04")
        b.ret(b.add(f.args[0], data))
        (_, message, trap), cost, count = same_on_both(module, f, [1])
        assert message.endswith("constant data used as scalar")
        assert (cost, count) == (6, 1)

    def test_unresolved_external(self):
        module, f = function_with()
        mystery = module.declare_function("mystery", FunctionType(I32, [I32]))
        b = IRBuilder(f.append_block("entry"))
        b.ret(b.call(mystery, [f.args[0]]))
        (_, message, trap), cost, count = same_on_both(module, f, [1])
        assert "unresolved external function @mystery" in message
        assert (cost, count) == (22, 1)

    def test_phi_after_a_non_phi(self):
        module, f = function_with()
        entry, body = f.append_block("entry"), f.append_block("body")
        IRBuilder(entry).br(body)
        b = IRBuilder(body)
        b.add(f.args[0], b.i32(1))
        phi = b.phi(i32)
        phi.add_incoming(b.i32(5), entry)
        b.ret(phi)
        (_, message, trap), cost, count = same_on_both(module, f, [1])
        assert trap[0].name == "ABORT" and "unknown instruction" in message
        assert (cost, count) == (4 + 6 + 5, 3)

    def test_phi_without_an_arm_for_the_taken_edge(self):
        module, f = function_with()
        entry, left, merge = (f.append_block(n) for n in ("entry", "left", "merge"))
        b = IRBuilder(entry)
        b.cond_br(b.icmp("eq", f.args[0], b.i32(0)), left, merge)
        IRBuilder(left).br(merge)
        mb = IRBuilder(merge)
        first, second = mb.phi(i32), mb.phi(i32)
        first.add_incoming(mb.i32(7), left)
        first.add_incoming(mb.i32(8), entry)
        second.add_incoming(mb.i32(9), left)
        mb.ret(mb.add(first, second))
        assert same_on_both(module, f, [0])[0] == ("return", 16)
        (kind, message, trap), cost, count = same_on_both(module, f, [1])
        assert kind is KeyError and "no incoming value for block entry" in message
        assert (cost, count) == (13, 2)

    def test_call_depth_past_the_limit(self):
        module = compile_c(
            "int rec(int n) { return rec(n + 1); }\n"
            "int main(int argc, char **argv) { return rec(0); }", "deep")
        (_, message, trap), cost, count = same_on_both(
            module, module.get_function("main"), [1, 0])
        assert trap[0].name == "STACK_OVERFLOW"
        assert trap[2] == f"call depth exceeded {VM.MAX_CALL_DEPTH}"
        assert count > VM.MAX_CALL_DEPTH

    def test_call_passing_fewer_arguments(self):
        module, f = function_with(params=(I32, I32))
        b = IRBuilder(f.append_block("entry"))
        b.ret(b.add(f.args[0], f.args[1]))
        assert same_on_both(module, f, [2, 3])[0] == ("return", 5)
        (_, message, _), _, _ = same_on_both(module, f, [2])
        assert "use of undefined value" in message


SOURCE = """
int main(int argc, char **argv) {
    char *f = fopen(argv[1], "r");
    char b[4];
    long n = fread(b, 1, 4, f);
    fclose(f);
    if (n > 1 && b[0] == 'x') { return 40 + (int)n; }
    return 7;
}
"""


def replays(module, data=b"a"):
    """(decoded, reference) observations of one replay of *data*."""
    decoded = replay(module, data, boot_time=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.runtime.replay.VM", ReferenceVM)
        reference = replay(module, data, boot_time=1)
    return decoded, reference


def returned_constants(module):
    return [inst for f in module.defined_functions() for block in f.blocks
            for inst in block.instructions
            if type(inst) is Ret and type(inst.value) is ConstantInt]


class RetargetReturn(Transform):
    """A wrong transform: rewrites one returned constant in place, an
    operand rewrite that leaves every cfg_epoch where it was."""

    name = "retarget-return"

    def run(self, module, ctx):
        result = TransformResult(self.name)
        ret = returned_constants(module)[0]
        ret.set_operand(0, IRBuilder().i32(99))
        result.note("rewritten")
        return result


class TestStaleCode:
    def test_operand_rewrite_between_replays(self):
        module = compile_c(SOURCE, "rewrite")
        first, _ = replays(module)
        assert first.return_code == 7
        # The optimizer's validation replays must run the rewritten code:
        # stale code would replay identically and accept the rewrite.
        report = Optimizer(module, seeds=(b"xyz", b"a"),
                           transforms=[RetargetReturn()], max_rounds=1).run()
        assert [o.verdict for o in report.outcomes] == [REJECTED]
        assert "return code" in report.outcomes[0].errors[0]
        # Outside the optimizer the rewrite shows once the module's code
        # is dropped, as the in-place rewriters do.
        assert replays(module)[0] == first
        epochs = [f.cfg_epoch for f in module.defined_functions()]
        returned_constants(module)[-1].set_operand(0, IRBuilder().i32(5))
        assert [f.cfg_epoch for f in module.defined_functions()] == epochs
        module.decoded = None
        decoded, reference = replays(module)
        assert decoded == reference and decoded.return_code == 5

    def test_checkpoint_restore_between_replays(self):
        module = compile_c(SOURCE, "restore")
        checkpoint = ModuleCheckpoint(module)
        before, _ = replays(module)
        returned_constants(module)[0].set_operand(0, IRBuilder().i32(99))
        checkpoint.restore()
        after, reference = replays(module)
        assert after == reference == before

    def test_pass_manager_on_a_module_that_ran(self):
        module = compile_c(SOURCE, "passes")
        before, _ = replays(module)

        class Rewrite(ModulePass):
            name = "rewrite"

            def run(self, module):
                returned_constants(module)[0].set_operand(0, IRBuilder().i32(99))
                return PassResult(self.name, changed=True)

        PassManager([Rewrite()]).run(module)
        after, reference = replays(module)
        assert after == reference and after.return_code == 99 != before.return_code

    def test_forkserver_decodes_each_function_once(self, monkeypatch):
        spec = get_target("zlib")
        module = private(spec.build_baseline())
        decodes = []
        decode = interpreter._decode

        def counting(function, *args):
            decodes.append(function.name)
            return decode(function, *args)

        monkeypatch.setattr(interpreter, "_decode", counting)
        executor = ForkServerExecutor(module, spec.image_bytes, Kernel())
        for k in range(50):
            executor.run(spec.seeds[k % len(spec.seeds)] + bytes([k]))
        assert decodes and len(decodes) == len(set(decodes))

