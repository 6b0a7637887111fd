"""The instruction-at-a-time MiniIR interpreter, kept as a test oracle.

:class:`ReferenceVM` is :class:`repro.vm.interpreter.VM` with the
dispatch loop the decoder replaced: a walk over the in-memory IR that
evaluates operands through a per-call value dict and charges each
instruction's cost and count as it runs it.  The differential tests
run every target on both and require equal observations, clocks and
traps; ``tests/test_interpreter_traps.py`` pins the malformed-IR cases.
"""

from __future__ import annotations

from repro.ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    CondBr,
    GetElementPtr,
    ICmp,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Switch,
    Unreachable,
)
from repro.ir.module import BasicBlock, Function
from repro.ir.types import ArrayType, IntType, PointerType, StructType
from repro.ir.values import (
    ConstantData,
    ConstantInt,
    ConstantNull,
    GlobalVariable,
    UndefValue,
    Value,
)
from repro.vm.errors import ExecutionLimitExceeded, TrapKind, VMTrap
from repro.vm.interpreter import _INST_COST, _U64_MASK, VM
from repro.vm.memory import MemoryRegion


class ReferenceVM(VM):
    """A VM that interprets the IR directly, one instruction at a time."""

    def run_function(self, function: Function, args: list[int]) -> int | None:
        """Execute *function* with concrete integer arguments."""
        if function.is_declaration:
            return self._call_native(function.name, args)
        if self._call_depth >= self.MAX_CALL_DEPTH:
            raise VMTrap(TrapKind.STACK_OVERFLOW,
                         f"call depth exceeded {self.MAX_CALL_DEPTH}", self.site)
        self._call_depth += 1
        frame_regions: list[MemoryRegion] = []
        values: dict[Value, int] = {}
        for arg_obj, arg_val in zip(function.args, args):
            values[arg_obj] = arg_val
        self.site.function = function.name
        try:
            return self._exec_blocks(function, values, frame_regions)
        finally:
            self._call_depth -= 1
            for region in frame_regions:
                if region.alive:
                    self.memory.unmap(region)

    def _exec_blocks(
        self,
        function: Function,
        values: dict[Value, int],
        frame_regions: list[MemoryRegion],
    ) -> int | None:
        block = function.entry_block
        prev_block: BasicBlock | None = None
        evaluate = self._evaluate
        limit = self.instruction_limit
        opcode_counts = self.opcode_counts

        while True:
            self.site.block = block.name
            instructions = block.instructions
            index = 0
            # Phi nodes are evaluated simultaneously on block entry.
            if instructions and isinstance(instructions[0], Phi):
                phi_values: list[tuple[Phi, int]] = []
                while index < len(instructions) and isinstance(instructions[index], Phi):
                    phi = instructions[index]
                    assert prev_block is not None
                    phi_values.append((phi, evaluate(phi.value_for_block(prev_block), values)))
                    index += 1
                for phi, value in phi_values:
                    values[phi] = value
                self.instructions_executed += index
                self.cost += 5 * index
                if opcode_counts is not None:
                    opcode_counts["Phi"] = opcode_counts.get("Phi", 0) + index

            next_block: BasicBlock | None = None
            while index < len(instructions):
                inst = instructions[index]
                index += 1
                self.instructions_executed += 1
                if self.instructions_executed > limit:
                    raise ExecutionLimitExceeded(limit)
                self.cost += _INST_COST.get(type(inst), 2)
                cls = type(inst)
                if opcode_counts is not None:
                    name = cls.__name__
                    opcode_counts[name] = opcode_counts.get(name, 0) + 1

                if cls is BinOp:
                    values[inst] = self._exec_binop(inst, values)
                elif cls is ICmp:
                    values[inst] = self._exec_icmp(inst, values)
                elif cls is Load:
                    ptr = evaluate(inst.ptr, values)
                    values[inst] = self.memory.read_int(ptr, inst.type.size(), self.site)
                elif cls is Store:
                    ptr = evaluate(inst.ptr, values)
                    value = evaluate(inst.value, values)
                    self.memory.write_int(ptr, value, inst.value.type.size(), self.site)
                elif cls is GetElementPtr:
                    values[inst] = self._exec_gep(inst, values)
                elif cls is Call:
                    result = self._exec_call(inst, values)
                    # Restore location clobbered by the callee.
                    self.site.function = function.name
                    self.site.block = block.name
                    if not inst.type.is_void:
                        values[inst] = result if result is not None else 0
                elif cls is Alloca:
                    size = inst.allocation_size()
                    try:
                        region = self.memory.map_region(
                            self.memory.stack_segment, size, True, "stack",
                            f"{function.name}.{inst.name}",
                        )
                    except MemoryError:
                        raise VMTrap(
                            TrapKind.STACK_OVERFLOW,
                            f"stack exhausted by alloca of {size} bytes",
                            self.site,
                        ) from None
                    frame_regions.append(region)
                    values[inst] = region.base
                elif cls is Cast:
                    values[inst] = self._exec_cast(inst, values)
                elif cls is Select:
                    cond = evaluate(inst.cond, values)
                    values[inst] = evaluate(inst.if_true if cond else inst.if_false, values)
                elif cls is Br:
                    next_block = inst.target
                    break
                elif cls is CondBr:
                    cond = evaluate(inst.cond, values)
                    next_block = inst.if_true if cond else inst.if_false
                    break
                elif cls is Switch:
                    value = evaluate(inst.value, values)
                    observer = self.cmp_observer
                    if observer is not None and observer.active:
                        observer.observe_switch(self.site, inst, value)
                    next_block = inst.default
                    for case_value, case_block in inst.cases:
                        if case_value == value:
                            next_block = case_block
                            break
                    break
                elif cls is Ret:
                    if inst.value is None:
                        return None
                    return evaluate(inst.value, values)
                elif cls is Unreachable:
                    raise VMTrap(TrapKind.UNREACHABLE, "unreachable executed", self.site)
                else:  # pragma: no cover - instruction set is closed
                    raise VMTrap(TrapKind.ABORT, f"unknown instruction {inst}", self.site)

            if next_block is None:
                raise VMTrap(
                    TrapKind.UNREACHABLE,
                    f"block %{block.name} fell through without a terminator",
                    self.site,
                )
            prev_block, block = block, next_block

    # -- operand evaluation -------------------------------------------

    def _evaluate(self, value: Value, values: dict[Value, int]) -> int:
        cls = type(value)
        if cls is ConstantInt:
            return value.value
        if cls is ConstantNull:
            return 0
        if cls is GlobalVariable:
            return self.global_regions[value.name].base
        if cls is UndefValue:
            return 0
        if cls is ConstantData:
            raise VMTrap(TrapKind.ABORT, "constant data used as scalar", self.site)
        try:
            return values[value]
        except KeyError:
            raise VMTrap(
                TrapKind.ABORT, f"use of undefined value {value.ref()}", self.site
            ) from None

    # -- instruction semantics ------------------------------------------

    def _exec_binop(self, inst: BinOp, values: dict[Value, int]) -> int:
        type_ = inst.type
        assert isinstance(type_, IntType)
        lhs = self._evaluate(inst.lhs, values)
        rhs = self._evaluate(inst.rhs, values)
        op = inst.op
        if op == "add":
            return type_.wrap(lhs + rhs)
        if op == "sub":
            return type_.wrap(lhs - rhs)
        if op == "mul":
            return type_.wrap(lhs * rhs)
        if op == "and":
            return lhs & rhs
        if op == "or":
            return lhs | rhs
        if op == "xor":
            return lhs ^ rhs
        if op == "shl":
            return type_.wrap(lhs << rhs) if rhs < type_.bits else 0
        if op == "lshr":
            return (lhs >> rhs) if rhs < type_.bits else 0
        if op == "ashr":
            signed = type_.to_signed(lhs)
            return type_.wrap(signed >> min(rhs, type_.bits - 1))
        if rhs == 0:
            raise VMTrap(TrapKind.DIV_BY_ZERO, f"{op} by zero", self.site)
        if op in ("sdiv", "srem"):
            a, b = type_.to_signed(lhs), type_.to_signed(rhs)
            if op == "sdiv":
                quotient = abs(a) // abs(b)
                return type_.wrap(quotient if (a < 0) == (b < 0) else -quotient)
            remainder = abs(a) % abs(b)
            return type_.wrap(remainder if a >= 0 else -remainder)
        if op == "udiv":
            return lhs // rhs
        return lhs % rhs  # urem

    def _exec_icmp(self, inst: ICmp, values: dict[Value, int]) -> int:
        lhs = self._evaluate(inst.lhs, values)
        rhs = self._evaluate(inst.rhs, values)
        observer = self.cmp_observer
        if observer is not None and observer.active:
            observer.observe_icmp(self.site, inst, lhs, rhs)
        predicate = inst.predicate
        if predicate in ("slt", "sle", "sgt", "sge"):
            lhs_type = inst.lhs.type
            if isinstance(lhs_type, IntType):
                lhs = lhs_type.to_signed(lhs)
                rhs = lhs_type.to_signed(rhs)
        if predicate == "eq":
            return 1 if lhs == rhs else 0
        if predicate == "ne":
            return 1 if lhs != rhs else 0
        if predicate in ("slt", "ult"):
            return 1 if lhs < rhs else 0
        if predicate in ("sle", "ule"):
            return 1 if lhs <= rhs else 0
        if predicate in ("sgt", "ugt"):
            return 1 if lhs > rhs else 0
        return 1 if lhs >= rhs else 0

    def _exec_gep(self, inst: GetElementPtr, values: dict[Value, int]) -> int:
        address = self._evaluate(inst.base, values)
        base_type = inst.base.type
        assert isinstance(base_type, PointerType)
        indices = inst.indices
        first = self._evaluate(indices[0], values)
        first_type = indices[0].type
        if isinstance(first_type, IntType):
            first = first_type.to_signed(first)
        current = base_type.pointee
        address += first * current.size()
        for index_value in indices[1:]:
            if isinstance(current, ArrayType):
                idx = self._evaluate(index_value, values)
                idx_type = index_value.type
                if isinstance(idx_type, IntType):
                    idx = idx_type.to_signed(idx)
                address += idx * current.element.size()
                current = current.element
            elif isinstance(current, StructType):
                assert isinstance(index_value, ConstantInt)
                address += current.field_offset(index_value.value)
                current = current.field_type(index_value.value)
            else:  # pragma: no cover - rejected at construction
                raise VMTrap(TrapKind.ABORT, "malformed GEP", self.site)
        return address & _U64_MASK

    def _exec_call(self, inst: Call, values: dict[Value, int]) -> int | None:
        callee = inst.callee
        assert isinstance(callee, Function)
        args = [self._evaluate(a, values) for a in inst.args]
        return self.run_function(callee, args)

    def _exec_cast(self, inst: Cast, values: dict[Value, int]) -> int:
        value = self._evaluate(inst.value, values)
        op = inst.op
        if op in ("bitcast", "inttoptr"):
            return value
        if op == "ptrtoint":
            target = inst.type
            assert isinstance(target, IntType)
            return target.wrap(value)
        if op in ("trunc", "zext"):
            target = inst.type
            assert isinstance(target, IntType)
            return target.wrap(value)
        # sext
        source = inst.value.type
        target = inst.type
        assert isinstance(source, IntType) and isinstance(target, IntType)
        return target.wrap(source.to_signed(value))

