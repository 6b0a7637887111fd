"""IRBuilder: convenience layer for constructing MiniIR.

The builder keeps an insertion point (a basic block) and offers one
method per instruction kind, auto-naming result values.  It is the API
used by the MiniC code generator and by hand-written IR in tests.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    CondBr,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Switch,
    Unreachable,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import IntType, Type, int_type
from repro.ir.values import ConstantInt, Value


class IRBuilder:
    """Stateful instruction factory bound to an insertion block."""

    def __init__(self, block: BasicBlock | None = None):
        self.block = block

    @property
    def function(self) -> Function:
        if self.block is None or self.block.parent is None:
            raise ValueError("builder has no insertion point")
        return self.block.parent

    @property
    def module(self) -> Module:
        mod = self.function.module
        if mod is None:
            raise ValueError("function is not attached to a module")
        return mod

    def position_at_end(self, block: BasicBlock) -> None:
        self.block = block

    def _insert(self, inst: Instruction, name_hint: str = "") -> Instruction:
        if self.block is None:
            raise ValueError("builder has no insertion point")
        if not inst.type.is_void and not inst.name:
            inst.set_name(self.function.next_value_name(name_hint))
        self.block.append(inst)
        return inst

    # -- constants ----------------------------------------------------

    def const(self, bits: int, value: int) -> ConstantInt:
        return ConstantInt(int_type(bits), value)

    def i32(self, value: int) -> ConstantInt:
        return self.const(32, value)

    def i64(self, value: int) -> ConstantInt:
        return self.const(64, value)

    def i8(self, value: int) -> ConstantInt:
        return self.const(8, value)

    def i1(self, value: int) -> ConstantInt:
        return self.const(1, value)

    # -- arithmetic ---------------------------------------------------

    def binop(self, op: str, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._insert(BinOp(op, lhs, rhs), name or op)

    def add(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("add", lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("sub", lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("mul", lhs, rhs, name)

    def sdiv(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("sdiv", lhs, rhs, name)

    def udiv(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("udiv", lhs, rhs, name)

    def srem(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("srem", lhs, rhs, name)

    def urem(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("urem", lhs, rhs, name)

    def and_(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("and", lhs, rhs, name)

    def or_(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("or", lhs, rhs, name)

    def xor(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("xor", lhs, rhs, name)

    def shl(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("shl", lhs, rhs, name)

    def lshr(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("lshr", lhs, rhs, name)

    def ashr(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("ashr", lhs, rhs, name)

    # -- comparisons --------------------------------------------------

    def icmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._insert(ICmp(predicate, lhs, rhs), name or "cmp")

    # -- memory -------------------------------------------------------

    def alloca(self, allocated_type: Type, count: int = 1, name: str = "") -> Value:
        return self._insert(Alloca(allocated_type, count), name or "slot")

    def load(self, ptr: Value, name: str = "") -> Value:
        return self._insert(Load(ptr), name or "ld")

    def store(self, value: Value, ptr: Value) -> Instruction:
        return self._insert(Store(value, ptr))

    def gep(self, base: Value, indices: Sequence[Value], name: str = "") -> Value:
        return self._insert(GetElementPtr(base, list(indices)), name or "gep")

    def struct_gep(self, base: Value, field_index: int, name: str = "") -> Value:
        """GEP to a struct field: ``getelementptr %T, ptr, 0, field``."""
        return self.gep(base, [self.i64(0), self.i32(field_index)], name)

    # -- casts --------------------------------------------------------

    def cast(self, op: str, value: Value, to_type: Type, name: str = "") -> Value:
        return self._insert(Cast(op, value, to_type), name or op)

    def trunc(self, value: Value, to_type: Type, name: str = "") -> Value:
        return self.cast("trunc", value, to_type, name)

    def zext(self, value: Value, to_type: Type, name: str = "") -> Value:
        return self.cast("zext", value, to_type, name)

    def sext(self, value: Value, to_type: Type, name: str = "") -> Value:
        return self.cast("sext", value, to_type, name)

    def bitcast(self, value: Value, to_type: Type, name: str = "") -> Value:
        return self.cast("bitcast", value, to_type, name)

    def ptrtoint(self, value: Value, to_type: Type, name: str = "") -> Value:
        return self.cast("ptrtoint", value, to_type, name)

    def inttoptr(self, value: Value, to_type: Type, name: str = "") -> Value:
        return self.cast("inttoptr", value, to_type, name)

    def resize_int(self, value: Value, to_type: IntType, signed: bool = True, name: str = "") -> Value:
        """Widen/narrow an integer as needed; no-op when widths match."""
        assert isinstance(value.type, IntType)
        if value.type.bits == to_type.bits:
            return value
        if value.type.bits > to_type.bits:
            return self.trunc(value, to_type, name)
        return self.sext(value, to_type, name) if signed else self.zext(value, to_type, name)

    # -- other value-producing instructions ---------------------------

    def call(self, callee, args: Sequence[Value], name: str = "") -> Value:
        return self._insert(Call(callee, list(args)), name or "call")

    def select(self, cond: Value, if_true: Value, if_false: Value, name: str = "") -> Value:
        return self._insert(Select(cond, if_true, if_false), name or "sel")

    def phi(self, type_: Type, name: str = "") -> Phi:
        inst = Phi(type_)
        self._insert(inst, name or "phi")
        return inst

    # -- control flow -------------------------------------------------

    def br(self, target: BasicBlock) -> Instruction:
        return self._insert(Br(target))

    def cond_br(self, cond: Value, if_true: BasicBlock, if_false: BasicBlock) -> Instruction:
        return self._insert(CondBr(cond, if_true, if_false))

    def switch(self, value: Value, default: BasicBlock) -> Switch:
        inst = Switch(value, default)
        self._insert(inst)
        return inst

    def ret(self, value: Value | None = None) -> Instruction:
        return self._insert(Ret(value))

    def unreachable(self) -> Instruction:
        return self._insert(Unreachable())

    # -- helpers ------------------------------------------------------

    def append_block(self, name: str = "") -> BasicBlock:
        return self.function.append_block(name)
