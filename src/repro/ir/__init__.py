"""MiniIR: a small, typed, LLVM-flavoured compiler IR.

Public surface:

- type constructors (:func:`int_type`, :func:`pointer_type`, ...)
- value/constant classes and :class:`Module`/:class:`Function`/:class:`BasicBlock`
- :class:`IRBuilder` for construction
- :func:`verify_module` and :func:`print_module`
"""

from repro.ir.builder import IRBuilder
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
from repro.ir.printer import print_function, print_module
from repro.ir.types import (
    I1,
    I8,
    I8_PTR,
    I16,
    I32,
    I64,
    VOID,
    ArrayType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
    Type,
    VoidType,
    int_type,
    pointer_type,
)
from repro.ir.values import (
    Argument,
    Constant,
    ConstantData,
    ConstantInt,
    ConstantNull,
    GlobalValue,
    GlobalVariable,
    UndefValue,
    Use,
    User,
    Value,
    ZeroInitializer,
    const_i32,
    const_i64,
    const_int,
    null_ptr,
)
from repro.ir.parser import IRParseError, parse_module
from repro.ir.verifier import VerificationError, verify_module

__all__ = [
    "IRBuilder",
    "Alloca", "BinOp", "Br", "Call", "Cast", "CondBr", "GetElementPtr",
    "ICmp", "Instruction", "Load", "Phi", "Ret", "Select", "Store",
    "Switch", "Unreachable",
    "BasicBlock", "Function", "Module",
    "print_function", "print_module",
    "I1", "I8", "I8_PTR", "I16", "I32", "I64", "VOID",
    "ArrayType", "FunctionType", "IntType", "PointerType", "StructType",
    "Type", "VoidType", "int_type", "pointer_type",
    "Argument", "Constant", "ConstantData", "ConstantInt", "ConstantNull",
    "GlobalValue", "GlobalVariable", "UndefValue", "Use", "User", "Value",
    "ZeroInitializer", "const_i32", "const_i64", "const_int",
    "null_ptr",
    "IRParseError", "parse_module",
    "VerificationError", "verify_module",
]
