"""Textual MiniIR parser: reads what :mod:`repro.ir.printer` writes.

Enables golden-file workflows and exact round-tripping
(``parse_module(print_module(m))`` reconstructs an equivalent module).
The grammar is precisely the printer's output language — this is an
assembler for MiniIR, not a general LLVM parser.
"""

from __future__ import annotations

import re

from repro.ir.builder import IRBuilder
from repro.ir.instructions import BINARY_OPS, CAST_OPS, Phi
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import (
    ArrayType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
    Type,
    VOID,
    int_type,
    pointer_type,
)
from repro.ir.values import (
    ConstantData,
    ConstantInt,
    ConstantNull,
    UndefValue,
    Value,
    ZeroInitializer,
)


class IRParseError(Exception):
    """Malformed textual IR."""

    def __init__(self, message: str, line_number: int = 0, line: str = ""):
        self.line_number = line_number
        self.line = line
        location = f" (line {line_number}: {line.strip()!r})" if line_number else ""
        super().__init__(f"{message}{location}")


class _TypeParser:
    """Parses type syntax: ``i32``, ``i8*``, ``[4 x i32]``, ``%name``."""

    def __init__(self, structs: dict[str, StructType]):
        self.structs = structs

    def parse(self, text: str) -> Type:
        text = text.strip()
        stars = 0
        while text.endswith("*"):
            stars += 1
            text = text[:-1].strip()
        base = self._parse_base(text)
        for _ in range(stars):
            base = pointer_type(base)
        return base

    def _parse_base(self, text: str) -> Type:
        if text == "void":
            return VOID
        if re.fullmatch(r"i\d+", text):
            return int_type(int(text[1:]))
        if text.startswith("%"):
            name = text[1:]
            if name not in self.structs:
                raise IRParseError(f"unknown struct type %{name}")
            return self.structs[name]
        match = re.fullmatch(r"\[(\d+) x (.+)\]", text)
        if match:
            return ArrayType(self.parse(match.group(2)), int(match.group(1)))
        raise IRParseError(f"cannot parse type {text!r}")


def _split_commas(text: str) -> list[str]:
    """Comma split that ignores commas inside [...] brackets."""
    parts: list[str] = []
    depth = 0
    current = ""
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += ch
    if current.strip():
        parts.append(current)
    return parts


class IRParser:
    """Single-pass parser over the printer's module text."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.index = 0
        self.module: Module | None = None
        self.types: _TypeParser | None = None

    # -- line helpers ---------------------------------------------------

    def _next_meaningful(self) -> str | None:
        while self.index < len(self.lines):
            line = self.lines[self.index]
            self.index += 1
            stripped = line.strip()
            if stripped and not stripped.startswith(";"):
                return line
        return None

    def _error(self, message: str, line: str = "") -> IRParseError:
        return IRParseError(message, self.index, line)

    # -- module level -----------------------------------------------------

    def parse(self) -> Module:
        name_match = None
        for line in self.lines:
            name_match = re.match(r"; ModuleID = '(.*)'", line.strip())
            if name_match:
                break
        self.module = Module(name_match.group(1) if name_match else "parsed")
        self.types = _TypeParser(self.module.structs)

        # Pass 1: struct types, globals, and function signatures (so
        # call operands resolve regardless of definition order).
        self._scan_signatures()

        # Pass 2: function bodies.
        self.index = 0
        while True:
            line = self._next_meaningful()
            if line is None:
                return self.module
            stripped = line.strip()
            if stripped.startswith("define "):
                self._parse_function_body(stripped)

    def _scan_signatures(self) -> None:
        assert self.module is not None and self.types is not None
        self.index = 0
        while True:
            line = self._next_meaningful()
            if line is None:
                break
            stripped = line.strip()
            if stripped.startswith("%") and "= type" in stripped:
                self._parse_struct(stripped)
            elif stripped.startswith("@"):
                self._parse_global(stripped)
            elif stripped.startswith(("declare ", "define ")):
                self._parse_signature(stripped)

    def _parse_struct(self, line: str) -> None:
        match = re.fullmatch(r"%(\w[\w.]*) = type \{ ?(.*?) ?\}", line)
        if not match:
            raise self._error("malformed struct", line)
        name, body = match.groups()
        struct = self.module.add_struct(StructType(name, []))
        fields = []
        for part in _split_commas(body):
            part = part.strip()
            if not part:
                continue
            type_text, _, field_name = part.rpartition(" ")
            fields.append((field_name, self.types.parse(type_text)))
        struct.set_fields(fields)

    def _parse_global(self, line: str) -> None:
        match = re.fullmatch(
            r"@([\w.$-]+) = (global|constant) (.+?) "
            r"(zeroinitializer|null|c\"[0-9a-fA-F]*\"|-?\d+)"
            r'(?:, section "([^"]*)")?',
            line,
        )
        if not match:
            raise self._error("malformed global", line)
        name, kind, type_text, init_text, section = match.groups()
        value_type = self.types.parse(type_text)
        initializer = self._parse_initializer(value_type, init_text)
        self.module.add_global(
            name, value_type, initializer,
            is_constant=(kind == "constant"),
            section=section or "",
        )

    def _parse_initializer(self, value_type: Type, text: str):
        if text == "zeroinitializer":
            return ZeroInitializer(value_type)
        if text == "null":
            return ConstantNull(value_type)  # type: ignore[arg-type]
        if text.startswith('c"'):
            return ConstantData(value_type, bytes.fromhex(text[2:-1]))
        if isinstance(value_type, IntType):
            return ConstantInt(value_type, int(text))
        raise self._error(f"unsupported initializer {text!r}")

    _SIGNATURE = re.compile(
        r"(declare|define) (.+?) @([\w.$-]+)\((.*?)\)(?: \{)?$"
    )

    def _parse_signature(self, line: str) -> None:
        match = self._SIGNATURE.fullmatch(line)
        if not match:
            raise self._error("malformed function header", line)
        _kind, ret_text, name, params_text = match.groups()
        param_types = []
        param_names = []
        for part in _split_commas(params_text):
            part = part.strip()
            if not part:
                continue
            if part.endswith(tuple("*]")) or " " not in part or not part.split()[-1].startswith("%"):
                param_types.append(self.types.parse(part))
                param_names.append("")
            else:
                type_text, _, pname = part.rpartition(" ")
                param_types.append(self.types.parse(type_text))
                param_names.append(pname.lstrip("%"))
        signature = FunctionType(self.types.parse(ret_text), param_types)
        function = self.module.add_function(name, signature)
        if line.startswith("define"):
            function.ensure_args(param_names)
        # skip the body during the signature scan
        if line.startswith("define"):
            while True:
                body_line = self._next_meaningful()
                if body_line is None or body_line.strip() == "}":
                    return

    # -- function bodies -----------------------------------------------------

    def _parse_function_body(self, header: str) -> None:
        match = self._SIGNATURE.fullmatch(header)
        assert match is not None
        function = self.module.get_function(match.group(3))
        values: dict[str, Value] = {f"%{arg.name}": arg for arg in function.args}
        blocks: dict[str, BasicBlock] = {}
        pending: list[tuple[BasicBlock, str]] = []

        current: BasicBlock | None = None
        while True:
            line = self._next_meaningful()
            if line is None:
                raise self._error("unterminated function body", header)
            stripped = line.strip()
            if stripped == "}":
                break
            label = re.fullmatch(r"([\w.$-]+):", stripped)
            if label:
                current = self._get_block(function, blocks, label.group(1))
                continue
            if current is None:
                raise self._error("instruction before first label", line)
            pending.append((current, stripped))

        # Instructions are parsed after all labels exist.
        for block, text in pending:
            self._parse_instruction(function, block, blocks, values, text)
        self._resolve_phis(function, blocks, values)

    def _get_block(self, function: Function, blocks: dict[str, BasicBlock],
                   name: str) -> BasicBlock:
        if name not in blocks:
            block = BasicBlock(name, function)
            function.blocks.append(block)
            blocks[name] = block
        return blocks[name]

    def _operand(self, values: dict[str, Value], type_: Type, text: str) -> Value:
        text = text.strip()
        if text.startswith("%"):
            if text not in values:
                raise self._error(f"unknown value {text}")
            return values[text]
        if text.startswith("@"):
            name = text[1:]
            if self.module.has_function(name):
                return self.module.get_function(name)
            return self.module.get_global(name)
        if text == "null":
            assert isinstance(type_, PointerType)
            return ConstantNull(type_)
        if text == "undef":
            return UndefValue(type_)
        if isinstance(type_, IntType):
            return ConstantInt(type_, int(text))
        raise self._error(f"cannot parse operand {text!r} of type {type_}")

    _PHI_ARM = re.compile(r"\[ (.+?), %([\w.$-]+) \]")

    def _parse_instruction(self, function, block, blocks, values, text) -> None:
        builder = IRBuilder(block)
        result_name = None
        body = text
        match = re.match(r"(%[\w.$-]+) = (.+)", text)
        if match:
            result_name, body = match.groups()

        inst = self._build(function, block, blocks, values, builder, body)
        if result_name is not None:
            if inst is None:
                raise self._error("void instruction cannot have a result", text)
            inst.set_name(result_name[1:])
            values[result_name] = inst

    def _build(self, function, block, blocks, values, builder, body):
        opcode, _, rest = body.partition(" ")

        if opcode in BINARY_OPS:
            type_text, _, operand_text = rest.strip().partition(" ")
            operand_type = self.types.parse(type_text)
            lhs_text, rhs_text = _split_commas(operand_text)
            lhs = self._operand(values, operand_type, lhs_text)
            rhs = self._operand(values, operand_type, rhs_text)
            return builder.binop(opcode, lhs, rhs)

        if opcode == "icmp":
            predicate, _, rest2 = rest.partition(" ")
            type_text, _, operand_text = rest2.strip().partition(" ")
            operand_type = self.types.parse(type_text)
            lhs_text, rhs_text = _split_commas(operand_text)
            return builder.icmp(
                predicate,
                self._operand(values, operand_type, lhs_text),
                self._operand(values, operand_type, rhs_text),
            )

        if opcode == "alloca":
            parts = _split_commas(rest)
            allocated = self.types.parse(parts[0])
            count = int(parts[1]) if len(parts) > 1 else 1
            return builder.alloca(allocated, count)

        if opcode == "load":
            _value_type, pointer_part = _split_commas(rest)
            type_text, _, operand = pointer_part.strip().rpartition(" ")
            pointer = self._operand(values, self.types.parse(type_text), operand)
            return builder.load(pointer)

        if opcode == "store":
            value_part, pointer_part = _split_commas(rest)
            value_type_text, _, value_text = value_part.strip().rpartition(" ")
            pointer_type_text, _, pointer_text = pointer_part.strip().rpartition(" ")
            value = self._operand(values, self.types.parse(value_type_text), value_text)
            pointer = self._operand(values, self.types.parse(pointer_type_text), pointer_text)
            return builder.store(value, pointer)

        if opcode == "getelementptr":
            parts = _split_commas(rest)
            base_type_text, _, base_text = parts[1].strip().rpartition(" ")
            base = self._operand(values, self.types.parse(base_type_text), base_text)
            indices = []
            for part in parts[2:]:
                index_type_text, _, index_text = part.strip().rpartition(" ")
                indices.append(
                    self._operand(values, self.types.parse(index_type_text), index_text)
                )
            return builder.gep(base, indices)

        if opcode == "call" or (opcode == "void" and rest.startswith("@")):
            return self._build_call(values, builder, body)

        if opcode in CAST_OPS:
            match = re.fullmatch(r"(.+?) (.+?) to (.+)", rest)
            if not match:
                raise self._error(f"malformed cast: {body}")
            from_type_text, operand_text, to_type_text = match.groups()
            operand = self._operand(values, self.types.parse(from_type_text),
                                    operand_text)
            return builder.cast(opcode, operand, self.types.parse(to_type_text))

        if opcode == "select":
            parts = _split_commas(rest)
            cond_text = parts[0].strip().rpartition(" ")[2]
            cond = self._operand(values, int_type(1), cond_text)
            true_type_text, _, true_text = parts[1].strip().rpartition(" ")
            false_text = parts[2].strip().rpartition(" ")[2]
            arm_type = self.types.parse(true_type_text)
            return builder.select(
                cond,
                self._operand(values, arm_type, true_text),
                self._operand(values, arm_type, false_text),
            )

        if opcode == "phi":
            type_text = rest.split(" [", 1)[0]
            phi = Phi(self.types.parse(type_text))
            block.append(phi)
            phi._pending_arms = self._PHI_ARM.findall(rest)  # resolved later
            return phi

        if opcode == "br":
            if rest.startswith("label"):
                target = rest.split("%", 1)[1]
                return builder.br(self._get_block(function, blocks, target))
            match = re.fullmatch(
                r"i1 (.+?), label %([\w.$-]+), label %([\w.$-]+)", rest
            )
            if not match:
                raise self._error(f"malformed br: {body}")
            cond = self._operand(values, int_type(1), match.group(1))
            return builder.cond_br(
                cond,
                self._get_block(function, blocks, match.group(2)),
                self._get_block(function, blocks, match.group(3)),
            )

        if opcode == "switch":
            match = re.fullmatch(
                r"(.+?) (.+?), label %([\w.$-]+) \[ ?(.*?) ?\]", rest
            )
            if not match:
                raise self._error(f"malformed switch: {body}")
            type_text, value_text, default_name, cases_text = match.groups()
            value = self._operand(values, self.types.parse(type_text), value_text)
            switch = builder.switch(
                value, self._get_block(function, blocks, default_name)
            )
            for case_value, case_block in re.findall(
                r"[\w\d]+ (-?\d+), label %([\w.$-]+)", cases_text
            ):
                switch.add_case(int(case_value),
                                self._get_block(function, blocks, case_block))
            return switch

        if opcode == "ret":
            if rest.strip() == "void":
                return builder.ret()
            type_text, _, value_text = rest.strip().partition(" ")
            return builder.ret(
                self._operand(values, self.types.parse(type_text), value_text)
            )

        if opcode == "unreachable" or body.strip() == "unreachable":
            return builder.unreachable()

        raise self._error(f"unknown instruction {body!r}")

    _CALL = re.compile(r"call (.+?) @([\w.$-]+)\((.*)\)")

    def _build_call(self, values, builder, body):
        match = self._CALL.fullmatch(body)
        if not match:
            raise self._error(f"malformed call: {body}")
        _ret_text, callee_name, args_text = match.groups()
        callee = self.module.get_function(callee_name)
        args = []
        for part in _split_commas(args_text):
            part = part.strip()
            if not part:
                continue
            type_text, _, operand_text = part.rpartition(" ")
            args.append(self._operand(values, self.types.parse(type_text),
                                      operand_text))
        return builder.call(callee, args)

    def _resolve_phis(self, function, blocks, values) -> None:
        for block in function.blocks:
            for inst in block.instructions:
                if isinstance(inst, Phi) and hasattr(inst, "_pending_arms"):
                    for value_text, block_name in inst._pending_arms:
                        inst.add_incoming(
                            self._operand(values, inst.type, value_text),
                            blocks[block_name],
                        )
                    del inst._pending_arms


def parse_module(text: str) -> Module:
    """Parse printer-format textual IR into a fresh module."""
    return IRParser(text).parse()
