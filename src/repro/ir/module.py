"""Modules, functions, and basic blocks for MiniIR.

A :class:`Module` is the unit of compilation, linking, and pass
execution: it owns global variables (with named sections), declared and
defined functions, and named struct types.  Transformation passes
operate on a whole module at a time, like LLVM's ModulePass.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.ir.instructions import Instruction
from repro.ir.types import FunctionType, StructType, Type
from repro.ir.values import Argument, Constant, GlobalValue, GlobalVariable


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str, parent: "Function | None" = None):
        self.name = name
        self.parent = parent
        self.instructions: list[Instruction] = []

    def _touch_cfg(self) -> None:
        if self.parent is not None:
            self.parent.invalidate_cfg()

    @property
    def terminator(self) -> Instruction | None:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def append(self, inst: Instruction) -> Instruction:
        if self.is_terminated:
            raise ValueError(f"block {self.name} is already terminated")
        inst.parent = self
        self.instructions.append(inst)
        self._touch_cfg()
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.insert(index, inst)
        self._touch_cfg()
        return inst

    def remove_instruction(self, inst: Instruction) -> None:
        self.instructions.remove(inst)
        inst.parent = None
        self._touch_cfg()

    def successors(self) -> list["BasicBlock"]:
        term = self.terminator
        return term.successors() if term is not None else []  # type: ignore[attr-defined]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock %{self.name} ({len(self.instructions)} insts)>"


class Function(GlobalValue):
    """A function definition or declaration.

    Declarations (``is_declaration == True``) have no blocks; the VM
    resolves them against its libc/intrinsic table at call time, which
    is how ``malloc``/``fopen``/``exit`` and the ClosureX runtime hooks
    are modelled.
    """

    def __init__(self, name: str, function_type: FunctionType, module: "Module | None" = None):
        super().__init__(function_type, name)
        self.function_type = function_type
        self.module = module
        self.blocks: list[BasicBlock] = []
        self.args: list[Argument] = []
        self._next_value_id = 0
        self._next_block_id = 0
        #: Monotonic mutation counter.  Any structural change (block or
        #: instruction insertion/removal) bumps it; ``repro.ir.cfg``
        #: keys its per-function caches on this, so derived CFG facts
        #: (predecessors, reachability, dominators) are recomputed only
        #: after a real mutation.
        self.cfg_epoch = 0

    def invalidate_cfg(self) -> None:
        """Invalidate cached CFG-derived analyses for this function.

        Called automatically by block/instruction mutation; call it
        explicitly after retargeting a terminator in place (e.g.
        assigning ``br.target``), which the IR cannot observe.
        """
        self.cfg_epoch += 1

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def return_type(self) -> Type:
        return self.function_type.return_type

    @property
    def entry_block(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"@{self.name} is a declaration; it has no entry block")
        return self.blocks[0]

    def add_arg(self, name: str) -> Argument:
        index = len(self.args)
        if index >= len(self.function_type.params):
            raise ValueError(f"@{self.name} has only {len(self.function_type.params)} params")
        arg = Argument(self.function_type.params[index], name, self, index)
        self.args.append(arg)
        return arg

    def ensure_args(self, names: Iterable[str] = ()) -> list[Argument]:
        """Create any missing Argument objects, using *names* if given."""
        provided = list(names)
        while len(self.args) < len(self.function_type.params):
            index = len(self.args)
            name = provided[index] if index < len(provided) else f"arg{index}"
            self.add_arg(name)
        return self.args

    def append_block(self, name: str = "") -> BasicBlock:
        block = BasicBlock(self._unique_block_name(name), self)
        self.blocks.append(block)
        self.invalidate_cfg()
        return block

    def remove_block(self, block: BasicBlock) -> BasicBlock:
        """Detach *block* from this function, bumping the CFG epoch.

        The caller is responsible for the block's contents: remaining
        instructions keep their operand uses until dropped, and any
        terminator elsewhere still targeting the block leaves the CFG
        inconsistent.  Removing the entry block is refused — every
        function needs one.
        """
        if block is self.blocks[0]:
            raise ValueError(f"cannot remove entry block %{block.name}")
        self.blocks.remove(block)
        block.parent = None
        self.invalidate_cfg()
        return block

    def _unique_block_name(self, hint: str) -> str:
        if not hint:
            return self.next_block_name()
        used = {b.name for b in self.blocks}
        if hint not in used:
            return hint
        self._next_block_id += 1
        return f"{hint}.{self._next_block_id}"

    def get_block(self, name: str) -> BasicBlock:
        for block in self.blocks:
            if block.name == name:
                return block
        raise KeyError(f"@{self.name} has no block %{name}")

    def next_value_name(self, hint: str = "") -> str:
        self._next_value_id += 1
        base = hint or "v"
        return f"{base}{self._next_value_id}"

    def next_block_name(self, hint: str = "bb") -> str:
        self._next_block_id += 1
        return f"{hint}{self._next_block_id}"

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def instruction_count(self) -> int:
        return sum(len(b) for b in self.blocks)

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def __repr__(self) -> str:
        kind = "declare" if self.is_declaration else "define"
        return f"<Function {kind} @{self.name}: {self.function_type}>"


class Module:
    """A MiniIR compilation unit: globals, functions, struct types."""

    def __init__(self, name: str):
        self.name = name
        self.globals: dict[str, GlobalVariable] = {}
        self.functions: dict[str, Function] = {}
        self.structs: dict[str, StructType] = {}
        self.metadata: dict[str, str] = {}
        #: Interpreter code decoded from this module, shared by every VM
        #: that runs it (see :mod:`repro.vm.interpreter`).  A function's
        #: code is redecoded when its ``cfg_epoch`` moves; a rewrite
        #: that leaves epochs alone (operand rewrites, moved globals)
        #: after the module may have run must set this back to None.
        self.decoded: object | None = None

    # -- struct types -------------------------------------------------

    def add_struct(self, struct: StructType) -> StructType:
        if struct.name in self.structs:
            raise ValueError(f"duplicate struct %{struct.name}")
        self.structs[struct.name] = struct
        return struct

    def get_struct(self, name: str) -> StructType:
        return self.structs[name]

    # -- globals ------------------------------------------------------

    def add_global(
        self,
        name: str,
        value_type: Type,
        initializer: Constant | None = None,
        is_constant: bool = False,
        section: str = "",
    ) -> GlobalVariable:
        if name in self.globals or name in self.functions:
            raise ValueError(f"duplicate symbol @{name}")
        var = GlobalVariable(name, value_type, initializer, is_constant, section)
        self.globals[name] = var
        return var

    def get_global(self, name: str) -> GlobalVariable:
        return self.globals[name]

    def globals_in_section(self, section: str) -> list[GlobalVariable]:
        return [g for g in self.globals.values() if g.section == section]

    # -- functions ----------------------------------------------------

    def add_function(self, name: str, function_type: FunctionType) -> Function:
        if name in self.functions or name in self.globals:
            raise ValueError(f"duplicate symbol @{name}")
        func = Function(name, function_type, self)
        self.functions[name] = func
        return func

    def declare_function(self, name: str, function_type: FunctionType) -> Function:
        """Add (or fetch) a declaration, e.g. a libc or runtime hook."""
        existing = self.functions.get(name)
        if existing is not None:
            if existing.function_type != function_type:
                raise ValueError(f"conflicting declaration for @{name}")
            return existing
        return self.add_function(name, function_type)

    def get_function(self, name: str) -> Function:
        return self.functions[name]

    def has_function(self, name: str) -> bool:
        return name in self.functions

    def rename_function(self, function: Function, new_name: str) -> None:
        """Rename a function, keeping the symbol table consistent.

        This is the primitive behind the paper's RenameMainPass
        (``Function::setName``).
        """
        if new_name in self.functions or new_name in self.globals:
            raise ValueError(f"duplicate symbol @{new_name}")
        old_name = function.name
        function.set_name(new_name)
        # Preserve insertion order: downstream passes (CoveragePass)
        # assign ids by iteration order, and baseline/ClosureX builds of
        # the same source must agree on them.
        self.functions = {
            (new_name if key == old_name else key): value
            for key, value in self.functions.items()
        }

    def defined_functions(self) -> Iterator[Function]:
        return (f for f in self.functions.values() if not f.is_declaration)

    def instruction_count(self) -> int:
        return sum(f.instruction_count() for f in self.defined_functions())

    def __repr__(self) -> str:
        return (
            f"<Module {self.name!r}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )
