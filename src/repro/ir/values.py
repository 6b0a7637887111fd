"""Core value hierarchy for MiniIR.

Every operand in MiniIR is a :class:`Value`.  Values that consume other
values (instructions, global initialisers) are :class:`User`\\ s and hold
their operands in an ordered list.  Def-use edges are tracked on every
value so that transformation passes can call
:meth:`Value.replace_all_uses_with` — the same primitive the paper's
LLVM passes use (``replaceAllUsesWith``) to redirect calls such as
``malloc`` to ClosureX's wrappers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.ir.types import IntType, PointerType, Type, int_type, pointer_type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.ir.module import Function


class Use:
    """One def-use edge: *user*'s operand number *index* is the used value."""

    __slots__ = ("user", "index")

    def __init__(self, user: "User", index: int):
        self.user = user
        self.index = index

    def __repr__(self) -> str:
        return f"<Use {self.user!r}[{self.index}]>"


class Value:
    """Base class for everything that can appear as an operand."""

    def __init__(self, type_: Type, name: str = ""):
        self.type = type_
        self.name = name
        self.uses: list[Use] = []

    def set_name(self, name: str) -> None:
        self.name = name

    def add_use(self, use: Use) -> None:
        self.uses.append(use)

    def remove_use(self, use: Use) -> None:
        self.uses.remove(use)

    @property
    def num_uses(self) -> int:
        return len(self.uses)

    def users(self) -> Iterator["User"]:
        """Iterate over distinct users of this value."""
        seen: set[int] = set()
        for use in self.uses:
            if id(use.user) not in seen:
                seen.add(id(use.user))
                yield use.user

    def replace_all_uses_with(self, replacement: "Value") -> int:
        """Rewrite every use of ``self`` to use *replacement* instead.

        Returns the number of rewritten uses.  This is the MiniIR
        analogue of LLVM's ``replaceAllUsesWith``.
        """
        if replacement is self:
            return 0
        count = 0
        for use in list(self.uses):
            use.user.set_operand(use.index, replacement)
            count += 1
        return count

    def ref(self) -> str:
        """Short printable reference (e.g. ``%x`` or ``42``)."""
        return f"%{self.name}" if self.name else "%<anon>"

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} {self.ref()}: {self.type}>"


class User(Value):
    """A value that holds operands (instructions, constant expressions)."""

    def __init__(self, type_: Type, name: str = ""):
        super().__init__(type_, name)
        self._operands: list[Value] = []
        self._uses_of_operands: list[Use] = []

    @property
    def operands(self) -> tuple[Value, ...]:
        return tuple(self._operands)

    def add_operand(self, value: Value) -> int:
        index = len(self._operands)
        use = Use(self, index)
        self._operands.append(value)
        self._uses_of_operands.append(use)
        value.add_use(use)
        return index

    def set_operand(self, index: int, value: Value) -> None:
        old = self._operands[index]
        use = self._uses_of_operands[index]
        old.remove_use(use)
        self._operands[index] = value
        value.add_use(use)

    def get_operand(self, index: int) -> Value:
        return self._operands[index]

    def remove_operand(self, index: int) -> Value:
        """Remove operand *index*, re-indexing the remaining use edges.

        Every later :class:`Use` shifts down by one so ``use.index``
        always names the operand slot it occupies — the invariant the
        structural self-check in ``repro.analysis.opt`` relies on.
        Returns the removed value.
        """
        value = self._operands.pop(index)
        use = self._uses_of_operands.pop(index)
        value.remove_use(use)
        for later in self._uses_of_operands[index:]:
            later.index -= 1
        return value

    def drop_all_operands(self) -> None:
        """Detach this user from everything it references."""
        for value, use in zip(self._operands, self._uses_of_operands):
            value.remove_use(use)
        self._operands.clear()
        self._uses_of_operands.clear()

    @property
    def num_operands(self) -> int:
        return len(self._operands)


class Constant(Value):
    """Base class for compile-time constants."""

    def ref(self) -> str:  # pragma: no cover - overridden by subclasses
        return str(self)


class ConstantInt(Constant):
    """An integer constant, stored in unsigned representation."""

    def __init__(self, type_: IntType, value: int):
        super().__init__(type_)
        if not isinstance(type_, IntType):
            raise TypeError("ConstantInt requires an integer type")
        self.value = type_.wrap(value)

    @property
    def signed_value(self) -> int:
        assert isinstance(self.type, IntType)
        return self.type.to_signed(self.value)

    def ref(self) -> str:
        return str(self.signed_value)

    def __str__(self) -> str:
        return f"{self.type} {self.signed_value}"


class ConstantNull(Constant):
    """The null pointer constant for a given pointer type."""

    def __init__(self, type_: PointerType):
        super().__init__(type_)

    def ref(self) -> str:
        return "null"

    def __str__(self) -> str:
        return f"{self.type} null"


class UndefValue(Constant):
    """An undefined value (reads as zero in the VM, flagged in strict mode)."""

    def ref(self) -> str:
        return "undef"

    def __str__(self) -> str:
        return f"{self.type} undef"


class ConstantData(Constant):
    """Raw bytes used as a global initializer (strings, tables)."""

    def __init__(self, type_: Type, data: bytes):
        super().__init__(type_)
        if len(data) != type_.size():
            raise ValueError(
                f"initializer size {len(data)} does not match type size {type_.size()}"
            )
        self.data = bytes(data)

    def ref(self) -> str:
        return f'c"{self.data.hex()}"'

    def __str__(self) -> str:
        return f"{self.type} {self.ref()}"


class ZeroInitializer(Constant):
    """A zero-filled initializer of the given type (``.bss``-style data)."""

    def ref(self) -> str:
        return "zeroinitializer"

    def __str__(self) -> str:
        return f"{self.type} zeroinitializer"


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, type_: Type, name: str, function: "Function | None" = None, index: int = 0):
        super().__init__(type_, name)
        self.function = function
        self.index = index


class GlobalValue(Value):
    """Base for module-level symbols: globals and functions."""

    def __init__(self, type_: Type, name: str):
        super().__init__(type_, name)
        self.section: str = ""

    def set_section(self, section: str) -> None:
        """Assign this symbol to a named binary section.

        Mirrors LLVM's ``GlobalObject::setSection``, which ClosureX's
        GlobalPass uses to move writable globals into
        ``closure_global_section``.
        """
        self.section = section

    def ref(self) -> str:
        return f"@{self.name}"


class GlobalVariable(GlobalValue):
    """A module-level variable.

    ``type`` is the pointer type (globals are used through their
    address, as in LLVM); ``value_type`` is the type of the stored data.
    ``is_constant`` distinguishes immutable data (string literals,
    lookup tables) from mutable program state — the property the
    GlobalPass keys off via ``isConstant()``.
    """

    def __init__(
        self,
        name: str,
        value_type: Type,
        initializer: Constant | None = None,
        is_constant: bool = False,
        section: str = "",
    ):
        super().__init__(pointer_type(value_type), name)
        self.value_type = value_type
        self.initializer = initializer if initializer is not None else ZeroInitializer(value_type)
        self.is_constant = is_constant
        self.section = section or (".rodata" if is_constant else self._default_section())

    def _default_section(self) -> str:
        if isinstance(self.initializer, ZeroInitializer):
            return ".bss"
        return ".data"

    def initial_bytes(self) -> bytes:
        """Concrete initial byte image for the VM loader."""
        init = self.initializer
        size = self.value_type.size()
        if isinstance(init, ZeroInitializer):
            return bytes(size)
        if isinstance(init, ConstantData):
            return init.data
        if isinstance(init, ConstantInt):
            return init.value.to_bytes(size, "little")
        if isinstance(init, ConstantNull):
            return bytes(size)
        raise TypeError(f"unsupported global initializer: {init!r}")

    def __str__(self) -> str:
        kind = "constant" if self.is_constant else "global"
        sect = f', section "{self.section}"' if self.section else ""
        return f"@{self.name} = {kind} {self.value_type} {self.initializer.ref()}{sect}"


def const_int(bits: int, value: int) -> ConstantInt:
    """Convenience constructor for integer constants."""
    return ConstantInt(int_type(bits), value)


def const_i32(value: int) -> ConstantInt:
    return const_int(32, value)


def const_i64(value: int) -> ConstantInt:
    return const_int(64, value)


def null_ptr(pointee: Type) -> ConstantNull:
    return ConstantNull(pointer_type(pointee))
