"""Type system for MiniIR.

MiniIR is a small, typed, LLVM-flavoured intermediate representation.
Types are interned where practical so they can be compared with ``==``
and used as dictionary keys.  Every first-class type knows its size and
alignment in bytes, which the VM's byte-addressable memory model relies
on for loads, stores, and ``getelementptr`` offset computation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable


class Type:
    """Base class for all MiniIR types."""

    def size(self) -> int:
        """Size of a value of this type in bytes."""
        raise NotImplementedError

    def alignment(self) -> int:
        """Required alignment of this type in bytes."""
        return max(1, self.size())

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} {self}>"


class VoidType(Type):
    """The type of functions that return nothing.  Not a value type."""

    _instance: "VoidType | None" = None

    def __new__(cls) -> "VoidType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def size(self) -> int:
        raise TypeError("void has no size")

    def __str__(self) -> str:
        return "void"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VoidType)

    def __hash__(self) -> int:
        return hash("void")


class IntType(Type):
    """An integer type of a fixed bit width (i1, i8, i16, i32, i64).

    Values are stored in the VM as Python ints normalised to the
    unsigned range; signed interpretation happens per-operation, as in
    LLVM.
    """

    VALID_WIDTHS = (1, 8, 16, 32, 64)

    def __init__(self, bits: int):
        if bits not in self.VALID_WIDTHS:
            raise ValueError(f"unsupported integer width: {bits}")
        self.bits = bits

    def size(self) -> int:
        return max(1, self.bits // 8)

    @property
    def unsigned_max(self) -> int:
        return (1 << self.bits) - 1

    @property
    def signed_min(self) -> int:
        return -(1 << (self.bits - 1)) if self.bits > 1 else 0

    @property
    def signed_max(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.bits > 1 else 1

    def wrap(self, value: int) -> int:
        """Normalise *value* into this type's unsigned representation."""
        return value & self.unsigned_max

    def to_signed(self, value: int) -> int:
        """Interpret an unsigned representation as a signed value."""
        value &= self.unsigned_max
        if self.bits > 1 and value >= (1 << (self.bits - 1)):
            value -= 1 << self.bits
        return value

    def __str__(self) -> str:
        return f"i{self.bits}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntType) and other.bits == self.bits

    def __hash__(self) -> int:
        return hash(("int", self.bits))


class PointerType(Type):
    """A typed pointer.  Pointers are 8 bytes in the VM address space."""

    POINTER_SIZE = 8

    def __init__(self, pointee: Type):
        if isinstance(pointee, VoidType):
            # ``void*`` is modelled as ``i8*`` like clang does internally.
            pointee = int_type(8)
        self.pointee = pointee

    def size(self) -> int:
        return self.POINTER_SIZE

    def __str__(self) -> str:
        return f"{self.pointee}*"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PointerType) and other.pointee == self.pointee

    def __hash__(self) -> int:
        return hash(("ptr", self.pointee))


class ArrayType(Type):
    """A fixed-length homogeneous array, e.g. ``[16 x i32]``."""

    def __init__(self, element: Type, count: int):
        if count < 0:
            raise ValueError("array count must be non-negative")
        self.element = element
        self.count = count

    def size(self) -> int:
        return self.element.size() * self.count

    def alignment(self) -> int:
        return self.element.alignment()

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrayType)
            and other.element == self.element
            and other.count == self.count
        )

    def __hash__(self) -> int:
        return hash(("array", self.element, self.count))


class StructType(Type):
    """A named or literal struct with C-like layout (padding included).

    Field offsets follow the usual C struct layout algorithm: each field
    is placed at the next offset aligned to its own alignment, and the
    total size is rounded up to the struct's alignment.
    """

    def __init__(self, name: str, fields: Iterable[tuple[str, Type]]):
        self.name = name
        self.fields: list[tuple[str, Type]] = list(fields)
        self._offsets: list[int] = []
        self._size = 0
        self._align = 1
        self._layout()

    def set_fields(self, fields: Iterable[tuple[str, "Type"]]) -> None:
        """Late field assignment, enabling self-referential structs
        (``struct Node { struct Node *next; }``): register the named
        struct first, then fill in the fields and recompute layout."""
        self.fields = list(fields)
        self._layout()

    def _layout(self) -> None:
        offset = 0
        align = 1
        self._offsets = []
        for _, ftype in self.fields:
            falign = ftype.alignment()
            align = max(align, falign)
            offset = _align_up(offset, falign)
            self._offsets.append(offset)
            offset += ftype.size()
        self._align = align
        self._size = _align_up(offset, align) if self.fields else 0

    def size(self) -> int:
        return self._size

    def alignment(self) -> int:
        return self._align

    def field_index(self, name: str) -> int:
        for i, (fname, _) in enumerate(self.fields):
            if fname == name:
                return i
        raise KeyError(f"struct {self.name} has no field {name!r}")

    def field_offset(self, index: int) -> int:
        return self._offsets[index]

    def field_type(self, index: int) -> Type:
        return self.fields[index][1]

    def __str__(self) -> str:
        return f"%{self.name}"

    def describe(self) -> str:
        body = ", ".join(f"{t} {n}" for n, t in self.fields)
        return f"%{self.name} = type {{ {body} }}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StructType) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("struct", self.name))


class FunctionType(Type):
    """The type of a function: return type plus parameter types."""

    def __init__(self, return_type: Type, params: Iterable[Type], vararg: bool = False):
        self.return_type = return_type
        self.params: list[Type] = list(params)
        self.vararg = vararg

    def size(self) -> int:
        raise TypeError("function types have no size")

    def __str__(self) -> str:
        parts = [str(p) for p in self.params]
        if self.vararg:
            parts.append("...")
        return f"{self.return_type} ({', '.join(parts)})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionType)
            and other.return_type == self.return_type
            and other.params == self.params
            and other.vararg == self.vararg
        )

    def __hash__(self) -> int:
        return hash(("fn", self.return_type, tuple(self.params), self.vararg))


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


@lru_cache(maxsize=None)
def int_type(bits: int) -> IntType:
    """Interned accessor for integer types."""
    return IntType(bits)


@lru_cache(maxsize=None)
def pointer_type(pointee: Type) -> PointerType:
    """Interned accessor for pointer types."""
    return PointerType(pointee)


VOID = VoidType()
I1 = int_type(1)
I8 = int_type(8)
I16 = int_type(16)
I32 = int_type(32)
I64 = int_type(64)
I8_PTR = pointer_type(I8)
