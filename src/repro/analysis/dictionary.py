"""Static auto-dictionary mining over MiniIR.

The dynamic half of the I2S auto-dictionary only sees compares that
actually *execute*; this module supplies the static half by walking a
module once and harvesting every constant a branch could ask the input
to contain:

- constant operands of ``icmp`` instructions (magic numbers, version
  tags) — both byte orders, since the IR compare width says nothing
  about how the file format stores the value;
- ``switch`` case constants (tag dispatch tables);
- constant-string arguments of the ``memcmp``/``strcmp``/``strncmp``
  libc natives (signatures the interpreter never sees as ``icmp``),
  truncated to the constant length operand where one is given.

Tokens come back in deterministic module order, deduplicated, so the
consuming :class:`~repro.fuzzing.i2s.AutoDictionary` is bit-identical
across runs.  Mining is pure IR inspection — no execution, no clock.
"""

from __future__ import annotations

from repro.ir.instructions import Call, Cast, GetElementPtr, ICmp, Switch
from repro.ir.values import ConstantData, ConstantInt, GlobalVariable

#: Libc natives whose constant arguments are worth harvesting.
CMP_NATIVES = ("memcmp", "strcmp", "strncmp")

#: Integer constants below this are one byte — plain havoc territory.
_MIN_VALUE = 0x100


def _constant_global_bytes(value) -> bytes | None:
    """Resolve *value* to the bytes of a constant global, if it is one.

    Looks through pointer casts and zero-offset GEPs, the two shapes
    MiniC codegen produces when passing a string literal or ``const
    char[]`` global to a libc call.
    """
    while True:
        if isinstance(value, Cast):
            value = value.value
        elif isinstance(value, GetElementPtr):
            for index in value.indices:
                if not (isinstance(index, ConstantInt) and index.value == 0):
                    return None
            value = value.base
        else:
            break
    if not isinstance(value, GlobalVariable):
        return None
    initializer = value.initializer
    if isinstance(initializer, ConstantData):
        return initializer.data
    return None


def _int_tokens(value: int, bits: int) -> list[bytes]:
    """Both-endianness encodings of one harvested integer constant."""
    unsigned = value & ((1 << bits) - 1)
    if unsigned < _MIN_VALUE:
        return []
    nbytes = (unsigned.bit_length() + 7) // 8
    for width in (2, 4, 8):
        if width >= nbytes:
            nbytes = width
            break
    little = unsigned.to_bytes(nbytes, "little")
    big = unsigned.to_bytes(nbytes, "big")
    return [little] if little == big else [little, big]


def _literal_int(value):
    """Look through casts to an integer literal, or None.

    MiniC materializes compare literals as ``cast(const)`` — integer
    literals are i64 and get truncated to the compare width — so the
    interesting :class:`ConstantInt` sits one or more casts down.
    """
    while isinstance(value, Cast):
        value = value.value
    return value if isinstance(value, ConstantInt) else None


def mine_dictionary_tokens(module) -> list[bytes]:
    """Harvest dictionary tokens from every function of *module*.

    Returns tokens in deterministic first-seen order (module function
    order, block order, instruction order), deduplicated, each between
    2 and :data:`repro.fuzzing.i2s.DICT_TOKEN_MAX_LEN` bytes.
    """
    # The dynamic capture's cap, looked up at call time: loading
    # repro.analysis must not load repro.fuzzing.
    from repro.fuzzing import i2s

    max_token_len = i2s.DICT_TOKEN_MAX_LEN
    tokens: list[bytes] = []
    seen: set[bytes] = set()

    def keep(token: bytes) -> None:
        if 2 <= len(token) <= max_token_len and token not in seen:
            seen.add(token)
            tokens.append(token)

    def keep_int(constant, other) -> None:
        literal = _literal_int(constant)
        if literal is not None and _literal_int(other) is None:
            for token in _int_tokens(literal.value, literal.type.bits):
                keep(token)

    for function in module.functions.values():
        for block in function.blocks:
            for inst in block.instructions:
                cls = type(inst)
                if cls is ICmp:
                    keep_int(inst.rhs, inst.lhs)
                    keep_int(inst.lhs, inst.rhs)
                elif cls is Switch:
                    value_bits = getattr(inst.value.type, "bits", None)
                    if value_bits is None:
                        continue
                    for case_value, _block in inst.cases:
                        for token in _int_tokens(case_value, value_bits):
                            keep(token)
                elif cls is Call:
                    callee_name = getattr(inst.callee, "name", "")
                    if callee_name not in CMP_NATIVES:
                        continue
                    args = inst.args
                    length: int | None = None
                    if callee_name in ("memcmp", "strncmp") and len(args) > 2:
                        if isinstance(args[2], ConstantInt):
                            length = args[2].value
                    for arg in args[:2]:
                        data = _constant_global_bytes(arg)
                        if data is None:
                            continue
                        if callee_name == "memcmp" and length is not None:
                            keep(data[:length])
                        else:
                            token = data.split(b"\x00", 1)[0]
                            if length is not None:
                                token = token[:length]
                            keep(token)
    return tokens
