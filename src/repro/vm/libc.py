"""Native libc layer of the MiniVM.

Declared-but-undefined functions in a MiniIR module resolve here at
call time, exactly as dynamic linking would resolve libc symbols for a
real binary.  Each native is a Python callable
``fn(vm, args, site) -> int | None`` operating on the VM's memory,
heap, and FD table.

This module also owns the canonical libc *signatures*
(:data:`LIBC_SIGNATURES`) that front-ends use to declare functions.

Notable modelling choices:

- ``exit`` raises :class:`ProcessExit`: in an uninstrumented persistent
  loop this kills the whole process (the paper's motivation for the
  ExitPass).  The ClosureX ExitPass retargets calls to
  ``closurex_exit_hook``, whose native raises :class:`HarnessExit` —
  the ``longjmp`` back into the harness loop.
- ``rand``/``srand`` implement a deterministic LCG whose state is part
  of process state; it is the source of "natural non-determinism" used
  by the correctness experiments (paper §6.1.4, freetype).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.ir.types import FunctionType, I8_PTR, I32, I64, VOID
from repro.vm.errors import (
    CrashSite,
    HarnessExit,
    ProcessExit,
    TrapKind,
    VMTrap,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.interpreter import VM

NativeFn = Callable[["VM", list[int], CrashSite], "int | None"]

FILE_PTR = I8_PTR  # FILE* is modelled as an opaque i8*


LIBC_SIGNATURES: dict[str, FunctionType] = {
    # memory management
    "malloc": FunctionType(I8_PTR, [I64]),
    "calloc": FunctionType(I8_PTR, [I64, I64]),
    "realloc": FunctionType(I8_PTR, [I8_PTR, I64]),
    "free": FunctionType(VOID, [I8_PTR]),
    # memory / string operations
    "memcpy": FunctionType(I8_PTR, [I8_PTR, I8_PTR, I64]),
    "memmove": FunctionType(I8_PTR, [I8_PTR, I8_PTR, I64]),
    "memset": FunctionType(I8_PTR, [I8_PTR, I32, I64]),
    "memcmp": FunctionType(I32, [I8_PTR, I8_PTR, I64]),
    "strlen": FunctionType(I64, [I8_PTR]),
    "strcmp": FunctionType(I32, [I8_PTR, I8_PTR]),
    "strncmp": FunctionType(I32, [I8_PTR, I8_PTR, I64]),
    "strcpy": FunctionType(I8_PTR, [I8_PTR, I8_PTR]),
    "strchr": FunctionType(I8_PTR, [I8_PTR, I32]),
    "atoi": FunctionType(I32, [I8_PTR]),
    # stdio
    "fopen": FunctionType(FILE_PTR, [I8_PTR, I8_PTR]),
    "fclose": FunctionType(I32, [FILE_PTR]),
    "fread": FunctionType(I64, [I8_PTR, I64, I64, FILE_PTR]),
    "fwrite": FunctionType(I64, [I8_PTR, I64, I64, FILE_PTR]),
    "fseek": FunctionType(I32, [FILE_PTR, I64, I32]),
    "ftell": FunctionType(I64, [FILE_PTR]),
    "fgetc": FunctionType(I32, [FILE_PTR]),
    "feof": FunctionType(I32, [FILE_PTR]),
    "rewind": FunctionType(VOID, [FILE_PTR]),
    # process control
    "exit": FunctionType(VOID, [I32]),
    "abort": FunctionType(VOID, []),
    # diagnostics (side-effect sinks)
    "puts": FunctionType(I32, [I8_PTR]),
    "print_int": FunctionType(VOID, [I64]),
    # prng / environment
    "rand": FunctionType(I32, []),
    "srand": FunctionType(VOID, [I32]),
    "time": FunctionType(I64, []),
}

# Per-call base costs in virtual nanoseconds, roughly scaled to the
# relative costs of the real routines.  Byte-proportional parts are
# charged inside the natives.
NATIVE_BASE_COST: dict[str, int] = {
    "malloc": 45,
    "calloc": 55,
    "realloc": 60,
    "free": 35,
    "memcpy": 10,
    "memmove": 12,
    "memset": 8,
    "memcmp": 8,
    "strlen": 6,
    "strcmp": 8,
    "strncmp": 8,
    "strcpy": 10,
    "strchr": 6,
    "atoi": 10,
    # stdio routines that hit the kernel cost syscall-scale time
    # (open ~1-2us, read/close under a microsecond on a warm cache).
    "fopen": 2_500,
    "fclose": 1_200,
    "fread": 1_200,
    "fwrite": 1_200,
    "fseek": 220,
    "ftell": 10,
    "fgetc": 8,
    "feof": 5,
    "rewind": 25,
    "exit": 20,
    "abort": 20,
    "puts": 40,
    "print_int": 20,
    "rand": 8,
    "srand": 5,
}


# ---------------------------------------------------------------------------
# native implementations
# ---------------------------------------------------------------------------


def _poll_fault(vm: "VM", fault_site: str) -> None:
    """Chaos hook: raise an injected transient failure if one is armed.

    The raised exception is *not* a VMError, so it escapes the
    executors' trap classification and reaches the supervision layer
    as an infrastructure fault, never as target behaviour.
    """
    if vm.faults is not None:
        fault = vm.faults.poll(fault_site)
        if fault is not None:
            raise fault


def _native_malloc(vm: "VM", args: list[int], site: CrashSite) -> int:
    _poll_fault(vm, "malloc")
    size = _as_signed64(args[0])
    return vm.heap.malloc(size, site)


def _native_calloc(vm: "VM", args: list[int], site: CrashSite) -> int:
    return vm.heap.calloc(_as_signed64(args[0]), _as_signed64(args[1]), site)


def _native_realloc(vm: "VM", args: list[int], site: CrashSite) -> int:
    return vm.heap.realloc(args[0], _as_signed64(args[1]), site)


def _native_free(vm: "VM", args: list[int], site: CrashSite) -> None:
    vm.heap.free(args[0], site)


def _native_memcpy(vm: "VM", args: list[int], site: CrashSite) -> int:
    dst, src, size = args[0], args[1], _as_signed64(args[2])
    if size < 0:
        raise VMTrap(TrapKind.NEGATIVE_MEMCPY, f"memcpy with size {size}", site)
    if size:
        vm.charge(size // 8)
        vm.memory.write(dst, vm.memory.read(src, size, site), site)
    return dst


def _native_memset(vm: "VM", args: list[int], site: CrashSite) -> int:
    dst, value, size = args[0], args[1] & 0xFF, _as_signed64(args[2])
    if size < 0:
        raise VMTrap(TrapKind.NEGATIVE_MEMCPY, f"memset with size {size}", site)
    if size:
        vm.charge(size // 8)
        vm.memory.write(dst, bytes([value]) * size, site)
    return dst


def _native_memcmp(vm: "VM", args: list[int], site: CrashSite) -> int:
    a = vm.memory.read(args[0], _as_signed64(args[2]), site)
    b = vm.memory.read(args[1], _as_signed64(args[2]), site)
    vm.charge(len(a) // 8)
    if a == b:
        return 0
    return 1 if a > b else 0xFFFFFFFF  # -1 as u32


def _native_strlen(vm: "VM", args: list[int], site: CrashSite) -> int:
    s = vm.memory.read_cstring(args[0], site)
    vm.charge(len(s) // 8)
    return len(s)


def _native_strcmp(vm: "VM", args: list[int], site: CrashSite) -> int:
    a = vm.memory.read_cstring(args[0], site)
    b = vm.memory.read_cstring(args[1], site)
    if a == b:
        return 0
    return 1 if a > b else 0xFFFFFFFF


def _native_strncmp(vm: "VM", args: list[int], site: CrashSite) -> int:
    n = _as_signed64(args[2])
    a = vm.memory.read_cstring(args[0], site)[:n]
    b = vm.memory.read_cstring(args[1], site)[:n]
    if a == b:
        return 0
    return 1 if a > b else 0xFFFFFFFF


def _native_strcpy(vm: "VM", args: list[int], site: CrashSite) -> int:
    s = vm.memory.read_cstring(args[1], site)
    vm.memory.write(args[0], s + b"\x00", site)
    return args[0]


def _native_strchr(vm: "VM", args: list[int], site: CrashSite) -> int:
    s = vm.memory.read_cstring(args[0], site)
    index = s.find(bytes([args[1] & 0xFF]))
    return args[0] + index if index >= 0 else 0


def _native_atoi(vm: "VM", args: list[int], site: CrashSite) -> int:
    s = vm.memory.read_cstring(args[0], site)
    digits = b""
    stripped = s.strip()
    for i, ch in enumerate(stripped):
        if i == 0 and ch in b"+-":
            digits += bytes([ch])
        elif chr(ch).isdigit():
            digits += bytes([ch])
        else:
            break
    try:
        return int(digits) & 0xFFFFFFFF
    except ValueError:
        return 0


def _native_fopen(vm: "VM", args: list[int], site: CrashSite) -> int:
    _poll_fault(vm, "fopen")
    path = vm.memory.read_cstring(args[0], site).decode("latin-1")
    mode = vm.memory.read_cstring(args[1], site).decode("latin-1")
    return vm.fd_table.fopen(path, mode, site)


def _native_fclose(vm: "VM", args: list[int], site: CrashSite) -> int:
    return vm.fd_table.fclose(args[0], site)


def _native_fread(vm: "VM", args: list[int], site: CrashSite) -> int:
    _poll_fault(vm, "fread")
    buf, size, count, handle = args
    file = vm.fd_table.get(handle, site)
    total = _as_signed64(size) * _as_signed64(count)
    if total < 0:
        raise VMTrap(TrapKind.NEGATIVE_MEMCPY, f"fread with size {total}", site)
    data = vm.fd_table.fread(file, total)
    if data:
        vm.charge(len(data) // 8)
        vm.memory.write(buf, data, site)
    return len(data) // _as_signed64(size) if size else 0


def _native_fwrite(vm: "VM", args: list[int], site: CrashSite) -> int:
    buf, size, count, handle = args
    file = vm.fd_table.get(handle, site)
    total = _as_signed64(size) * _as_signed64(count)
    data = vm.memory.read(buf, total, site) if total > 0 else b""
    vm.charge(len(data) // 8)
    return vm.fd_table.fwrite(file, data) // _as_signed64(size) if size else 0


def _native_fseek(vm: "VM", args: list[int], site: CrashSite) -> int:
    file = vm.fd_table.get(args[0], site)
    return vm.fd_table.fseek(file, _as_signed64(args[1]), args[2]) & 0xFFFFFFFF


def _native_ftell(vm: "VM", args: list[int], site: CrashSite) -> int:
    return vm.fd_table.get(args[0], site).position


def _native_fgetc(vm: "VM", args: list[int], site: CrashSite) -> int:
    file = vm.fd_table.get(args[0], site)
    data = vm.fd_table.fread(file, 1)
    return data[0] if data else 0xFFFFFFFF  # EOF == -1


def _native_feof(vm: "VM", args: list[int], site: CrashSite) -> int:
    return 1 if vm.fd_table.get(args[0], site).eof else 0


def _native_rewind(vm: "VM", args: list[int], site: CrashSite) -> None:
    vm.fd_table.fseek(vm.fd_table.get(args[0], site), 0, 0)


def _native_exit(vm: "VM", args: list[int], site: CrashSite) -> None:
    raise ProcessExit(args[0])


def _native_abort(vm: "VM", args: list[int], site: CrashSite) -> None:
    raise VMTrap(TrapKind.ABORT, "abort() called", site)


def _native_puts(vm: "VM", args: list[int], site: CrashSite) -> int:
    text = vm.memory.read_cstring(args[0], site)
    vm.record_output(text.decode("latin-1"))
    return 0


def _native_print_int(vm: "VM", args: list[int], site: CrashSite) -> None:
    vm.record_output(str(_as_signed64(args[0])))


def _native_rand(vm: "VM", args: list[int], site: CrashSite) -> int:
    vm.rand_state = (vm.rand_state * 1103515245 + 12345) & 0x7FFFFFFF
    return vm.rand_state


def _native_srand(vm: "VM", args: list[int], site: CrashSite) -> None:
    vm.rand_state = args[0] & 0x7FFFFFFF


def _native_time(vm: "VM", args: list[int], site: CrashSite) -> int:
    """Wall-clock stand-in: varies from process to process (it is the
    process boot sequence number), the classic source of seed
    non-determinism across fresh executions."""
    return vm.boot_time


def _native_closurex_exit_hook(vm: "VM", args: list[int], site: CrashSite) -> None:
    """ClosureX exitHook: ``longjmp`` back to the harness loop."""
    raise HarnessExit(args[0])


def _native_cov_guard(vm: "VM", args: list[int], site: CrashSite) -> None:
    """SanCov-style coverage guard injected by the CoveragePass."""
    vm.cov_guard(args[0])


def _as_signed64(value: int) -> int:
    value &= (1 << 64) - 1
    return value - (1 << 64) if value >= (1 << 63) else value


NATIVES: dict[str, NativeFn] = {
    "malloc": _native_malloc,
    "calloc": _native_calloc,
    "realloc": _native_realloc,
    "free": _native_free,
    "memcpy": _native_memcpy,
    "memmove": _native_memcpy,
    "memset": _native_memset,
    "memcmp": _native_memcmp,
    "strlen": _native_strlen,
    "strcmp": _native_strcmp,
    "strncmp": _native_strncmp,
    "strcpy": _native_strcpy,
    "strchr": _native_strchr,
    "atoi": _native_atoi,
    "fopen": _native_fopen,
    "fclose": _native_fclose,
    "fread": _native_fread,
    "fwrite": _native_fwrite,
    "fseek": _native_fseek,
    "ftell": _native_ftell,
    "fgetc": _native_fgetc,
    "feof": _native_feof,
    "rewind": _native_rewind,
    "exit": _native_exit,
    "abort": _native_abort,
    "puts": _native_puts,
    "print_int": _native_print_int,
    "rand": _native_rand,
    "srand": _native_srand,
    "time": _native_time,
    "closurex_exit_hook": _native_closurex_exit_hook,
    "__cov_guard": _native_cov_guard,
}

NATIVE_BASE_COST["closurex_exit_hook"] = 25
NATIVE_BASE_COST["__cov_guard"] = 2
