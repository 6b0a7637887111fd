"""Shared test helpers: run inputs under executors, copy a shared
build, record the decoded code a test runs, make every VM keep opcode
counts, kill a checkpointing campaign mid-run, craft crash inputs."""

from __future__ import annotations

import struct

from repro.execution import FreshProcessExecutor
from repro.execution.common import ExecResult
from repro.ir import Module, parse_module, print_module
from repro.sim_os import Kernel
from repro.targets.framework import TargetSpec
from repro.vm import interpreter


def run_fresh(spec: TargetSpec, data: bytes) -> ExecResult:
    """Execute *data* against *spec* in a fresh process."""
    module = spec.build_baseline()
    executor = FreshProcessExecutor(module, spec.image_bytes, Kernel())
    return executor.run(data)


def run_fresh_module(module, image_bytes: int, data: bytes) -> ExecResult:
    executor = FreshProcessExecutor(module, image_bytes, Kernel())
    return executor.run(data)


def private(module: Module) -> Module:
    """A private copy of a (shared) build: code no earlier test decoded
    or compiled, which may be rewritten."""
    return parse_module(print_module(module))


def code_run(monkeypatch) -> dict:
    """Each decoded function (``_FunctionCode``) a VM looks up from here
    on, to run it or a call of it, and whether a VM that keeps no
    profiling counts and traces no edges, which runs compiled code,
    looked it up."""
    codes: dict = {}
    code_for = interpreter.VM._code_for

    def recording(vm, function, nargs):
        code = code_for(vm, function, nargs)
        plain = (vm.opcode_counts is None and vm.libc_counts is None
                 and not vm.trace_edges)
        codes[code] = codes.get(code, False) or plain
        return code

    monkeypatch.setattr(interpreter.VM, "_code_for", recording)
    return codes


def count_opcodes(monkeypatch) -> None:
    """Give every VM made from here on opcode counts (a dict of its own
    where it was given none), so that every call runs an instruction at
    a time and nothing compiles."""
    init = interpreter.VM.__init__

    def counting(vm, *args, **kwargs):
        init(vm, *args, **kwargs)
        if vm.opcode_counts is None:
            vm.opcode_counts = {}

    monkeypatch.setattr(interpreter.VM, "__init__", counting)


def run_killed(campaign, halt_ns: int) -> None:
    """Drive *campaign* as ``run()`` does with a ``checkpoint_path`` — a
    checkpoint after seeding, then one after each
    ``checkpoint_interval_ns`` slice — and drop it unfinished at the
    first queue-cycle boundary past *halt_ns* (before the budget
    deadline), as a killed fuzzer process leaves it: that slice's
    checkpoint is never written, so a resume replays from an earlier
    one."""
    interval_ns = campaign.config.checkpoint_interval_ns
    campaign.start()
    campaign.checkpoint()
    while campaign.step_until(min(campaign.now_ns + interval_ns, halt_ns)):
        if campaign.now_ns >= halt_ns:
            return
        campaign.checkpoint()


# ---------------------------------------------------------------------------
# crafted crash inputs, one per planted bug
# ---------------------------------------------------------------------------


def gpmf_crash_inputs() -> dict[str, bytes]:
    from repro.targets.gpmf_parser import klv, _stream

    scal_zero = klv(b"SCAL", b"l", 4, 1, struct.pack(">I", 0))
    tick = klv(b"TICK", b"L", 4, 1, struct.pack(">I", 1000))
    tock_equal = klv(b"TOCK", b"L", 4, 1, struct.pack(">I", 1000))
    gps5_wild = klv(b"GPS5", b"l", 4, 2, struct.pack(">HH", 900, 0) + bytes(4))
    dvid_back = klv(b"DVID", b"L", 4, 1, struct.pack(">HH", 30, 0))
    accl_narrow = klv(b"ACCL", b"s", 2, 3, bytes(6))
    mtrx_short = klv(b"MTRX", b"f", 4, 2, bytes(8))
    return {
        "gpmf-1": _stream(scal_zero),
        "gpmf-2": _stream(tick, tock_equal),
        "gpmf-3": _stream(gps5_wild),
        "gpmf-4": _stream(dvid_back),
        "gpmf-5": _stream(accl_narrow),
        "gpmf-6": _stream(mtrx_short),
    }


def libbpf_crash_inputs() -> dict[str, bytes]:
    from repro.targets.libbpf import _elf, SHT_PROGBITS, SHT_REL, SHT_SYMTAB, SHT_STRTAB

    prog = bytes(16)
    rel = struct.pack("<II", 0, (1 << 8) | 1)
    symtab = bytes(32)
    # bug 1: REL section present, no SYMTAB anywhere (the PROGBITS
    # section uses entsize 0 so symbol resolution is not attempted first).
    rel_no_symtab = _elf([(SHT_PROGBITS, 1, prog, 0, 0),
                          (SHT_REL, 20, rel, 1, 8)])
    # bug 2: PROGBITS(entsize 8) + SYMTAB, but no STRTAB.
    no_strtab = _elf([(SHT_PROGBITS, 1, prog, 0, 8),
                      (SHT_SYMTAB, 6, symtab, 2, 16)])
    # bug 3: maps section whose payload sits at the end of the file so
    # the off-by-one def read walks past input_len.
    maps_payload = struct.pack("<IIII", 2, 4, 8, 16)
    maps_at_end = _elf([(6, 26, maps_payload, 0, 16)])
    # move the maps section's offset to point at the file tail
    maps_at_end = bytearray(maps_at_end)
    sh_off = len(maps_at_end) - 40
    file_len = len(maps_at_end)
    maps_at_end[sh_off + 16:sh_off + 20] = struct.pack("<I", file_len - 20)
    return {
        "libbpf-1": rel_no_symtab,
        "libbpf-2": no_strtab,
        "libbpf-3": bytes(maps_at_end),
    }


def blosc2_crash_inputs() -> dict[str, bytes]:
    from repro.targets.c_blosc2 import make_frame

    zero_offset = bytearray(make_frame([b"payload0123456"]))
    zero_offset[32:36] = struct.pack("<I", 0)           # chunk offset -> 0
    bad_codec = make_frame([b"0123456789abcdef"], codec=9)
    bad_filter = make_frame([b"0123456789abcdef"], codec=1, filters=0x07)
    bad_trailer = bytearray(make_frame([b"0123456789abcdef"], flags=0x10))
    bad_trailer[8:12] = struct.pack("<I", 8)            # frame_len < 32
    return {
        "blosc2-1": bytes(zero_offset),
        "blosc2-2": bad_codec,
        "blosc2-3": bad_filter,
        "blosc2-4": bytes(bad_trailer),
    }


def md4c_crash_inputs() -> dict[str, bytes]:
    return {
        "md4c-1": b"###\n",
        "md4c-2": b"para [33] text\n",
    }


def all_crash_inputs() -> dict[str, dict[str, bytes]]:
    """target name -> {bug id -> crashing input}."""
    return {
        "gpmf-parser": gpmf_crash_inputs(),
        "libbpf": libbpf_crash_inputs(),
        "c-blosc2": blosc2_crash_inputs(),
        "md4c": md4c_crash_inputs(),
    }
