"""The MiniVM interpreter: executes MiniIR modules.

One :class:`VM` instance models one OS process executing one loaded
binary.  Loading lays global variables out into per-section memory
regions (``.rodata`` / ``.data`` / ``.bss`` / ``closure_global_section``),
exactly the contract ClosureX's GlobalPass and harness rely on.

Execution runs code decoded once per module.  The first call of a
function decodes it: every SSA value gets a slot in a dense register
list, constants and global addresses are folded into the function's
register template, each instruction becomes a closure specialised to
its opcode and operand slots, phis become per-edge moves, successors
are block indices, and the ``__cov_guard`` coverage callback is
inlined (it bumps a cell of the exec's :class:`CoverageMap` and lists
each cell it moves off 0).  The decoded code hangs off the module
(``Module.decoded``), shared by every VM with the same global layout;
whatever rewrites a module in place after it may have run sets that
back to ``None``, and a shared build refuses such a rewrite.

Each instruction form is one source template (``_BINOPS``, ``_LOAD``,
...): its closures come from a factory made from the template once per
process.  A function runs two ways.  A call by a VM that keeps no
profiling counts and traces no edges runs the function compiled, all of
its blocks, to one Python function (:func:`_compile`), which its first
such call makes; any other call (a profiled VM, a traced replay) runs
every segment an instruction at a time on the closures
(:func:`_run_exact`).  In a compiled function the registers are Python
locals, constants and laid-out global addresses are literals, each edge
does its phi moves, a block entered over one edge only is written where
that edge is taken and every other block is a test in one dispatch
loop (in index order), a block's phi charge folds into its first
group's limit check, and the coverage guards index the map by a literal
wherever ``vm.prev_loc`` is known.  A group of segments that would
cross the instruction limit runs an instruction at a time too
(:func:`_run_spilled`, given every register).  A compiled function's
source depends on its decoded code alone, and the executors of a
process share one build of a target (a fleet's inline shards, the paper
tables' trials), hence one decoded code and its compiled functions.
Compiled code looks checked memory and natives up at run time
(``vm.memory.read_int``, ``vm._call_native``), so wrappers on them see
every call, and nothing in it refers back to the module's decoded code,
which stays free of reference cycles: dropping it frees it by refcount.

A factory's source and a compiled function's become code objects in
:func:`_code`, which calls ``compile()`` once per checkout, not once
per process.  Its table holds each code object of the process, keyed by
the sha256 of the Python magic number, ``sys.flags.optimize``, the
filename and the source, so two distinct builds of one program share
each function's code object.  A miss there reads the entry of that key
in ``generated/`` beside this module's own bytecode (``__pycache__``,
or under ``sys.pycache_prefix``), which holds the magic number, the
source's length and the CRC-32 of the marshalled code, then the source,
then that code.  Only an entry that is missing, or whose header, source or code does
not check out, is compiled, and it is written over: a damaged entry
never runs.  A write is a temp file of its process and thread renamed
over the entry, not synced; as for CPython's bytecode, nothing is
written under ``sys.dont_write_bytecode``, an ``OSError`` leaves the
entry unwritten, and past :data:`CODE_CACHE_ENTRIES` entries a write
removes the oldest.  So a process whose sources an earlier process of
the checkout met (a campaign run again, a spawned worker) never runs
the parser.

A load or store whose pointer operand is an alloca of the function,
defined on every path to it, or a laid-out global (a writable one, for
a store), and which fits that region, cannot trap: the alloca's bytes
live until its frame exits, and globals are never unmapped.  Such an
access reads or writes those bytes directly, through the size's
little-endian ``struct`` codec for 1, 2, 4 and 8 bytes
(``repro.vm.memory.UNPACK`` and ``PACK``) and a slice for any other
size, and still counts a store's bytes in ``memory.bytes_written``: a
global's in ``global_regions``, an alloca's in its run's buffer, which
a register slot of the run's holds, at the alloca's offset in it, which
the decoder knows.  Every other access goes through the address space's
checked ``read_int``/``write_int``.  A frame's allocas are mapped and
unmapped last-in-first-out (``AddressSpace.map_stack_run`` and
``unmap_frame``).  Every maximal run of consecutive allocas, one alone
included (MiniC puts a function's at the top of its entry block), ends
its segment, and a compiled function maps it there as one stack object
(``AddressSpace.map_stack_run``, as the layout
``repro.vm.memory.stack_run`` computes places each alloca where mapping
them one at a time would), then writes each alloca's pointer, the
run's base plus the alloca's offset, and puts the run's buffer in the
run's buffer slot.  On the instruction-at-a-time path each alloca maps
on its own (``AddressSpace.map_stack_alloca``): a run's first maps a
run of its own and each later one grows it in place, reserving exactly
the growth in span from the run's aligned base, so every address and
byte is the one ``map_stack_run`` gives and the same direct accesses
read the grown run's buffer at the same offsets.  A run the stack
segment cannot hold gives its charge back and maps its allocas that way
one at a time, so the one that does not fit traps with the count and
cost instruction-at-a-time execution gives it.

All values are Python ints in unsigned representation; pointers are
addresses in the VM's address space.  Every executed instruction
charges virtual nanoseconds to the VM clock, which is what the
simulated-OS cost model and the throughput experiments (Table 5) are
built on.  A block runs as straight-line segments, each charged its
cost and instruction count at once; a segment ends only at an
instruction that can raise (a direct load or store cannot).  One path
runs a segment an instruction at a time (:func:`_run_exact`): every
segment of a call that does not run compiled, and each segment of a
compiled function's group that would cross the instruction limit, so
traps, hangs, the clock and the counts land exactly where
instruction-at-a-time execution puts them.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import itertools
import marshal
import os
import re
import struct
import sys
import threading
import types
import zlib
from typing import NoReturn

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
from repro.ir.module import Function, Module
from repro.ir.types import ArrayType, IntType, StructType
from repro.ir.values import (
    ConstantData,
    ConstantInt,
    ConstantNull,
    GlobalVariable,
    UndefValue,
    Value,
)
from repro.vm.errors import (
    ExecutionLimitExceeded,
    TrapKind,
    VMTrap,
)
from repro.vm.filesystem import FDTable, VirtualFS
from repro.vm.heap import Heap
from repro.vm.libc import NATIVE_BASE_COST, NATIVES, NativeFn
from repro.vm.memory import PACK, UNPACK, AddressSpace, MemoryRegion, RunLayout, stack_run

COVERAGE_MAP_SIZE = 1 << 16


class CoverageMap(bytearray):
    """One exec's AFL-style hitcount map, and ``cells``: each cell the
    guard moved off 0, in first-hit order, so that readers visit only
    the cells the exec touched.

    ``cells`` lives in the instance ``__dict__``, not a slot: before
    Python 3.11 a bytearray pickles its ``__dict__`` alone, and
    checkpoints pickle maps (a quarantined hang's result)."""

    def __init__(self, source: int | bytes = COVERAGE_MAP_SIZE):
        # *source* is the map size, or the counts when unpickling.
        super().__init__(source)
        self.cells: list[int] = []

# Per-opcode virtual-ns costs.  One MiniIR instruction stands for the
# short native sequence clang -O0 emits for it (address computation,
# load/op/store, occasional cache miss), hence several ns each; the
# ratios follow real hardware (ALU < memory < call).
_INST_COST = {
    BinOp: 6, ICmp: 6, Cast: 4, Select: 7, Phi: 5,
    Br: 4, CondBr: 7, Switch: 10, Ret: 6,
    Load: 12, Store: 12, GetElementPtr: 6, Alloca: 10,
    Call: 22, Unreachable: 0,
}

_U64_MASK = (1 << 64) - 1
# A hit count after one more hit: saturating at 0xFF.
_BUMP = bytes(range(1, 256)) + b"\xff"
_MAP_MASK = COVERAGE_MAP_SIZE - 1
# The coverage callback the CoveragePass inserts; decoded code inlines it.
COV_GUARD = "__cov_guard"

# Per-process "boot time" sequence: each VM (process) observes a
# different time(), reproducing the natural cross-process
# non-determinism real programs get from time-seeded PRNGs.
_BOOT_SEQUENCE = itertools.count(1_700_000_000)


class _MutableSite:
    """Allocation-free current-location holder (frozen on trap)."""

    __slots__ = ("function", "block")

    def __init__(self) -> None:
        self.function = "<start>"
        self.block = "<start>"


class VM:
    """One simulated process: loaded module + memory + libc state."""

    MAX_CALL_DEPTH = 192

    def __init__(
        self,
        module: Module,
        fs: VirtualFS | None = None,
        heap_budget: int = 64 << 20,
        max_open_files: int | None = None,
        extra_natives: dict[str, NativeFn] | None = None,
        opcode_counts: dict[str, int] | None = None,
        libc_counts: dict[str, int] | None = None,
        faults=None,
        cmp_observer=None,
    ):
        self.module = module
        # Optional chaos hook (``faults.poll(site)`` -> exception | None)
        # consulted by the malloc/fopen/fread natives; None keeps those
        # paths at one attribute check.
        self.faults = faults
        self.memory = AddressSpace()
        self.heap = Heap(self.memory, heap_budget)
        self.fs = fs if fs is not None else VirtualFS()
        self.fd_table = FDTable(self.fs, max_open_files)
        self.natives: dict[str, NativeFn] = dict(NATIVES)
        if extra_natives:
            self.natives.update(extra_natives)

        # Optional telemetry: caller-owned per-opcode / per-libc-call
        # count dicts (shared across VMs so profiles survive respawns).
        # A VM with either runs an instruction at a time (``_run_exact``);
        # None keeps execution on compiled code.
        self.opcode_counts = opcode_counts
        self.libc_counts = libc_counts
        # Optional input-to-state tap (``repro.fuzzing.i2s.CmpObserver``):
        # icmp/switch execution reports concrete operand pairs when the
        # observer is attached *and* armed.  Without one, compares are
        # decoded with no tap at all; a disarmed one costs one
        # attribute check per compare.
        self.cmp_observer = cmp_observer

        self.cost = 0                       # virtual ns consumed
        self.instructions_executed = 0
        self.instruction_limit = 10_000_000
        self.rand_state = 1
        self.boot_time = next(_BOOT_SEQUENCE)
        self.output: list[str] = []
        self.site = _MutableSite()
        self._call_depth = 0

        # Coverage state (AFL-style shared map semantics).
        self.coverage_map = CoverageMap()
        self.prev_loc = 0
        self.trace_edges = False
        self.edge_trace: list[tuple[str, int]] = []

        # Global layout: symbol -> region, and section -> ordered regions.
        self.global_regions: dict[str, MemoryRegion] = {}
        self.sections: dict[str, list[MemoryRegion]] = {}
        self._loaded = False
        self.load_cost = 0
        # The global layout the module's decoded code was folded
        # against, once this VM has run code.
        self._layout: dict[str, int] | None = None

    def fork(
        self,
        opcode_counts: dict[str, int] | None = None,
        libc_counts: dict[str, int] | None = None,
        faults=None,
        cmp_observer=None,
    ) -> VM:
        """A child process of this one, as ``fork()`` makes it: a new VM
        of the same class over the same module and filesystem, with the
        given hooks and the next boot time, whose address space is a
        private copy of this one's (:meth:`AddressSpace.fork`) with the
        same global layout, natives, libc state and instruction limit.
        Its heap and FD table start empty.  Nothing the child does
        reaches this VM."""
        child = type(self)(
            self.module, self.fs, self.heap.budget_bytes,
            self.fd_table.max_open, opcode_counts=opcode_counts,
            libc_counts=libc_counts, faults=faults, cmp_observer=cmp_observer)
        child.memory = memory = self.memory.fork()
        child.heap = Heap(memory, self.heap.budget_bytes)
        child.natives = dict(self.natives)
        child.instruction_limit = self.instruction_limit
        child.rand_state = self.rand_state
        at = memory.region_at
        child.global_regions = {name: at(region.base)
                                for name, region in self.global_regions.items()}
        child.sections = {section: [at(region.base) for region in regions]
                          for section, regions in self.sections.items()}
        child._loaded = self._loaded
        child.load_cost = self.load_cost
        # The child's layout is this VM's: bind this VM to the module's
        # code once, and every child skips ``_attach_code``.
        self._module_code()
        child._layout = self._layout
        return child

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    def load(self) -> None:
        """Lay out global variables into section-grouped memory regions."""
        if self._loaded:
            raise RuntimeError("module already loaded into this VM")
        by_section: dict[str, list[GlobalVariable]] = {}
        for var in self.module.globals.values():
            by_section.setdefault(var.section, []).append(var)
        for section in sorted(by_section):
            regions: list[MemoryRegion] = []
            for var in by_section[section]:
                size = var.value_type.size()
                region = self.memory.map_region(
                    self.memory.global_segment, size,
                    writable=not var.is_constant, kind="global", tag=var.name,
                )
                region.data[:] = var.initial_bytes()
                self.global_regions[var.name] = region
                regions.append(region)
                # Loading/initialising pages costs time — this is part of
                # what fresh-process execution pays on every test case.
                self.load_cost += 20 + size // 16
            self.sections[section] = regions
        self._loaded = True

    def global_addr(self, name: str) -> int:
        return self.global_regions[name].base

    def section_size(self, section: str) -> int:
        return sum(r.size for r in self.sections.get(section, []))

    def section_bytes(self, section: str) -> bytes:
        """Concatenated contents of a section (snapshot source)."""
        return b"".join(bytes(r.data) for r in self.sections.get(section, []))

    def restore_section(self, section: str, snapshot: bytes) -> int:
        """Write *snapshot* back over a section; returns bytes copied."""
        offset = 0
        for region in self.sections.get(section, []):
            region.data[:] = snapshot[offset:offset + region.size]
            offset += region.size
        return offset

    # ------------------------------------------------------------------
    # argv setup
    # ------------------------------------------------------------------

    def setup_argv(self, argv: list[str]) -> tuple[int, int]:
        """Materialise C-style ``argc``/``argv`` in memory.

        Returns ``(argc, argv_address)`` where ``argv_address`` points
        at an array of ``char*``.
        """
        pointers: list[int] = []
        for i, arg in enumerate(argv):
            data = arg.encode("latin-1") + b"\x00"
            region = self.memory.map_region(
                self.memory.global_segment, len(data), True, "global", f"argv[{i}]"
            )
            region.data[:] = data
            pointers.append(region.base)
        table = self.memory.map_region(
            self.memory.global_segment, 8 * (len(pointers) + 1), True, "global", "argv"
        )
        for i, ptr in enumerate(pointers):
            table.data[i * 8:(i + 1) * 8] = ptr.to_bytes(8, "little")
        return len(argv), table.base

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def charge(self, ns: int) -> None:
        self.cost += ns

    def record_output(self, text: str) -> None:
        if len(self.output) < 4096:
            self.output.append(text)

    def reset_coverage(self) -> None:
        # A fresh map, not the old one zeroed: an ExecResult keeps its
        # exec's map, and a later exec must not overwrite it.
        self.coverage_map = CoverageMap()
        self.prev_loc = 0

    def cov_guard(self, cur_loc: int) -> None:
        """AFL-style edge coverage update: the ``__cov_guard`` native,
        which decoded code inlines (``_cov_guard``)."""
        index = (cur_loc ^ self.prev_loc) & (COVERAGE_MAP_SIZE - 1)
        coverage = self.coverage_map
        value = coverage[index]
        if value != 0xFF:
            if not value:
                coverage.cells.append(index)
            coverage[index] = value + 1
        self.prev_loc = (cur_loc >> 1) & (COVERAGE_MAP_SIZE - 1)
        if self.trace_edges:
            self.edge_trace.append((self.site.function, index))

    def run_function(self, function: Function, args: list[int]) -> int | None:
        """Execute *function* with concrete integer arguments."""
        if function.is_declaration:
            return self._call_native(function.name, args)
        return _execute(self, self._code_for(function, len(args)), list(args))

    def _call_native(self, name: str, args: list[int]) -> int | None:
        native = self.natives.get(name)
        if native is None:
            raise VMTrap(
                TrapKind.ABORT,
                f"unresolved external function @{name} (link error)",
                self.site,
            )
        if self.libc_counts is not None:
            self.libc_counts[name] = self.libc_counts.get(name, 0) + 1
        self.cost += NATIVE_BASE_COST.get(name, 20)
        return native(self, args, self.site)

    def _module_code(self) -> "_ModuleCode":
        """The module's decoded code for this VM's global layout."""
        code = self.module.decoded
        if code is None or code.layout is not self._layout:
            code = self._attach_code()
        return code

    def _code_for(self, function: Function, nargs: int) -> "_FunctionCode":
        """*function*'s decoded code for a call passing *nargs* arguments."""
        code = self.module.decoded
        if code is None or code.layout is not self._layout:
            code = self._attach_code()
        observed = self.cmp_observer is not None
        functions = code.observed if observed else code.plain
        # A call passing fewer arguments than the function has reads
        # the rest as undefined: that is a different decode.
        key = function if nargs >= len(function.args) else (function, nargs)
        decoded = functions.get(key)
        if decoded is None or decoded.epoch != function.cfg_epoch:
            decoded = functions[key] = _decode(
                function, code.layout, observed,
                min(nargs, len(function.args)))
        return decoded

    def _attach_code(self) -> "_ModuleCode":
        """Share the module's decoded code if it was folded against this
        VM's global layout, else start the module's code afresh."""
        layout = {name: region.base
                  for name, region in self.global_regions.items()}
        code = self.module.decoded
        if code is None or code.layout != layout:
            code = self.module.decoded = _ModuleCode(layout)
        self._layout = code.layout
        return code

    # ------------------------------------------------------------------
    # inspection / address recycling
    # ------------------------------------------------------------------

    def stack_region_count(self) -> int:
        return self.memory.region_count("stack")

    def reset_stack_addresses(self) -> None:
        """Rewind the stack segment's bump cursor.

        Real processes reuse the same stack addresses on every
        iteration of a loop (the stack pointer returns to its saved
        position); rewinding the cursor once all frames are gone keeps
        the simulated address assignment equally deterministic, which
        the correctness experiments rely on for bytewise snapshot
        comparison.
        """
        if self.memory.region_count("stack"):
            raise RuntimeError("cannot rewind stack with live frames")
        self.memory.stack_segment.reset()
        self.memory.forget_dead_regions()

    def reset_heap_addresses(self, mark: int | None = None) -> None:
        """Rewind the heap segment's bump cursor to *mark* (or the base).

        Models a real allocator handing out the same addresses again
        after everything was freed.  Called by the ClosureX harness
        after its leak sweep; *mark* preserves initialisation-phase
        chunks.  Never valid for the naive persistent mode, whose
        leaked chunks keep the heap occupied — that address drift is
        part of the pollution ClosureX eliminates.
        """
        target = mark if mark is not None else self.memory.heap_segment.base
        for region in self.heap.live.values():
            if region.base >= target:
                raise RuntimeError(
                    f"cannot rewind heap past live chunk at 0x{region.base:x}"
                )
        self.memory.heap_segment.cursor = target
        self.memory.forget_dead_regions()


# ---------------------------------------------------------------------------
# decoded code
# ---------------------------------------------------------------------------


class _ModuleCode:
    """One module's decoded functions under one global layout: ``plain``
    for VMs without a compare observer, ``observed`` for VMs with one.
    Nothing in it refers back to it, so dropping it frees it at once."""

    __slots__ = ("layout", "plain", "observed")

    def __init__(self, layout: dict[str, int]):
        self.layout = layout
        self.plain: dict[object, _FunctionCode] = {}
        self.observed: dict[object, _FunctionCode] = {}


class _FunctionCode:
    """One decoded function.

    ``tail`` is the register template after the argument slots
    (constants and global addresses filled in, every other slot None
    until written); ``frame`` is the slot holding the frame's runs of
    allocas in the order they were mapped, if it has any, and each run
    of allocas also has one slot, holding the buffer its newest mapping
    is in; ``checked`` are the slots after the arguments some path may
    read before it writes them (each such read is checked).  Each block
    is a tuple ``(name, phis, segments, kind, x, y, z)``:

    - ``phis`` is None or ``(moves, count, cost)``, where ``moves``
      maps the predecessor's block index (-1 on function entry) to the
      closure doing that edge's simultaneous phi assignment;
    - each segment is ``(count, cost, exact)``: its instruction count
      and cost, and per instruction ``(cost, opcode, is_guard, ops)``,
      its closures ``op(r, vm)`` for :func:`_run_exact` (a run of
      allocas, one op each, ends its segment);
    - ``kind`` and ``x, y, z`` are the terminator: ``_BR`` (target),
      ``_CONDBR`` (condition slot, true and false targets),
      ``_SWITCH`` (value slot, case dict, default), ``_RET`` (value
      slot or None) or ``_TRAP`` (an UNREACHABLE trap's message).

    ``compiled`` is the whole function compiled to one Python function
    (:func:`_compile`), made by its first call on a VM that keeps no
    profiling counts and traces no edges; until then it is None.
    """

    __slots__ = ("name", "epoch", "nargs", "tail", "frame", "blocks",
                 "checked", "compiled")

    def __init__(self, name, epoch, nargs, tail, frame, blocks, checked):
        self.name = name
        self.epoch = epoch
        self.nargs = nargs
        self.tail = tail
        self.frame = frame
        self.blocks = blocks
        self.checked = checked
        self.compiled: types.FunctionType | None = None


_BR, _CONDBR, _SWITCH, _RET, _TRAP = range(5)
_TERMINATORS = (Br, CondBr, Switch, Ret, Unreachable)
_VALUES = (BinOp, ICmp, Load, GetElementPtr, Alloca, Cast, Select)
_DIVISIONS = frozenset({"sdiv", "udiv", "srem", "urem"})
_SIGNED = frozenset({"slt", "sle", "sgt", "sge"})


def _execute(vm: VM, code: _FunctionCode, args: list) -> int | None:
    """Run decoded *code* on *vm* with *args*: its compiled function,
    made on the first such call, if the VM keeps no profiling counts and
    traces no edges, else the dispatch loop over its blocks, each
    segment an instruction at a time."""
    if vm._call_depth >= vm.MAX_CALL_DEPTH:
        raise VMTrap(TrapKind.STACK_OVERFLOW,
                     f"call depth exceeded {vm.MAX_CALL_DEPTH}", vm.site)
    nargs = code.nargs
    if len(args) != nargs:
        args = (args + [None] * nargs)[:nargs]
    opcode_counts = vm.opcode_counts
    if opcode_counts is None and vm.libc_counts is None and not vm.trace_edges:
        run = code.compiled
        if run is None:
            run = code.compiled = _compile(code)
        return run(vm, *args)
    vm._call_depth += 1
    site = vm.site
    site.function = code.name
    r = args + code.tail
    frame = code.frame
    if frame is not None:
        r[frame] = []
    try:
        blocks, limit = code.blocks, vm.instruction_limit
        prev, i = -1, 0
        while True:
            name, phis, segments, kind, x, y, z = blocks[i]
            site.block = name
            if phis is not None:
                moves, count, cost = phis
                moves[prev](r, vm)
                vm.instructions_executed += count
                vm.cost += cost
                if opcode_counts is not None:
                    opcode_counts["Phi"] = opcode_counts.get("Phi", 0) + count
            for segment in segments:
                _run_exact(vm, r, segment[2], limit)
            if kind == _CONDBR:
                prev, i = i, (y if r[x] else z)
            elif kind == _BR:
                prev, i = i, x
            elif kind == _RET:
                return None if x is None else r[x]
            elif kind == _SWITCH:
                prev, i = i, y.get(r[x], z)
            else:
                raise VMTrap(TrapKind.UNREACHABLE, x, site)
    finally:
        vm._call_depth -= 1
        if frame is not None:
            vm.memory.unmap_frame(r[frame])


def _run_exact(vm: VM, r: list, exact: tuple, limit: int) -> None:
    """Run a segment an instruction at a time: count, check *limit*,
    charge and bump the attached profiling counts, then execute.  It
    returns unless the count crosses *limit*.  Only a segment's last
    instruction can call out and move the count, so a segment whose
    total crosses *limit* raises by its last instruction at the latest
    (a run of allocas ends a segment, and may trap on any of them)."""
    opcode_counts = vm.opcode_counts
    libc_counts = vm.libc_counts
    for cost, name, guard, ops in exact:
        vm.instructions_executed += 1
        if vm.instructions_executed > limit:
            raise ExecutionLimitExceeded(limit)
        vm.cost += cost
        if opcode_counts is not None:
            opcode_counts[name] = opcode_counts.get(name, 0) + 1
        if guard and libc_counts is not None:
            libc_counts[COV_GUARD] = libc_counts.get(COV_GUARD, 0) + 1
        for op in ops:
            op(r, vm)


class _Crossing(Exception):
    """Raised by a compiled function's group of segments that would
    cross the instruction limit, and caught by the function itself,
    which runs that group an instruction at a time
    (:func:`_run_spilled`)."""

    def __init__(self, group: int):
        super().__init__(group)
        self.group = group


def _run_spilled(vm: VM, group: tuple, limit: int, values: dict) -> NoReturn:
    """Run a compiled function's group of segments that would cross
    *limit* an instruction at a time (:func:`_run_exact`), which raises
    (one of its segments crosses the limit).  *group* is ``(template,
    segments, count, cost)``: charge *count* and *cost* first (the
    block's phis), then run over the register *template* with every
    register local of *values*, the function's locals (``r<slot>``),
    copied in."""
    template, segments, count, cost = group
    vm.instructions_executed += count
    vm.cost += cost
    r = list(template)
    for name, value in values.items():
        if name[0] == "r" and name[1:].isdigit():
            r[int(name[1:])] = value
    for segment in segments:
        _run_exact(vm, r, segment[2], limit)
    raise AssertionError("a group that crosses the limit returned")


def _bad_operand(value: Value, site) -> Exception:
    """What reading *value* raises when it holds no integer."""
    cls = type(value)
    if cls is GlobalVariable:          # not laid out in this process
        return KeyError(value.name)
    if cls is ConstantData:
        return VMTrap(TrapKind.ABORT, "constant data used as scalar", site)
    return VMTrap(TrapKind.ABORT, f"use of undefined value {value.ref()}", site)


# ---------------------------------------------------------------------------
# the decoder
# ---------------------------------------------------------------------------


def _successors(inst) -> list:
    cls = type(inst)
    if cls is Br:
        return [inst.target]
    if cls is CondBr:
        return [inst.if_true, inst.if_false]
    if cls is Switch:
        return [inst.default] + [block for _, block in inst.cases]
    return []


def _decode(function: Function, layout: dict[str, int], observed: bool,
            nargs: int) -> _FunctionCode:
    """Decode *function* for VMs whose globals sit at *layout*, with or
    without a compare tap; the first *nargs* arguments are passed."""
    return _Decoder(function, layout, observed).decode(nargs)


class _Decoder:
    """One function's decoding state: its blocks by index, each split
    into leading phis and a body through its first terminator, the
    register slot of every value it defines (and one of each run of
    allocas, for its buffer), and the register template (constants and
    global addresses are appended as they are used)."""

    def __init__(self, function: Function, layout: dict[str, int],
                 observed: bool):
        self.function = function
        self.epoch = function.cfg_epoch
        self.layout = layout
        self.observed = observed
        # The function's blocks, then any block outside it that a
        # terminator reaches (the loop visits blocks appended as it runs).
        self.blocks = list(function.blocks)
        self.index = {block: i for i, block in enumerate(self.blocks)}
        self.slots: dict[Value, int] = {arg: i for i, arg in enumerate(function.args)}
        self.template: list = [None] * len(self.slots)
        # Each alloca's run's buffer slot and the run's layout up to that
        # alloca, and the last alloca of each run.
        self.runs: dict[Alloca, tuple[int, RunLayout]] = {}
        self.ends: set[Alloca] = set()
        self.heads, self.bodies, self.succs = [], [], []
        for block in self.blocks:
            insts = block.instructions
            k = 0
            while k < len(insts) and isinstance(insts[k], Phi):
                k += 1
            body = []
            for inst in insts[k:]:
                body.append(inst)
                if type(inst) in _TERMINATORS:
                    break
            targets = _successors(body[-1]) if body else []
            for target in targets:
                if target not in self.index:
                    self.index[target] = len(self.blocks)
                    self.blocks.append(target)
            self.heads.append(insts[:k])
            self.bodies.append(body)
            self.succs.append([self.index[target] for target in targets])
            for inst in insts[:k] + [inst for inst in body if type(inst) in _VALUES
                                     or type(inst) is Call and not inst.type.is_void]:
                self.slots[inst] = self.new_slot()
            self.find_runs(body)
        self.consts: dict[int, int] = {}
        self.undefined: int | None = None   # a slot nothing ever writes
        self.checked: set[int] = set()      # slots read through a check
        self.frame: int | None = None

    def find_runs(self, body: list) -> None:
        """Lay out each maximal run of consecutive allocas in *body*,
        one alone included (:func:`stack_run`), and give it a buffer
        slot."""
        run: list[Alloca] = []
        for inst in body + [None]:
            if type(inst) is Alloca:
                run.append(inst)
                continue
            if run:
                data = self.new_slot()
                sizes = [alloca.allocation_size() for alloca in run]
                tags = [f"{self.function.name}.{alloca.name}" for alloca in run]
                for k, alloca in enumerate(run, 1):
                    self.runs[alloca] = data, stack_run(sizes[:k], tags[:k])
                self.ends.add(run[-1])
            run = []

    def decode(self, nargs: int) -> _FunctionCode:
        known_in, known_out, preds = self.known_values(nargs)
        blocks = tuple(self.block(b, known_in[b], known_out, preds[b])
                       for b in range(len(self.blocks)))
        n = len(self.function.args)
        checked = tuple(sorted(slot for slot in self.checked if slot >= n))
        return _FunctionCode(self.function.name, self.epoch, n,
                             self.template[n:], self.frame, blocks, checked)

    def known_values(self, nargs: int):
        """Which slots hold a value on every path to each block's entry
        and exit, as bitsets, and each block's predecessors.  A use
        outside them reads through a check that raises what reading an
        undefined value raises."""
        count = len(self.blocks)
        slots = self.slots
        defs = [sum(1 << slots[inst] for inst in self.heads[b] + self.bodies[b]
                    if inst in slots) for b in range(count)]
        preds: list[list[int]] = [[] for _ in range(count)]
        order, seen = [0], {0}
        for b in order:
            for s in self.succs[b]:
                if b not in preds[s]:
                    preds[s].append(b)
                if s not in seen:
                    seen.add(s)
                    order.append(s)
        full = (1 << len(self.template)) - 1
        known_in = [full] * count
        known_in[0] = (1 << nargs) - 1
        known_out = [known_in[b] | defs[b] for b in range(count)]
        changed = True
        while changed:
            changed = False
            for b in order[1:]:
                bits = full
                for p in preds[b]:
                    bits &= known_out[p]
                if bits != known_in[b]:
                    known_in[b], known_out[b] = bits, bits | defs[b]
                    changed = True
        return known_in, known_out, preds

    def new_slot(self, value: int | None = None) -> int:
        self.template.append(value)
        return len(self.template) - 1

    def constant(self, value: int) -> int:
        slot = self.consts.get(value)
        if slot is None:
            slot = self.consts[value] = self.new_slot(value)
        return slot

    def use(self, value: Value, known: int) -> tuple[int, Value | None]:
        """(slot, *value* if reading it needs a check, else None)."""
        cls = type(value)
        if cls is ConstantInt:
            return self.constant(value.value), None
        if cls is ConstantNull or cls is UndefValue:
            return self.constant(0), None
        if cls is GlobalVariable and value.name in self.layout:
            return self.constant(self.layout[value.name]), None
        slot = self.slots.get(value)
        if slot is None:                  # never defined in this frame
            if self.undefined is None:
                self.undefined = self.new_slot()
            slot = self.undefined
        elif known >> slot & 1:
            return slot, None
        self.checked.add(slot)
        return slot, value

    def direct(self, ptr: Value, size: int, known: int, store: bool):
        """The bytes an access of *size* bytes through *ptr* reads or
        writes without a check: ``(data slot, offset, None)`` for an
        alloca of this frame defined on every path here (its run's
        buffer, and its offset in it), ``(None, 0, name)`` for a
        laid-out global (a writable one, for a store), or None when the
        access takes the checked path.  A zero-size access does too: on
        a zero-size region, which contains no address, it traps."""
        cls = type(ptr)
        if cls is Alloca:
            slot = self.slots.get(ptr)
            if (slot is not None and known >> slot & 1
                    and 0 < size <= ptr.allocation_size()):
                data, layout = self.runs[ptr]
                return data, layout.offsets[-1], None
        elif (cls is GlobalVariable and ptr.name in self.layout
                and 0 < size <= ptr.value_type.size()
                and not (store and ptr.is_constant)):
            return None, 0, ptr.name
        return None

    def block(self, b: int, known: int, known_out: list, preds: list) -> tuple:
        block = self.blocks[b]
        for phi in self.heads[b]:
            known |= 1 << self.slots[phi]
        segments, exact = [], []
        n = cost = 0
        terminator = (_TRAP, f"block %{block.name} fell through without "
                      "a terminator", None, None)
        for inst in self.bodies[b]:
            checks: list[tuple[int, Value]] = []
            inst_ops, raises, guard, inst_cost, ends = self.instruction(
                inst, block.name, known, checks)
            if checks:
                inst_ops[:0] = [_form(_CHECK)(slot=slot, value=value)
                                for slot, value in checks]
                raises = True
            n += 1
            cost += inst_cost
            exact.append((inst_cost, type(inst).__name__, guard, tuple(inst_ops)))
            if inst in self.slots:
                known |= 1 << self.slots[inst]
            if type(inst) is Alloca:
                # A run of allocas ends its segment at its last alloca,
                # where a compiled function maps the run as one.
                raises = inst in self.ends
            if ends is not None:
                terminator = ends
            if raises or ends is not None:
                segments.append((n, cost, tuple(exact)))
                exact = []
                n = cost = 0
        if n:
            segments.append((n, cost, tuple(exact)))
        phis = None
        if self.heads[b]:
            count = len(self.heads[b])
            phis = (self.moves(b, known_out, preds), count, _INST_COST[Phi] * count)
        return (block.name, phis, tuple(segments)) + terminator

    def moves(self, b: int, known_out: list, preds: list) -> dict:
        """Block *b*'s phi assignment per predecessor index."""
        heads = self.heads[b]
        targets = [self.slots[phi] for phi in heads]
        moves = {-1: _form(_ENTRY_PHI)()} if b == 0 else {}
        for p in preds:
            pred = self.blocks[p]
            arms, missing = [], None
            for phi in heads:
                arm = next((value for value, source in phi.incoming()
                            if source is pred), None)
                if arm is None:
                    missing = f"phi has no incoming value for block {pred.name}"
                    break
                arms.append(self.use(arm, known_out[p]))
            moves[p] = _moves(targets, arms, missing)
        return moves

    def instruction(self, inst, block_name: str, known: int, checks: list):
        """``(ops, raises, is_guard, cost, terminator)`` for *inst*;
        operands that need a check are appended to *checks*, and
        *terminator* is None or the block's ``(kind, x, y, z)``."""
        cls = type(inst)
        slots, index = self.slots, self.index

        def take(value: Value) -> int:
            slot, check = self.use(value, known)
            if check is not None:
                checks.append((slot, check))
            return slot

        cost = _INST_COST.get(cls, 2)
        if cls is BinOp:
            lhs, rhs = take(inst.lhs), take(inst.rhs)
            op = _binop(inst.op, inst.type.bits, slots[inst], lhs, rhs)
            return [op], inst.op in _DIVISIONS, False, cost, None
        if cls is ICmp:
            lhs, rhs = take(inst.lhs), take(inst.rhs)
            ops = ([_form(_OBSERVE_ICMP)(inst=inst, a=lhs, b=rhs)]
                   if self.observed else [])
            lhs_type = inst.lhs.type
            signed_bits = (lhs_type.bits if inst.predicate in _SIGNED
                           and isinstance(lhs_type, IntType) else 0)
            ops.append(_icmp(inst.predicate, signed_bits, slots[inst], lhs, rhs))
            return ops, False, False, cost, None
        if cls is Load:
            size = inst.type.size()
            region = self.direct(inst.ptr, size, known, False)
            if region is not None:
                data, off, name = region
                unpack = UNPACK.get(size)
                if unpack is None:
                    template = _LOAD_FRAME_SLICE if name is None else _LOAD_GLOBAL_SLICE
                else:
                    template = _LOAD_FRAME if name is None else _LOAD_GLOBAL
                op = _form(template)(d=slots[inst], data=data, off=off,
                                     end=off + size, name=name, size=size,
                                     unpack=unpack)
                return [op], False, False, cost, None
            op = _form(_LOAD)(d=slots[inst], p=take(inst.ptr), size=size)
            return [op], True, False, cost, None
        if cls is Store:
            size = inst.value.type.size()
            region = self.direct(inst.ptr, size, known, True)
            if region is not None:
                data, off, name = region
                pack = PACK.get(size)
                if pack is None:
                    template = _STORE_FRAME_SLICE if name is None else _STORE_GLOBAL_SLICE
                else:
                    template = _STORE_FRAME if name is None else _STORE_GLOBAL
                op = _form(template)(data=data, off=off, end=off + size,
                                     name=name, v=take(inst.value), size=size,
                                     m=(1 << (size * 8)) - 1, pack=pack)
                return [op], False, False, cost, None
            ptr, value = take(inst.ptr), take(inst.value)
            op = _form(_STORE)(p=ptr, v=value, size=size)
            return [op], True, False, cost, None
        if cls is GetElementPtr:
            return [self.gep(inst, take)], False, False, cost, None
        if cls is Call:
            callee, args = inst.callee, inst.args
            if (callee.is_declaration and callee.name == COV_GUARD
                    and len(args) == 1 and type(args[0]) is ConstantInt):
                cost += NATIVE_BASE_COST.get(COV_GUARD, 20)
                location = args[0].value
                op = _form(_COV_GUARD)(location=location & _MAP_MASK,
                                       following=(location >> 1) & _MAP_MASK)
                return [op], False, True, cost, None
            arg_slots = tuple(take(arg) for arg in args)
            dest = None if inst.type.is_void else slots[inst]
            op = _call(callee, arg_slots, dest, self.function.name, block_name)
            return [op], True, False, cost, None
        if cls is Alloca:
            if self.frame is None:
                self.frame = self.new_slot()
            size = inst.allocation_size()
            data, layout = self.runs[inst]
            op = _form(_ALLOCA)(
                d=slots[inst], frame=self.frame, data=data, layout=layout,
                offset=layout.offsets[-1],
                message=f"stack exhausted by alloca of {size} bytes")
            return [op], True, False, cost, None
        if cls is Cast:
            value = take(inst.value)
            op = _cast(inst.op, inst.value.type, inst.type, slots[inst], value)
            return [op], False, False, cost, None
        if cls is Select:
            c, t, f = (self.use(inst.cond, known), self.use(inst.if_true, known),
                       self.use(inst.if_false, known))
            if c[1] is None and t[1] is None and f[1] is None:
                op = _form(_SELECT)(d=slots[inst], c=c[0], t=t[0], f=f[0])
                return [op], False, False, cost, None
            op = _form(_SELECT_CHECKED)(d=slots[inst], c=c[0], cv=c[1], t=t[0],
                                        tv=t[1], f=f[0], fv=f[1])
            return [op], True, False, cost, None
        if cls is Br:
            return [], False, False, cost, (_BR, index[inst.target], None, None)
        if cls is CondBr:
            ends = (_CONDBR, take(inst.cond), index[inst.if_true], index[inst.if_false])
            return [], False, False, cost, ends
        if cls is Switch:
            value = take(inst.value)
            cases: dict[int, int] = {}
            for case_value, case_block in inst.cases:
                cases.setdefault(case_value, index[case_block])
            ops = [_form(_OBSERVE_SWITCH)(inst=inst, v=value)] if self.observed else []
            return ops, False, False, cost, (_SWITCH, value, cases, index[inst.default])
        if cls is Ret:
            value = None if inst.value is None else take(inst.value)
            return [], False, False, cost, (_RET, value, None, None)
        if cls is Unreachable:
            return [], False, False, cost, (_TRAP, "unreachable executed", None, None)
        # A phi after a non-phi, or an instruction the VM does not know.
        return ([_form(_ABORT)(message=f"unknown instruction {inst}")], True,
                False, cost, None)

    def gep(self, inst: GetElementPtr, take):
        """The address closure, constant indices folded into one offset."""
        base = take(inst.base)
        current = inst.base.type.pointee
        offset = 0
        terms = []

        def scaled(value: Value, scale: int) -> None:
            nonlocal offset
            slot = take(value)
            index_type = value.type
            folded = self.template[slot]
            if folded is not None:
                if isinstance(index_type, IntType):
                    folded = index_type.to_signed(folded)
                offset += folded * scale
            elif isinstance(index_type, IntType):
                terms.append((slot, index_type.unsigned_max,
                              _sign_bit(index_type.bits), scale))
            else:
                terms.append((slot, -1, 0, scale))

        indices = inst.indices
        scaled(indices[0], current.size())
        for value in indices[1:]:
            if isinstance(current, ArrayType):
                scaled(value, current.element.size())
                current = current.element
            else:
                assert isinstance(current, StructType)
                offset += current.field_offset(value.value)
                current = current.field_type(value.value)
        return _gep(self.slots[inst], base, offset, tuple(terms))


# ---------------------------------------------------------------------------
# instruction forms: one source template each
# ---------------------------------------------------------------------------
#
# A template is the Python source of one instruction form over the
# register list ``r`` and the VM ``vm``, with ``{field}`` for each
# operand.  Its closure ``op(r, vm)`` comes from a factory compiled once
# per template, whose parameters are the fields; a compiled function
# inlines the same source with each register ``r[{field}]`` its local
# or its constant's literal, ``vm.site`` and ``vm.cmp_observer`` its
# per-call locals, and each other field written as a literal, or bound
# as a parameter of the function when it has no literal form (a callee,
# an IR value, a case dict).  It writes the guard its own way
# (``_Writer.guard``), and a segment's run of allocas as one mapping
# (``_Writer.allocas``).


def _sign_bit(bits: int) -> int:
    """XOR-then-subtract constant turning a masked value signed (an i1
    reads as 0 or 1, as ``IntType.to_signed`` has it)."""
    return 1 << (bits - 1) if bits > 1 else 0


_FIELD = re.compile(r"\{(\w+)\}")
# template -> its closure factory
_FORMS: dict[str, types.FunctionType] = {}
# id of a closure's code object (kept alive by its factory) -> its
# template; the closure's cells hold the fields named in the code
# object's ``co_freevars``
_TEMPLATES: dict[int, str] = {}


def _form(template: str):
    """*template*'s closure factory: called with the template's fields
    by name (extra ones are ignored), it returns the closure."""
    make = _FORMS.get(template)
    if make is None:
        make = _FORMS[template] = _factory(template)
    return make


def _factory(template: str):
    names = list(dict.fromkeys(_FIELD.findall(template)))
    body = _FIELD.sub(lambda match: match.group(1), template)
    source = (f"def make({', '.join(names + ['**_'])}):\n"
              "    def run(r, vm):\n"
              + "".join(f"        {line}\n" for line in body.split("\n"))
              + "    return run\n")
    namespace: dict = {}
    exec(_code(source, "<instruction form>"), globals(), namespace)
    make = namespace["make"]
    _TEMPLATES[id(_code_const(make.__code__))] = template
    return make


def _fields(op) -> tuple[str, dict]:
    """The template closure *op* was made from, and its fields."""
    code = op.__code__
    return _TEMPLATES[id(code)], dict(zip(
        code.co_freevars, [cell.cell_contents for cell in op.__closure__]))


def _code_const(code: types.CodeType) -> types.CodeType:
    """The code object of the one function *code* defines."""
    return next(const for const in code.co_consts
                if isinstance(const, types.CodeType))


# ---------------------------------------------------------------------------
# generated code
# ---------------------------------------------------------------------------

# Key of a generated source -> its code object, shared by every caller
# (of any module, in any VM) with the same source.
_CODE: dict[str, types.CodeType] = {}
# The code cache of the checkout: beside this module's own bytecode, so
# ``sys.pycache_prefix`` applies to it as to that.
_CACHE_DIR = os.path.join(
    os.path.dirname(importlib.util.cache_from_source(__file__)), "generated")
# Entries the code cache keeps: a write past it removes the oldest.
CODE_CACHE_ENTRIES = 4096
_MAGIC = importlib.util.MAGIC_NUMBER
# An entry's header: the magic number, then the source's length and
# the CRC-32 of the marshalled code; the source and that code follow.
_HEADER = struct.Struct(f"<{len(_MAGIC)}sII")


def _code(source: str, filename: str) -> types.CodeType:
    """*source* compiled as module code named *filename*: from this
    process's table, else from the checkout's code cache, else from
    ``compile()``, written to the cache for the next process."""
    text = source.encode()
    key = hashlib.sha256(b"\0".join((
        _MAGIC, b"%d" % sys.flags.optimize, filename.encode(), text,
    ))).hexdigest()
    code = _CODE.get(key)
    if code is None:
        path = os.path.join(_CACHE_DIR, key)
        code = _load(path, text)
        if code is None:
            code = compile(source, filename, "exec")
            _store(path, text, code)
        _CODE[key] = code
    return code


def _load(path: str, text: bytes) -> types.CodeType | None:
    """The code of the entry at *path*, if it holds *text* and its
    header and code check out."""
    try:
        with open(path, "rb") as file:
            entry = file.read()
    except OSError:
        return None
    if len(entry) < _HEADER.size:
        return None
    magic, size, checksum = _HEADER.unpack_from(entry)
    start = _HEADER.size + size
    payload = entry[start:]
    if (magic != _MAGIC or size != len(text)
            or entry[_HEADER.size:start] != text
            or zlib.crc32(payload) != checksum):
        return None
    try:
        code = marshal.loads(payload)
    except (EOFError, ValueError, TypeError):
        return None
    return code if isinstance(code, types.CodeType) else None


def _store(path: str, text: bytes, code: types.CodeType) -> None:
    """Write *code* compiled from *text* to the entry at *path*, unless
    Python writes no bytecode; a cache that cannot take it goes
    without."""
    if sys.dont_write_bytecode:
        return
    payload = marshal.dumps(code)
    temp = f"{path}.{os.getpid()}.{threading.get_ident()}"
    try:
        os.makedirs(_CACHE_DIR, exist_ok=True)
        with open(temp, "wb") as file:
            file.write(_HEADER.pack(_MAGIC, len(text), zlib.crc32(payload)))
            file.write(text)
            file.write(payload)
        os.replace(temp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(temp)
        return
    with contextlib.suppress(OSError):
        _prune()


def _prune() -> None:
    """Remove the oldest entries past :data:`CODE_CACHE_ENTRIES`."""
    names = os.listdir(_CACHE_DIR)
    if len(names) <= CODE_CACHE_ENTRIES:
        return
    aged = []
    for name in names:
        path = os.path.join(_CACHE_DIR, name)
        with contextlib.suppress(OSError):
            aged.append((os.stat(path).st_mtime_ns, path))
    aged.sort()
    for _mtime, path in aged[:len(aged) - CODE_CACHE_ENTRIES]:
        with contextlib.suppress(OSError):
            os.remove(path)


_BINOPS = {
    "add": "r[{d}] = (r[{a}] + r[{b}]) & {m}",
    "sub": "r[{d}] = (r[{a}] - r[{b}]) & {m}",
    "mul": "r[{d}] = (r[{a}] * r[{b}]) & {m}",
    "and": "r[{d}] = r[{a}] & r[{b}]",
    "or": "r[{d}] = r[{a}] | r[{b}]",
    "xor": "r[{d}] = r[{a}] ^ r[{b}]",
    "shl": "shift = r[{b}]\n"
           "r[{d}] = (r[{a}] << shift) & {m} if shift < {bits} else 0",
    "lshr": "shift = r[{b}]\n"
            "r[{d}] = r[{a}] >> shift if shift < {bits} else 0",
    "ashr": "r[{d}] = ((((r[{a}] & {m}) ^ {h}) - {h}) >> min(r[{b}], {top})) & {m}",
    "udiv": "divisor = r[{b}]\n"
            "if divisor == 0:\n"
            "    raise VMTrap(TrapKind.DIV_BY_ZERO, {message}, vm.site)\n"
            "r[{d}] = r[{a}] // divisor",
    "urem": "divisor = r[{b}]\n"
            "if divisor == 0:\n"
            "    raise VMTrap(TrapKind.DIV_BY_ZERO, {message}, vm.site)\n"
            "r[{d}] = r[{a}] % divisor",
    "sdiv": "if r[{b}] == 0:\n"
            "    raise VMTrap(TrapKind.DIV_BY_ZERO, {message}, vm.site)\n"
            "x, y = ((r[{a}] & {m}) ^ {h}) - {h}, ((r[{b}] & {m}) ^ {h}) - {h}\n"
            "quotient = abs(x) // abs(y)\n"
            "r[{d}] = (quotient if (x < 0) == (y < 0) else -quotient) & {m}",
}
# Any other opcode is srem.
_SREM = ("if r[{b}] == 0:\n"
         "    raise VMTrap(TrapKind.DIV_BY_ZERO, {message}, vm.site)\n"
         "x, y = ((r[{a}] & {m}) ^ {h}) - {h}, ((r[{b}] & {m}) ^ {h}) - {h}\n"
         "remainder = abs(x) % abs(y)\n"
         "r[{d}] = (remainder if x >= 0 else -remainder) & {m}")

# Predicate -> Python comparison; any other predicate is uge.
_COMPARE = {"eq": "==", "ne": "!=", "slt": "<", "ult": "<", "sle": "<=",
            "ule": "<=", "sgt": ">", "ugt": ">"}
_ICMP = "r[{d}] = 1 if r[{a}] %s r[{b}] else 0"
# Flipping the sign bit of the masked values orders them as their
# two's-complement readings.
_ICMP_SIGNED = "r[{d}] = 1 if ((r[{a}] & {m}) ^ {h}) %s ((r[{b}] & {m}) ^ {h}) else 0"

_COPY = "r[{d}] = r[{a}]"                                  # bitcast, inttoptr
_SEXT = "r[{d}] = (((r[{a}] & {sm}) ^ {h}) - {h}) & {m}"
_MASK = "r[{d}] = r[{a}] & {m}"                            # trunc, zext, ptrtoint

_SELECT = "r[{d}] = r[{t}] if r[{c}] else r[{f}]"
# Reads only the arm it picks, each read checked: *cv*, *tv* and *fv*
# are the condition's and the arms' values, or None where no check is
# needed.
_SELECT_CHECKED = ("flag = r[{c}]\n"
                   "if flag is None:\n"
                   "    raise _bad_operand({cv}, vm.site)\n"
                   "result = r[{t}] if flag else r[{f}]\n"
                   "if result is None:\n"
                   "    raise _bad_operand({tv} if flag else {fv}, vm.site)\n"
                   "r[{d}] = result")

_LOAD = "r[{d}] = vm.memory.read_int(r[{p}], {size}, vm.site)"
_STORE = "vm.memory.write_int(r[{p}], r[{v}], {size}, vm.site)"
# Loads and stores that cannot trap: through the buffer in an alloca's
# run's data slot at the alloca's offset in it, or a laid-out global's
# bytes; a store's bytes still count.  A scalar size goes through its
# codec (``repro.vm.memory.UNPACK`` and ``PACK``), any other through a
# slice.
_LOAD_FRAME = "r[{d}] = {unpack}(r[{data}], {off})[0]"
_LOAD_GLOBAL = "r[{d}] = {unpack}(vm.global_regions[{name}].data)[0]"
_STORE_FRAME = ("{pack}(r[{data}], {off}, r[{v}] & {m})\n"
                "vm.memory.bytes_written += {size}")
_STORE_GLOBAL = ("{pack}(vm.global_regions[{name}].data, 0, r[{v}] & {m})\n"
                 "vm.memory.bytes_written += {size}")
_LOAD_FRAME_SLICE = 'r[{d}] = int.from_bytes(r[{data}][{off}:{end}], "little")'
_LOAD_GLOBAL_SLICE = ('r[{d}] = int.from_bytes('
                      'vm.global_regions[{name}].data[0:{size}], "little")')
_STORE_FRAME_SLICE = ('r[{data}][{off}:{end}] = (r[{v}] & {m}).to_bytes({size}, "little")\n'
                      "vm.memory.bytes_written += {size}")
_STORE_GLOBAL_SLICE = ("vm.global_regions[{name}].data[0:{size}] = "
                       '(r[{v}] & {m}).to_bytes({size}, "little")\n'
                       "vm.memory.bytes_written += {size}")

# One alloca of a run mapped on its own, on the instruction-at-a-time
# path (*layout* is the run's up to it, *offset* its offset in the run):
# a run's first alloca maps a run of its own, each later one grows it.
_ALLOCA = ("try:\n"
           "    run = vm.memory.map_stack_alloca({layout}, r[{frame}])\n"
           "except MemoryError:\n"
           "    raise VMTrap(TrapKind.STACK_OVERFLOW, {message}, vm.site) from None\n"
           "r[{d}] = run.base + {offset}\n"
           "r[{data}] = run.data")


def _map_allocas(vm: VM, r, allocas: tuple) -> NoReturn:
    """Map a run of allocas the stack segment cannot hold one at a time
    (*allocas*, their ``_ALLOCA`` ops over registers *r*), after giving
    back the run's charge: each is charged and counted as
    instruction-at-a-time execution does.  ``map_stack_run`` reserves
    the run's span from the aligned cursor, and one at a time they
    reserve the same span from the same start, so the one that does not
    fit traps.  (Only a compiled function, which maps a run as one,
    gets here.)"""
    count, each = len(allocas), _INST_COST[Alloca]
    vm.instructions_executed -= count
    vm.cost -= each * count
    for alloca in allocas:
        vm.instructions_executed += 1
        vm.cost += each
        alloca(r, vm)
    raise AssertionError("a run the stack cannot hold was mapped")


# The ``__cov_guard`` native inlined (``VM.cov_guard``); ``prev_loc`` is
# always below the map size, and so is the xor.
_COV_GUARD = ("index = {location} ^ vm.prev_loc\n"
              "coverage = vm.coverage_map\n"
              "hits = coverage[index]\n"
              "if hits != 0xFF:\n"
              "    if not hits:\n"
              "        coverage.cells.append(index)\n"
              "    coverage[index] = hits + 1\n"
              "vm.prev_loc = {following}\n"
              "if vm.trace_edges:\n"
              "    vm.edge_trace.append((vm.site.function, index))")

# A compare's tap, decoded only for VMs with a compare observer: the
# operands while the observer is armed.
_OBSERVE_ICMP = ("if vm.cmp_observer.active: "
                 "vm.cmp_observer.observe_icmp(vm.site, {inst}, r[{a}], r[{b}])")
_OBSERVE_SWITCH = ("if vm.cmp_observer.active: "
                   "vm.cmp_observer.observe_switch(vm.site, {inst}, r[{v}])")

_OBSERVES = (_OBSERVE_ICMP, _OBSERVE_SWITCH)

# Raises what reading *value* raises when its slot holds nothing.
_CHECK = "if r[{slot}] is None:\n    raise _bad_operand({value}, vm.site)"
_ABORT = "raise VMTrap(TrapKind.ABORT, {message}, vm.site)"

# Phis in the entry block, entered with no predecessor: the
# interpreter's invariant fails, bare, as an ``assert`` would.
_ENTRY_PHI = "raise AssertionError"


@functools.cache
def _call_template(native: bool, arity: int, result: bool) -> str:
    """A call passing *arity* arguments: a native through
    ``vm._call_native``, or the callee's code; then the caller's site
    back, and the result if it has one."""
    args = ", ".join(f"r[{{a{k}}}]" for k in range(arity))
    call = (f"vm._call_native({{native}}, [{args}])" if native else
            f"_execute(vm, vm._code_for({{callee}}, {arity}), [{args}])")
    lines = [("result = " if result else "") + call,
             "vm.site.function = {function}", "vm.site.block = {block}"]
    if result:
        lines.append("r[{d}] = 0 if result is None else result")
    return "\n".join(lines)


@functools.cache
def _moves_template(checked: tuple, missing: bool) -> str:
    """One edge's phis: each arm read, those *checked* through a check,
    then assigned simultaneously; or, for an edge some phi has no arm
    for (*missing*), the arms before that phi read, then a KeyError."""
    lines = [f"if r[{{s{k}}}] is None:\n    raise _bad_operand({{v{k}}}, vm.site)"
             for k, check in enumerate(checked) if check]
    if missing:
        return "\n".join(lines + ["raise KeyError({missing})"])
    count = len(checked)
    return "\n".join(lines + [
        ", ".join(f"r[{{d{k}}}]" for k in range(count)) + " = "
        + ", ".join(f"r[{{s{k}}}]" for k in range(count))])


@functools.cache
def _gep_template(count: int) -> str:
    """An address: a base, a folded offset and *count* scaled indices,
    each read signed."""
    terms = "".join(f" + (((r[{{s{k}}}] & {{m{k}}}) ^ {{h{k}}}) - {{h{k}}})"
                    f" * {{scale{k}}}" for k in range(count))
    return f"r[{{d}}] = (r[{{base}}] + {{offset}}{terms}) & 0xFFFFFFFFFFFFFFFF"


def _binop(op: str, bits: int, d: int, a: int, b: int):
    return _form(_BINOPS.get(op, _SREM))(
        d=d, a=a, b=b, m=(1 << bits) - 1, h=_sign_bit(bits), bits=bits,
        top=bits - 1, message=f"{op} by zero")


def _icmp(predicate: str, signed_bits: int, d: int, a: int, b: int):
    compare = _COMPARE.get(predicate, ">=")
    if signed_bits:
        return _form(_ICMP_SIGNED % compare)(
            d=d, a=a, b=b, m=(1 << signed_bits) - 1, h=_sign_bit(signed_bits))
    return _form(_ICMP % compare)(d=d, a=a, b=b)


def _cast(op: str, source, target, d: int, a: int):
    if op in ("bitcast", "inttoptr"):
        return _form(_COPY)(d=d, a=a)
    if op == "sext":
        return _form(_SEXT)(d=d, a=a, sm=source.unsigned_max,
                            h=_sign_bit(source.bits), m=target.unsigned_max)
    return _form(_MASK)(d=d, a=a, m=target.unsigned_max)


def _gep(d: int, base: int, offset: int, terms: tuple):
    fields = {"d": d, "base": base, "offset": offset}
    for k, (s, m, h, scale) in enumerate(terms):
        fields.update({f"s{k}": s, f"m{k}": m, f"h{k}": h, f"scale{k}": scale})
    return _form(_gep_template(len(terms)))(**fields)


def _call(callee: Function, arg_slots: tuple, d: int | None,
          function_name: str, block_name: str):
    template = _call_template(callee.is_declaration, len(arg_slots),
                              d is not None)
    return _form(template)(
        native=callee.name, callee=callee, d=d, function=function_name,
        block=block_name, **{f"a{k}": slot for k, slot in enumerate(arg_slots)})


def _moves(targets: list, arms: list, missing: str | None):
    """An edge's phi moves into *targets* from *arms*, ``(slot, value or
    None)`` each, the value for a read that needs a check; *missing*
    is the error of an edge some phi has no arm for."""
    fields = {"missing": missing}
    for k, (d, (s, value)) in enumerate(zip(targets, arms)):
        fields.update({f"d{k}": d, f"s{k}": s, f"v{k}": value})
    checked = tuple(value is not None for _, value in arms)
    return _form(_moves_template(checked, missing is not None))(**fields)


# ---------------------------------------------------------------------------
# compiled functions
# ---------------------------------------------------------------------------

# How deep a block's code may nest in the code of the blocks before it
# (a branch arm is one level, a switch's k-th arm k + 1) before the edge
# into it goes through the dispatch loop instead: Python's tokenizer
# allows 100 indentation levels.
_NEST_LIMIT = 40


def _compile(code: _FunctionCode) -> types.FunctionType:
    """*code* as one Python function ``(vm, *args)`` that runs a call
    of a VM keeping no profiling counts and tracing no edges as
    :func:`_execute` runs it an instruction at a time, given *args*
    padded to ``code.nargs`` and the call depth checked."""
    source, bound = _Writer(code).write()
    compiled = _code_const(_code(source, "<compiled function>"))
    return types.FunctionType(compiled, globals(), code.name, bound)


def _literal(value) -> str | None:
    """*value* as a Python literal, or None if it has none."""
    cls = type(value)
    if cls is int:
        return repr(value) if value >= 0 else f"({value!r})"
    if cls is str or value is None:
        return repr(value)
    if cls is tuple:
        items = [_literal(item) for item in value]
        if None not in items:
            return f"({', '.join(items)}{',' if len(items) == 1 else ''})"
    return None


_PART = re.compile(r"r\[\{(\w+)\}\]|\{(\w+)\}")
# What a template calls out through: another function's code or a
# native, either of which may move ``vm.prev_loc``.
_CALLS_OUT = ("_execute(", "vm._call_native(")


@functools.cache
def _parse(template: str, cells: tuple) -> tuple[list, bool]:
    """*template* as a compiled function writes it, for closures whose
    cells hold the fields named in *cells*: its text, ``vm.site`` and
    ``vm.cmp_observer`` read as the per-call locals ``site`` and
    ``observer``, split at its fields, each field as ``(names a
    register, its cell index)``; and whether it calls out."""
    cell = {name: k for k, name in enumerate(cells)}
    text = (template.replace("vm.site", "site")
            .replace("vm.cmp_observer", "observer"))
    pieces: list = []
    last = 0
    for match in _PART.finditer(text):
        register, field = match.groups()
        pieces += [text[last:match.start()],
                   (True, cell[register]) if register else (False, cell[field])]
        last = match.end()
    pieces.append(text[last:])
    return pieces, any(call in template for call in _CALLS_OUT)


def _exits(block: tuple) -> list[int]:
    """The successor of each edge out of *block*, one per edge."""
    kind, x, y, z = block[3:]
    if kind == _BR:
        return [x]
    if kind == _CONDBR:
        return [y, z]
    if kind == _SWITCH:
        return list(y.values()) + [z]
    return []


class _Writer:
    """The source of one function's compiled code, and the values bound
    to its parameters after the arguments: ``G``, each group's
    ``(template, segments, count, cost)`` for :func:`_run_spilled`, then
    ``K0``, ``K1``, ... for each field with no literal form.

    A register slot is the local ``r<slot>``, or its literal for a
    constant or a laid-out global's address; the frame's slot holds its
    runs of allocas.  The code of a block entered over one edge only is
    written where that edge is taken; every other block is a test of
    ``b`` in the dispatch loop, in index order, that an edge into it sets.
    Each edge does its phi moves.  The coverage map, its cells and the
    compare observer are loaded once per call.  ``prev`` is
    ``vm.prev_loc`` where the code being written knows it (after a
    guard, until an op that calls out or the dispatch loop), so that a
    guard there indexes the map by a literal; every guard still writes
    ``vm.prev_loc``."""

    def __init__(self, code: _FunctionCode):
        self.code = code
        self.blocks = blocks = code.blocks
        self.nargs = code.nargs
        self.template = (None,) * code.nargs + tuple(code.tail)
        self.groups: list[tuple] = []
        self.bound: list = [self.groups]
        self.names: dict[int, str] = {}
        exact = [entry for block in blocks for segment in block[2]
                 for entry in segment[2]]
        self.guards = any(guard for _, _, guard, _ in exact)
        self.observes = any(_TEMPLATES[id(op.__code__)] in _OBSERVES
                            for *_, ops in exact for op in ops)
        # Edges into each block from blocks the entry reaches.
        self.edges = [0] * len(blocks)
        order, seen = [0], {0}
        for b in order:
            for s in _exits(blocks[b]):
                self.edges[s] += 1
                if s not in seen:
                    seen.add(s)
                    order.append(s)
        # The dispatch loop's blocks, each with its code once written.
        self.targets: dict[int, list | None] = {}
        self.out: list[tuple[int, str]] = []
        self.prev: int | None = None

    def write(self) -> tuple[str, tuple]:
        self.edge(-1, 0, 0, 0)
        entry = self.out
        k = 0
        while k < len(self.targets):    # writing a block may add more
            b = list(self.targets)[k]
            self.out, self.prev = [], None
            self.block(b, 0, 0)
            self.targets[b] = self.out
            k += 1
        code = self.code
        lines = [(1, "vm._call_depth += 1"), (1, "site = vm.site"),
                 (1, f"site.function = {code.name!r}"),
                 (1, "limit = vm.instruction_limit")]
        if self.guards:
            lines.append((1, "coverage = vm.coverage_map; cells = coverage.cells"))
        if self.observes:
            lines.append((1, "observer = vm.cmp_observer"))
        if code.checked:
            lines.append((1, " = ".join(f"r{slot}" for slot in code.checked)
                          + " = None"))
        if code.frame is not None:
            lines.append((1, f"r{code.frame} = []"))
        lines.append((1, "try:"))
        lines += [(2 + depth, text) for depth, text in entry]
        if self.targets:
            lines.append((2, "while True:"))
            order = sorted(self.targets)
            for b in order[:-1]:
                block = self.targets[b]
                lines.append((3, f"if b == {b}:"))
                lines += [(4 + depth, text) for depth, text in block]
                if block[-1][0] or not block[-1][1].startswith(("return", "raise")):
                    lines.append((4, "continue"))
            lines += [(3 + depth, text) for depth, text in self.targets[order[-1]]]
        lines += [(1, "except _Crossing as crossing:"),
                  (2, "_run_spilled(vm, G[crossing.group], limit, locals())"),
                  (1, "finally:"), (2, "vm._call_depth -= 1")]
        if code.frame is not None:
            lines.append((2, f"vm.memory.unmap_frame(r{code.frame})"))
        params = (["vm"] + [f"r{k}" for k in range(self.nargs)] + ["G"]
                  + [f"K{k}" for k in range(len(self.bound) - 1)])
        source = (f"def run({', '.join(params)}):\n"
                  + "".join(f"{' ' * depth}{text}\n" for depth, text in lines))
        self.bound[0] = tuple(self.groups)
        return source, tuple(self.bound)

    def line(self, depth: int, text: str) -> None:
        self.out.append((depth, text))

    def field(self, value) -> str:
        text = _literal(value)
        if text is None:
            text = self.names.get(id(value))
            if text is None:
                text = self.names[id(value)] = f"K{len(self.bound) - 1}"
                self.bound.append(value)
        return text

    def reg(self, slot: int) -> str:
        value = self.template[slot]
        return f"r{slot}" if value is None else self.field(value)

    # -- control flow --------------------------------------------------

    def edge(self, p: int, s: int, depth: int, nest: int) -> None:
        """The edge from block *p* (-1: the call) into block *s*."""
        name, phis = self.blocks[s][:2]
        if phis is not None:
            lines, raises = self.moves(phis[0][p])
            if raises:
                self.line(depth, f"site.block = {name!r}")
            for text in lines:
                self.line(depth, text)
        # The call enters the entry block over one more edge.
        if self.edges[s] + (s == 0) == 1 and nest < _NEST_LIMIT:
            self.block(s, depth, nest)
        else:
            self.targets.setdefault(s, None)
            self.line(depth, f"b = {s}")

    def block(self, b: int, depth: int, nest: int) -> None:
        """Block *b*: its phis' charge (folded into its first group),
        its groups of segments, then its terminator."""
        name, phis, segments, kind, x, y, z = self.blocks[b]
        self.line(depth, f"site.block = {name!r}")
        count, cost = (phis[1], phis[2]) if phis is not None else (0, 0)
        # Segments run in groups that end at a call (a segment's last
        # instruction, a Call that is not a guard): in a group only its
        # last instruction, the call, moves the count, so if the whole
        # group fits under the limit each of its segments does.
        first = 0
        for k, segment in enumerate(segments):
            _, opcode, guard, _ = segment[2][-1]
            if k < len(segments) - 1 and (opcode != "Call" or guard):
                continue
            self.group(segments[first:k + 1], count, cost, depth)
            count = cost = 0
            first = k + 1
        if count:
            self.line(depth, f"vm.instructions_executed += {count}")
            self.line(depth, f"vm.cost += {cost}")
        line, prev = self.line, self.prev
        if kind == _BR:
            self.edge(b, x, depth, nest)
        elif kind == _CONDBR:
            line(depth, f"if {self.reg(x)}:")
            self.edge(b, y, depth + 1, nest + 1)
            line(depth, "else:")
            self.prev = prev
            self.edge(b, z, depth + 1, nest + 1)
        elif kind == _SWITCH:
            arms = [s for s in dict.fromkeys(y.values()) if s != z]
            if arms:
                line(depth, f"arm = {self.field(y)}.get({self.reg(x)}, {z})")
            for k, s in enumerate(arms):
                line(depth, f"{'elif' if k else 'if'} arm == {s}:")
                self.prev = prev
                self.edge(b, s, depth + 1, nest + k + 1)
            if arms:
                line(depth, "else:")
            self.prev = prev
            self.edge(b, z, depth + bool(arms), nest + len(arms))
        elif kind == _RET:
            line(depth, f"return {'None' if x is None else self.reg(x)}")
        else:
            line(depth, f"raise VMTrap(TrapKind.UNREACHABLE, {x!r}, site)")

    def group(self, segments: tuple, count: int, cost: int, depth: int) -> None:
        """A group of *segments*, the first charged *count* and *cost*
        more (its block's phis).  A group that would cross the limit
        runs an instruction at a time instead (:func:`_run_spilled`)."""
        self.groups.append((self.template, segments, count, cost))
        total = count + sum(segment[0] for segment in segments)
        self.line(depth, f"if vm.instructions_executed + {total} > limit: "
                  f"raise _Crossing({len(self.groups) - 1})")
        for n, c, exact in segments:
            self.line(depth, f"vm.instructions_executed += {n + count}; "
                      f"vm.cost += {c + cost}")
            count = cost = 0
            # A segment's allocas are one run, its last instructions.
            allocas = [ops[0] for _, opcode, _, ops in exact if opcode == "Alloca"]
            for *_, ops in exact[:len(exact) - len(allocas)]:
                for op in ops:
                    self.out += [(depth, text) for text in self.op(op)]
            if allocas:
                self.out += [(depth, text) for text in self.allocas(allocas)]

    # -- instructions --------------------------------------------------

    def op(self, op) -> list[str]:
        """*op*'s lines."""
        if _TEMPLATES[id(op.__code__)] == _COV_GUARD:
            return self.guard(_fields(op)[1])
        return self.generic(op)

    def generic(self, op) -> list[str]:
        """*op*'s template with its registers and fields filled in.  After
        an op that calls out, ``vm.prev_loc`` is not known."""
        code = op.__code__
        pieces, calls_out = _parse(_TEMPLATES[id(code)], code.co_freevars)
        if calls_out:
            self.prev = None
        values = [cell.cell_contents for cell in op.__closure__]
        reg, field = self.reg, self.field
        return "".join([part if type(part) is str else
                        (reg if part[0] else field)(values[part[1]])
                        for part in pieces]).split("\n")

    def guard(self, values: dict) -> list[str]:
        """The guard on the map in ``coverage``, at a literal cell where
        ``vm.prev_loc`` is known."""
        location, prev = values["location"], self.prev
        self.prev = values["following"]
        if prev is None:
            index, lines = "index", [f"index = {location} ^ vm.prev_loc"]
        else:
            index, lines = str(location ^ prev), []
        return lines + [f"if not (hits := coverage[{index}]): cells.append({index})",
                        f"coverage[{index}] = _BUMP[hits]; vm.prev_loc = {self.prev}"]

    def allocas(self, allocas: list) -> list[str]:
        """A run of allocas (their ``_ALLOCA`` ops) mapped as one, its
        pointers unrolled; on the exhausted-stack path their own ops run
        over a dict holding the frame."""
        fields = [_fields(op)[1] for op in allocas]
        last = fields[-1]
        frame, data = last["frame"], last["data"]
        lines = ["try:",
                 f" run = vm.memory.map_stack_run({self.field(last['layout'])})",
                 "except MemoryError:",
                 f" r = {{{frame}: r{frame}}}",
                 f" _map_allocas(vm, r, {self.field(tuple(allocas))})",
                 f"r{frame}.append(run)", f"r{data} = run.data", "base = run.base"]
        return lines + [f"r{values['d']} = base + {values['offset']}"
                        for values in fields]

    def moves(self, move) -> tuple[list[str], bool]:
        """An edge's phi moves, and whether they can raise."""
        return self.generic(move), "raise" in _TEMPLATES[id(move.__code__)]

