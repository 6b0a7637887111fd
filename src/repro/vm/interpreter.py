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
each cell it moves off 0).  The decoded code hangs off the module (``Module.decoded``),
shared by every VM with the same global layout; whatever rewrites a
module in place after it may have run sets that back to ``None``.

A load or store whose pointer operand is an alloca of the function,
defined on every path to it, or a laid-out global (a writable one, for
a store), and which fits that region, cannot trap: the alloca's region
lives until its frame exits, and globals are never unmapped.  Such an
access reads or writes the region's bytes directly, found through a
register slot the alloca fills (its region's ``data``) or through the
VM's ``global_regions``, and still counts a store's bytes in
``memory.bytes_written``.  Every other access goes through the address
space's checked ``read_int``/``write_int``.  A frame's regions are
mapped and unmapped last-in-first-out (``AddressSpace.map_stack`` and
``unmap_frame``).

All values are Python ints in unsigned representation; pointers are
addresses in the VM's address space.  Every executed instruction
charges virtual nanoseconds to the VM clock, which is what the
simulated-OS cost model and the throughput experiments (Table 5) are
built on.  A block runs as straight-line segments, each charged its
cost and instruction count at once; a segment ends only at an
instruction that can raise (a direct load or store cannot), and one
that would cross the instruction limit runs an instruction at a time,
so traps, hangs and the clock land exactly where instruction-at-a-time
execution puts them.
"""

from __future__ import annotations

import itertools
import operator

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
from repro.vm.memory import AddressSpace, MemoryRegion

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
        # None keeps execution on its uninstrumented path.
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
        code = self.module.decoded
        if code is None or code.layout is not self._layout:
            self._attach_code()
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

    def set_argv_input(self, argv_address: int, index: int, path: str) -> None:
        """Repoint ``argv[index]`` at a new input path.

        This is the harness-side "replace the appropriate argv with the
        test case supplied by the fuzzer" step from the paper §4.2.1.
        """
        data = path.encode("latin-1") + b"\x00"
        region = self.memory.map_region(
            self.memory.global_segment, len(data), True, "global", f"argv[{index}]"
        )
        region.data[:] = data
        self.memory.write_int(argv_address + index * 8, region.base, 8, self.site)

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
        return len(self.memory.live_regions("stack"))

    def reset_stack_addresses(self) -> None:
        """Rewind the stack segment's bump cursor.

        Real processes reuse the same stack addresses on every
        iteration of a loop (the stack pointer returns to its saved
        position); rewinding the cursor once all frames are gone keeps
        the simulated address assignment equally deterministic, which
        the correctness experiments rely on for bytewise snapshot
        comparison.
        """
        if self.memory.live_regions("stack"):
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
    until written); ``frame`` is the slot holding the frame's alloca
    regions in the order they were mapped, if it has any, and each
    alloca also has a slot holding its newest region's bytes.  Each
    block is a tuple ``(name, phis, segments, kind, x, y, z)``:

    - ``phis`` is None or ``(moves, count, cost)``, where ``moves``
      maps the predecessor's block index (-1 on function entry) to the
      closure doing that edge's simultaneous phi assignment;
    - each segment is ``(count, cost, ops, exact, opcodes, guards)``:
      its instruction count and cost, its closures ``op(r, vm)``, the
      same per instruction as ``(cost, opcode, is_guard, ops)`` for
      the instruction-at-a-time path, its opcode histogram and its
      number of inlined coverage guards;
    - ``kind`` and ``x, y, z`` are the terminator: ``_BR`` (target),
      ``_CONDBR`` (condition slot, true and false targets),
      ``_SWITCH`` (value slot, case dict, default), ``_RET`` (value
      slot or None) or ``_TRAP`` (an UNREACHABLE trap's message).
    """

    __slots__ = ("name", "epoch", "nargs", "tail", "frame", "blocks")

    def __init__(self, name, epoch, nargs, tail, frame, blocks):
        self.name = name
        self.epoch = epoch
        self.nargs = nargs
        self.tail = tail
        self.frame = frame
        self.blocks = blocks


_BR, _CONDBR, _SWITCH, _RET, _TRAP = range(5)
_TERMINATORS = (Br, CondBr, Switch, Ret, Unreachable)
_VALUES = (BinOp, ICmp, Load, GetElementPtr, Alloca, Cast, Select)
_DIVISIONS = frozenset({"sdiv", "udiv", "srem", "urem"})
_SIGNED = frozenset({"slt", "sle", "sgt", "sge"})
_ORDER = {"slt": operator.lt, "sle": operator.le,
          "sgt": operator.gt, "sge": operator.ge}


def _execute(vm: VM, code: _FunctionCode, args: list) -> int | None:
    """Run decoded *code* on *vm* with *args*: the dispatch loop."""
    if vm._call_depth >= vm.MAX_CALL_DEPTH:
        raise VMTrap(TrapKind.STACK_OVERFLOW,
                     f"call depth exceeded {vm.MAX_CALL_DEPTH}", vm.site)
    vm._call_depth += 1
    site = vm.site
    site.function = code.name
    nargs = code.nargs
    if len(args) != nargs:
        args = (args + [None] * nargs)[:nargs]
    r = args + code.tail
    frame = code.frame
    if frame is not None:
        r[frame] = []
    try:
        blocks = code.blocks
        limit = vm.instruction_limit
        counting = vm.opcode_counts is not None or vm.libc_counts is not None
        prev, i = -1, 0
        while True:
            name, phis, segments, kind, x, y, z = blocks[i]
            site.block = name
            if phis is not None:
                moves, count, cost = phis
                moves[prev](r, vm)
                vm.instructions_executed += count
                vm.cost += cost
                if counting and vm.opcode_counts is not None:
                    vm.opcode_counts["Phi"] = vm.opcode_counts.get("Phi", 0) + count
            for count, cost, ops, exact, opcodes, guards in segments:
                total = vm.instructions_executed + count
                if total > limit:
                    _run_exact(vm, r, exact, limit)
                    continue
                vm.instructions_executed = total
                vm.cost += cost
                if counting:
                    _count(vm, opcodes, guards)
                for op in ops:
                    op(r, vm)
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
    """Run a segment that would cross *limit* an instruction at a time:
    count, check the limit, charge, then execute."""
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


def _count(vm: VM, opcodes: tuple, guards: int) -> None:
    """Bump the attached profiling counts for one segment."""
    opcode_counts = vm.opcode_counts
    if opcode_counts is not None:
        for name, count in opcodes:
            opcode_counts[name] = opcode_counts.get(name, 0) + count
    libc_counts = vm.libc_counts
    if guards and libc_counts is not None:
        libc_counts[COV_GUARD] = libc_counts.get(COV_GUARD, 0) + guards


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
    register slot of every value it defines (and of each alloca's
    region bytes), and the register template (constants and global
    addresses are appended as they are used)."""

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
        self.data: dict[Alloca, int] = {}
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
                if type(inst) is Alloca:
                    self.data[inst] = self.new_slot()
        self.consts: dict[int, int] = {}
        self.undefined: int | None = None   # a slot nothing ever writes
        self.frame: int | None = None

    def decode(self, nargs: int) -> _FunctionCode:
        known_in, known_out, preds = self.known_values(nargs)
        blocks = tuple(self.block(b, known_in[b], known_out, preds[b])
                       for b in range(len(self.blocks)))
        n = len(self.function.args)
        return _FunctionCode(self.function.name, self.epoch, n,
                             self.template[n:], self.frame, blocks)

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
            return self.undefined, value
        return slot, (None if known >> slot & 1 else value)

    def direct(self, ptr: Value, size: int, known: int, store: bool):
        """The region an access of *size* bytes through *ptr* reads or
        writes without a check: ``(data slot, None)`` for an alloca of
        this frame defined on every path here, ``(None, name)`` for a
        laid-out global (a writable one, for a store), or None when the
        access takes the checked path.  A zero-size access does too: on
        a zero-size region, which contains no address, it traps."""
        cls = type(ptr)
        if cls is Alloca:
            slot = self.slots.get(ptr)
            if (slot is not None and known >> slot & 1
                    and 0 < size <= ptr.allocation_size()):
                return self.data[ptr], None
        elif (cls is GlobalVariable and ptr.name in self.layout
                and 0 < size <= ptr.value_type.size()
                and not (store and ptr.is_constant)):
            return None, ptr.name
        return None

    def block(self, b: int, known: int, known_out: list, preds: list) -> tuple:
        block = self.blocks[b]
        for phi in self.heads[b]:
            known |= 1 << self.slots[phi]
        segments = []
        ops, exact, opcodes = [], [], {}
        n = cost = guards = 0
        terminator = (_TRAP, f"block %{block.name} fell through without "
                      "a terminator", None, None)
        for inst in self.bodies[b]:
            checks: list[tuple[int, Value]] = []
            inst_ops, raises, guard, inst_cost, ends = self.instruction(
                inst, block.name, known, checks)
            if checks:
                inst_ops.insert(0, _check(tuple(checks)))
                raises = True
            name = type(inst).__name__
            n += 1
            cost += inst_cost
            guards += guard
            opcodes[name] = opcodes.get(name, 0) + 1
            ops.extend(inst_ops)
            exact.append((inst_cost, name, guard, tuple(inst_ops)))
            if inst in self.slots:
                known |= 1 << self.slots[inst]
            if ends is not None:
                terminator = ends
            if raises or ends is not None:
                segments.append((n, cost, tuple(ops), tuple(exact),
                                 tuple(opcodes.items()), guards))
                ops, exact, opcodes = [], [], {}
                n = cost = guards = 0
        if n:
            segments.append((n, cost, tuple(ops), tuple(exact),
                             tuple(opcodes.items()), guards))
        phis = None
        if self.heads[b]:
            count = len(self.heads[b])
            phis = (self.moves(b, known_out, preds), count, _INST_COST[Phi] * count)
        return (block.name, phis, tuple(segments)) + terminator

    def moves(self, b: int, known_out: list, preds: list) -> dict:
        """Block *b*'s phi assignment per predecessor index."""
        heads = self.heads[b]
        targets = [self.slots[phi] for phi in heads]
        moves = {-1: _entry_phi} if b == 0 else {}
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
            if missing is None and all(check is None for _, check in arms):
                moves[p] = _moves(targets, [slot for slot, _ in arms])
            else:
                moves[p] = _moves_checked(targets, arms, missing)
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
            ops = [_observe_icmp(inst, lhs, rhs)] if self.observed else []
            lhs_type = inst.lhs.type
            signed_bits = (lhs_type.bits if inst.predicate in _SIGNED
                           and isinstance(lhs_type, IntType) else 0)
            ops.append(_icmp(inst.predicate, signed_bits, slots[inst], lhs, rhs))
            return ops, False, False, cost, None
        if cls is Load:
            size = inst.type.size()
            region = self.direct(inst.ptr, size, known, False)
            if region is not None:
                return [_load_direct(slots[inst], *region, size)], False, False, cost, None
            op = _load(slots[inst], take(inst.ptr), size)
            return [op], True, False, cost, None
        if cls is Store:
            size = inst.value.type.size()
            region = self.direct(inst.ptr, size, known, True)
            if region is not None:
                op = _store_direct(*region, take(inst.value), size)
                return [op], False, False, cost, None
            ptr, value = take(inst.ptr), take(inst.value)
            return [_store(ptr, value, size)], True, False, cost, None
        if cls is GetElementPtr:
            return [self.gep(inst, take)], False, False, cost, None
        if cls is Call:
            callee, args = inst.callee, inst.args
            if (callee.is_declaration and callee.name == COV_GUARD
                    and len(args) == 1 and type(args[0]) is ConstantInt):
                cost += NATIVE_BASE_COST.get(COV_GUARD, 20)
                return [_cov_guard(args[0].value)], False, True, cost, None
            arg_slots = tuple(take(arg) for arg in args)
            dest = None if inst.type.is_void else slots[inst]
            op = _call(callee, arg_slots, dest, self.function.name, block_name)
            return [op], True, False, cost, None
        if cls is Alloca:
            if self.frame is None:
                self.frame = self.new_slot()
            op = _alloca(slots[inst], self.frame, self.data[inst],
                         inst.allocation_size(), f"{self.function.name}.{inst.name}")
            return [op], True, False, cost, None
        if cls is Cast:
            value = take(inst.value)
            op = _cast(inst.op, inst.value.type, inst.type, slots[inst], value)
            return [op], False, False, cost, None
        if cls is Select:
            c, t, f = (self.use(inst.cond, known), self.use(inst.if_true, known),
                       self.use(inst.if_false, known))
            if c[1] is None and t[1] is None and f[1] is None:
                return [_select(slots[inst], c[0], t[0], f[0])], False, False, cost, None
            return [_select_checked(slots[inst], c, t, f)], True, False, cost, None
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
            ops = [_observe_switch(inst, value)] if self.observed else []
            return ops, False, False, cost, (_SWITCH, value, cases, index[inst.default])
        if cls is Ret:
            value = None if inst.value is None else take(inst.value)
            return [], False, False, cost, (_RET, value, None, None)
        if cls is Unreachable:
            return [], False, False, cost, (_TRAP, "unreachable executed", None, None)
        # A phi after a non-phi, or an instruction the VM does not know.
        return ([_trap(TrapKind.ABORT, f"unknown instruction {inst}")], True,
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
# closures, one per instruction: ``op(r, vm)`` over the register list r
# ---------------------------------------------------------------------------


def _sign_bit(bits: int) -> int:
    """XOR-then-subtract constant turning a masked value signed (an i1
    reads as 0 or 1, as ``IntType.to_signed`` has it)."""
    return 1 << (bits - 1) if bits > 1 else 0


def _binop(op: str, bits: int, d: int, a: int, b: int):
    m = (1 << bits) - 1
    if op == "add":
        def run(r, vm):
            r[d] = (r[a] + r[b]) & m
    elif op == "sub":
        def run(r, vm):
            r[d] = (r[a] - r[b]) & m
    elif op == "mul":
        def run(r, vm):
            r[d] = (r[a] * r[b]) & m
    elif op == "and":
        def run(r, vm):
            r[d] = r[a] & r[b]
    elif op == "or":
        def run(r, vm):
            r[d] = r[a] | r[b]
    elif op == "xor":
        def run(r, vm):
            r[d] = r[a] ^ r[b]
    elif op == "shl":
        def run(r, vm):
            shift = r[b]
            r[d] = (r[a] << shift) & m if shift < bits else 0
    elif op == "lshr":
        def run(r, vm):
            shift = r[b]
            r[d] = r[a] >> shift if shift < bits else 0
    elif op == "ashr":
        h, top = _sign_bit(bits), bits - 1
        def run(r, vm):
            r[d] = ((((r[a] & m) ^ h) - h) >> min(r[b], top)) & m
    else:
        return _divide(op, bits, d, a, b)
    return run


def _divide(op: str, bits: int, d: int, a: int, b: int):
    m, h = (1 << bits) - 1, _sign_bit(bits)
    message = f"{op} by zero"
    if op == "udiv":
        def run(r, vm):
            divisor = r[b]
            if divisor == 0:
                raise VMTrap(TrapKind.DIV_BY_ZERO, message, vm.site)
            r[d] = r[a] // divisor
    elif op == "urem":
        def run(r, vm):
            divisor = r[b]
            if divisor == 0:
                raise VMTrap(TrapKind.DIV_BY_ZERO, message, vm.site)
            r[d] = r[a] % divisor
    elif op == "sdiv":
        def run(r, vm):
            if r[b] == 0:
                raise VMTrap(TrapKind.DIV_BY_ZERO, message, vm.site)
            x, y = ((r[a] & m) ^ h) - h, ((r[b] & m) ^ h) - h
            quotient = abs(x) // abs(y)
            r[d] = (quotient if (x < 0) == (y < 0) else -quotient) & m
    else:   # srem
        def run(r, vm):
            if r[b] == 0:
                raise VMTrap(TrapKind.DIV_BY_ZERO, message, vm.site)
            x, y = ((r[a] & m) ^ h) - h, ((r[b] & m) ^ h) - h
            remainder = abs(x) % abs(y)
            r[d] = (remainder if x >= 0 else -remainder) & m
    return run


def _icmp(predicate: str, signed_bits: int, d: int, a: int, b: int):
    if signed_bits:
        # Flipping the sign bit of the masked values orders them as
        # their two's-complement readings.
        m, h = (1 << signed_bits) - 1, _sign_bit(signed_bits)
        compare = _ORDER[predicate]
        def run(r, vm):
            r[d] = 1 if compare((r[a] & m) ^ h, (r[b] & m) ^ h) else 0
    elif predicate == "eq":
        def run(r, vm):
            r[d] = 1 if r[a] == r[b] else 0
    elif predicate == "ne":
        def run(r, vm):
            r[d] = 1 if r[a] != r[b] else 0
    elif predicate in ("slt", "ult"):
        def run(r, vm):
            r[d] = 1 if r[a] < r[b] else 0
    elif predicate in ("sle", "ule"):
        def run(r, vm):
            r[d] = 1 if r[a] <= r[b] else 0
    elif predicate in ("sgt", "ugt"):
        def run(r, vm):
            r[d] = 1 if r[a] > r[b] else 0
    else:
        def run(r, vm):
            r[d] = 1 if r[a] >= r[b] else 0
    return run


def _cast(op: str, source, target, d: int, a: int):
    if op in ("bitcast", "inttoptr"):
        def run(r, vm):
            r[d] = r[a]
    elif op == "sext":
        m = target.unsigned_max
        sm, h = source.unsigned_max, _sign_bit(source.bits)
        def run(r, vm):
            r[d] = (((r[a] & sm) ^ h) - h) & m
    else:   # trunc, zext, ptrtoint
        m = target.unsigned_max
        def run(r, vm):
            r[d] = r[a] & m
    return run


def _select(d: int, c: int, t: int, f: int):
    def run(r, vm):
        r[d] = r[t] if r[c] else r[f]
    return run


def _select_checked(d: int, cond, if_true, if_false):
    """Select reading only the arm it picks, each read checked."""
    def run(r, vm):
        flag = r[cond[0]]
        if flag is None:
            raise _bad_operand(cond[1], vm.site)
        slot, value = if_true if flag else if_false
        result = r[slot]
        if result is None:
            raise _bad_operand(value, vm.site)
        r[d] = result
    return run


def _gep(d: int, base: int, offset: int, terms: tuple):
    if not terms:
        def run(r, vm):
            r[d] = (r[base] + offset) & _U64_MASK
    elif len(terms) == 1:
        ((s, m, h, scale),) = terms
        def run(r, vm):
            r[d] = (r[base] + offset + (((r[s] & m) ^ h) - h) * scale) & _U64_MASK
    else:
        def run(r, vm):
            address = r[base] + offset
            for s, m, h, scale in terms:
                address += (((r[s] & m) ^ h) - h) * scale
            r[d] = address & _U64_MASK
    return run


def _load(d: int, ptr: int, size: int):
    def run(r, vm):
        r[d] = vm.memory.read_int(r[ptr], size, vm.site)
    return run


def _store(ptr: int, value: int, size: int):
    def run(r, vm):
        vm.memory.write_int(r[ptr], r[value], size, vm.site)
    return run


def _load_direct(d: int, data: int | None, name: str | None, size: int):
    """A load that cannot trap: from the bytes in slot *data* (an
    alloca's), or from global *name*'s."""
    if data is not None:
        def run(r, vm):
            r[d] = int.from_bytes(r[data][0:size], "little")
    else:
        def run(r, vm):
            r[d] = int.from_bytes(vm.global_regions[name].data[0:size], "little")
    return run


def _store_direct(data: int | None, name: str | None, value: int, size: int):
    """A store that cannot trap, into *data* or *name* as
    :func:`_load_direct`; its bytes still count as written."""
    m = (1 << (size * 8)) - 1
    if data is not None:
        def run(r, vm):
            r[data][0:size] = (r[value] & m).to_bytes(size, "little")
            vm.memory.bytes_written += size
    else:
        def run(r, vm):
            vm.global_regions[name].data[0:size] = (r[value] & m).to_bytes(size, "little")
            vm.memory.bytes_written += size
    return run


def _alloca(d: int, frame: int, data: int, size: int, tag: str):
    def run(r, vm):
        try:
            region = vm.memory.map_stack(size, tag)
        except MemoryError:
            raise VMTrap(TrapKind.STACK_OVERFLOW,
                         f"stack exhausted by alloca of {size} bytes",
                         vm.site) from None
        r[frame].append(region)
        r[d] = region.base
        r[data] = region.data
    return run


def _cov_guard(cur_loc: int):
    """The ``__cov_guard`` native inlined (``VM.cov_guard``)."""
    location = cur_loc & _MAP_MASK
    following = (cur_loc >> 1) & _MAP_MASK

    def run(r, vm):
        # ``prev_loc`` is always below the map size, and so is the xor.
        index = location ^ vm.prev_loc
        coverage = vm.coverage_map
        hits = coverage[index]
        if hits != 0xFF:
            if not hits:
                coverage.cells.append(index)
            coverage[index] = hits + 1
        vm.prev_loc = following
        if vm.trace_edges:
            vm.edge_trace.append((vm.site.function, index))
    return run


def _call(callee: Function, arg_slots: tuple, d: int | None,
          function_name: str, block_name: str):
    """A call: a native through ``vm.natives``, or the callee's code."""
    native = callee.name if callee.is_declaration else None

    def run(r, vm):
        args = [r[s] for s in arg_slots]
        if native is not None:
            result = vm._call_native(native, args)
        else:
            result = _execute(vm, vm._code_for(callee, len(args)), args)
        site = vm.site
        site.function = function_name
        site.block = block_name
        if d is not None:
            r[d] = 0 if result is None else result
    return run


def _observe_icmp(inst: ICmp, a: int, b: int):
    def run(r, vm):
        observer = vm.cmp_observer
        if observer is not None and observer.active:
            observer.observe_icmp(vm.site, inst, r[a], r[b])
    return run


def _observe_switch(inst: Switch, v: int):
    def run(r, vm):
        observer = vm.cmp_observer
        if observer is not None and observer.active:
            observer.observe_switch(vm.site, inst, r[v])
    return run


def _check(pairs: tuple):
    """Raise what reading the first of *pairs* that holds no value
    raises."""
    def run(r, vm):
        for slot, value in pairs:
            if r[slot] is None:
                raise _bad_operand(value, vm.site)
    return run


def _trap(kind: TrapKind, message: str):
    def run(r, vm):
        raise VMTrap(kind, message, vm.site)
    return run


def _moves(targets: list, sources: list):
    """One edge's phis, assigned simultaneously."""
    if len(targets) == 1:
        (d,), (s,) = targets, sources
        def run(r, vm):
            r[d] = r[s]
    elif len(targets) == 2:
        (d0, d1), (s0, s1) = targets, sources
        def run(r, vm):
            r[d0], r[d1] = r[s0], r[s1]
    else:
        def run(r, vm):
            values = [r[s] for s in sources]
            for d, value in zip(targets, values):
                r[d] = value
    return run


def _moves_checked(targets: list, arms: list, missing: str | None):
    """One edge's phis, each arm read checked, raising KeyError at the
    first phi with no arm for the edge."""
    def run(r, vm):
        values = []
        for slot, check in arms:
            value = r[slot]
            if value is None and check is not None:
                raise _bad_operand(check, vm.site)
            values.append(value)
        if missing is not None:
            raise KeyError(missing)
        for d, value in zip(targets, values):
            r[d] = value
    return run


def _entry_phi(r, vm):
    """Phis in the entry block, entered with no predecessor: the
    interpreter's invariant fails, bare, as an ``assert`` would."""
    raise AssertionError
