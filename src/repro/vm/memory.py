"""Byte-addressable memory model for the MiniVM.

The address space is divided into fixed segments (globals, heap, stack,
FILE handles).  Every allocation is a :class:`MemoryRegion` with its own
bounds; loads and stores are checked against region bounds and
permissions, which is what turns the targets' planted bugs into traps
(null dereference, unaddressable access, out-of-bounds read/write,
use-after-free).

Address lookup checks the last region it found, then bisects the
sorted region bases.  Freed regions are remembered in a bounded FIFO
so the memcheck layer can distinguish *use-after-free* from plain
*unaddressable* accesses — the same distinction Valgrind draws in the
paper's §6.1.4 validation.  A verdict reads a dead region's base, size,
kind and tag only, so unmapping releases its bytes (``data`` becomes
None).

Stack frames map last-in-first-out.  Stack objects are the highest
mapped ones (FILE handles are not regions), and a frame's are mapped
after its caller's and unmapped before them, so mapping one appends its
base and :meth:`AddressSpace.unmap_frame` truncates the sorted bases in
one call.  Every stack alloca is a member of a run of consecutive
allocas, one alone included, and a run is one stack object, a
:class:`StackRun` (:meth:`AddressSpace.map_stack_run`): one reservation
of the span that :func:`stack_run` computes, one zeroed buffer as long
as that span, and one entry each in the sorted bases and the live map.
Each alloca keeps the base, size, tag, alignment padding and red zone
that mapping the allocas one at a time would give it, and a region of
its own is built only when something asks for one (a checked access, a
native, a fault verdict, :meth:`AddressSpace.live_regions`): it reads
the run's buffer, so its ``origin``, the address of ``data[0]``, is the
run's base.  Every other region's ``origin`` is its base.
:meth:`AddressSpace.map_stack_alloca` maps a run one alloca at a time:
the first maps a run of its own, and each later one grows that run in
place.  Decoded code reads and writes a frame's own allocas and named
globals through those bytes directly (see ``repro.vm.interpreter``):
:meth:`AddressSpace.read_int` and :meth:`AddressSpace.write_int` see
only the accesses that are checked.

A frame's exit does not fill the freed-region FIFO: it drops the
frame's entries and logs the frame.  The log is folded into the FIFO,
frame by frame with the FIFO trimmed after each as an exit used to trim
it, only when something reads the FIFO (a verdict, a heap ``unmap``,
:meth:`AddressSpace.fork`, an inspection), or once it holds more than
:attr:`AddressSpace.DEAD_REGION_MEMORY` allocas.

Scalars of 1, 2, 4 and 8 bytes move through precompiled little-endian
``struct`` codecs (:data:`UNPACK`, :data:`PACK`), the checked accessors'
and decoded code's alike; other sizes go through ``int.from_bytes`` and
``int.to_bytes``.

A forked child's address space is a copy of its parked parent's
(:meth:`AddressSpace.fork`): every live region and run at the same base
with private bytes, the same segments, cursors and freed-region FIFO,
and no bytes written yet.  Nothing the child does reaches the parent.

An exhausted segment raises :class:`MemoryError`; the allocators turn
it into the trap a real process would take (a stack overflow, an
out-of-memory ``malloc``).
"""

from __future__ import annotations

import bisect
import struct
from collections import OrderedDict
from typing import NamedTuple

from repro.vm.errors import CrashSite, TrapKind, VMTrap


# Every region's base is a multiple of this.
ALIGN = 16

# Each scalar size's little-endian codec, bound to its buffer method:
# ``UNPACK[size](buffer, offset)[0]`` reads an unsigned value,
# ``PACK[size](buffer, offset, value)`` writes one that fits.  The
# explicit ``<`` keeps results independent of the host's byte order.
_FORMATS = {1: "<B", 2: "<H", 4: "<I", 8: "<Q"}
UNPACK = {size: struct.Struct(fmt).unpack_from for size, fmt in _FORMATS.items()}
PACK = {size: struct.Struct(fmt).pack_into for size, fmt in _FORMATS.items()}


class Segment:
    """A contiguous slice of the address space with bump allocation."""

    def __init__(self, name: str, base: int, size: int):
        self.name = name
        self.base = base
        self.size = size
        self.cursor = base

    @property
    def limit(self) -> int:
        return self.base + self.size

    def reserve(self, size: int, align: int = ALIGN) -> int:
        """Reserve *size* bytes; returns the base address."""
        start = (self.cursor + align - 1) // align * align
        if start + size > self.limit:
            raise MemoryError(f"segment {self.name} exhausted")
        self.cursor = start + size
        return start

    def reset(self) -> None:
        self.cursor = self.base

    def copy(self) -> Segment:
        segment = Segment(self.name, self.base, self.size)
        segment.cursor = self.cursor
        return segment


GLOBAL_BASE = 0x0000_1000_0000
HEAP_BASE = 0x0000_2000_0000
STACK_BASE = 0x0000_7000_0000
HANDLE_BASE = 0x0000_F000_0000

GLOBAL_SIZE = 0x1000_0000
HEAP_SIZE = 0x4000_0000
STACK_SIZE = 0x0800_0000
# Gap of unmapped space between consecutive regions, so off-by-N
# pointer arithmetic lands in unaddressable memory instead of a
# neighbouring allocation (a software red zone).
RED_ZONE = 16


class RunLayout(NamedTuple):
    """Where a run of allocas puts each one, as offsets from the first
    one's base, with their sizes and tags, and the span from that base
    to the stack cursor after the last (see :func:`stack_run`)."""

    offsets: tuple
    sizes: tuple
    tags: tuple
    span: int


def stack_run(sizes, tags) -> RunLayout:
    """Where mapping allocas of *sizes* one at a time puts each region:
    each takes its size (at least 1) and a red zone, and the next starts
    at the next aligned address.  The first base is aligned, so the
    offsets do not depend on where the run starts."""
    offsets = []
    end = 0
    for size in sizes:
        start = (end + ALIGN - 1) // ALIGN * ALIGN
        offsets.append(start)
        end = start + max(size, 1) + RED_ZONE
    return RunLayout(tuple(offsets), tuple(sizes), tuple(tags), end)


class MemoryRegion:
    """One live or dead allocation; a dead one has no ``data``.

    ``origin`` is the address of ``data[0]``: the base, but for an
    alloca's view over a :class:`StackRun`, whose ``data`` is the run's
    buffer and whose ``origin`` is the run's base."""

    __slots__ = ("base", "size", "data", "origin", "writable", "kind", "tag",
                 "alive")

    def __init__(self, base: int, size: int, writable: bool, kind: str, tag: str = ""):
        self.base = base
        self.size = size
        self.data = bytearray(size)
        self.origin = base
        self.writable = writable
        self.kind = kind          # "global" | "heap" | "stack"
        self.tag = tag            # symbol name / allocation site
        self.alive = True

    @property
    def limit(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.limit

    def copy(self) -> MemoryRegion:
        """This region with a private copy of its bytes."""
        region = MemoryRegion.__new__(MemoryRegion)
        region.base = self.base
        region.size = self.size
        region.data = bytearray(self.data)
        region.origin = self.origin
        region.writable = self.writable
        region.kind = self.kind
        region.tag = self.tag
        region.alive = self.alive
        return region

    def __repr__(self) -> str:
        state = "live" if self.alive else "dead"
        return f"<Region {self.kind} {self.tag!r} @0x{self.base:x}+{self.size} {state}>"


class StackRun:
    """A run of allocas mapped as one stack object: its first alloca's
    base, one buffer over the run's span, and its :class:`RunLayout`.
    ``regions`` holds each alloca's region once something asked for it
    (:meth:`region`); they die with the run (:meth:`kill_regions`)."""

    __slots__ = ("base", "data", "layout", "regions", "alive")

    def __init__(self, base: int, layout: RunLayout):
        self.base = base
        self.data = bytearray(layout.span)
        self.layout = layout
        self.regions: list | None = None
        self.alive = True

    def copy(self) -> StackRun:
        """This run with a private copy of its bytes."""
        run = StackRun.__new__(StackRun)
        run.base = self.base
        run.data = bytearray(self.data)
        run.layout = self.layout
        run.regions = None
        run.alive = self.alive
        return run

    def member(self, address: int) -> int:
        """The index of the last alloca whose base is at or below
        *address*, which is at or above the run's base."""
        return bisect.bisect_right(self.layout.offsets, address - self.base) - 1

    def region(self, k: int) -> MemoryRegion:
        """Alloca *k*'s region, over the run's buffer, built once."""
        regions = self.regions
        if regions is None:
            regions = self.regions = [None] * len(self.layout.offsets)
        region = regions[k]
        if region is None:
            layout = self.layout
            region = regions[k] = MemoryRegion.__new__(MemoryRegion)
            region.base = self.base + layout.offsets[k]
            region.size = layout.sizes[k]
            region.data = self.data
            region.origin = self.base
            region.writable = True
            region.kind = "stack"
            region.tag = layout.tags[k]
            region.alive = self.alive
        return region

    def all_regions(self) -> list[MemoryRegion]:
        """Every alloca's region, in address order."""
        return [self.region(k) for k in range(len(self.layout.offsets))]

    def kill_regions(self) -> None:
        """Every region built over the run dies with it and lets go of
        its buffer."""
        for region in self.regions:
            if region is not None:
                region.alive = False
                region.data = None


class SpaceView(NamedTuple):
    """What an address space holds, for comparing two of them: each
    live region, one per alloca, as ``(base, size, kind, tag)`` in
    address order; the freed-region FIFO the same way, oldest first;
    the global, heap and stack cursors; and the bytes written."""

    live: tuple
    dead: tuple
    cursors: tuple
    bytes_written: int


class AddressSpace:
    """All mapped memory of one simulated process."""

    DEAD_REGION_MEMORY = 256  # how many freed regions we remember

    def __init__(self) -> None:
        self.global_segment = Segment("global", GLOBAL_BASE, GLOBAL_SIZE)
        self.heap_segment = Segment("heap", HEAP_BASE, HEAP_SIZE)
        self.stack_segment = Segment("stack", STACK_BASE, STACK_SIZE)
        # Sorted bases of the live regions and runs, and each by base.
        self._bases: list[int] = []
        self._regions: dict[int, MemoryRegion | StackRun] = {}
        self._dead: OrderedDict[int, MemoryRegion] = OrderedDict()
        # Unmapped frames not yet folded into ``_dead``, and how many
        # allocas they hold.
        self._frames: list[list] = []
        self._logged = 0
        self._last: MemoryRegion | None = None   # last region found
        self.bytes_written = 0  # drives copy-on-write cost accounting

    # -- mapping ------------------------------------------------------

    def map_region(self, segment: Segment, size: int, writable: bool,
                   kind: str, tag: str = "") -> MemoryRegion:
        base = segment.reserve(max(size, 1) + RED_ZONE)
        region = MemoryRegion(base, size, writable, kind, tag)
        index = bisect.bisect_left(self._bases, base)
        self._bases.insert(index, base)
        self._regions[base] = region
        return region

    def map_stack_run(self, layout: RunLayout) -> StackRun:
        """Map a run of allocas, each where mapping them one at a time
        would put it, as one :class:`StackRun` whose base is above every
        mapped one.  A span that does not fit raises MemoryError and
        maps nothing."""
        run = StackRun(self.stack_segment.reserve(layout.span), layout)
        self._bases.append(run.base)
        self._regions[run.base] = run
        return run

    def map_stack_alloca(self, layout: RunLayout, frame: list) -> StackRun:
        """Map the last alloca of *layout*, a run's layout up to that
        alloca, as mapping the run one alloca at a time does; returns
        its run.  A run's first alloca maps a run of its own and appends
        it to *frame*.  Each later one grows the frame's newest run in
        place: it reserves exactly the growth in span, its padding, size
        and red zone (the cursor is at the run's end, so the reservation
        is not aligned again), extends the same buffer and advances the
        run's layout to *layout*.  A reservation that does not fit
        raises MemoryError and maps nothing."""
        if len(layout.offsets) == 1:
            run = self.map_stack_run(layout)
            frame.append(run)
            return run
        run = frame[-1]
        growth = layout.span - run.layout.span
        self.stack_segment.reserve(growth, 1)
        run.data.extend(bytes(growth))
        run.layout = layout
        return run

    def unmap_frame(self, frame: list) -> None:
        """Unmap one frame's runs, given in the order they were mapped:
        the last ``len(frame)`` bases dropped at once, the frame logged
        for the freed-region FIFO."""
        if not frame:       # ``del bases[-0:]`` would empty the list
            return
        del self._bases[-len(frame):]
        live = self._regions
        allocas = 0
        for run in frame:
            del live[run.base]
            run.alive = False
            run.data = None
            allocas += len(run.layout.offsets)
            if run.regions is not None:
                run.kill_regions()
        self._frames.append(frame)
        self._logged += allocas
        if self._logged > self.DEAD_REGION_MEMORY:
            self._fold()

    def _fold(self) -> None:
        """Move the logged frames into the freed-region FIFO, frame by
        frame, trimming it after each as unmapping that frame would."""
        dead, memory = self._dead, self.DEAD_REGION_MEMORY
        for frame in self._frames:
            for run in frame:
                for region in run.all_regions():
                    dead[region.base] = region
            while len(dead) > memory:
                dead.popitem(last=False)
        self._frames = []
        self._logged = 0

    def _fifo(self) -> OrderedDict[int, MemoryRegion]:
        """The freed-region FIFO, with every logged frame in it."""
        if self._frames:
            self._fold()
        return self._dead

    def unmap(self, region: MemoryRegion) -> None:
        if not region.alive:
            raise ValueError("double unmap")
        dead = self._fifo()
        region.alive = False
        region.data = None
        index = bisect.bisect_left(self._bases, region.base)
        del self._bases[index]
        del self._regions[region.base]
        dead[region.base] = region
        while len(dead) > self.DEAD_REGION_MEMORY:
            dead.popitem(last=False)

    def forget_dead_regions(self) -> None:
        """Drop the freed-region memory (called when cursors rewind,
        since recycled addresses would otherwise shadow-match old
        regions)."""
        self._dead.clear()
        self._frames = []
        self._logged = 0

    def fork(self) -> AddressSpace:
        """A forked child's copy of this address space: a private copy
        of every live region and run, the same segments and cursors, the
        same freed-region FIFO (dead regions hold no bytes and never
        change, so it shares them), and no bytes written."""
        child = AddressSpace.__new__(AddressSpace)
        child.global_segment = self.global_segment.copy()
        child.heap_segment = self.heap_segment.copy()
        child.stack_segment = self.stack_segment.copy()
        child._bases = self._bases.copy()
        child._regions = {base: entry.copy()
                          for base, entry in self._regions.items()}
        child._dead = self._fifo().copy()
        child._frames = []
        child._logged = 0
        child._last = None
        child.bytes_written = 0
        return child

    def region_at(self, base: int) -> MemoryRegion:
        """The live global or heap region mapped at *base* (a stack
        alloca has no region of its own to look up)."""
        region = self._regions[base]
        if type(region) is not MemoryRegion:
            raise KeyError(base)
        return region

    # -- lookup -------------------------------------------------------

    def find_region(self, address: int) -> MemoryRegion | None:
        """Live region containing *address*, or ``None``."""
        region = self._last
        if (region is not None and region.alive
                and region.base <= address < region.base + region.size):
            return region
        index = bisect.bisect_right(self._bases, address) - 1
        if index < 0:
            return None
        region = self._regions[self._bases[index]]
        if type(region) is StackRun:
            run = region
            k = run.member(address)
            layout = run.layout
            if address - run.base - layout.offsets[k] >= layout.sizes[k]:
                return None
            region = run.region(k)
        elif address >= region.base + region.size:
            return None
        self._last = region
        return region

    def find_dead_region(self, address: int) -> MemoryRegion | None:
        """Freed region that used to contain *address*, or ``None``."""
        for region in reversed(self._fifo().values()):
            if region.contains(address):
                return region
        return None

    def live_regions(self, kind: str | None = None) -> list[MemoryRegion]:
        """Every live region, one per alloca, in the order mapped."""
        regions = []
        for entry in self._regions.values():
            if type(entry) is StackRun:
                if kind is None or kind == "stack":
                    regions += entry.all_regions()
            elif kind is None or entry.kind == kind:
                regions.append(entry)
        return regions

    def view(self) -> SpaceView:
        """This address space's :class:`SpaceView`."""
        live = []
        for base in self._bases:
            entry = self._regions[base]
            regions = (entry.all_regions() if type(entry) is StackRun
                       else (entry,))
            live += [(r.base, r.size, r.kind, r.tag) for r in regions]
        return SpaceView(
            tuple(live),
            tuple((r.base, r.size, r.kind, r.tag) for r in self._fifo().values()),
            (self.global_segment.cursor, self.heap_segment.cursor,
             self.stack_segment.cursor),
            self.bytes_written)

    # -- checked access -----------------------------------------------

    def _fault(self, address: int, size: int, write: bool, site: CrashSite) -> VMTrap:
        mode = "write" if write else "read"
        if address == 0 or 0 < address < 4096:
            return VMTrap(TrapKind.NULL_DEREF,
                          f"{mode} of {size} bytes at null page address 0x{address:x}", site)
        dead = self.find_dead_region(address)
        if dead is not None:
            return VMTrap(TrapKind.USE_AFTER_FREE,
                          f"{mode} at 0x{address:x} inside freed {dead.kind} "
                          f"region {dead.tag!r}", site)
        live = self.find_region(address)
        if live is None:
            # An access just past a region's end (inside its red zone)
            # is an overrun of that region, Valgrind-style ("N bytes
            # after a block of ..."); anything further out is a wild
            # unaddressable access.
            index = bisect.bisect_right(self._bases, address) - 1
            if index >= 0:
                candidate = self._regions[self._bases[index]]
                if type(candidate) is StackRun:
                    candidate = candidate.region(candidate.member(address))
                if address < candidate.limit + RED_ZONE:
                    live = candidate
        if live is not None:
            if live.kind == "global":
                kind = TrapKind.ARRAY_OOB
            elif write:
                kind = TrapKind.INVALID_WRITE
            else:
                kind = TrapKind.INVALID_READ
            return VMTrap(kind,
                          f"{mode} of {size} bytes at 0x{address:x} overruns "
                          f"{live.kind} region {live.tag!r} "
                          f"(0x{live.base:x}+{live.size})", site)
        return VMTrap(TrapKind.UNADDRESSABLE,
                      f"{mode} of {size} bytes at unmapped address 0x{address:x}", site)

    def _read_only(self, region: MemoryRegion, address: int, site: CrashSite) -> VMTrap:
        return VMTrap(
            TrapKind.INVALID_WRITE,
            f"write to read-only {region.kind} region {region.tag!r} at 0x{address:x}",
            site,
        )

    def check(self, address: int, size: int, write: bool, site: CrashSite) -> MemoryRegion:
        region = self.find_region(address)
        if region is None or address + size > region.base + region.size:
            raise self._fault(address, size, write, site)
        if write and not region.writable:
            raise self._read_only(region, address, site)
        return region

    def read(self, address: int, size: int, site: CrashSite) -> bytes:
        region = self.check(address, size, False, site)
        offset = address - region.origin
        return bytes(region.data[offset:offset + size])

    def write(self, address: int, data: bytes, site: CrashSite) -> None:
        region = self.check(address, len(data), True, site)
        offset = address - region.origin
        region.data[offset:offset + len(data)] = data
        self.bytes_written += len(data)

    # The scalar accessors behind every checked Load and Store:
    # ``check`` inlined, the last region tried before the lookup, and a
    # codec for the scalar sizes.

    def read_int(self, address: int, size: int, site: CrashSite) -> int:
        region = self._last
        if (region is None or not region.alive or address < region.base
                or address + size > region.base + region.size):
            region = self.find_region(address)
            if region is None or address + size > region.base + region.size:
                raise self._fault(address, size, False, site)
        offset = address - region.origin
        unpack = UNPACK.get(size)
        if unpack is not None:
            return unpack(region.data, offset)[0]
        return int.from_bytes(region.data[offset:offset + size], "little")

    def write_int(self, address: int, value: int, size: int, site: CrashSite) -> None:
        region = self._last
        if (region is None or not region.alive or address < region.base
                or address + size > region.base + region.size):
            region = self.find_region(address)
            if region is None or address + size > region.base + region.size:
                raise self._fault(address, size, True, site)
        if not region.writable:
            raise self._read_only(region, address, site)
        offset = address - region.origin
        value &= (1 << (size * 8)) - 1
        pack = PACK.get(size)
        if pack is not None:
            pack(region.data, offset, value)
        else:
            region.data[offset:offset + size] = value.to_bytes(size, "little")
        self.bytes_written += size

    def read_cstring(self, address: int, site: CrashSite, limit: int = 1 << 16) -> bytes:
        """Read a NUL-terminated string (without the terminator).

        A string that runs off its region faults at the first byte past
        it, even where the region's buffer goes on (a stack alloca's
        zeroed red zone, its run's next alloca); one of *limit* bytes
        with no terminator is unterminated."""
        region = self.find_region(address)
        if region is None:
            raise self._fault(address, 1, False, site)
        offset = address - region.origin
        available = region.base + region.size - address
        end = region.data.find(0, offset, offset + min(available, limit))
        if end >= 0:
            return bytes(region.data[offset:end])
        if available < limit:
            raise self._fault(address + available, 1, False, site)
        raise VMTrap(TrapKind.INVALID_READ, f"unterminated string at 0x{address:x}", site)

    # -- accounting ---------------------------------------------------

    def footprint_bytes(self) -> int:
        """Total live mapped bytes (drives fork/CoW cost modelling)."""
        return sum(sum(entry.layout.sizes) if type(entry) is StackRun
                   else entry.size for entry in self._regions.values())

    def region_count(self, kind: str | None = None) -> int:
        """How many live regions, one per alloca, of *kind* if given;
        no region is built to count them."""
        count = 0
        for entry in self._regions.values():
            if type(entry) is StackRun:
                if kind is None or kind == "stack":
                    count += len(entry.layout.offsets)
            elif kind is None or entry.kind == kind:
                count += 1
        return count
