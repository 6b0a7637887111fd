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
paper's §6.1.4 validation.

Stack frames map last-in-first-out.  Stack regions are the highest
mapped regions (FILE handles are not regions), and a frame's regions
are mapped after its caller's and unmapped before them, so
:meth:`AddressSpace.map_stack` appends its base and
:meth:`AddressSpace.unmap_frame` truncates the sorted bases in one
call.  Decoded code reads and writes a frame's own allocas and named
globals through the region's bytes directly (see
``repro.vm.interpreter``): :meth:`AddressSpace.read_int` and
:meth:`AddressSpace.write_int` see only the accesses that are checked.

A forked child's address space is a copy of its parked parent's
(:meth:`AddressSpace.fork`): every live region at the same base with
private bytes, the same segments, cursors and freed-region FIFO, and
no bytes written yet.  Nothing the child does reaches the parent.

An exhausted segment raises :class:`MemoryError`; the allocators turn
it into the trap a real process would take (a stack overflow, an
out-of-memory ``malloc``).
"""

from __future__ import annotations

import bisect
from collections import OrderedDict

from repro.vm.errors import CrashSite, TrapKind, VMTrap


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

    def contains(self, address: int) -> bool:
        return self.base <= address < self.limit

    def reserve(self, size: int, align: int = 16) -> int:
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


class MemoryRegion:
    """One live or dead allocation."""

    __slots__ = ("base", "size", "data", "writable", "kind", "tag", "alive")

    def __init__(self, base: int, size: int, writable: bool, kind: str, tag: str = ""):
        self.base = base
        self.size = size
        self.data = bytearray(size)
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
        region.writable = self.writable
        region.kind = self.kind
        region.tag = self.tag
        region.alive = self.alive
        return region

    def __repr__(self) -> str:
        state = "live" if self.alive else "dead"
        return f"<Region {self.kind} {self.tag!r} @0x{self.base:x}+{self.size} {state}>"


class AddressSpace:
    """All mapped memory of one simulated process."""

    DEAD_REGION_MEMORY = 256  # how many freed regions we remember

    def __init__(self) -> None:
        self.global_segment = Segment("global", GLOBAL_BASE, GLOBAL_SIZE)
        self.heap_segment = Segment("heap", HEAP_BASE, HEAP_SIZE)
        self.stack_segment = Segment("stack", STACK_BASE, STACK_SIZE)
        self._bases: list[int] = []
        self._regions: dict[int, MemoryRegion] = {}
        self._dead: OrderedDict[int, MemoryRegion] = OrderedDict()
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

    def map_stack(self, size: int, tag: str) -> MemoryRegion:
        """Map one alloca's region: ``map_region`` on the stack segment,
        whose new base is above every mapped one."""
        base = self.stack_segment.reserve(max(size, 1) + RED_ZONE)
        region = MemoryRegion(base, size, True, "stack", tag)
        self._bases.append(base)
        self._regions[base] = region
        return region

    def unmap_frame(self, regions: list[MemoryRegion]) -> None:
        """Unmap one frame's regions, in the order they were mapped:
        ``unmap`` of each, the last ``len(regions)`` bases dropped at
        once."""
        if not regions:     # ``del bases[-0:]`` would empty the list
            return
        del self._bases[-len(regions):]
        live, dead = self._regions, self._dead
        for region in regions:
            region.alive = False
            del live[region.base]
            dead[region.base] = region
        while len(dead) > self.DEAD_REGION_MEMORY:
            dead.popitem(last=False)

    def unmap(self, region: MemoryRegion) -> None:
        if not region.alive:
            raise ValueError("double unmap")
        region.alive = False
        index = bisect.bisect_left(self._bases, region.base)
        del self._bases[index]
        del self._regions[region.base]
        self._dead[region.base] = region
        while len(self._dead) > self.DEAD_REGION_MEMORY:
            self._dead.popitem(last=False)

    def forget_dead_regions(self) -> None:
        """Drop the freed-region memory (called when cursors rewind,
        since recycled addresses would otherwise shadow-match old
        regions)."""
        self._dead.clear()

    def fork(self) -> AddressSpace:
        """A forked child's copy of this address space: a private copy
        of every live region, the same segments and cursors, the same
        freed-region FIFO (dead regions are never written, so it shares
        them), and no bytes written."""
        child = AddressSpace.__new__(AddressSpace)
        child.global_segment = self.global_segment.copy()
        child.heap_segment = self.heap_segment.copy()
        child.stack_segment = self.stack_segment.copy()
        child._bases = self._bases.copy()
        child._regions = {base: region.copy()
                          for base, region in self._regions.items()}
        child._dead = self._dead.copy()
        child._last = None
        child.bytes_written = 0
        return child

    def region_at(self, base: int) -> MemoryRegion:
        """The live region mapped at *base*."""
        return self._regions[base]

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
        if address < region.base + region.size:
            self._last = region
            return region
        return None

    def find_dead_region(self, address: int) -> MemoryRegion | None:
        """Freed region that used to contain *address*, or ``None``."""
        for region in reversed(self._dead.values()):
            if region.contains(address):
                return region
        return None

    def live_regions(self, kind: str | None = None) -> list[MemoryRegion]:
        regions = list(self._regions.values())
        if kind is not None:
            regions = [r for r in regions if r.kind == kind]
        return regions

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
        offset = address - region.base
        return bytes(region.data[offset:offset + size])

    def write(self, address: int, data: bytes, site: CrashSite) -> None:
        region = self.check(address, len(data), True, site)
        offset = address - region.base
        region.data[offset:offset + len(data)] = data
        self.bytes_written += len(data)

    # The scalar accessors behind every checked Load and Store:
    # ``check`` and the slice inlined, the last region tried before the
    # lookup.

    def read_int(self, address: int, size: int, site: CrashSite) -> int:
        region = self._last
        if (region is None or not region.alive or address < region.base
                or address + size > region.base + region.size):
            region = self.find_region(address)
            if region is None or address + size > region.base + region.size:
                raise self._fault(address, size, False, site)
        offset = address - region.base
        return int.from_bytes(region.data[offset:offset + size], "little")

    def write_int(self, address: int, value: int, size: int, site: CrashSite) -> None:
        data = (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little")
        region = self._last
        if (region is None or not region.alive or address < region.base
                or address + size > region.base + region.size):
            region = self.find_region(address)
            if region is None or address + size > region.base + region.size:
                raise self._fault(address, size, True, site)
        if not region.writable:
            raise self._read_only(region, address, site)
        offset = address - region.base
        region.data[offset:offset + size] = data
        self.bytes_written += size

    def read_cstring(self, address: int, site: CrashSite, limit: int = 1 << 16) -> bytes:
        """Read a NUL-terminated string (without the terminator).

        A string that runs off its region faults at the first byte past
        it; one of *limit* bytes with no terminator is unterminated."""
        region = self.find_region(address)
        if region is None:
            raise self._fault(address, 1, False, site)
        offset = address - region.base
        available = region.size - offset
        end = region.data.find(0, offset, offset + min(available, limit))
        if end >= 0:
            return bytes(region.data[offset:end])
        if available < limit:
            raise self._fault(address + available, 1, False, site)
        raise VMTrap(TrapKind.INVALID_READ, f"unterminated string at 0x{address:x}", site)

    # -- accounting ---------------------------------------------------

    def footprint_bytes(self) -> int:
        """Total live mapped bytes (drives fork/CoW cost modelling)."""
        return sum(r.size for r in self._regions.values())

    def region_count(self) -> int:
        return len(self._regions)
