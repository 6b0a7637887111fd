"""Heap allocator for the MiniVM.

Implements ``malloc`` / ``calloc`` / ``realloc`` / ``free`` semantics on
top of :class:`~repro.vm.memory.AddressSpace`, with full lifecycle
checking (double free, invalid free, use-after-free via the address
space's dead-region memory) and leak reporting.

The heap enforces a per-process budget: a persistent process that leaks
across test cases — exactly the failure mode the paper's §2 motivates —
will eventually raise :data:`TrapKind.OUT_OF_MEMORY`, producing the
"false crash" pathology that ClosureX's HeapPass prevents.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.vm.errors import CrashSite, TrapKind, VMTrap
from repro.vm.memory import AddressSpace, MemoryRegion


@dataclass
class HeapStats:
    """Cumulative allocator statistics for one process lifetime."""

    allocations: int = 0
    frees: int = 0
    bytes_allocated: int = 0
    peak_live_bytes: int = 0


class Heap:
    """Checked heap allocator with leak accounting."""

    def __init__(self, space: AddressSpace, budget_bytes: int = 64 << 20):
        self.space = space
        self.budget_bytes = budget_bytes
        self.live: dict[int, MemoryRegion] = {}
        self.live_bytes = 0
        self.stats = HeapStats()

    def malloc(self, size: int, site: CrashSite, tag: str = "malloc") -> int:
        """Allocate *size* bytes; returns the chunk address (0 on size 0).

        Freed addresses are not reused: each chunk takes fresh address
        space from the heap segment's bump cursor, which only
        :meth:`repro.vm.VM.reset_heap_addresses` rewinds.  A process
        that runs the segment out traps with ``OUT_OF_MEMORY``, as one
        over its budget does, however few bytes it holds."""
        if size < 0:
            raise VMTrap(TrapKind.OUT_OF_MEMORY, f"malloc with negative size {size}", site)
        if size == 0:
            return 0
        if self.live_bytes + size > self.budget_bytes:
            raise VMTrap(
                TrapKind.OUT_OF_MEMORY,
                f"heap budget exceeded: {self.live_bytes} live + {size} requested "
                f"> {self.budget_bytes}",
                site,
            )
        try:
            region = self.space.map_region(self.space.heap_segment, size,
                                           True, "heap", tag)
        except MemoryError:
            raise VMTrap(
                TrapKind.OUT_OF_MEMORY,
                f"heap address space exhausted: {size} bytes requested, "
                f"{self.live_bytes} live",
                site,
            ) from None
        self.live[region.base] = region
        self.live_bytes += size
        self.stats.allocations += 1
        self.stats.bytes_allocated += size
        self.stats.peak_live_bytes = max(self.stats.peak_live_bytes, self.live_bytes)
        return region.base

    def calloc(self, count: int, size: int, site: CrashSite) -> int:
        total = count * size
        if count < 0 or size < 0:
            raise VMTrap(TrapKind.OUT_OF_MEMORY, "calloc with negative size", site)
        return self.malloc(total, site, tag="calloc")  # regions start zeroed

    def realloc(self, address: int, size: int, site: CrashSite) -> int:
        if address == 0:
            return self.malloc(size, site, tag="realloc")
        old = self.live.get(address)
        if old is None:
            self._bad_free(address, site, verb="realloc")
        if size == 0:
            self.free(address, site)
            return 0
        new_address = self.malloc(size, site, tag="realloc")
        keep = min(old.size, size)
        new_region = self.live[new_address]
        new_region.data[:keep] = old.data[:keep]
        self.free(address, site)
        return new_address

    def free(self, address: int, site: CrashSite) -> None:
        if address == 0:
            return  # free(NULL) is a no-op, as in C
        region = self.live.pop(address, None)
        if region is None:
            self._bad_free(address, site, verb="free")
        self.live_bytes -= region.size
        self.stats.frees += 1
        self.space.unmap(region)

    def _bad_free(self, address: int, site: CrashSite, verb: str) -> None:
        dead = self.space.find_dead_region(address)
        if dead is not None and dead.kind == "heap" and dead.base == address:
            raise VMTrap(TrapKind.DOUBLE_FREE, f"{verb} of already-freed chunk 0x{address:x}", site)
        raise VMTrap(
            TrapKind.INVALID_FREE,
            f"{verb} of pointer 0x{address:x} that is not a live chunk base",
            site,
        )

    def chunk_size(self, address: int) -> int | None:
        region = self.live.get(address)
        return region.size if region is not None else None

    def leaked_chunks(self) -> list[MemoryRegion]:
        """Chunks still live — what ClosureX's chunk map sweeps."""
        return list(self.live.values())

    def live_chunk_count(self) -> int:
        return len(self.live)

    def snapshot_live_set(self) -> dict[int, bytes]:
        """Address -> contents of every live chunk (for state comparison)."""
        return {base: bytes(region.data) for base, region in self.live.items()}
