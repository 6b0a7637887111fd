"""Unit tests for the address space and fault classification."""

import pytest

from repro.vm.errors import CrashSite, TrapKind, VMTrap
from repro.vm.memory import RED_ZONE, STACK_BASE, AddressSpace, stack_run

SITE = CrashSite("test_fn", "test_block")


@pytest.fixture
def space():
    return AddressSpace()


class TestMapping:
    def test_map_and_rw(self, space):
        region = space.map_region(space.heap_segment, 64, True, "heap", "a")
        space.write(region.base, b"hello", SITE)
        assert space.read(region.base, 5, SITE) == b"hello"

    def test_regions_do_not_overlap(self, space):
        regions = [
            space.map_region(space.heap_segment, 32, True, "heap", str(i))
            for i in range(16)
        ]
        spans = sorted((r.base, r.limit) for r in regions)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start

    def test_red_zone_between_regions(self, space):
        first = space.map_region(space.heap_segment, 32, True, "heap", "a")
        second = space.map_region(space.heap_segment, 32, True, "heap", "b")
        assert second.base - first.limit >= RED_ZONE

    def test_find_region(self, space):
        region = space.map_region(space.heap_segment, 16, True, "heap", "a")
        assert space.find_region(region.base) is region
        assert space.find_region(region.base + 15) is region
        assert space.find_region(region.limit) is None

    def test_unmap_removes(self, space):
        region = space.map_region(space.heap_segment, 16, True, "heap", "a")
        space.unmap(region)
        assert space.find_region(region.base) is None
        assert space.find_dead_region(region.base) is region

    def test_double_unmap_rejected(self, space):
        region = space.map_region(space.heap_segment, 16, True, "heap", "a")
        space.unmap(region)
        with pytest.raises(ValueError):
            space.unmap(region)

    def test_footprint(self, space):
        space.map_region(space.heap_segment, 100, True, "heap", "a")
        space.map_region(space.global_segment, 28, True, "global", "b")
        assert space.footprint_bytes() == 128
        assert space.region_count() == 2


class TestFaultClassification:
    def test_null_deref(self, space):
        with pytest.raises(VMTrap) as info:
            space.read(0, 4, SITE)
        assert info.value.kind is TrapKind.NULL_DEREF

    def test_null_page(self, space):
        with pytest.raises(VMTrap) as info:
            space.write(24, b"x", SITE)  # struct-field offset off NULL
        assert info.value.kind is TrapKind.NULL_DEREF

    def test_wild_access_is_unaddressable(self, space):
        with pytest.raises(VMTrap) as info:
            space.read(0x5555_5555, 4, SITE)
        assert info.value.kind is TrapKind.UNADDRESSABLE

    def test_use_after_free(self, space):
        region = space.map_region(space.heap_segment, 16, True, "heap", "a")
        space.unmap(region)
        with pytest.raises(VMTrap) as info:
            space.read(region.base, 1, SITE)
        assert info.value.kind is TrapKind.USE_AFTER_FREE

    def test_overrun_starting_inside_heap_region(self, space):
        region = space.map_region(space.heap_segment, 16, True, "heap", "a")
        with pytest.raises(VMTrap) as info:
            space.write(region.base + 14, b"abcd", SITE)
        assert info.value.kind is TrapKind.INVALID_WRITE
        with pytest.raises(VMTrap) as info:
            space.read(region.base + 14, 4, SITE)
        assert info.value.kind is TrapKind.INVALID_READ

    def test_access_in_red_zone_is_overrun(self, space):
        region = space.map_region(space.heap_segment, 16, True, "heap", "a")
        with pytest.raises(VMTrap) as info:
            space.read(region.limit + 2, 1, SITE)
        assert info.value.kind is TrapKind.INVALID_READ

    def test_global_overrun_is_array_oob(self, space):
        region = space.map_region(space.global_segment, 64, True, "global", "arr")
        with pytest.raises(VMTrap) as info:
            space.write(region.limit, b"\x01", SITE)
        assert info.value.kind is TrapKind.ARRAY_OOB

    def test_write_to_readonly_region(self, space):
        region = space.map_region(space.global_segment, 8, False, "global", "ro")
        with pytest.raises(VMTrap) as info:
            space.write(region.base, b"x", SITE)
        assert info.value.kind is TrapKind.INVALID_WRITE
        # reads are fine
        assert space.read(region.base, 8, SITE) == bytes(8)

    def test_trap_site_captured(self, space):
        with pytest.raises(VMTrap) as info:
            space.read(0, 1, SITE)
        assert info.value.site.function == "test_fn"
        assert info.value.site.block == "test_block"


class TestHelpers:
    def test_int_roundtrip(self, space):
        region = space.map_region(space.heap_segment, 16, True, "heap", "a")
        space.write_int(region.base, 0xDEADBEEF, 8, SITE)
        assert space.read_int(region.base, 8, SITE) == 0xDEADBEEF

    def test_int_write_wraps(self, space):
        region = space.map_region(space.heap_segment, 16, True, "heap", "a")
        space.write_int(region.base, -1, 4, SITE)
        assert space.read_int(region.base, 4, SITE) == 0xFFFFFFFF

    def test_cstring(self, space):
        region = space.map_region(space.heap_segment, 16, True, "heap", "a")
        space.write(region.base, b"hi\x00junk", SITE)
        assert space.read_cstring(region.base, SITE) == b"hi"

    def test_unterminated_cstring_traps_at_region_end(self, space):
        region = space.map_region(space.heap_segment, 8, True, "heap", "a")
        space.write(region.base, b"x" * 8, SITE)
        with pytest.raises(VMTrap):
            space.read_cstring(region.base, SITE)

    def test_bytes_written_accounting(self, space):
        region = space.map_region(space.heap_segment, 64, True, "heap", "a")
        before = space.bytes_written
        space.write(region.base, b"12345678", SITE)
        assert space.bytes_written - before == 8

    def test_dead_region_memory_bounded(self, space):
        for i in range(AddressSpace.DEAD_REGION_MEMORY + 50):
            region = space.map_region(space.heap_segment, 8, True, "heap", str(i))
            space.unmap(region)
        assert len(space.view().dead) == AddressSpace.DEAD_REGION_MEMORY

    def test_frames_fold_into_the_fifo_one_frame_at_a_time(self, space):
        """Unmapped frames reach the freed-region FIFO as unmapping each
        at once did, trimmed after each frame: a base freed again after
        its eviction goes to the end.  (A stack cursor rewound without
        forgetting the FIFO frees a base twice.)"""
        memory = AddressSpace.DEAD_REGION_MEMORY
        first = space.map_stack_run(stack_run((4,), ("s0",)))
        space.unmap_frame([first])
        for i in range(memory - 1):
            space.unmap(space.map_region(space.heap_segment, 8, True, "heap", f"h{i}"))
        space.unmap_frame([space.map_stack_run(stack_run((4,), ("s1",)))])
        space.stack_segment.cursor = STACK_BASE
        run = space.map_stack_run(stack_run((40, 4), ("s0 again", "next")))
        assert run.base == first.base
        space.unmap_frame([run])
        tags = [tag for _, _, _, tag in space.view().dead]
        assert tags == [f"h{i}" for i in range(2, memory - 1)] + [
            "s1", "s0 again", "next"]

    def test_forget_dead_regions(self, space):
        region = space.map_region(space.heap_segment, 8, True, "heap", "a")
        space.unmap(region)
        space.forget_dead_regions()
        with pytest.raises(VMTrap) as info:
            space.read(region.base, 1, SITE)
        assert info.value.kind is not TrapKind.USE_AFTER_FREE


def per_byte_cstring(space, address, site, limit=1 << 16):
    """``read_cstring`` as one checked one-byte read per character."""
    out = bytearray()
    current = address
    while len(out) < limit:
        byte = space.read(current, 1, site)[0]
        if byte == 0:
            return bytes(out)
        out.append(byte)
        current += 1
    raise VMTrap(TrapKind.INVALID_READ, f"unterminated string at 0x{address:x}", site)


def cstring_outcome(read, space, address):
    try:
        return read(space, address, SITE)
    except VMTrap as trap:
        return trap.kind, trap.message, trap.site


class TestReadCString:
    """The region-at-once ``read_cstring`` against the per-byte loop."""

    def same(self, space, address):
        fast = cstring_outcome(AddressSpace.read_cstring, space, address)
        assert fast == cstring_outcome(per_byte_cstring, space, address)
        return fast

    def test_string_ending_inside_its_region(self, space):
        region = space.map_region(space.heap_segment, 32, True, "heap", "s")
        space.write(region.base, b"hello\x00world\x00", SITE)
        assert self.same(space, region.base) == b"hello"
        assert self.same(space, region.base + 6) == b"world"
        assert self.same(space, region.base + 5) == b""

    def test_string_running_into_the_red_zone(self, space):
        region = space.map_region(space.heap_segment, 8, True, "heap", "s")
        space.map_region(space.heap_segment, 8, True, "heap", "next")
        space.write(region.base, b"abcdefgh", SITE)
        kind, message, _ = self.same(space, region.base + 3)
        assert kind is TrapKind.INVALID_READ
        assert f"0x{region.limit:x}" in message

    def test_string_starting_in_a_freed_region(self, space):
        region = space.map_region(space.heap_segment, 16, True, "heap", "s")
        space.write(region.base, b"gone\x00", SITE)
        space.unmap(region)
        assert self.same(space, region.base)[0] is TrapKind.USE_AFTER_FREE

    def test_string_starting_on_the_null_page(self, space):
        assert self.same(space, 0)[0] is TrapKind.NULL_DEREF
        assert self.same(space, 24)[0] is TrapKind.NULL_DEREF

    def test_64k_string_with_no_terminator(self, space):
        region = space.map_region(space.heap_segment, (1 << 16) + 64, True,
                                  "heap", "s")
        space.write(region.base, b"z" * region.size, SITE)
        kind, message, _ = self.same(space, region.base)
        assert kind is TrapKind.INVALID_READ
        assert message == f"unterminated string at 0x{region.base:x}"
        # 64 KiB to the region's end is unterminated; a byte less runs
        # into the red zone first.
        assert self.same(space, region.base + 64)[1].startswith("unterminated")
        assert "overruns" in self.same(space, region.base + 65)[1]
