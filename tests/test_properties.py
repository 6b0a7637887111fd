"""Property-based tests (hypothesis) over the core data structures.

These check the invariants the rest of the system silently relies on:
integer semantics, struct layout, the allocator, the address space,
coverage classification, mutator bounds, and — most valuable — that
MiniC constant expressions evaluate identically in the Python constant
folder and in the compiled-and-interpreted program.
"""

import hashlib
import pickle
import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fuzzing.coverage import (
    VirginMap,
    classify,
    coverage_signature,
    dense_signature,
    hit_cells,
    signature_bits,
    signature_id,
)
from repro.fuzzing.mutators import HavocMutator
from repro.ir.types import IntType, StructType, int_type
from repro.vm.errors import CrashSite, VMTrap
from repro.vm.heap import Heap
from repro.vm.memory import AddressSpace
from repro.vm.interpreter import COVERAGE_MAP_SIZE, CoverageMap

SITE = CrashSite("prop", "prop")

int_widths = st.sampled_from([8, 16, 32, 64])


class TestIntSemantics:
    @given(int_widths, st.integers())
    def test_wrap_is_idempotent(self, bits, value):
        type_ = int_type(bits)
        assert type_.wrap(type_.wrap(value)) == type_.wrap(value)

    @given(int_widths, st.integers())
    def test_wrap_range(self, bits, value):
        type_ = int_type(bits)
        assert 0 <= type_.wrap(value) <= type_.unsigned_max

    @given(int_widths, st.integers())
    def test_signed_roundtrip(self, bits, value):
        type_ = int_type(bits)
        wrapped = type_.wrap(value)
        assert type_.wrap(type_.to_signed(wrapped)) == wrapped

    @given(int_widths, st.integers())
    def test_signed_range(self, bits, value):
        type_ = int_type(bits)
        signed = type_.to_signed(type_.wrap(value))
        assert type_.signed_min <= signed <= type_.signed_max


class TestStructLayout:
    field_types = st.sampled_from([int_type(8), int_type(16), int_type(32),
                                   int_type(64)])

    @given(st.lists(field_types, min_size=1, max_size=10))
    def test_fields_do_not_overlap_and_are_aligned(self, types):
        struct = StructType("p", [(f"f{i}", t) for i, t in enumerate(types)])
        previous_end = 0
        for i, field_type in enumerate(types):
            offset = struct.field_offset(i)
            assert offset >= previous_end
            assert offset % field_type.alignment() == 0
            previous_end = offset + field_type.size()
        assert struct.size() >= previous_end
        assert struct.size() % struct.alignment() == 0


class TestHeapInvariants:
    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 512)),
                    min_size=1, max_size=60))
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_random_alloc_free_sequences(self, operations):
        heap = Heap(AddressSpace(), budget_bytes=1 << 22)
        live: list[int] = []
        for do_free, size in operations:
            if do_free and live:
                heap.free(live.pop(), SITE)
            else:
                address = heap.malloc(size, SITE)
                assert address != 0
                live.append(address)
        # live accounting matches
        assert heap.live_chunk_count() == len(live)
        # all live chunks remain readable at their full size
        for address in live:
            size = heap.chunk_size(address)
            assert size is not None
            heap.space.read(address, size, SITE)
        # and all distinct
        assert len(set(live)) == len(live)

    @given(st.lists(st.integers(1, 128), min_size=2, max_size=40))
    @settings(deadline=None)
    def test_chunks_never_overlap(self, sizes):
        heap = Heap(AddressSpace(), budget_bytes=1 << 22)
        spans = []
        for size in sizes:
            address = heap.malloc(size, SITE)
            spans.append((address, address + size))
        spans.sort()
        for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
            assert end_a <= start_b


class TestCoverageClassification:
    @given(st.binary(min_size=1, max_size=256))
    @settings(max_examples=50, deadline=None)
    def test_classify_preserves_zeroness(self, raw):
        classified = classify(raw)
        for i in range(len(raw)):
            assert (classified[i] == 0) == (raw[i] == 0)

    @given(st.integers(0, 255))
    def test_buckets_are_powers_of_two(self, count):
        value = int(classify(bytes([count]) + bytes(COVERAGE_MAP_SIZE - 1))[0])
        if count == 0:
            assert value == 0
        else:
            assert value in (1, 2, 4, 8, 16, 32, 64, 128)


#: Raw hitcount maps, mostly zero cells so that verdicts vary; a small
#: map size keeps each example cheap.
READER_MAP_SIZE = 64
raw_maps = st.one_of(
    st.lists(st.sampled_from([0, 0, 0, 0, 1, 2, 3, 5, 9, 17, 40, 200, 255]),
             min_size=READER_MAP_SIZE, max_size=READER_MAP_SIZE).map(bytes),
    st.binary(min_size=READER_MAP_SIZE, max_size=READER_MAP_SIZE),
)

#: The numpy lookup table classification used before ``bytes.translate``.
_OLD_LOOKUP = np.zeros(256, dtype=np.uint8)
_OLD_LOOKUP[1] = 1
_OLD_LOOKUP[2] = 2
_OLD_LOOKUP[3] = 4
_OLD_LOOKUP[4:8] = 8
_OLD_LOOKUP[8:16] = 16
_OLD_LOOKUP[16:32] = 32
_OLD_LOOKUP[32:128] = 64
_OLD_LOOKUP[128:256] = 128


def _old_classify(raw_map):
    return _OLD_LOOKUP[np.frombuffer(bytes(raw_map), dtype=np.uint8)]


class _OldVirginMap:
    """The virgin map's two former novelty routines, kept as the
    reference for the one ``VirginMap.observe``."""

    def __init__(self, size):
        self.virgin = np.full(size, 0xFF, dtype=np.uint8)

    def observe(self, raw_map):
        classified = _old_classify(raw_map)
        new_bits = classified & self.virgin
        if not new_bits.any():
            return VirginMap.NO_NEW
        new_edges = bool((new_bits[self.virgin == 0xFF]).any())
        self.virgin &= ~classified
        return VirginMap.NEW_EDGES if new_edges else VirginMap.NEW_COUNTS

    def observe_classified(self, signature):
        classified = np.frombuffer(signature, dtype=np.uint8)
        new_bits = classified & self.virgin
        if not new_bits.any():
            return VirginMap.NO_NEW
        new_edges = bool((new_bits[self.virgin == 0xFF]).any())
        self.virgin &= ~classified
        return VirginMap.NEW_EDGES if new_edges else VirginMap.NEW_COUNTS


def _guarded(raw, rng: random.Random) -> CoverageMap:
    """*raw* as a guard would leave it: a map plus its touched cells,
    in some first-hit order."""
    coverage = CoverageMap(len(raw))
    coverage[:] = raw
    coverage.cells = [cell for cell, count in enumerate(raw) if count]
    rng.shuffle(coverage.cells)
    return coverage


def _old_dense(raw) -> bytes:
    """The dense signature of *raw* as a whole 64 KiB classified map."""
    return _old_classify(raw).tobytes() + bytes(
        COVERAGE_MAP_SIZE - len(raw))


class TestCoverageReaders:
    """Each reader of a sparse signature equals the dense expression it
    replaced."""

    @given(raw_maps, st.integers(0, 2**31))
    @settings(max_examples=80, deadline=None)
    def test_signature_is_the_old_classification(self, raw, seed):
        signature = coverage_signature(raw)
        assert len(signature) % 3 == 0
        assert dense_signature(signature) == _old_dense(raw)
        assert coverage_signature(bytearray(raw)) == signature
        assert coverage_signature(_guarded(raw, random.Random(seed))) == \
            signature

    @given(raw_maps, st.integers(0, 2**31),
           st.integers(3, pickle.HIGHEST_PROTOCOL))
    @settings(max_examples=40, deadline=None)
    def test_a_pickled_map_keeps_its_cells(self, raw, seed, protocol):
        """Checkpoints pickle maps (a quarantined hang's result): the
        counts and the cell list survive, so the signature does."""
        coverage = _guarded(raw, random.Random(seed))
        restored = pickle.loads(pickle.dumps(coverage, protocol))
        assert type(restored) is CoverageMap
        assert restored == coverage and restored.cells == coverage.cells
        assert coverage_signature(restored) == coverage_signature(coverage)

    @given(raw_maps)
    @settings(max_examples=80, deadline=None)
    def test_hit_cells(self, raw):
        signature = coverage_signature(raw)
        array = np.frombuffer(_old_dense(raw), dtype=np.uint8)
        assert hit_cells(signature) == [
            int(cell) for cell in np.nonzero(array)[0]
        ]
        assert set(hit_cells(coverage_signature(bytearray(raw)))) == {
            i for i, v in enumerate(bytearray(raw)) if v
        }

    @given(raw_maps)
    @settings(max_examples=80, deadline=None)
    def test_signature_bits_and_id(self, raw):
        signature = coverage_signature(raw)
        dense = _old_dense(raw)
        assert signature_bits(signature) == int.from_bytes(dense, "little")
        assert signature_id(signature) == \
            hashlib.sha1(dense).hexdigest()[:16]

    @given(st.lists(st.tuples(raw_maps, st.sampled_from(
        ["raw", "signature"])), min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_one_observe_matches_the_old_two(self, steps):
        new = VirginMap(READER_MAP_SIZE)
        old = _OldVirginMap(READER_MAP_SIZE)
        for raw, form in steps:
            if form == "raw":
                expected = old.observe(bytearray(raw))
            else:
                expected = old.observe_classified(
                    _old_classify(raw).tobytes())
            assert new.observe(coverage_signature(raw)) == expected
            assert new.to_bytes() == old.virgin.tobytes()
            assert new.edges_found() == int((old.virgin != 0xFF).sum())

    @given(raw_maps, raw_maps)
    @settings(max_examples=40, deadline=None)
    def test_merge_is_the_old_and(self, first, second):
        maps = []
        for raw in (first, second):
            virgin = VirginMap(READER_MAP_SIZE)
            virgin.observe(coverage_signature(raw))
            maps.append(virgin)
        expected = (np.frombuffer(maps[0].to_bytes(), dtype=np.uint8)
                    & np.frombuffer(maps[1].to_bytes(), dtype=np.uint8))
        maps[0].merge(maps[1])
        assert maps[0].to_bytes() == expected.tobytes()


class TestMutatorBounds:
    @given(st.binary(min_size=0, max_size=300), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_havoc_respects_max_size(self, data, seed):
        havoc = HavocMutator(random.Random(seed), max_size=256)
        out = havoc.mutate(data)
        assert 1 <= len(out) <= 256

    @given(st.binary(min_size=1, max_size=100), st.binary(min_size=1, max_size=100),
           st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_splice_bounded(self, first, second, seed):
        havoc = HavocMutator(random.Random(seed), max_size=256)
        assert len(havoc.splice(first, second)) <= 256


class TestConstExprConformance:
    """MiniC differential testing: the parser's constant folder and the
    compiled program must agree on every constant expression."""

    @st.composite
    def const_expr(draw, depth=0):
        if depth > 3 or draw(st.booleans()):
            return str(draw(st.integers(0, 1000)))
        op = draw(st.sampled_from(["+", "-", "*", "|", "&", "^"]))
        lhs = draw(TestConstExprConformance.const_expr(depth + 1))
        rhs = draw(TestConstExprConformance.const_expr(depth + 1))
        return f"({lhs} {op} {rhs})"

    @given(const_expr())
    @settings(max_examples=40, deadline=None)
    def test_folder_matches_interpreter(self, expr):
        from repro.minic import compile_c
        from repro.minic.parser import parse, fold_const
        from repro.vm import VM

        unit = parse(f"void f() {{ {expr}; }}")
        folded = fold_const(unit.functions[0].body.statements[0].expr)
        assert folded is not None

        module = compile_c(
            f"long main(int argc, char **argv) {{ return {expr}; }}", "prop"
        )
        vm = VM(module)
        vm.load()
        argc, argv = vm.setup_argv(["p"])
        result = vm.run_function(module.get_function("main"), [argc, argv])
        # The program computes in i32 (wrapping); the folder in unbounded
        # ints.  All ops used (+ - * & | ^) commute with mod 2^32, so the
        # results must agree modulo 2^32.
        assert result % (1 << 32) == folded % (1 << 32)


class TestAddressSpaceInvariants:
    @given(st.lists(st.integers(1, 256), min_size=1, max_size=30))
    @settings(deadline=None)
    def test_lookup_finds_exactly_the_owner(self, sizes):
        space = AddressSpace()
        regions = [
            space.map_region(space.heap_segment, size, True, "heap", str(i))
            for i, size in enumerate(sizes)
        ]
        for region in regions:
            assert space.find_region(region.base) is region
            assert space.find_region(region.limit - 1) is region
