"""AFL-style coverage-map processing — the one reader of the map format.

The VM's instrumented guards maintain a 64 KiB hitcount map per
execution, and with it the list of cells the execution touched
(:class:`repro.vm.interpreter.CoverageMap`).  This module implements
the fuzzer-side half: hitcount *classification* into AFL's
power-of-two buckets (a classified map is a *signature*), the *virgin
map* that decides whether a signature shows new behaviour (new edge,
or a new hitcount bucket for a known edge), and the few readers the
corpus, triage, store and experiments need.  No other module decodes
a map or a signature, so changing their encoding changes this module
alone.

A signature is sparse and canonical: the touched cells in ascending
order as little-endian 16-bit words, then one bucket byte per cell,
3 bytes per cell.  An exec touches a few dozen of the 65,536 cells,
so classifying, observing and storing one costs microseconds and a
few hundred bytes.  The virgin map stays dense in memory, since
campaign digests hash its bytes, but pickles sparse: the cells
something was seen in, encoded as a signature is (each cell's virgin
byte in place of its bucket).
"""

from __future__ import annotations

import hashlib
import sys
from array import array

from repro.vm.interpreter import COVERAGE_MAP_SIZE

#: AFL's count_class_lookup: raw hitcounts 0, 1, 2, 3, 4-7, 8-15, 16-31,
#: 32-127 and 128-255 bucket to 0 and the eight classes 1..128.
_CLASSES = bytes([0, 1, 2, 4] + [8] * 4 + [16] * 8 + [32] * 16
                 + [64] * 96 + [128] * 128)
#: Maps every nonzero byte to 1 (the scan for maps without a cell list).
_NONZERO = bytes([0] + [1] * 255)
#: Maps every byte below 0xFF to 1 (the virgin cells something was seen in).
_SEEN = bytes([1] * 255 + [0])
_SWAP = sys.byteorder != "little"


def classify(counts: bytes | bytearray) -> bytes:
    """Bucket raw hitcounts into AFL's 8 classes."""
    return counts.translate(_CLASSES)


def _touched(counts: bytes | bytearray, table: bytes = _NONZERO) -> list[int]:
    """Ascending nonzero cells of a dense map (the cells *table* maps
    to 1), found by a scan."""
    flags = counts.translate(table)
    cells = []
    cell = flags.find(1)
    while cell >= 0:
        cells.append(cell)
        cell = flags.find(1, cell + 1)
    return cells


def _encode(cells: list[int], buckets: bytes) -> bytes:
    words = array("H", cells)
    if _SWAP:
        words.byteswap()
    return words.tobytes() + buckets


def _decode(signature: bytes) -> tuple[array, bytes]:
    """A signature's ascending cells and their buckets."""
    n = len(signature) // 3
    cells = array("H")
    cells.frombytes(signature[:2 * n])
    if _SWAP:
        cells.byteswap()
    return cells, signature[2 * n:]


def coverage_signature(raw_map: bytearray | bytes) -> bytes:
    """One exec's classified map as a signature — the per-entry value
    the corpus scheduler uses for favored-entry selection, and what
    :meth:`VirginMap.observe` takes.

    Reads only the cells in the map's cell list.  A map that carries
    none (a plain buffer, such as the sentinel's quarantined result
    builds from an observation) is scanned for its nonzero cells.
    """
    try:
        cells = sorted(raw_map.cells)
    except AttributeError:
        cells = _touched(raw_map)
    return _encode(cells, classify(bytes([raw_map[cell] for cell in cells])))


def dense_signature(signature: bytes) -> bytes:
    """The whole classified map a signature encodes (the dense form
    that hang ids and signature bits are defined over)."""
    dense = bytearray(COVERAGE_MAP_SIZE)
    cells, buckets = _decode(signature)
    for cell, bucket in zip(cells, buckets):
        dense[cell] = bucket
    return bytes(dense)


def hit_cells(signature: bytes) -> list[int]:
    """Ascending indices of the cells a signature hit."""
    return _decode(signature)[0].tolist()


def signature_bits(signature: bytes) -> int:
    """A signature as one integer bitset: bit ``8 * cell + b`` is bucket
    bit *b* of *cell* (afl-cmin's unit of cover)."""
    return int.from_bytes(dense_signature(signature), "little")


def signature_id(signature: bytes) -> str:
    """Short stable name of a signature (the hang dedup key): a hash of
    the dense classified map, so ids hold across encodings."""
    return hashlib.sha1(dense_signature(signature)).hexdigest()[:16]


class VirginMap:
    """Accumulated union of all behaviour seen so far.

    ``virgin`` starts all-ones (0xFF = fully unseen); observing an
    execution clears the bits of every (edge, bucket) it exhibited —
    AFL++'s exact bookkeeping.
    """

    NO_NEW = 0
    NEW_COUNTS = 1
    NEW_EDGES = 2

    def __init__(self, size: int = COVERAGE_MAP_SIZE):
        self.size = size
        self.virgin = bytearray(b"\xff") * size

    def __getstate__(self) -> dict:
        return {"size": self.size, "seen": self.to_sparse()}

    def __setstate__(self, state: dict) -> None:
        self.size = state["size"]
        self.virgin = VirginMap.from_sparse(state["seen"], self.size).virgin

    def observe(self, signature: bytes) -> int:
        """Fold in one signature — an execution's, or a corpus entry's
        as exchanged between campaign shards; returns NO_NEW /
        NEW_COUNTS / NEW_EDGES."""
        virgin = self.virgin
        verdict = self.NO_NEW
        cells, buckets = _decode(signature)
        for cell, bucket in zip(cells, buckets):
            unseen = virgin[cell]
            if bucket & unseen:
                # A brand-new edge is one whose virgin byte was 0xFF.
                if unseen == 0xFF:
                    verdict = self.NEW_EDGES
                elif not verdict:
                    verdict = self.NEW_COUNTS
                virgin[cell] = unseen & ~bucket
        return verdict

    def merge(self, other: "VirginMap") -> None:
        """Union another map's observed behaviour into this one (the
        multi-worker merged-coverage operation: virgin bits survive
        only where *both* maps never saw the (edge, bucket))."""
        if other.size != self.size:
            raise ValueError("cannot merge virgin maps of different sizes")
        both = (int.from_bytes(self.virgin, "little")
                & int.from_bytes(other.virgin, "little"))
        self.virgin = bytearray(both.to_bytes(self.size, "little"))

    def edges_found(self) -> int:
        """Number of map cells with at least one observed bucket."""
        return self.size - self.virgin.count(0xFF)

    def to_bytes(self) -> bytes:
        """The virgin map's exact contents (checkpoint / digest form)."""
        return bytes(self.virgin)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "VirginMap":
        """Rebuild a map serialised with :meth:`to_bytes`."""
        virgin = cls(size=len(payload))
        virgin.virgin = bytearray(payload)
        return virgin

    def to_sparse(self) -> bytes:
        """The cells something was seen in (virgin byte below 0xFF) and
        their virgin bytes, in the signature encoding: the checkpoint
        form."""
        cells = _touched(self.virgin, _SEEN)
        return _encode(cells, bytes([self.virgin[cell] for cell in cells]))

    @classmethod
    def from_sparse(cls, payload: bytes,
                    size: int = COVERAGE_MAP_SIZE) -> "VirginMap":
        """Rebuild a map of *size* cells serialised with :meth:`to_sparse`."""
        virgin = cls(size)
        cells, values = _decode(payload)
        for cell, value in zip(cells, values):
            virgin.virgin[cell] = value
        return virgin
