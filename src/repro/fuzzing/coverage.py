"""AFL-style coverage-map processing — the one reader of the map format.

The VM's instrumented guards maintain a 64 KiB hitcount map per
execution.  This module implements the fuzzer-side half: hitcount
*classification* into AFL's power-of-two buckets (a classified map is
a *signature*), the *virgin map* that decides whether a signature
shows new behaviour (new edge, or a new hitcount bucket for a known
edge), and the few readers the corpus, triage, store and experiments
need.  No other module decodes a map or a signature, so changing
their encoding changes this module alone.

Classification is a ``bytes.translate`` table lookup and the virgin
map a numpy array; with 65536-byte maps the per-exec cost is
microseconds.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.vm.interpreter import COVERAGE_MAP_SIZE

#: AFL's count_class_lookup: raw hitcounts 0, 1, 2, 3, 4-7, 8-15, 16-31,
#: 32-127 and 128-255 bucket to 0 and the eight classes 1..128.
_CLASSES = bytes([0, 1, 2, 4] + [8] * 4 + [16] * 8 + [32] * 16
                 + [64] * 96 + [128] * 128)


def classify(raw_map: bytearray | bytes) -> np.ndarray:
    """Bucket a raw hitcount map into AFL's 8 classes."""
    return np.frombuffer(raw_map.translate(_CLASSES), dtype=np.uint8)


def coverage_signature(raw_map: bytearray | bytes) -> bytes:
    """Classified map as bytes — the per-entry signature the corpus
    scheduler uses for favored-entry selection, and what
    :meth:`VirginMap.observe` takes."""
    return classify(raw_map).tobytes()


def hit_cells(coverage: bytearray | bytes) -> list[int]:
    """Ascending indices of the cells a raw map or a signature hit
    (classification keeps a cell zero exactly when it was zero)."""
    return np.flatnonzero(np.frombuffer(coverage, dtype=np.uint8)).tolist()


def signature_bits(signature: bytes) -> int:
    """A signature as one integer bitset: bit ``8 * cell + b`` is bucket
    bit *b* of *cell* (afl-cmin's unit of cover)."""
    return int.from_bytes(signature, "little")


def signature_id(signature: bytes) -> str:
    """Short stable name of a signature (the hang dedup key)."""
    return hashlib.sha1(signature).hexdigest()[:16]


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
        self.virgin = np.full(size, 0xFF, dtype=np.uint8)

    def observe(self, classified: np.ndarray | bytes) -> int:
        """Fold in one classified map — an execution's signature, or a
        corpus entry's as exchanged between campaign shards; returns
        NO_NEW / NEW_COUNTS / NEW_EDGES."""
        classified = np.frombuffer(classified, dtype=np.uint8)
        new_bits = classified & self.virgin
        if not new_bits.any():
            return self.NO_NEW
        # A brand-new edge is one whose virgin byte was still 0xFF.
        new_edges = bool((new_bits[self.virgin == 0xFF]).any())
        self.virgin &= ~classified
        return self.NEW_EDGES if new_edges else self.NEW_COUNTS

    def merge(self, other: "VirginMap") -> None:
        """Union another map's observed behaviour into this one (the
        multi-worker merged-coverage operation: virgin bits survive
        only where *both* maps never saw the (edge, bucket))."""
        if other.size != self.size:
            raise ValueError("cannot merge virgin maps of different sizes")
        self.virgin &= other.virgin

    def edges_found(self) -> int:
        """Number of map cells with at least one observed bucket."""
        return int((self.virgin != 0xFF).sum())

    def to_bytes(self) -> bytes:
        """The virgin map's exact contents (checkpoint / digest form)."""
        return self.virgin.tobytes()

    @classmethod
    def from_bytes(cls, payload: bytes) -> "VirginMap":
        """Rebuild a map serialised with :meth:`to_bytes`."""
        virgin = cls(size=len(payload))
        virgin.virgin = np.frombuffer(payload, dtype=np.uint8).copy()
        return virgin
