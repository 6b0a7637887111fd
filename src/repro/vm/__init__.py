"""MiniVM: interpreter and process-state model for MiniIR programs."""

from repro.vm.errors import (
    CrashSite,
    ExecutionLimitExceeded,
    HarnessExit,
    ProcessExit,
    TrapKind,
    VMError,
    VMTrap,
)
from repro.vm.filesystem import FDTable, OpenFile, VirtualFS
from repro.vm.heap import Heap, HeapStats
from repro.vm.interpreter import COVERAGE_MAP_SIZE, VM, CoverageMap
from repro.vm.libc import LIBC_SIGNATURES, NATIVES
from repro.vm.memory import AddressSpace, MemoryRegion, Segment
from repro.vm.snapshot import (
    NondetMask,
    ProgramSnapshot,
    SnapshotDelta,
    build_nondet_mask,
    diff_snapshots,
    take_snapshot,
)

__all__ = [
    "CrashSite", "ExecutionLimitExceeded", "HarnessExit", "ProcessExit",
    "TrapKind", "VMError", "VMTrap",
    "FDTable", "OpenFile", "VirtualFS",
    "Heap", "HeapStats",
    "COVERAGE_MAP_SIZE", "CoverageMap", "VM",
    "LIBC_SIGNATURES", "NATIVES",
    "AddressSpace", "MemoryRegion", "Segment",
    "NondetMask", "ProgramSnapshot", "SnapshotDelta",
    "build_nondet_mask", "diff_snapshots", "take_snapshot",
]
