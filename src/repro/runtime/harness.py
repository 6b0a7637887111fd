"""The ClosureX harness: the persistent fuzzing loop of paper Listing 1.

The harness owns one MiniVM "process" running a ClosureX-instrumented
module and drives it through test cases:

1. **boot** — load the binary, set up ``argv``, run any deferred
   initialisation, mark init-phase heap chunks / file handles as
   process-invariant, and capture the ground-truth snapshot of
   ``closure_global_section``.
2. **run_test_case** — write the input, ``setjmp``, call
   ``target_main``; a hooked ``exit()`` longjmps back here
   (:class:`HarnessExit`), a genuine crash surfaces as
   :class:`VMTrap`.
3. **restore** — sweep leaked heap chunks, close/rewind leaked file
   handles, restore the global section, and rewind stack/heap address
   cursors: the fine-grain state restoration that makes the next
   iteration semantically identical to a fresh process.

The rerouted libc wrappers (``closurex_malloc`` et al.) are installed
as VM natives bound to this harness — the "resolved during the linking
phase with ClosureX's harness" step of the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.analysis.pollution import PollutionReport
from repro.ir.module import Function, Module
from repro.passes.global_pass import CLOSURE_GLOBAL_SECTION
from repro.passes.rename_main import TARGET_MAIN
from repro.runtime.chunkmap import ChunkMap
from repro.runtime.fdtracker import FDTracker
from repro.runtime.globals_snapshot import GlobalSectionSnapshot
from repro.sim_os.costs import DEFAULT_COSTS, CostModel
from repro.vm.errors import (
    CrashSite,
    ExecutionLimitExceeded,
    HarnessExit,
    ProcessExit,
    VMTrap,
)
from repro.vm.filesystem import VirtualFS
from repro.vm.interpreter import VM
from repro.vm.libc import NATIVE_BASE_COST

#: Extra virtual-ns charged by each tracking wrapper on top of the
#: underlying libc call — the paper's "the instrumentation itself isn't
#: zero-cost" overhead.
HOOK_OVERHEAD_NS = 6

#: Where every mechanism writes the test case, and the path its argv
#: names.
DEFAULT_INPUT_PATH = "/fuzz/input"


class IterationStatus(enum.Enum):
    """Outcome categories of one harness loop iteration."""

    OK = "ok"                    # target_main returned normally
    EXIT = "exit"                # hooked exit() -> longjmp to harness
    PROCESS_EXIT = "process_exit"  # unhooked exit(): process died
    CRASH = "crash"
    HANG = "hang"

    @property
    def survivable(self) -> bool:
        """Can the persistent process keep running after this outcome?"""
        return self in (IterationStatus.OK, IterationStatus.EXIT)


def call_target(
    vm: VM,
    function: Function,
    args: list[int],
    process_exit_status: IterationStatus = IterationStatus.EXIT,
) -> tuple[IterationStatus, int | None, VMTrap | None]:
    """Run the target entry point and classify its outcome.

    The exception-to-status mapping is identical across execution
    mechanisms; what differs is only the meaning of a raw ``exit()``
    call — termination for fresh/forkserver children
    (:attr:`IterationStatus.EXIT`), death of the resident process for
    the persistent loops (:attr:`IterationStatus.PROCESS_EXIT`).
    """
    try:
        return IterationStatus.OK, vm.run_function(function, args), None
    except ProcessExit as exit_:
        return process_exit_status, exit_.code, None
    except HarnessExit as exit_:
        # Only reachable for modules built with the ExitPass.
        return IterationStatus.EXIT, exit_.code, None
    except VMTrap as trap:
        return IterationStatus.CRASH, None, trap
    except ExecutionLimitExceeded:
        return IterationStatus.HANG, None, None


@dataclass
class HarnessConfig:
    """Tunables for one harness instance."""

    instruction_limit: int = 2_000_000       # per test case (hang detection)
    heap_budget: int = 64 << 20
    max_open_files: int | None = None
    deferred_init_functions: tuple[str, ...] = ()
    rewind_init_handles: bool = True         # paper's fseek optimisation
    #: Static pollution classification of the target (from
    #: TargetSpec.build_analyzed).  A clean dimension lets restore_state
    #: skip the matching sweep entirely — the analysis *proved* the
    #: sweep can never find anything.
    pollution: PollutionReport | None = None


@dataclass
class RestoreReport:
    """What one restoration pass did (drives its cost and the tests)."""

    leaked_chunks: int = 0
    leaked_bytes: int = 0
    closed_fds: int = 0
    rewound_fds: int = 0
    section_bytes: int = 0
    restore_ns: int = 0


@dataclass
class IterationResult:
    """Outcome of one test case under the harness."""

    status: IterationStatus
    return_code: int | None = None
    trap: VMTrap | None = None
    exec_ns: int = 0
    restore: RestoreReport | None = None
    instructions: int = 0


class ClosureXHarness:
    """One persistent process executing ClosureX-instrumented code."""

    def __init__(
        self,
        module: Module,
        fs: VirtualFS | None = None,
        costs: CostModel | None = None,
        config: HarnessConfig | None = None,
        vm_counters: dict | None = None,
    ):
        if not module.has_function(TARGET_MAIN):
            raise ValueError(
                "module has no target_main — run the ClosureX pipeline first"
            )
        self.module = module
        self.fs = fs if fs is not None else VirtualFS()
        self.costs = costs if costs is not None else DEFAULT_COSTS
        self.config = config if config is not None else HarnessConfig()
        # Optional telemetry: VM profiling-dict kwargs from the owning
        # executor (see Executor.vm_counters).
        self.vm_counters = vm_counters if vm_counters is not None else {}
        self.chunk_map = ChunkMap()
        self.fd_tracker = FDTracker()
        self.vm: VM | None = None
        self.snapshot: GlobalSectionSnapshot | None = None
        self.in_init_phase = True
        self.iterations = 0
        self._argc = 0
        self._argv = 0
        self._heap_mark = 0
        self._target_main: Function | None = None

    # ------------------------------------------------------------------
    # natives: the linked-in ClosureX runtime wrappers
    # ------------------------------------------------------------------

    def _make_natives(self):
        harness = self

        def call_underlying(vm: VM, name: str, args: list[int], site: CrashSite):
            """Invoke the wrapped libc routine at full price: the hook
            adds tracking overhead on top of the original call's cost,
            it never discounts it."""
            vm.charge(NATIVE_BASE_COST.get(name, 20) + HOOK_OVERHEAD_NS)
            return vm.natives[name](vm, args, site)

        def closurex_malloc(vm: VM, args: list[int], site: CrashSite) -> int:
            address = call_underlying(vm, "malloc", args, site)
            harness.chunk_map.record(address, args[0], harness.in_init_phase)
            return address

        def closurex_calloc(vm: VM, args: list[int], site: CrashSite) -> int:
            address = call_underlying(vm, "calloc", args, site)
            harness.chunk_map.record(address, args[0] * args[1], harness.in_init_phase)
            return address

        def closurex_realloc(vm: VM, args: list[int], site: CrashSite) -> int:
            address = call_underlying(vm, "realloc", args, site)
            if args[0]:
                harness.chunk_map.remove(args[0])
            harness.chunk_map.record(
                address, args[1], harness.in_init_phase
            )
            return address

        def closurex_free(vm: VM, args: list[int], site: CrashSite) -> None:
            if args[0]:
                harness.chunk_map.remove(args[0])
            call_underlying(vm, "free", args, site)

        def fopen_hook(vm: VM, args: list[int], site: CrashSite) -> int:
            handle = call_underlying(vm, "fopen", args, site)
            if handle:
                path = vm.memory.read_cstring(args[0], site).decode("latin-1")
                harness.fd_tracker.record(handle, path, harness.in_init_phase)
            return handle

        def fclose_hook(vm: VM, args: list[int], site: CrashSite) -> int:
            harness.fd_tracker.remove(args[0])
            return call_underlying(vm, "fclose", args, site)

        return {
            "closurex_malloc": closurex_malloc,
            "closurex_calloc": closurex_calloc,
            "closurex_realloc": closurex_realloc,
            "closurex_free": closurex_free,
            "closurex_fopen_hook": fopen_hook,
            "closurex_fclose_hook": fclose_hook,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def boot(self, charge_load: bool = True) -> VM:
        """Load the process image and establish the restore point.

        *charge_load* is False when the process image is inherited from
        a forkserver parent (loading was paid once, at spawn)."""
        config = self.config
        self.vm = VM(
            self.module,
            fs=self.fs,
            heap_budget=config.heap_budget,
            max_open_files=config.max_open_files,
            extra_natives=self._make_natives(),
            **self.vm_counters,
        )
        self.vm.load()
        if charge_load:
            self.vm.charge(self.vm.load_cost)
        if not self.fs.exists(DEFAULT_INPUT_PATH):
            self.fs.write_file(DEFAULT_INPUT_PATH, b"")
        self._argc, self._argv = self.vm.setup_argv(
            [self.module.name, DEFAULT_INPUT_PATH]
        )
        self._target_main = self.module.get_function(TARGET_MAIN)

        # Deferred initialisation (paper §7.2 extension): run
        # input-independent init once, outside the fuzzing loop.
        self.in_init_phase = True
        for name in config.deferred_init_functions:
            function = self.module.get_function(name)
            self.vm.run_function(function, [])
        self.chunk_map.mark_all_init()
        self.fd_tracker.mark_all_init()
        self._heap_mark = self.vm.memory.heap_segment.cursor

        self.snapshot = GlobalSectionSnapshot(self.vm, CLOSURE_GLOBAL_SECTION)
        self.snapshot.capture()
        self.in_init_phase = False
        return self.vm

    def run_test_case(self, data: bytes, restore: bool = True) -> IterationResult:
        """Execute one test case in the persistent loop."""
        if self.vm is None or self.snapshot is None or self._target_main is None:
            raise RuntimeError("harness not booted")
        vm = self.vm
        config = self.config
        self.fs.write_file(DEFAULT_INPUT_PATH, data)
        vm.instruction_limit = vm.instructions_executed + config.instruction_limit
        # The fuzzer clears the shared coverage map before each run, as
        # AFL++ does; the time this takes is part of dispatch_ns.  The
        # output log and the file-write journal are per-iteration too,
        # so a persistent iteration shows what it printed and wrote, as
        # a fresh process's one run would.
        vm.reset_coverage()
        vm.output.clear()
        vm.fd_table.begin_run()
        start_cost = vm.cost
        start_insts = vm.instructions_executed
        vm.charge(self.costs.loop_iteration_ns + self.costs.setjmp_ns)

        status, return_code, trap = call_target(
            vm, self._target_main, [self._argc, self._argv],
            process_exit_status=IterationStatus.PROCESS_EXIT,
        )

        self.iterations += 1
        report: RestoreReport | None = None
        if restore and status.survivable:
            report = self.restore_state()
        return IterationResult(
            status=status,
            return_code=return_code,
            trap=trap,
            exec_ns=vm.cost - start_cost,
            restore=report,
            instructions=vm.instructions_executed - start_insts,
        )

    def restore_state(self) -> RestoreReport:
        """Fine-grain state restoration between test cases.

        The chaos plane can silently sabotage any single dimension of
        this pass (``skip-heap-sweep`` / ``leak-fd`` /
        ``dirty-global-byte`` / ``skip-ctx-rewind``): no exception is
        raised, the restore just does the wrong thing — exactly the
        failure mode of a pass regression or harness bug.  Detecting
        and healing those is the integrity sentinel's job
        (:mod:`repro.integrity`).
        """
        if self.vm is None or self.snapshot is None:
            raise RuntimeError("harness not booted")
        vm = self.vm
        report = RestoreReport()
        pollution = self.config.pollution
        skip_heap = pollution is not None and pollution.is_clean("heap")
        skip_fd = pollution is not None and pollution.is_clean("file")

        faults = vm.faults
        sabotage_heap = sabotage_fd = sabotage_global = sabotage_ctx = False
        if faults is not None:
            sabotage_heap = faults.poll("skip-heap-sweep") is not None
            sabotage_fd = faults.poll("leak-fd") is not None
            sabotage_global = faults.poll("dirty-global-byte") is not None
            sabotage_ctx = faults.poll("skip-ctx-rewind") is not None

        # 1. Heap: free every chunk the target leaked (Figure 5 C).
        #    Proven heap-clean targets never allocate after init (and
        #    init-phase chunks are never swept), so the walk is elided.
        if not skip_heap and not sabotage_heap:
            report.leaked_chunks, report.leaked_bytes = self._sweep_heap()

        # 2. File handles: close leaked ones, rewind init-phase ones.
        if not skip_fd and not sabotage_fd:
            report.closed_fds, report.rewound_fds = self._sweep_fds()

        # 3. Globals: copy the ground-truth snapshot back (Figure 4).
        #    A global-clean target has an empty (or absent) section, so
        #    this is free there anyway; dirty targets with a trusted
        #    report got a *smaller* section from the restricted
        #    GlobalPass, which is where the byte savings come from.
        report.section_bytes = self.snapshot.restore()
        if sabotage_global:
            self._corrupt_global_byte()

        # 4. Address-cursor rewind: the process's allocator and stack
        #    hand out the same addresses next iteration, as real ones do.
        #    (With the HeapPass ablated, untracked chunks survive the
        #    sweep and the cursor must stay put — mirroring a real
        #    allocator that cannot reuse leaked memory.)
        if not sabotage_ctx:
            self._rewind_cursors()

        report.restore_ns = self.costs.closurex_restore_cost(
            report.section_bytes,
            report.leaked_chunks,
            report.closed_fds,
            report.rewound_fds,
            skip_heap_sweep=skip_heap,
            skip_fd_sweep=skip_fd,
        )
        vm.charge(report.restore_ns)
        return report

    # ------------------------------------------------------------------
    # per-dimension sweeps (shared by restore_state and targeted repair)
    # ------------------------------------------------------------------

    def _sweep_heap(self) -> tuple[int, int]:
        """Free leaked chunks; returns ``(chunks, bytes)`` swept."""
        assert self.vm is not None
        chunks = 0
        leaked_bytes = 0
        for chunk in self.chunk_map.sweep():
            self.vm.heap.free(chunk.address, self.vm.site)
            chunks += 1
            leaked_bytes += chunk.size
        return chunks, leaked_bytes

    def _sweep_fds(self) -> tuple[int, int]:
        """Close leaked handles, rewind init ones; ``(closed, rewound)``."""
        assert self.vm is not None
        vm = self.vm
        closed = rewound = 0
        to_close, to_rewind = self.fd_tracker.sweep()
        for record in to_close:
            vm.fd_table.fclose(record.handle, vm.site)
            closed += 1
        if self.config.rewind_init_handles:
            for record in to_rewind:
                file = vm.fd_table.get(record.handle, vm.site)
                vm.fd_table.fseek(file, 0, 0)
                rewound += 1
        return closed, rewound

    def _rewind_cursors(self) -> None:
        assert self.vm is not None
        vm = self.vm
        vm.reset_stack_addresses()
        if all(r.base < self._heap_mark for r in vm.heap.live.values()):
            vm.reset_heap_addresses(self._heap_mark)

    def _corrupt_global_byte(self) -> None:
        """Chaos payload: flip one byte of the restored section — the
        observable effect of a restore that copied wrong data."""
        assert self.vm is not None
        section = self.vm.section_bytes(CLOSURE_GLOBAL_SECTION)
        if not section:
            return
        poisoned = bytes([section[0] ^ 0x5A]) + section[1:]
        self.vm.restore_section(CLOSURE_GLOBAL_SECTION, poisoned)

    def repair_dimensions(self, dimensions: tuple[str, ...]) -> int:
        """Targeted in-place repair: re-run the restore sweeps for the
        named state dimensions (the integrity sentinel's first rung).

        Unlike :meth:`restore_state` this ignores pollution-based skip
        proofs — a leak observed in a proven-clean dimension means the
        proof is wrong, and the repair must actually sweep.  Returns
        the virtual-ns cost of the repair (not yet charged anywhere:
        the caller owns the accounting).
        """
        if self.vm is None or self.snapshot is None:
            raise RuntimeError("harness not booted")
        chunks = closed = rewound = section_bytes = 0
        if "heap" in dimensions:
            chunks, _bytes = self._sweep_heap()
            # Leaked chunks above the mark blocked the cursor rewind in
            # restore_state; with them freed the heap dimension is only
            # whole once the cursor is back too.
            self._rewind_cursors()
        if "file" in dimensions:
            closed, rewound = self._sweep_fds()
        if "global" in dimensions:
            section_bytes = self.snapshot.restore()
        if "exit" in dimensions:
            self._rewind_cursors()
        return self.costs.integrity_repair_cost(
            chunks, closed, rewound, section_bytes
        )
