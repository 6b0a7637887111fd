"""Naive persistent execution: maximum speed, broken semantics.

The paper's motivating foil (§1-2): reuse one process for every test
case by looping back to the target's entry point, with *no* state
restoration.  Three pathologies emerge, all modelled here faithfully:

- **exit() kills the process** — the loop cannot continue, so the
  fuzzer must respawn the target, and fuzzed parsers call ``exit()``
  on malformed input constantly;
- **state pollution** — leaked heap chunks, dirtied globals, and
  leaked file handles persist into later test cases, producing missed
  crashes, false crashes (OOM / FD exhaustion), and order-dependent
  behaviour;
- **non-reproducibility** — a "crash" found this way may not reproduce
  in a fresh process.

The executor counts pollution events so the motivation experiment (E7)
can report them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.execution.common import ExecResult, Executor
from repro.ir.module import Module
from repro.passes.rename_main import TARGET_MAIN
from repro.runtime.harness import DEFAULT_INPUT_PATH, IterationStatus, call_target
from repro.sim_os.kernel import Kernel, ProcessRecord
from repro.vm.filesystem import VirtualFS
from repro.vm.interpreter import VM


@dataclass
class PollutionStats:
    """Residual-state accounting across the persistent lifetime."""

    peak_leaked_chunks: int = 0
    peak_leaked_bytes: int = 0
    peak_open_fds: int = 0
    dirty_global_iterations: int = 0


class NaivePersistentExecutor(Executor):
    """AFL++-persistent-mode-style loop with no restoration."""

    mechanism = "persistent"

    def __init__(
        self,
        module: Module,
        image_bytes: int,
        kernel: Kernel,
    ):
        super().__init__(kernel)
        if not module.has_function(TARGET_MAIN):
            raise ValueError(
                "persistent execution needs a renamed entry point; "
                "build the module with persistent_passes()"
            )
        self.module = module
        self.image_bytes = image_bytes
        self.fs = VirtualFS()
        self.vm: VM | None = None
        self.process: ProcessRecord | None = None
        self._parent: ProcessRecord | None = None
        self.pollution = PollutionStats()
        self._argc = 0
        self._argv = 0
        self._baseline_globals: bytes = b""

    def boot(self) -> None:
        # Persistent targets run under a forkserver parent (as AFL++'s
        # persistent mode does), so restarts after exit()/crash cost a
        # fork rather than a full spawn.
        self._parent = self.kernel.spawn(self.module.name, self.image_bytes)
        self.process = self.kernel.fork(self._parent, self.image_bytes)
        self._build_vm(charge_load=False)

    def _build_vm(self, charge_load: bool) -> None:
        self.vm = VM(self.module, fs=self.fs, **self.vm_kwargs())
        self.vm.load()
        if charge_load:
            self.vm.charge(self.vm.load_cost)
        self._argc, self._argv = self.vm.setup_argv(
            [self.module.name, DEFAULT_INPUT_PATH]
        )
        self._baseline_globals = b"".join(
            self.vm.section_bytes(name)
            for name in sorted(self.vm.sections)
            if name != ".rodata"
        )

    def _respawn(self) -> None:
        """The persistent process died; the forkserver parent forks a
        replacement (the dominant cost of naive persistent mode on
        targets that exit() on malformed input)."""
        assert self.process is not None
        self.kernel.reap(self.process, None)
        self.process = self.kernel.fork(self._parent, self.image_bytes)
        self._build_vm(charge_load=False)
        self.stats.respawns += 1

    def run(self, data: bytes) -> ExecResult:
        if self.vm is None:
            self.boot()
        assert self.vm is not None
        vm = self.vm
        start_ns = self.clock.now_ns
        self.kernel.charge_dispatch()
        self.fs.write_file(DEFAULT_INPUT_PATH, data)
        vm.reset_coverage()
        vm.instruction_limit = vm.instructions_executed + self.exec_instruction_limit
        cost_before = vm.cost
        vm.charge(self.kernel.costs.loop_iteration_ns)
        target = self.module.get_function(TARGET_MAIN)

        instructions_before = vm.instructions_executed
        # A raw (unhooked) exit() kills the whole persistent process, so
        # it maps to PROCESS_EXIT rather than EXIT.
        status, return_code, trap = call_target(
            vm, target, [self._argc, self._argv],
            process_exit_status=IterationStatus.PROCESS_EXIT,
        )

        coverage = vm.coverage_map
        instructions = vm.instructions_executed - instructions_before
        residue = self._observe_pollution(vm)
        self.kernel.charge(vm.cost - cost_before)

        if not status.survivable:
            self._respawn()
        else:
            # The only cleanup a bare loop gets for free: the C stack
            # unwinds when target_main returns.
            vm.reset_stack_addresses()

        return self.finish_exec(
            status=status,
            return_code=return_code,
            trap=trap,
            coverage=coverage,
            start_ns=start_ns,
            instructions=instructions,
            **residue,
        )

    def _observe_pollution(self, vm: VM) -> dict[str, int]:
        """Update peak pollution stats; returns this iteration's residue
        (attached to the exec span as the paper's pollution evidence)."""
        stats = self.pollution
        leaked_chunks = vm.heap.live_chunk_count()
        leaked_bytes = vm.heap.live_bytes
        open_fds = vm.fd_table.open_handle_count()
        stats.peak_leaked_chunks = max(stats.peak_leaked_chunks, leaked_chunks)
        stats.peak_leaked_bytes = max(stats.peak_leaked_bytes, leaked_bytes)
        stats.peak_open_fds = max(stats.peak_open_fds, open_fds)
        current = b"".join(
            vm.section_bytes(name)
            for name in sorted(vm.sections)
            if name != ".rodata"
        )
        dirty = current != self._baseline_globals
        if dirty:
            stats.dirty_global_iterations += 1
        return {
            "leaked_chunks": leaked_chunks,
            "leaked_bytes": leaked_bytes,
            "open_fds": open_fds,
            "dirty_globals": int(dirty),
        }

    def shutdown(self) -> None:
        if self.process is not None:
            self.kernel.reap(self.process, 0)
            self.process = None
        if self._parent is not None:
            self.kernel.reap(self._parent, 0, fresh=True)
            self._parent = None
