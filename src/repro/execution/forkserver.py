"""Forkserver execution: AFL++'s baseline mechanism (paper §2, §5.3).

The fuzzer spawns the target *once*, pauses it at ``main``, and then
``fork()``\\ s a fresh copy-on-write child per test case.  Loading cost
is paid once; each test case pays fork + CoW page copies + child
teardown.  This is "the fastest correct process management mechanism"
that Table 5 benchmarks ClosureX against.

The parked parent is a loaded :class:`VM` with argv laid out, and each
child is a copy of it (:meth:`VM.fork`): the parent's image at the same
addresses with private bytes, an empty heap and FD table, and the next
boot time, so no child loads the module again.  The parent's class is
the children's class.
"""

from __future__ import annotations

from repro.execution.common import ExecResult, Executor
from repro.ir.module import Module
from repro.runtime.harness import DEFAULT_INPUT_PATH, IterationStatus, call_target
from repro.sim_os.kernel import Kernel, ProcessRecord
from repro.sim_os.pipes import ForkserverChannel
from repro.vm.filesystem import VirtualFS
from repro.vm.interpreter import VM


class ForkServerExecutor(Executor):
    """One resident parent; one CoW-forked child per test case."""

    mechanism = "forkserver"

    def __init__(
        self,
        module: Module,
        image_bytes: int,
        kernel: Kernel,
    ):
        super().__init__(kernel)
        self.module = module
        self.image_bytes = image_bytes
        self.fs = VirtualFS()
        self.parent: ProcessRecord | None = None
        self.parent_vm: VM | None = None
        # ``main``'s argc and argv, laid out in the parent.
        self.main_args: list[int] = []
        self.channel = ForkserverChannel(kernel)
        self.footprint_bytes = 0
        self.last_vm: VM | None = None

    def boot(self) -> None:
        """Spawn the forkserver parent, park it at ``main``, and complete
        the control-pipe handshake (AFL's hello exchange)."""
        self.channel.reset()
        self.parent = self.kernel.spawn(self.module.name, self.image_bytes)
        parent_vm = VM(self.module, fs=self.fs)
        parent_vm.load()
        self.kernel.charge(parent_vm.load_cost)
        # The child's fork cost scales with the parent's mapped memory:
        # the binary image plus its loaded data segments.
        self.footprint_bytes = self.image_bytes + parent_vm.memory.footprint_bytes()
        argc, argv = parent_vm.setup_argv([self.module.name, DEFAULT_INPUT_PATH])
        self.main_args = [argc, argv]
        try:
            self.channel.handshake()
        except Exception:
            # A dropped hello leaves no usable server behind: reap it so
            # a supervised retry starts from a clean slate.
            self.kernel.reap(self.parent, None, fresh=True)
            self.parent = None
            raise
        self.parent_vm = parent_vm

    def run(self, data: bytes) -> ExecResult:
        if self.parent is None:
            self.boot()
        assert self.parent is not None
        start_ns = self.clock.now_ns
        self.kernel.charge_dispatch()
        child = self.kernel.fork(self.parent, self.footprint_bytes)
        try:
            self.channel.fork_roundtrip(child.pid)
        except Exception:
            # Pipe collapsed after the fork: the child is orphaned and
            # the server is unreachable — tear both down so the next
            # run() (or a supervised retry) re-boots from scratch.
            self.kernel.reap(child, None)
            self.kernel.reap(self.parent, None, fresh=True)
            self.parent = self.parent_vm = None
            raise

        self.fs.write_file(DEFAULT_INPUT_PATH, data)
        # Inherits the parent's image: no load cost charged.
        vm = self.parent_vm.fork(**self.vm_kwargs())
        vm.instruction_limit = self.exec_instruction_limit
        entry_fn = self.module.get_function("main")

        status, return_code, trap = call_target(vm, entry_fn, self.main_args)

        self.kernel.charge(vm.cost)
        self.kernel.charge_cow(vm.memory.bytes_written)
        self.kernel.reap(
            child, return_code, crashed=status is IterationStatus.CRASH
        )
        self.last_vm = vm
        return self.finish_exec(
            status=status,
            return_code=return_code,
            trap=trap,
            coverage=vm.coverage_map,
            start_ns=start_ns,
            instructions=vm.instructions_executed,
        )

    def shutdown(self) -> None:
        if self.parent is not None:
            self.kernel.reap(self.parent, 0)
            self.parent = self.parent_vm = None
