"""Fresh-process execution: one new process per test case.

The slowest but trivially correct mechanism (paper §2): every test case
pays process creation, binary loading, and teardown.  Used as the
semantic ground truth by the correctness experiments and as the
left-most point of the mechanism-spectrum figure.
"""

from __future__ import annotations

from repro.execution.common import ExecResult, Executor
from repro.ir.module import Module
from repro.runtime.harness import DEFAULT_INPUT_PATH, IterationStatus, call_target
from repro.sim_os.kernel import Kernel
from repro.vm.filesystem import VirtualFS
from repro.vm.interpreter import VM


class FreshProcessExecutor(Executor):
    """``fork()+exec()`` of the target binary for every input."""

    mechanism = "fresh"

    def __init__(
        self,
        module: Module,
        image_bytes: int,
        kernel: Kernel,
        input_path: str = DEFAULT_INPUT_PATH,
        entry: str = "main",
    ):
        super().__init__(kernel)
        self.module = module
        self.image_bytes = image_bytes
        self.input_path = input_path
        self.entry = entry
        self.last_vm: VM | None = None

    def run(self, data: bytes) -> ExecResult:
        start_ns = self.clock.now_ns
        self.kernel.charge_dispatch()
        record = self.kernel.spawn(self.module.name, self.image_bytes)

        fs = VirtualFS()
        fs.write_file(self.input_path, data)
        vm = VM(self.module, fs=fs, **self.vm_kwargs())
        vm.load()
        vm.charge(vm.load_cost)
        vm.instruction_limit = self.exec_instruction_limit
        argc, argv = vm.setup_argv([self.module.name, self.input_path])
        entry_fn = self.module.get_function(self.entry)

        # exit() in a fresh process is just termination.
        status, return_code, trap = call_target(vm, entry_fn, [argc, argv])

        self.kernel.charge(vm.cost)
        self.kernel.reap(
            record, return_code,
            crashed=status is IterationStatus.CRASH, fresh=True,
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
