"""Fresh-process replay: the one differential oracle.

ClosureX's correctness argument (paper §6.1.4) is one comparison: a
run must be indistinguishable from the same input in a process with
no history.  :func:`replay` is that process; :class:`Observation` is
what a run shows the outside world.  The integrity sentinel shadows
live persistent iterations with it, the optimizer validates transforms
with it, and the §6.1.4 checks compare fresh and polluted replays.

A replay shares no filesystem, chaos injector or telemetry with anyone:
ground truth must be fault-free, and polling a campaign's injector
would advance its occurrence counters.  It builds one VM, plus one per
pollution input that kills the process, and callers' results depend on
that count: each ``VM()`` draws the next boot-sequence value, which
``time()`` returns and time-seeded targets feed to ``srand``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.ir.module import Module
from repro.passes.rename_main import TARGET_MAIN
from repro.runtime.harness import (
    DEFAULT_INPUT_PATH,
    ClosureXHarness,
    HarnessConfig,
    IterationResult,
    IterationStatus,
    call_target,
)
from repro.sim_os.costs import DEFAULT_COSTS, CostModel
from repro.vm.errors import VMTrap
from repro.vm.filesystem import VirtualFS
from repro.vm.interpreter import VM
from repro.vm.snapshot import ProgramSnapshot, take_snapshot

#: Path-sensitive edge trace: ``(function, coverage-map index)`` per hit.
EdgeTrace = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Observation:
    """Everything externally observable about one run of one input.

    ``output`` and ``files`` cover this run only: what it printed, and
    per path the bytes it wrote, flushed or not
    (:attr:`~repro.vm.filesystem.FDTable.run_writes`).  What earlier
    runs left on disk is not this run's doing.  :meth:`matches` ignores
    ``instructions`` and ``cost_ns``: cutting them is the point of the
    optimizer and of persistent execution.  ``snapshot`` and
    ``edge_trace`` are filled only on request.
    """

    status: IterationStatus
    return_code: int | None
    trap: VMTrap | None
    coverage: bytes
    output: tuple[str, ...]
    files: tuple[tuple[str, bytes], ...]
    instructions: int
    cost_ns: int
    snapshot: ProgramSnapshot | None = None
    edge_trace: EdgeTrace = ()

    @classmethod
    def capture(cls, vm: VM, iteration: IterationResult, cost_ns: int,
                snapshot: bool = False) -> "Observation":
        """What *vm* shows after running *iteration*."""
        return cls(
            status=iteration.status,
            return_code=iteration.return_code,
            trap=iteration.trap,
            coverage=bytes(vm.coverage_map),
            output=tuple(vm.output),
            files=tuple(sorted((path, bytes(data)) for path, data
                               in vm.fd_table.run_writes.items())),
            instructions=iteration.instructions,
            cost_ns=cost_ns,
            snapshot=take_snapshot(vm) if snapshot else None,
            edge_trace=tuple(vm.edge_trace),
        )

    @property
    def crash(self) -> tuple[str, str, str] | None:
        """Crash identity: trap kind name, function and block."""
        if self.trap is None:
            return None
        kind, function, block = self.trap.identity()
        return (kind.name, function, block)

    def matches(self, other: "Observation") -> bool:
        """Is *other* indistinguishable from this run?"""
        return self.describe_mismatch(other) is None

    def describe_mismatch(self, other: "Observation") -> str | None:
        """The first point of divergence against *other*, if any."""
        if self.status is not other.status:
            return f"status {self.status.name} != {other.status.name}"
        if self.return_code != other.return_code:
            return f"return code {self.return_code} != {other.return_code}"
        if self.crash != other.crash:
            return f"crash identity {self.crash} != {other.crash}"
        if self.coverage != other.coverage:
            return "coverage maps differ"
        if self.output != other.output:
            return "program output differs"
        if self.files != other.files:
            return "filesystem contents differ"
        return None


def first_divergence(expected: Sequence, observed: Sequence) -> int | None:
    """Index of the first entry where two traces differ, or None when
    they are identical; a strict prefix diverges where it ends."""
    if expected == observed:
        return None
    return next(
        (i for i, (a, b) in enumerate(zip(expected, observed)) if a != b),
        min(len(expected), len(observed)),
    )


def replay(
    module: Module,
    data: bytes,
    *,
    config: HarnessConfig | None = None,
    costs: CostModel | None = None,
    boot_time: int | None = None,
    pollution: Sequence[bytes] = (),
    snapshot: bool = False,
    trace: bool = False,
) -> Observation:
    """Run *data* against *module* in a throwaway fresh process.

    A ClosureX build (``target_main`` present) first runs the
    *pollution* inputs with restoration in one process, booting a new
    one whenever an input kills it, then runs one harness iteration on
    *data* without restoration.  Any other module runs ``main``
    file-input style.  *boot_time* pins what ``time()`` returns after
    each boot.  ``cost_ns`` is the replay's full virtual price: load,
    execution and the shadow process's dispatch.
    """
    config = config if config is not None else HarnessConfig()
    costs = costs if costs is not None else DEFAULT_COSTS
    if module.has_function(TARGET_MAIN):
        harness = _boot(module, config, costs, boot_time)
        for other in pollution:
            if not harness.run_test_case(other, restore=True).status.survivable:
                harness = _boot(module, config, costs, boot_time)
        vm = harness.vm
        vm.trace_edges = trace
        iteration = harness.run_test_case(data, restore=False)
    else:
        if pollution:
            raise ValueError("pollution needs a ClosureX build with target_main")
        fs = VirtualFS()
        fs.write_file(DEFAULT_INPUT_PATH, data)
        vm = VM(module, fs=fs, heap_budget=config.heap_budget,
                max_open_files=config.max_open_files)
        vm.load()
        vm.charge(vm.load_cost)
        if boot_time is not None:
            vm.boot_time = boot_time
        vm.instruction_limit = config.instruction_limit
        vm.trace_edges = trace
        argc, argv = vm.setup_argv([module.name, DEFAULT_INPUT_PATH])
        iteration = IterationResult(*call_target(
            vm, module.get_function("main"), [argc, argv]))
        iteration.instructions = vm.instructions_executed
    return Observation.capture(vm, iteration, snapshot=snapshot,
                               cost_ns=vm.cost + costs.shadow_dispatch_ns)


def _boot(module: Module, config: HarnessConfig, costs: CostModel,
          boot_time: int | None) -> ClosureXHarness:
    harness = ClosureXHarness(module, fs=VirtualFS(), costs=costs,
                              config=config)
    vm = harness.boot(charge_load=True)
    if boot_time is not None:
        vm.boot_time = boot_time
    return harness
