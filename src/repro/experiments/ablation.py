"""Experiment E8 — ablations over ClosureX's design choices.

Each ClosureX pass exists to neutralise one source of residual state;
dropping it should make the correctness invariant fail in exactly the
predicted way, while keeping it costs a measurable slice of the
restoration budget.  Two ablation suites:

- **pass ablation**: build the target with one pass removed and check
  which §6.1.4 invariant breaks (globals dirty, chunks leak, handles
  leak, exit kills the process);
- **FD-rewind optimisation**: the paper rewinds initialisation-phase
  handles instead of closing/reopening them; toggling it quantifies
  the saving.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.stats import format_table
from repro.runtime.harness import ClosureXHarness, HarnessConfig, IterationStatus
from repro.targets import get_target
from repro.vm.snapshot import NondetMask, diff_snapshots, take_snapshot


@dataclass
class PassAblationRow:
    """One pass-ablation configuration: what breaks without it."""

    skipped_pass: str
    survives_exit: bool          # did the loop survive an exit() input?
    globals_clean: bool
    heap_clean: bool
    fds_clean: bool

    @property
    def fully_clean(self) -> bool:
        return (
            self.survives_exit
            and self.globals_clean
            and self.heap_clean
            and self.fds_clean
        )


@dataclass
class PassAblationResult:
    """All ablation rows for one target, renderable as a table."""

    target: str
    rows: list[PassAblationRow]

    def render(self) -> str:
        body = [
            [
                row.skipped_pass or "(none)",
                "yes" if row.survives_exit else "NO",
                "yes" if row.globals_clean else "NO",
                "yes" if row.heap_clean else "NO",
                "yes" if row.fds_clean else "NO",
            ]
            for row in self.rows
        ]
        return format_table(
            ["Skipped pass", "Survives exit()", "Globals clean",
             "Heap clean", "FDs clean"],
            body,
        )

    def row_for(self, skipped: str) -> PassAblationRow:
        for row in self.rows:
            if row.skipped_pass == skipped:
                return row
        raise KeyError(skipped)


def _probe_build(target: str, skip: set[str], inputs: list[bytes]) -> PassAblationRow:
    spec = get_target(target)
    module = spec.build_closurex(skip=skip)
    harness = ClosureXHarness(module)
    harness.boot()
    assert harness.vm is not None and harness.snapshot is not None
    vm = harness.vm
    baseline = take_snapshot(vm)
    baseline_chunks = vm.heap.live_chunk_count()
    baseline_fds = vm.fd_table.open_handle_count()

    survives_exit = True
    for data in inputs:
        result = harness.run_test_case(data, restore=True)
        if result.status is IterationStatus.PROCESS_EXIT:
            survives_exit = False
            break
        if not result.status.survivable:
            break

    mask = NondetMask()
    mask.ignore_rand = True
    after = take_snapshot(vm)
    delta = diff_snapshots(baseline, after, mask)
    return PassAblationRow(
        skipped_pass=",".join(sorted(skip)) if skip else "",
        survives_exit=survives_exit,
        globals_clean=not delta.section_diffs,
        heap_clean=vm.heap.live_chunk_count() == baseline_chunks,
        fds_clean=vm.fd_table.open_handle_count() == baseline_fds,
    )


def run_pass_ablation(target: str, inputs: list[bytes] | None = None) -> PassAblationResult:
    """Drop each restoration pass in turn and observe what breaks.

    *inputs* should include at least one input that exits early (to
    exercise the ExitPass) and ones that leak heap/handles.
    """
    spec = get_target(target)
    if inputs is None:
        inputs = list(spec.seeds) + [b"", b"\xff" * 40]
    rows = [_probe_build(target, set(), inputs)]
    for skipped in ("ExitPass", "HeapPass", "FilePass", "GlobalPass"):
        rows.append(_probe_build(target, {skipped}, inputs))
    return PassAblationResult(target=target, rows=rows)


@dataclass
class FdRewindResult:
    """Measured effect of the FilePass rewind-vs-reopen ablation."""

    target: str
    rewound_with_optimisation: int
    closed_without_optimisation: int
    restore_ns_with: int
    restore_ns_without: int

    def render(self) -> str:
        return (
            f"{self.target}: rewound={self.rewound_with_optimisation} "
            f"closed(without opt)={self.closed_without_optimisation} "
            f"restore {self.restore_ns_with} vs {self.restore_ns_without} ns"
        )


def run_fd_rewind_ablation(target: str, iterations: int = 20) -> FdRewindResult:
    """Quantify the init-handle ``fseek`` optimisation (paper §4.2.2)."""
    spec = get_target(target)

    def measure(rewind: bool) -> tuple[int, int, int]:
        module = spec.build_closurex()
        config = HarnessConfig(rewind_init_handles=rewind)
        harness = ClosureXHarness(module, config=config)
        harness.boot()
        rewound = closed = restore_ns = 0
        for _ in range(iterations):
            for seed in spec.seeds:
                result = harness.run_test_case(seed, restore=True)
                if result.restore is not None:
                    rewound += result.restore.rewound_fds
                    closed += result.restore.closed_fds
                    restore_ns += result.restore.restore_ns
        return rewound, closed, restore_ns

    rewound_on, _, ns_with = measure(True)
    _, closed_off, ns_without = measure(False)
    return FdRewindResult(
        target=target,
        rewound_with_optimisation=rewound_on,
        closed_without_optimisation=closed_off,
        restore_ns_with=ns_with,
        restore_ns_without=ns_without,
    )
