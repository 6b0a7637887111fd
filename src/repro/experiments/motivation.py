"""Experiment E7 — the motivation: naive persistent fuzzing is incorrect.

Demonstrates the three pathologies of §1-2 on a purpose-built stateful
target, then quantifies residual-state pollution on the real benchmark
targets:

- **missed crash**: an earlier input flips a global mode bit; a later
  input that crashes any fresh process no longer crashes the polluted
  persistent process;
- **false crash**: per-iteration heap leaks and unclosed file handles
  eventually raise OOM / FD-exhaustion crashes on perfectly valid
  inputs;
- **non-reproducibility**: the "crashing" input from a persistent run
  does not crash in a fresh process.

ClosureX, run on the same sequences, behaves exactly like a fresh
process every time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.execution import (
    ClosureXExecutor,
    FreshProcessExecutor,
    NaivePersistentExecutor,
)
from repro.minic import compile_c
from repro.passes.base import PassManager
from repro.passes.pipelines import baseline_passes, closurex_passes, persistent_passes
from repro.sim_os import Kernel
from repro.vm.errors import TrapKind

#: A deliberately stateful target: global mode bit + per-run leaks.
DEMO_SOURCE = r"""
int strict_mode = 1;
long runs;
char input_buf[64];

int main(int argc, char **argv) {
    char *f = fopen(argv[1], "r");
    if (!f) { exit(1); }
    long n = fread(input_buf, 1, 64, f);
    runs++;
    char *scratch = (char*)malloc(4096);
    scratch[0] = (char)runs;
    if (n < 1) { exit(2); }              /* leaks scratch AND f */
    if (input_buf[0] == 'D') {
        strict_mode = 0;                 /* pollutes later iterations */
    }
    if (input_buf[0] == 'L') {
        return 3;                        /* early return: leaks scratch + f */
    }
    if (input_buf[0] == 'C' && strict_mode) {
        int *p = NULL;
        *p = 1;                          /* the real bug */
    }
    fclose(f);
    free(scratch);
    return 0;
}
"""

DEMO_IMAGE_BYTES = 100_000


def build_demo_modules():
    """(baseline, persistent, closurex) builds of the demo target."""
    baseline = compile_c(DEMO_SOURCE, "stateful-demo")
    PassManager(baseline_passes(7)).run(baseline)
    persistent = compile_c(DEMO_SOURCE, "stateful-demo")
    PassManager(persistent_passes(7)).run(persistent)
    closurex = compile_c(DEMO_SOURCE, "stateful-demo")
    PassManager(closurex_passes(7)).run(closurex)
    return baseline, persistent, closurex


@dataclass
class MotivationReport:
    """Observed pathologies per mechanism."""

    fresh_crash: bool = False
    persistent_missed_crash: bool = False
    persistent_false_crashes: list[TrapKind] = field(default_factory=list)
    false_crash_reproducible_fresh: bool = False
    closurex_crash: bool = False
    persistent_peak_leaked_bytes: int = 0
    persistent_peak_open_fds: int = 0

    @property
    def demonstrates_incorrectness(self) -> bool:
        return (
            self.fresh_crash
            and self.persistent_missed_crash
            and bool(self.persistent_false_crashes)
            and not self.false_crash_reproducible_fresh
            and self.closurex_crash
        )

    def render(self) -> str:
        lines = [
            f"fresh process crashes on 'C': {self.fresh_crash}",
            f"naive persistent misses the crash after 'D': "
            f"{self.persistent_missed_crash}",
            f"naive persistent false crashes: "
            f"{[k.value for k in self.persistent_false_crashes]}",
            f"  ...reproducible in a fresh process: "
            f"{self.false_crash_reproducible_fresh}",
            f"ClosureX still catches the crash after 'D': {self.closurex_crash}",
            f"persistent peak leak: {self.persistent_peak_leaked_bytes} B, "
            f"peak open FDs: {self.persistent_peak_open_fds}",
        ]
        return "\n".join(lines)


def run_motivation(leak_iterations: int = 80) -> MotivationReport:
    """Run the three-pathology demonstration."""
    baseline, persistent_mod, closurex_mod = build_demo_modules()
    report = MotivationReport()
    crash_input = b"C crash please"
    disable_input = b"D disable"

    # Ground truth: a fresh process always crashes on 'C'.
    fresh = FreshProcessExecutor(baseline, DEMO_IMAGE_BYTES, Kernel())
    result = fresh.run(crash_input)
    report.fresh_crash = result.is_crash

    # Pathology 1: missed crash. 'D' pollutes the global; 'C' no longer
    # crashes the same persistent process.
    persistent = NaivePersistentExecutor(persistent_mod, DEMO_IMAGE_BYTES, Kernel())
    persistent.boot()
    persistent.run(disable_input)
    result = persistent.run(crash_input)
    report.persistent_missed_crash = not result.is_crash

    # Pathology 2: false crashes. Benign inputs leak 4 KiB + one FD per
    # iteration; eventually the process dies on a perfectly valid input.
    # (A small heap budget stands in for hours of accumulation.)
    leaky = NaivePersistentExecutor(persistent_mod, DEMO_IMAGE_BYTES, Kernel())
    leaky.boot()
    assert leaky.vm is not None
    leaky.vm.heap.budget_bytes = 48 * 4096
    leak_input = b"L leak on early return"
    false_crash_input = None
    for _ in range(leak_iterations):
        # 'L' returns early, leaking 4 KiB and one FILE handle each
        # iteration — pollution a fresh process would never see.
        result = leaky.run(leak_input)
        report.persistent_peak_leaked_bytes = leaky.pollution.peak_leaked_bytes
        report.persistent_peak_open_fds = leaky.pollution.peak_open_fds
        if result.is_crash and result.trap is not None:
            report.persistent_false_crashes.append(result.trap.kind)
            false_crash_input = leak_input
            break

    # Pathology 3: the false crash does not reproduce in a fresh process.
    if false_crash_input is not None:
        fresh2 = FreshProcessExecutor(baseline, DEMO_IMAGE_BYTES, Kernel())
        report.false_crash_reproducible_fresh = fresh2.run(false_crash_input).is_crash

    # ClosureX: same 'D' then 'C' sequence, crash still caught.
    closurex = ClosureXExecutor(closurex_mod, DEMO_IMAGE_BYTES, Kernel())
    closurex.boot()
    closurex.run(disable_input)
    result = closurex.run(crash_input)
    report.closurex_crash = result.is_crash
    return report
