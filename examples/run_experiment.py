#!/usr/bin/env python3
"""Run a small experiment matrix through the experiment platform.

Compares closurex vs forkserver on one target over a few seeded
trials, then prints the statistical report: per-target ranking with
bootstrap confidence intervals, pairwise Mann-Whitney U p-values and
Vargha-Delaney Â₁₂ effect sizes, and coverage-growth sparklines on the
virtual clock.  The whole pipeline is deterministic: the store digest
printed at the end is a pure function of the spec.

This is the API behind ``python -m repro.experiments matrix``; see
docs/experiments.md for the spec format and how to read the report.

Run:  python examples/run_experiment.py
"""

import tempfile
from pathlib import Path

from repro.experiments.platform import (
    ExperimentSpec,
    ReportGenerator,
    ResultsStore,
    TrialScheduler,
)

MS = 1_000_000  # virtual nanoseconds per virtual millisecond


def main():
    spec = ExperimentSpec(
        name="example",
        targets=["giftext"],
        mechanisms=["closurex", "forkserver"],
        trials=2,
        budget_ns=3 * MS,        # per-trial virtual-time budget
        measure_every_ns=1 * MS,  # coverage snapshot cadence
        base_seed=11,
    )
    out = Path(tempfile.mkdtemp(prefix="repro-experiment-"))
    store = ResultsStore(str(out))

    # The scheduler drives every trial through the stepwise Campaign
    # surface, pausing on the measurement cadence so the measurer can
    # append coverage/corpus/crash snapshots to the JSONL store.  Kill
    # it at any point and run() again: finished trials are skipped and
    # half-finished ones resume from their checkpoints.
    finals = TrialScheduler(spec, store, log=print).run()
    print(f"\n{len(finals)} trial(s) complete\n")

    report, digest = ReportGenerator(store).write()
    print(ReportGenerator(store).to_markdown(report))
    print(f"results store : {out}")
    print(f"store digest  : {store.digest()}")
    print(f"report digest : {digest}")


if __name__ == "__main__":
    main()
