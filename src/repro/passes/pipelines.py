"""The three pass lists that instrument a fuzz target.

- :func:`closurex_passes` — the full ClosureX instrumentation (the five
  passes of the paper's Table 3) plus the shared coverage
  instrumentation; given a pollution report it elides the passes the
  static classifier proves unnecessary.
- :func:`baseline_passes` — what an AFL++ build gets: coverage
  instrumentation only; process management is the executor's job.
- :func:`persistent_passes` — the naive persistent-mode foil.

A registered target becomes a module through
:class:`repro.targets.TargetSpec`, which runs one of these lists and,
when asked, the validated optimizer.  Every list takes the coverage
seed, and a target's builds share one (``TargetSpec.coverage_seed``) so
the baseline and ClosureX builds have identical edge ids, keeping
coverage numbers directly comparable (paper §5.3).  Skipping
non-coverage passes cannot perturb edge ids: those passes never add or
remove basic blocks, so the seeded id sequence is unchanged.
"""

from __future__ import annotations

from repro.analysis.pollution import PollutionReport
from repro.passes.base import ModulePass
from repro.passes.coverage import CoveragePass
from repro.passes.exit_pass import ExitPass
from repro.passes.file_pass import FilePass
from repro.passes.global_pass import GlobalPass
from repro.passes.heap_pass import HeapPass
from repro.passes.rename_main import RenameMainPass

#: Paper Table 3: the ClosureX passes and their one-line functionality.
PASS_TABLE: dict[str, str] = {
    "RenameMainPass": "Rename target's main",
    "HeapPass": "Inject tracking of target's heap memory",
    "FilePass": "Inject tracking of target's file descriptors",
    "GlobalPass": "Move target's writable globals into a separate memory section",
    "ExitPass": "Rename target's exit calls",
}


def closurex_passes(
    coverage_seed: int,
    extra_allocators: dict[str, str] | None = None,
    skip: set[str] | None = None,
    report: PollutionReport | None = None,
) -> list[ModulePass]:
    """The ClosureX pipeline; *skip* names passes to drop (ablations).

    A pollution *report* drops the passes of the state dimensions it
    proves clean; when its modified-globals set is trusted (no
    unknown-provenance stores), the GlobalPass relocates only the
    globals the target can modify, shrinking the per-iteration
    snapshot.
    """
    skip = set(skip or ())
    restrict_to = None
    if report is not None:
        skip |= report.skip_passes()
        if report.trusted_globals:
            restrict_to = set(report.modified_globals)
    passes: list[ModulePass] = []
    for pass_ in (
        RenameMainPass(),
        ExitPass(),
        HeapPass(extra_allocators=extra_allocators),
        FilePass(),
        GlobalPass(restrict_to=restrict_to),
    ):
        if pass_.name not in skip:
            passes.append(pass_)
    passes.append(CoveragePass(coverage_seed))
    return passes


def baseline_passes(coverage_seed: int) -> list[ModulePass]:
    """The AFL++-style build: coverage instrumentation only."""
    return [CoveragePass(coverage_seed)]


def persistent_passes(coverage_seed: int) -> list[ModulePass]:
    """The *naive* persistent-mode build (the paper's incorrect foil):
    the loop needs a callable entry point, but no state tracking is
    injected — exit() still kills the process, leaks accumulate."""
    return [RenameMainPass(), CoveragePass(coverage_seed)]
