"""ClosureX compiler passes (paper Table 3) and pass infrastructure."""

from repro.passes.base import ModulePass, PassManager, PassResult
from repro.passes.coverage import COV_GUARD, CoveragePass
from repro.passes.exit_pass import EXIT_HOOK, ExitPass
from repro.passes.file_pass import FCLOSE_HOOK, FOPEN_HOOK, FilePass
from repro.passes.global_pass import CLOSURE_GLOBAL_SECTION, GlobalPass
from repro.passes.heap_pass import HEAP_WRAPPERS, HeapPass
from repro.passes.pipelines import (
    PASS_TABLE,
    baseline_passes,
    closurex_passes,
    persistent_passes,
)
from repro.passes.rename_main import TARGET_MAIN, RenameMainPass

__all__ = [
    "ModulePass", "PassManager", "PassResult",
    "COV_GUARD", "CoveragePass",
    "EXIT_HOOK", "ExitPass",
    "FCLOSE_HOOK", "FOPEN_HOOK", "FilePass",
    "CLOSURE_GLOBAL_SECTION", "GlobalPass",
    "HEAP_WRAPPERS", "HeapPass",
    "PASS_TABLE", "baseline_passes", "closurex_passes", "persistent_passes",
    "TARGET_MAIN", "RenameMainPass",
]
