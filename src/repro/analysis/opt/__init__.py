"""Static-analysis-driven MiniIR optimizer with translation validation.

The package splits into three layers:

- :mod:`~repro.analysis.opt.transforms` and
  :mod:`~repro.analysis.opt.mem2reg` — the rewrites (CFG
  simplification, slot promotion, SCCP, instruction simplification,
  redundant-load and dead-store elimination, DCE), each driven by an
  analysis from :mod:`repro.analysis` or :mod:`repro.ir.cfg`.
- :mod:`~repro.analysis.opt.validation` — the machine checks that gate
  every transform: strict-SSA verification, a def-use structural
  self-check, and differential replay against the unoptimized module
  over a seed corpus (bit-identical coverage maps, crash identities,
  output, and filesystem state).
- :mod:`~repro.analysis.opt.optimizer` — the driver that runs
  transform rounds, rolls back anything validation rejects, and emits
  an :class:`~repro.analysis.opt.optimizer.OptimizationReport`.

Entry points: :func:`optimize_module` for one-shot use, or the
``optimize=True`` knob on the build pipelines in
:mod:`repro.passes.pipelines` / :mod:`repro.targets.framework`.
"""

from repro.analysis.opt.mem2reg import PromoteSlots
from repro.analysis.opt.optimizer import (
    DEFAULT_MAX_ROUNDS,
    NO_CHANGE,
    REJECTED,
    UNVALIDATED,
    VALIDATED,
    OptimizationReport,
    Optimizer,
    TransformOutcome,
    default_transforms,
    optimize_module,
)
from repro.analysis.opt.transforms import (
    SCCP,
    DeadCodeElimination,
    DeadStoreElimination,
    OptContext,
    RedundantLoadElimination,
    SimplifyCFG,
    SimplifyInstructions,
    Transform,
    TransformResult,
    fold_binop,
    fold_cast,
    fold_icmp,
)
from repro.analysis.opt.validation import (
    REPLAY_BOOT_TIME,
    ModuleCheckpoint,
    replay_mismatches,
    structural_errors,
)

__all__ = [
    "DEFAULT_MAX_ROUNDS", "NO_CHANGE", "REJECTED", "UNVALIDATED",
    "VALIDATED",
    "OptimizationReport", "Optimizer", "TransformOutcome",
    "default_transforms", "optimize_module",
    "PromoteSlots", "SCCP", "DeadCodeElimination", "DeadStoreElimination",
    "OptContext", "RedundantLoadElimination", "SimplifyCFG",
    "SimplifyInstructions", "Transform", "TransformResult",
    "fold_binop", "fold_cast", "fold_icmp",
    "REPLAY_BOOT_TIME", "ModuleCheckpoint", "replay_mismatches",
    "structural_errors",
]
