"""Experiment harness: every table and figure of the paper's evaluation.

Index (see DESIGN.md §3 for the full mapping):

- E1 Table 5 (:func:`run_table5`) — test-case execution rate
- E2 Table 6 (:func:`run_table6`) — edge-coverage improvement
- E3 Table 7 (:func:`run_table7`) — time-to-bug
- E4 §6.1.4 (:func:`run_correctness`) — semantic-correctness validation
- E5 spectrum (:func:`run_spectrum`) — mechanism cost spectrum
- E6 figures 3-5 (:func:`run_global_pass_figure`, :func:`run_restore_lifecycle`)
- E7 motivation (:func:`run_motivation`) — persistent-mode pathologies
- E8 ablations (:func:`run_pass_ablation`, :func:`run_fd_rewind_ablation`)
- i2s-guards (:func:`run_i2s_guards`) — input-to-state time-to-guarded-edge

``python -m repro.experiments`` lists and runs these entry points from
the command line.  Tables 5-7 and the timeline are views over paper
trials that the :mod:`repro.experiments.platform` subpackage runs and
stores (see :mod:`repro.experiments.config`); the platform also runs
arbitrary (mechanism x target x seed x config) matrices with
fuzzbench-style statistics — see docs/experiments.md.
"""

from repro.experiments.ablation import (
    FdRewindResult,
    PassAblationResult,
    PassAblationRow,
    run_fd_rewind_ablation,
    run_pass_ablation,
)
from repro.experiments.config import HORIZON_24H_NS, ExperimentConfig
from repro.experiments.correctness_exp import (
    CorrectnessResult,
    CorrectnessRow,
    run_correctness,
)
from repro.experiments.figures import (
    GlobalPassFigure,
    MechanismPoint,
    RestoreLifecycleFigure,
    SpectrumResult,
    TimelineFigure,
    run_global_pass_figure,
    run_restore_lifecycle,
    run_spectrum,
    run_timeline,
)
from repro.experiments.i2s_exp import (
    GUARD_TARGETS,
    I2SGuardResult,
    I2SGuardRow,
    guard_cells,
    run_i2s_guards,
)
from repro.experiments.motivation import (
    DEMO_SOURCE,
    MotivationReport,
    build_demo_modules,
    run_motivation,
)
from repro.experiments.stats import (
    a12_magnitude,
    bootstrap_ci,
    format_count,
    format_table,
    mann_whitney_p,
    mann_whitney_u,
    mean,
    median,
    stddev,
    vargha_delaney_a12,
)
from repro.experiments.table5 import Table5Result, Table5Row, run_table5
from repro.experiments.table6 import Table6Result, Table6Row, edge_universe, run_table6
from repro.experiments.table7 import BUG_TARGETS, Table7Result, Table7Row, run_table7

__all__ = [
    "FdRewindResult", "PassAblationResult", "PassAblationRow",
    "run_fd_rewind_ablation", "run_pass_ablation",
    "HORIZON_24H_NS", "ExperimentConfig",
    "CorrectnessResult", "CorrectnessRow", "run_correctness",
    "GlobalPassFigure", "MechanismPoint", "RestoreLifecycleFigure",
    "SpectrumResult", "TimelineFigure",
    "run_global_pass_figure", "run_restore_lifecycle", "run_spectrum",
    "run_timeline",
    "GUARD_TARGETS", "I2SGuardResult", "I2SGuardRow", "guard_cells",
    "run_i2s_guards",
    "DEMO_SOURCE", "MotivationReport", "build_demo_modules", "run_motivation",
    "a12_magnitude", "bootstrap_ci", "format_count", "format_table",
    "mann_whitney_p", "mann_whitney_u", "mean", "median", "stddev",
    "vargha_delaney_a12",
    "Table5Result", "Table5Row", "run_table5",
    "Table6Result", "Table6Row", "edge_universe", "run_table6",
    "BUG_TARGETS", "Table7Result", "Table7Row", "run_table7",
]
