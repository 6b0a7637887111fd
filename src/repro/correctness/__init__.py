"""Correctness validation: the paper's §6.1.4 machinery.

The dataflow and control-flow checks mask natural non-determinism and
compare the snapshots and edge traces of fresh and polluted replays
(:func:`repro.runtime.replay.replay`).
"""

from repro.correctness.controlflow import (
    ControlFlowReport,
    check_controlflow_equivalence,
)
from repro.correctness.dataflow import (
    DataflowReport,
    check_dataflow_equivalence,
    check_restoration_resets_state,
)
from repro.correctness.memcheck import (
    LIFECYCLE_KINDS,
    MemcheckReport,
    run_memcheck,
)

__all__ = [
    "ControlFlowReport", "check_controlflow_equivalence",
    "DataflowReport", "check_dataflow_equivalence",
    "check_restoration_resets_state",
    "LIFECYCLE_KINDS", "MemcheckReport", "run_memcheck",
]
