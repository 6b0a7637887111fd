"""Execution mechanisms: the paper's process-management spectrum."""

from repro.execution.closurex import ClosureXExecutor
from repro.execution.common import (
    DEFAULT_EXEC_INSTRUCTION_LIMIT,
    ExecResult,
    Executor,
    ExecutorStats,
    classify_trap,
)
from repro.execution.forkserver import ForkServerExecutor
from repro.execution.fresh import FreshProcessExecutor
from repro.execution.persistent import NaivePersistentExecutor, PollutionStats
from repro.execution.supervised import (
    RECOVERABLE_FAULTS,
    QuarantineRecord,
    SupervisedExecutor,
    SupervisionStats,
)
from repro.execution.builder import MECHANISMS, build_executor
from repro.runtime.harness import call_target

__all__ = [
    "ClosureXExecutor",
    "DEFAULT_EXEC_INSTRUCTION_LIMIT",
    "ExecResult",
    "Executor",
    "ExecutorStats",
    "ForkServerExecutor",
    "FreshProcessExecutor",
    "MECHANISMS",
    "NaivePersistentExecutor",
    "PollutionStats",
    "QuarantineRecord",
    "RECOVERABLE_FAULTS",
    "SupervisedExecutor",
    "SupervisionStats",
    "build_executor",
    "call_target",
    "classify_trap",
]
