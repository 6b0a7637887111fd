"""The experiment platform: fuzzbench-shaped benchmarking as a service.

Turns "reproduce Tables 5-7" into an engine that can answer *any*
comparison question over the repo's mechanisms and targets.  The four
moving parts, each its own module:

- :mod:`~repro.experiments.platform.spec` — :class:`ExperimentSpec`,
  the declarative (mechanism x target x seed x config-variant) matrix
  with a virtual-time budget and measurement cadence;
- :mod:`~repro.experiments.platform.scheduler` —
  :class:`TrialScheduler`, which drives trials concurrently through
  the stepwise Campaign surface (and ParallelCampaign for multi-worker
  trials), skipping finished trials and resuming half-finished ones;
- :mod:`~repro.experiments.platform.measurer` — :class:`Measurer`,
  which pauses each trial on the virtual-clock cadence and appends
  coverage/corpus/crash/integrity snapshots to the crash-safe JSONL
  :class:`ResultsStore`;
- :mod:`~repro.experiments.platform.report` —
  :class:`ReportGenerator`, which emits ranked pairwise comparisons
  (Mann-Whitney U, Vargha-Delaney Â₁₂, bootstrap CIs) and
  coverage-growth curves as markdown + canonical JSON.

``python -m repro.experiments matrix`` is the CLI; for a fixed spec
the results store and report are bit-reproducible across runs, kills,
and resumes.
"""

from repro.experiments.platform.measurer import Measurer, executor_health
from repro.experiments.platform.report import ReportError, ReportGenerator
from repro.experiments.platform.scheduler import TrialScheduler
from repro.experiments.platform.spec import (
    OVERRIDABLE_FIELDS,
    Arm,
    ExperimentSpec,
    SpecError,
    TrialSpec,
)
from repro.experiments.platform.store import (
    ResultsStore,
    StoreError,
    canonical_line,
)

__all__ = [
    "Arm", "ExperimentSpec", "Measurer", "OVERRIDABLE_FIELDS",
    "ReportError", "ReportGenerator", "ResultsStore",
    "SpecError", "StoreError", "TrialScheduler", "TrialSpec",
    "canonical_line", "executor_health",
]
