"""Experiment sizing, and the paper's trials on the experiment platform.

The paper runs 5 x 24-hour trials per configuration on Azure; we run
5 x N-virtual-millisecond trials and extrapolate throughput to the
24-hour horizon for reporting.  Ratios (speedups, improvements) are
horizon-independent.

Environment knobs (so CI runs stay quick and a full run is one export
away):

- ``REPRO_BUDGET_MS``  — virtual milliseconds per campaign (default 20)
- ``REPRO_TRIALS``     — trials per configuration (default 3)
- ``REPRO_TARGETS``    — comma-separated subset of target names

Tables 5-7 and the timeline figure are views over each target's paper
trials (:meth:`ExperimentConfig.paper_spec`), stored in
``<out>/<target>/`` by the platform's scheduler, which skips finished
trials: views over one ``out`` share trials and a killed run resumes.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

from repro.experiments.platform import (
    ExperimentSpec,
    ResultsStore,
    TrialScheduler,
)
from repro.targets import target_names

#: The paper's horizon: 24 hours, in virtual nanoseconds.
HORIZON_24H_NS = 24 * 3600 * 10**9

#: The paired comparison of every paper table: ClosureX vs AFL++.
PAPER_MECHANISMS = ("closurex", "forkserver")

#: Samples per paper trial: the timeline figure's measurement grid.
PAPER_SAMPLES = 16


def _env_int(name: str, default: int) -> int:
    """A positive integer from the environment (*default* when unset)."""
    value = os.environ.get(name)
    if not value:
        return default
    try:
        number = int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if number < 1:
        raise ValueError(f"{name} must be >= 1, got {number}")
    return number


def _env_targets() -> list[str]:
    value = os.environ.get("REPRO_TARGETS")
    if not value:
        return target_names()
    requested = [name.strip() for name in value.split(",") if name.strip()]
    known = set(target_names())
    unknown = [name for name in requested if name not in known]
    if unknown:
        raise ValueError(f"unknown targets in REPRO_TARGETS: {unknown}")
    return requested


@dataclass
class ExperimentConfig:
    """Sizing for one experiment run."""

    budget_ns: int = field(
        default_factory=lambda: _env_int("REPRO_BUDGET_MS", 20) * 1_000_000
    )
    trials: int = field(default_factory=lambda: _env_int("REPRO_TRIALS", 3))
    targets: list[str] = field(default_factory=_env_targets)
    base_seed: int = 1000

    def paper_spec(self, target: str) -> ExperimentSpec:
        """The paper trials on *target*: both mechanisms, this sizing,
        sampled :data:`PAPER_SAMPLES` times per trial."""
        return ExperimentSpec(
            name="paper",
            targets=[target],
            mechanisms=list(PAPER_MECHANISMS),
            trials=self.trials,
            budget_ns=self.budget_ns,
            measure_every_ns=-(-self.budget_ns // PAPER_SAMPLES),
            base_seed=self.base_seed,
        )

    def trial_seed(self, target: str, trial: int) -> int:
        """The fuzzer seed of *target*'s paper trial *trial*; both
        mechanisms share it (the paper's paired comparison)."""
        return self.paper_spec(target).trial_seed(target, trial)


def paper_scheduler(config: ExperimentConfig, target: str,
                    out: str | None = None) -> TrialScheduler:
    """The scheduler of *target*'s paper trials, bound to
    ``<out>/<target>/`` (*out* defaults to a fresh temporary directory)."""
    out = out if out is not None else tempfile.mkdtemp(prefix="repro-paper-")
    return TrialScheduler(
        config.paper_spec(target), ResultsStore(os.path.join(out, target))
    )


def paper_finals(config: ExperimentConfig, targets: list[str],
                 out: str | None = None) -> dict[str, dict[str, list[dict]]]:
    """target -> mechanism -> final records in trial order, after
    running whichever paper trials *out* has not finished."""
    finals: dict[str, dict[str, list[dict]]] = {}
    for target in targets:
        by_mechanism = finals[target] = {m: [] for m in PAPER_MECHANISMS}
        for final in paper_scheduler(config, target, out).run():
            by_mechanism[final["mechanism"]].append(final)
    return finals
