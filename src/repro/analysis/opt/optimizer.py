"""Optimizer driver: transform rounds gated by translation validation.

The :class:`Optimizer` runs the transform suite
(:mod:`repro.analysis.opt.transforms`, :mod:`~repro.analysis.opt.mem2reg`)
in rounds until a fixpoint or ``max_rounds``.  Every transform that
changed the module must then survive the three validation checks of
:mod:`repro.analysis.opt.validation` — strict-SSA verification, the
structural self-check, and differential replay of the seed corpus
against observations of the *unoptimized* module.  A transform that
fails any check is rolled back from a text checkpoint and reported as
``rejected``; the pipeline continues with the remaining transforms, so
one bad rewrite can never poison the module or mask the others.

Baseline observations are computed once, on the pristine module:
each accepted transform is observation-preserving, so the baseline
remains the correct reference for every later transform.

Telemetry rides the ``analysis.opt.*`` metrics family and the
``analysis.opt.run`` / ``analysis.opt.transform`` trace events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.opt.mem2reg import PromoteSlots
from repro.analysis.opt.transforms import (
    SCCP,
    DeadCodeElimination,
    DeadStoreElimination,
    OptContext,
    RedundantLoadElimination,
    SimplifyCFG,
    SimplifyInstructions,
    Transform,
)
from repro.analysis.opt.validation import (
    REPLAY_BOOT_TIME,
    TRACED_REPLAYS_PER_MISMATCH,
    ModuleCheckpoint,
    replay_mismatches,
    structural_errors,
)
from repro.ir.module import Module
from repro.ir.verifier import VerificationError, verify_module
from repro.runtime.replay import Observation, replay
from repro.telemetry import NULL_METRICS, NULL_TRACER

#: Transform verdicts, in report order of interest.
VALIDATED = "validated"
REJECTED = "rejected"
NO_CHANGE = "no-change"
UNVALIDATED = "unvalidated"

DEFAULT_MAX_ROUNDS = 3


def default_transforms() -> list[Transform]:
    """The standard pipeline, in dependency order: clean the CFG,
    promote slots, propagate constants, simplify, forward loads, then
    sweep dead stores and code."""
    return [
        SimplifyCFG(),
        PromoteSlots(),
        SCCP(),
        SimplifyInstructions(),
        RedundantLoadElimination(),
        DeadStoreElimination(),
        DeadCodeElimination(),
    ]


@dataclass
class TransformOutcome:
    """One transform application and its validation verdict."""

    transform: str
    round: int
    verdict: str
    details: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "transform": self.transform,
            "round": self.round,
            "verdict": self.verdict,
            "details": dict(sorted(self.details.items())),
            "errors": list(self.errors),
        }


@dataclass
class OptimizationReport:
    """Everything one :meth:`Optimizer.run` did to one module."""

    module: str
    instructions_before: int
    instructions_after: int
    rounds: int
    replays: int
    validated_against: int  # number of corpus inputs replayed per check
    outcomes: list[TransformOutcome] = field(default_factory=list)

    @property
    def applied(self) -> int:
        return sum(1 for o in self.outcomes if o.verdict in (VALIDATED,
                                                             UNVALIDATED))

    @property
    def rejected(self) -> int:
        return sum(1 for o in self.outcomes if o.verdict == REJECTED)

    @property
    def removed_instructions(self) -> int:
        return self.instructions_before - self.instructions_after

    def to_dict(self) -> dict:
        """Stable, JSON-ready form (insertion order is deterministic)."""
        return {
            "module": self.module,
            "instructions_before": self.instructions_before,
            "instructions_after": self.instructions_after,
            "instructions_removed": self.removed_instructions,
            "rounds": self.rounds,
            "replays": self.replays,
            "validated_against": self.validated_against,
            "applied": self.applied,
            "rejected": self.rejected,
            "transforms": [o.to_dict() for o in self.outcomes],
        }


class Optimizer:
    """Runs validated transform rounds over one module in place."""

    def __init__(
        self,
        module: Module,
        seeds: tuple[bytes, ...] = (),
        transforms: list[Transform] | None = None,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        validate: bool = True,
        extra_allocators: dict[str, str] | None = None,
        metrics=NULL_METRICS,
        tracer=NULL_TRACER,
    ):
        self.module = module
        self.seeds = tuple(seeds)
        self.transforms = (transforms if transforms is not None
                           else default_transforms())
        self.max_rounds = max_rounds
        self.validate = validate
        self.extra_allocators = dict(extra_allocators or {})
        self.metrics = metrics
        self.tracer = tracer

    def run(self) -> OptimizationReport:
        module = self.module
        module.require_private("the optimizer")
        report = OptimizationReport(
            module=module.name,
            instructions_before=module.instruction_count(),
            instructions_after=module.instruction_count(),
            rounds=0,
            replays=0,
            validated_against=len(self.seeds) if self.validate else 0,
        )
        baseline: list[Observation] = []
        if self.validate and self.seeds:
            baseline = [replay(module, seed, boot_time=REPLAY_BOOT_TIME)
                        for seed in self.seeds]
            report.replays += len(self.seeds)
        for round_number in range(1, self.max_rounds + 1):
            report.rounds = round_number
            self.metrics.counter("analysis.opt.rounds").inc()
            ctx = OptContext(module, self.extra_allocators)
            round_changed = False
            for transform in self.transforms:
                outcome, ctx = self._run_one(transform, ctx, baseline,
                                             round_number, report)
                report.outcomes.append(outcome)
                if outcome.verdict in (VALIDATED, UNVALIDATED):
                    round_changed = True
            if not round_changed:
                break
        report.instructions_after = module.instruction_count()
        self.metrics.counter("analysis.opt.runs").inc()
        self.metrics.counter("analysis.opt.instructions_removed").inc(
            max(0, report.removed_instructions))
        self.tracer.event(
            "analysis.opt.run",
            module=module.name,
            rounds=report.rounds,
            instructions_before=report.instructions_before,
            instructions_after=report.instructions_after,
            applied=report.applied,
            rejected=report.rejected,
            replays=report.replays,
        )
        return report

    # ------------------------------------------------------------------

    def _run_one(self, transform: Transform, ctx: OptContext,
                 baseline: list[Observation], round_number: int,
                 report: OptimizationReport) -> tuple[TransformOutcome,
                                                      OptContext]:
        module = self.module
        checkpoint = ModuleCheckpoint(module) if self.validate else None
        try:
            result = transform.run(module, ctx)
        except Exception as exc:  # noqa: BLE001 - a buggy transform must
            # not leave a half-mutated module behind
            if checkpoint is None:
                raise
            checkpoint.restore()
            outcome = TransformOutcome(
                transform.name, round_number, REJECTED,
                errors=[f"transform raised {type(exc).__name__}: {exc}"],
            )
            self._note_rejection(outcome)
            return outcome, OptContext(module, self.extra_allocators)
        if not result.changed:
            return (TransformOutcome(transform.name, round_number, NO_CHANGE),
                    ctx)
        # Transforms rewrite operands without moving a function's
        # cfg_epoch (SCCP's replace_all_uses_with): validate, and run,
        # freshly decoded code.
        module.decoded = None
        if checkpoint is None:
            self.metrics.counter("analysis.opt.transforms_applied").inc()
            return (TransformOutcome(transform.name, round_number,
                                     UNVALIDATED, details=result.details),
                    ctx)
        errors = self._validation_errors(baseline, report, checkpoint.text)
        if errors:
            checkpoint.restore()
            outcome = TransformOutcome(transform.name, round_number, REJECTED,
                                       details=result.details, errors=errors)
            self._note_rejection(outcome)
            # The rollback replaced every function object: rebuild the
            # analysis context so later transforms see live IR.
            return outcome, OptContext(module, self.extra_allocators)
        self.metrics.counter("analysis.opt.transforms_applied").inc()
        self.tracer.event(
            "analysis.opt.transform",
            transform=transform.name,
            verdict=VALIDATED,
            round=round_number,
            **{f"detail.{k}": v for k, v in sorted(result.details.items())},
        )
        return (TransformOutcome(transform.name, round_number, VALIDATED,
                                 details=result.details),
                ctx)

    def _note_rejection(self, outcome: TransformOutcome) -> None:
        self.metrics.counter("analysis.opt.transforms_rejected").inc()
        self.tracer.event(
            "analysis.opt.transform",
            transform=outcome.transform,
            verdict=REJECTED,
            round=outcome.round,
            error=outcome.errors[0] if outcome.errors else "",
        )

    def _validation_errors(self, baseline: list[Observation],
                           report: OptimizationReport,
                           reference: str) -> list[str]:
        module = self.module
        try:
            verify_module(module, strict_ssa=True)
        except VerificationError as err:
            return [f"verifier: {e}" for e in err.errors[:5]]
        errors = structural_errors(module)
        if errors:
            return [f"structure: {e}" for e in errors]
        if baseline:
            mismatches = replay_mismatches(baseline, module,
                                           list(self.seeds), reference)
            replays = (len(self.seeds)
                       + TRACED_REPLAYS_PER_MISMATCH * len(mismatches))
            report.replays += replays
            self.metrics.counter("analysis.opt.replays").inc(replays)
            if mismatches:
                return [f"replay: {m}" for m in mismatches]
        return []


def optimize_module(
    module: Module,
    seeds: tuple[bytes, ...] = (),
    **kwargs,
) -> OptimizationReport:
    """Optimize *module* in place and return the report."""
    return Optimizer(module, seeds=seeds, **kwargs).run()
