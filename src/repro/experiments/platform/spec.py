"""Experiment specifications: the (mechanism x target x seed x config)
matrix one platform run executes.

An :class:`ExperimentSpec` is a declarative description of a benchmark
experiment, fuzzbench-shaped: which *targets* to fuzz, which *arms* to
compare on each target (an arm is an execution mechanism plus an
optional named config variant — so "closurex" vs "closurex tuned with
double havoc energy" is as valid a comparison as "closurex" vs
"forkserver"), how many independent *trials* per (target, arm) cell,
the per-trial *virtual-time budget*, and the *measurement cadence* at
which the measurer samples coverage growth.

Everything is deterministic by construction: trial seeds are derived
from ``(base_seed, target, trial_index)`` only — the same trial index
replays the same mutation schedule under every arm, the paper's
controlled-comparison discipline — and the canonical JSON form (sorted
keys, no whitespace) gives the spec a stable digest that names the
experiment in the results store.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from repro.execution import MECHANISMS

#: Virtual nanoseconds per virtual millisecond (CLI/spec sizing unit).
MS = 1_000_000

#: CampaignConfig fields a variant may override.  Scheduling/diagnostic
#: fields (checkpoints, halts, telemetry) belong to the platform, not
#: the experiment definition, and are deliberately not overridable.
OVERRIDABLE_FIELDS = frozenset({
    "enable_deterministic", "det_stage_cap", "enable_trim",
    "trim_exec_cap", "havoc_base_energy", "max_input_size",
    "exec_instruction_limit",
})


class SpecError(ValueError):
    """An experiment spec that cannot be run as written."""


@dataclass(frozen=True)
class Arm:
    """One comparison arm: a mechanism plus a named config variant."""

    mechanism: str
    variant: str = "default"
    overrides: tuple[tuple[str, object], ...] = ()

    @property
    def label(self) -> str:
        """Human/report label; the bare mechanism for the default
        variant, ``mechanism@variant`` otherwise."""
        if self.variant == "default":
            return self.mechanism
        return f"{self.mechanism}@{self.variant}"


@dataclass(frozen=True)
class TrialSpec:
    """One scheduled trial: a cell of the matrix at one seed."""

    trial_id: str
    target: str
    arm: Arm
    trial_index: int
    seed: int
    budget_ns: int
    measure_every_ns: int
    n_workers: int = 1
    sync_every_ns: int = 0
    supervised: bool = False
    sentinel_digest_every: int = 0


@dataclass
class ExperimentSpec:
    """The full experiment matrix (see the module docstring)."""

    name: str
    targets: list[str]
    mechanisms: list[str]
    trials: int = 3
    budget_ns: int = 8 * MS
    measure_every_ns: int = 2 * MS
    base_seed: int = 0
    # Named config variants: each mechanism is crossed with each
    # variant, so {"default": {}, "hot": {"havoc_base_energy": 96}}
    # doubles the arm count.  Values are CampaignConfig overrides.
    variants: dict[str, dict] = field(default_factory=lambda: {"default": {}})
    # Multi-worker trials: >1 runs every trial as a ParallelCampaign of
    # this many shards, sampled at sync barriers.
    n_workers: int = 1
    sync_every_ns: int = 0            # 0 = measure_every_ns
    # Executor ladder options applied to every trial.
    supervised: bool = False
    sentinel_digest_every: int = 0

    def __post_init__(self) -> None:
        self.validate()

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        """Reject specs that cannot run (unknown mechanism/override)."""
        if not self.targets:
            raise SpecError("spec lists no targets")
        if not self.mechanisms:
            raise SpecError("spec lists no mechanisms")
        for mechanism in self.mechanisms:
            if mechanism not in MECHANISMS:
                raise SpecError(
                    f"unknown mechanism {mechanism!r} "
                    f"(choose from {MECHANISMS})"
                )
        if not self.variants:
            raise SpecError("spec lists no config variants")
        for variant, overrides in self.variants.items():
            unknown = set(overrides) - OVERRIDABLE_FIELDS
            if unknown:
                raise SpecError(
                    f"variant {variant!r} overrides unknown/locked "
                    f"CampaignConfig fields: {sorted(unknown)}"
                )
        if self.trials < 1:
            raise SpecError("trials must be >= 1")
        if self.budget_ns < 1 or self.measure_every_ns < 1:
            raise SpecError("budget_ns and measure_every_ns must be >= 1")
        if self.n_workers < 1:
            raise SpecError("n_workers must be >= 1")

    # -- derivations ----------------------------------------------------

    @property
    def arms(self) -> list[Arm]:
        """All (mechanism, variant) comparison arms, in spec order."""
        return [
            Arm(
                mechanism=mechanism,
                variant=variant,
                overrides=tuple(sorted(overrides.items())),
            )
            for mechanism in self.mechanisms
            for variant, overrides in sorted(self.variants.items())
        ]

    def trial_seed(self, target: str, trial_index: int) -> int:
        """Seed for (target, trial): identical across arms so every arm
        replays the same mutation schedule (paired comparison)."""
        digest = 0
        for ch in f"{target}:{trial_index}".encode():
            digest = (digest * 33 + ch) & 0x7FFFFFFF
        return self.base_seed + digest

    def enumerate_trials(self) -> list[TrialSpec]:
        """Every trial of the matrix, in deterministic order."""
        sync_every = self.sync_every_ns or self.measure_every_ns
        out: list[TrialSpec] = []
        for target in self.targets:
            for arm in self.arms:
                for trial_index in range(self.trials):
                    out.append(TrialSpec(
                        trial_id=(
                            f"{target}--{arm.mechanism}--{arm.variant}"
                            f"--t{trial_index}"
                        ),
                        target=target,
                        arm=arm,
                        trial_index=trial_index,
                        seed=self.trial_seed(target, trial_index),
                        budget_ns=self.budget_ns,
                        measure_every_ns=self.measure_every_ns,
                        n_workers=self.n_workers,
                        sync_every_ns=sync_every,
                        supervised=self.supervised,
                        sentinel_digest_every=self.sentinel_digest_every,
                    ))
        return out

    # -- serialisation --------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data form (round-trips through :meth:`from_dict`)."""
        return {
            "name": self.name,
            "targets": list(self.targets),
            "mechanisms": list(self.mechanisms),
            "trials": self.trials,
            "budget_ns": self.budget_ns,
            "measure_every_ns": self.measure_every_ns,
            "base_seed": self.base_seed,
            "variants": {k: dict(v) for k, v in self.variants.items()},
            "n_workers": self.n_workers,
            "sync_every_ns": self.sync_every_ns,
            "supervised": self.supervised,
            "sentinel_digest_every": self.sentinel_digest_every,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Build (and validate) a spec from its plain-data form."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SpecError(f"unknown spec fields: {sorted(unknown)}")
        if "name" not in data:
            raise SpecError("spec needs a name")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentSpec":
        """Load a spec from a JSON file; an unreadable or malformed file
        is a :class:`SpecError`."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as error:
            raise SpecError(f"cannot load spec {path!r}: {error}") from error
        return cls.from_dict(data)

    def canonical_json(self) -> str:
        """Key-sorted, whitespace-free JSON — the digestable form."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """sha256 of the canonical JSON: the experiment's identity."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()
