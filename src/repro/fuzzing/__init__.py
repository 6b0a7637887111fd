"""AFL++-style coverage-guided fuzzer built on the executor interface."""

from repro.fuzzing.campaign import (
    Campaign,
    CampaignConfig,
    CampaignResult,
)
from repro.fuzzing.checkpoint import (
    CheckpointError,
    capture_state,
    load_checkpoint,
    save_checkpoint,
    save_state,
)
from repro.fuzzing.corpus import Corpus, QueueEntry
from repro.fuzzing.i2s import (
    AutoDictionary,
    CmpObserver,
    I2SStage,
    StageStats,
    operand_encodings,
    replacement_patches,
)
from repro.fuzzing.coverage import (
    VirginMap,
    classify,
    coverage_signature,
)
from repro.fuzzing.mutators import (
    HavocMutator,
    deterministic_mutations,
)
from repro.fuzzing.triage import (
    CrashIdentity,
    CrashReport,
    CrashTriage,
    HangReport,
)

__all__ = [
    "Campaign", "CampaignConfig", "CampaignResult",
    "CheckpointError", "capture_state", "load_checkpoint",
    "save_checkpoint", "save_state",
    "Corpus", "QueueEntry",
    "AutoDictionary", "CmpObserver", "I2SStage", "StageStats",
    "operand_encodings", "replacement_patches",
    "VirginMap", "classify", "coverage_signature",
    "HavocMutator", "deterministic_mutations",
    "CrashIdentity", "CrashReport", "CrashTriage", "HangReport",
]
