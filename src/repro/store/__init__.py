"""repro.store — the durable-storage plane.

Every byte this repository persists — campaign checkpoints (RPRCKPT1),
the service job journal, experiment result streams, corpus payloads —
crosses one of three primitives here, and therefore inherits one
durability stack and one chaos seam:

- :func:`atomic_write` / :func:`write_framed` — crash-consistent
  replace (temp + fsync + rename + parent-dir fsync) with CRC32
  framing and rotating generations;
- :class:`AppendLog` — torn-tail-tolerant canonical-JSONL streams;
- :class:`CorpusStore` — a content-addressed (sha256) object store
  with refcounted cross-campaign dedup, afl-cmin distillation,
  pruning, and a bit-rot scrub/repair pass.

The disk-fault half of the chaos plane (``FaultPlan.DISK_SITES``)
injects through these primitives alone — arm an injector process-wide
with :func:`install_disk_faults` / :func:`disk_chaos` and every store
in the process inherits the fault plan.  ``python -m repro.store fsck``
walks a state tree, reports corruption, and repairs what is repairable.
"""

from repro.store.errors import (
    FrameError,
    LogCorruption,
    ObjectCorruption,
    StoreError,
)
from repro.store.framed import (
    frame,
    read_framed,
    write_framed,
)
from repro.store.fsck import Finding, FsckReport, fsck_tree
from repro.store.io import (
    DISK_FAULT_SITES,
    atomic_write,
    clear_disk_faults,
    disk_chaos,
    fsync_dir,
    generation_path,
    install_disk_faults,
    is_temp_artifact,
    rotate_generations,
)
from repro.store.log import AppendLog, LogDamage, canonical_line
from repro.store.objects import (
    STORE_MARKER,
    CorpusStore,
    ScrubReport,
    object_digest,
    open_store,
)

__all__ = [
    "AppendLog",
    "CorpusStore",
    "DISK_FAULT_SITES",
    "Finding",
    "FrameError",
    "FsckReport",
    "LogCorruption",
    "LogDamage",
    "ObjectCorruption",
    "STORE_MARKER",
    "ScrubReport",
    "StoreError",
    "atomic_write",
    "canonical_line",
    "clear_disk_faults",
    "disk_chaos",
    "frame",
    "fsck_tree",
    "fsync_dir",
    "generation_path",
    "install_disk_faults",
    "is_temp_artifact",
    "object_digest",
    "open_store",
    "read_framed",
    "rotate_generations",
    "write_framed",
]
