"""Multi-worker parallel fuzzing campaigns with deterministic sync.

This package shards one fuzzing campaign across N workers — AFL++'s
main/secondary topology — each running a full single-campaign stack
(own virtual clock, own executor ladder, own corpus) and exchanging
interesting inputs at deterministic sync barriers.  For a fixed
``(seed, n_workers, sync_every_ns)`` the merged result — coverage map,
corpus hashes, crash set — is bit-identical across runs, whether the
workers run inline in one process or as spawned OS processes.

- :mod:`repro.parallel.orchestrator` — the campaign recipe
  (:class:`ParallelConfig`) and :func:`open_campaign`, which opens it
  as one :class:`~repro.fuzzing.Campaign` or a fleet; the fleet, driven
  a sync round at a time through a single campaign's driver surface;
  transports, worker replacement, coordinated checkpoint/resume.
- :mod:`repro.parallel.sync` — the hub: novelty-keyed input exchange
  with content-hash dedup and FIFO backpressure.
- :mod:`repro.parallel.worker` — one shard: the fleet's recipe plus a
  shard id, runtime, the spawn-safe process entry point.
- :mod:`repro.parallel.reporter` — merged AFL-style stats.

Run ``python -m repro.fuzzing --target md4c --workers 4 --seed 7``
for the CLI.
"""

from repro.parallel.orchestrator import (
    InlineTransport,
    ParallelCampaign,
    ParallelConfig,
    ParallelResult,
    ProcessTransport,
    open_campaign,
)
from repro.parallel.reporter import MERGED_PLOT_HEADER, ParallelReporter
from repro.parallel.sync import RoundReport, SyncCandidate, SyncHub, SyncStats
from repro.parallel.worker import (
    WorkerConfig,
    WorkerFinal,
    WorkerRuntime,
    derive_worker_seed,
    worker_process_main,
)

__all__ = [
    "InlineTransport", "ParallelCampaign", "ParallelConfig",
    "ParallelResult", "ProcessTransport", "open_campaign",
    "MERGED_PLOT_HEADER", "ParallelReporter",
    "RoundReport", "SyncCandidate", "SyncHub", "SyncStats",
    "WorkerConfig", "WorkerFinal", "WorkerRuntime",
    "derive_worker_seed", "worker_process_main",
]
